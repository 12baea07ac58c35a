"""The one-shot QA gate: ``python -m repro.qa [paths]``.

Runs, in order:

1. **simlint** over the source tree — the file rules and the
   whole-program SL010/SL011 (always),
2. a **SimSan smoke run** — one small scenario with every runtime
   invariant armed (always),
3. the **double-run determinism check** (always),
4. **mypy** and **ruff** per the pyproject config — *only when the
   tools are importable*; environments without them report SKIPPED
   rather than failing.

Exit status is non-zero iff any executed step fails; skipped steps
never fail the gate.  ``make qa`` and the CI ``sanitize`` job both land
here.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple


def _step_lint(paths: List[str]) -> Tuple[bool, str]:
    from repro.qa.lint import lint_paths
    from repro.qa.findings import render_text

    findings = lint_paths(paths)
    if findings:
        return False, render_text(findings)
    return True, "clean"


def _step_simsan_smoke(paths: List[str]) -> Tuple[bool, str]:
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import Scenario
    from repro.qa.simsan import SimSan

    san = SimSan(mode="collect")
    run_scenario(
        Scenario.paper_topology(1, duration=1.0, seed=3, scale=0.05),
        instruments=[san],
    )
    if san.violations:
        detail = "\n".join(f"[{v.kind}] t={v.time:.6f}: {v.message}" for v in san.violations)
        return False, detail
    return True, f"{san.events_seen} events, all invariants held"


def _step_determinism(paths: List[str]) -> Tuple[bool, str]:
    from repro.experiments.scenario import Scenario
    from repro.qa.determinism import check_scenario

    report = check_scenario(
        Scenario.paper_topology(1, duration=1.0, seed=3, scale=0.05),
        label="smoke",
    )
    return report.ok, report.describe()


def _tool_available(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


def _run_tool(argv: List[str]) -> Tuple[bool, str]:
    proc = subprocess.run(argv, capture_output=True, text=True)
    output = (proc.stdout + proc.stderr).strip()
    return proc.returncode == 0, output or f"exit {proc.returncode}"


def _step_mypy(paths: List[str]) -> Optional[Tuple[bool, str]]:
    if not _tool_available("mypy"):
        return None
    return _run_tool([sys.executable, "-m", "mypy"])


def _step_ruff(paths: List[str]) -> Optional[Tuple[bool, str]]:
    if not _tool_available("ruff"):
        return None
    return _run_tool([sys.executable, "-m", "ruff", "check"] + paths)


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    default_root = Path(__file__).resolve().parents[1]  # src/repro
    paths = args or [str(default_root)]

    steps: List[Tuple[str, Callable]] = [
        ("simlint", _step_lint),
        ("simsan-smoke", _step_simsan_smoke),
        ("determinism", _step_determinism),
        ("mypy", _step_mypy),
        ("ruff", _step_ruff),
    ]
    failed = False
    for name, step in steps:
        result = step(paths)
        if result is None:
            print(f"[SKIP] {name}: tool not installed")
            continue
        ok, detail = result
        status = "ok" if ok else "FAIL"
        head, *rest = (detail.splitlines() or [""])
        print(f"[{status:>4}] {name}: {head}")
        for line in rest:
            print(f"       {line}")
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
