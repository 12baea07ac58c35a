"""Append-only run history and the metric-drift regression gate.

Every :meth:`~repro.exec.engine.ExperimentEngine.run_specs` call with a
history directory configured (``--history-dir`` / ``REPRO_HISTORY_DIR``)
appends one JSON line to ``<dir>/history.jsonl``:

.. code-block:: json

    {"sequence": 3, "timestamp": 1722950000.0, "figure": "fig6",
     "jobs": 4, "wall_seconds": 12.5,
     "specs": [{"fingerprint": "…", "label": "topo-1", "scheme": "tactic",
                "seed": 1, "cached": false, "wall_seconds": 1.2,
                "metrics": {"client_received": 940, "…": "…"}}]}

Specs are identified by a BLAKE2 fingerprint of their canonical JSON
(*without* the code fingerprint — history exists precisely to compare
results *across* code changes), and ``metrics`` is the summary's full
deterministic :meth:`~repro.exec.summary.RunSummary.metrics_dict`.

``python -m repro.obs.history diff`` compares the latest entry for a
figure against a baseline (the previous entry by default), failing on
any metric drift beyond ``--tolerance`` (relative; default exact) or a
wall-clock regression beyond ``--wall-tolerance`` percent.  ``make
regress`` wires this into CI.  Exit status: 0 clean, 1 drift found,
2 no verdict (usage error, too few entries, or a corrupt history line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "HISTORY_DIR_ENV",
    "HISTORY_FILE",
    "HistoryError",
    "RunHistory",
    "diff_entries",
    "host_metadata",
    "main",
    "spec_fingerprint",
]

HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"
HISTORY_FILE = "history.jsonl"


def host_metadata() -> Dict[str, Any]:
    """The execution host, as recorded next to every benchmark number.

    Timings are meaningless across interpreters or machines, so the
    ``BENCH_*.json`` documents, perfbench results and the perf gate's
    result carry this dict.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def spec_fingerprint(spec: Any) -> str:
    """BLAKE2 over the spec's canonical JSON (code-independent)."""
    blob = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=12).hexdigest()


class HistoryError(ValueError):
    """A history file line that is not a JSON entry (e.g. truncated)."""


class RunHistory:
    """One directory's append-only ``history.jsonl``."""

    def __init__(self, directory: Any) -> None:
        self.directory = Path(directory)
        self.path = self.directory / HISTORY_FILE

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(
        self,
        figure: str,
        jobs: int,
        wall_seconds: float,
        specs: Sequence[Any],
        summaries: Sequence[Any],
        timestamp: Optional[float] = None,
    ) -> dict:
        """Record one engine run; returns the appended entry."""
        entry = {
            "sequence": self._next_sequence(),
            "timestamp": time.time() if timestamp is None else timestamp,
            "figure": figure,
            "jobs": jobs,
            "wall_seconds": wall_seconds,
            "specs": [
                {
                    "fingerprint": spec_fingerprint(spec),
                    "label": summary.label,
                    "scheme": summary.scheme,
                    "seed": summary.seed,
                    "cached": summary.cached,
                    "wall_seconds": summary.wall_seconds,
                    "metrics": self._spec_metrics(summary),
                }
                for spec, summary in zip(specs, summaries)
            ],
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")
        return entry

    @staticmethod
    def _spec_metrics(summary: Any) -> Dict[str, Any]:
        """The summary's deterministic metrics, with the decision-audit
        misauthorization rates folded in when auditing was on — so the
        regression gate also fails on misauthorization drift — and the
        statescope ``state.*``/``mem.*``/``model.*`` series when the
        state observatory was on, so state-footprint growth and
        capacity-model drift gate alongside figure values."""
        metrics = dict(summary.metrics_dict())
        audit = summary.instruments.get("audit")
        if audit:
            from repro.obs.audit import audit_metrics

            metrics.update(audit_metrics(audit))
        statescope = summary.instruments.get("statescope")
        if statescope:
            from repro.obs.statescope import statescope_metrics

            metrics.update(statescope_metrics(statescope))
        return metrics

    def _next_sequence(self) -> int:
        entries = self.entries()
        return entries[-1]["sequence"] + 1 if entries else 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self, figure: Optional[str] = None) -> List[dict]:
        if not self.path.exists():
            return []
        out: List[dict] = []
        with open(self.path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise HistoryError(
                        f"{self.path}:{number}: corrupt history line ({exc})"
                    ) from exc
                if figure is None or entry.get("figure") == figure:
                    out.append(entry)
        return out

    def latest(self, figure: Optional[str] = None, offset: int = 0) -> Optional[dict]:
        """The newest entry (``offset=1`` = the one before it, …)."""
        entries = self.entries(figure)
        index = len(entries) - 1 - offset
        return entries[index] if 0 <= index < len(entries) else None

    def by_sequence(self, sequence: int) -> Optional[dict]:
        for entry in self.entries():
            if entry["sequence"] == sequence:
                return entry
        return None


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def _values_match(baseline: Any, candidate: Any, rel_tol: float) -> bool:
    if isinstance(baseline, bool) or isinstance(candidate, bool):
        return baseline == candidate
    if isinstance(baseline, (int, float)) and isinstance(candidate, (int, float)):
        if baseline == 0:
            # Relative tolerance is meaningless against a zero baseline
            # (isclose's rel_tol scales with the magnitudes, so any
            # nonzero candidate would always fail — or, with abs_tol,
            # always pass).  A zero-baseline counter must stay zero.
            return candidate == 0
        return math.isclose(baseline, candidate, rel_tol=rel_tol, abs_tol=0.0)
    if isinstance(baseline, (list, tuple)) and isinstance(candidate, (list, tuple)):
        return len(baseline) == len(candidate) and all(
            _values_match(b, c, rel_tol) for b, c in zip(baseline, candidate)
        )
    return baseline == candidate


def diff_entries(
    baseline: dict,
    candidate: dict,
    rel_tol: float = 0.0,
    wall_tol_pct: Optional[float] = None,
) -> List[str]:
    """Every way ``candidate`` drifted from ``baseline`` (empty = clean).

    Specs match by fingerprint; each matched pair compares its full
    ``metrics`` dict with relative tolerance ``rel_tol``.  With
    ``wall_tol_pct`` set, the entry-level wall clock may grow at most
    that many percent over the baseline.
    """
    problems: List[str] = []
    base_specs = {spec["fingerprint"]: spec for spec in baseline["specs"]}
    cand_specs = {spec["fingerprint"]: spec for spec in candidate["specs"]}
    for fingerprint in sorted(set(base_specs) - set(cand_specs)):
        problems.append(
            f"spec {base_specs[fingerprint]['label'] or fingerprint}: "
            f"missing from candidate"
        )
    for fingerprint in sorted(set(cand_specs) - set(base_specs)):
        problems.append(
            f"spec {cand_specs[fingerprint]['label'] or fingerprint}: "
            f"missing from baseline"
        )
    for fingerprint in sorted(set(base_specs) & set(cand_specs)):
        base, cand = base_specs[fingerprint], cand_specs[fingerprint]
        name = base["label"] or fingerprint
        keys = set(base["metrics"]) | set(cand["metrics"])
        for key in sorted(keys):
            if key not in base["metrics"] or key not in cand["metrics"]:
                problems.append(f"spec {name}: metric {key} present on one side only")
                continue
            before, after = base["metrics"][key], cand["metrics"][key]
            if not _values_match(before, after, rel_tol):
                problems.append(
                    f"spec {name}: {key} drifted {before!r} -> {after!r}"
                )
    if wall_tol_pct is not None:
        before = baseline.get("wall_seconds", 0.0)
        after = candidate.get("wall_seconds", 0.0)
        if before > 0.0 and after > before * (1.0 + wall_tol_pct / 100.0):
            problems.append(
                f"wall clock regressed {before:.3f}s -> {after:.3f}s "
                f"(> {wall_tol_pct:g}% budget)"
            )
    return problems


# ----------------------------------------------------------------------
# CLI (python -m repro.obs.history)
# ----------------------------------------------------------------------
def _resolve_dir(arg: Optional[str]) -> Optional[str]:
    if arg:
        return arg
    return os.environ.get(HISTORY_DIR_ENV, "").strip() or None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Inspect and diff the experiment run history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("list", help="list recorded entries")
    show.add_argument("--history-dir", default=None,
                      help=f"history directory (default: ${HISTORY_DIR_ENV})")
    show.add_argument("--figure", default=None, help="filter by figure name")

    diff = sub.add_parser("diff", help="compare the latest run to a baseline")
    diff.add_argument("--history-dir", default=None,
                      help=f"history directory (default: ${HISTORY_DIR_ENV})")
    diff.add_argument("--figure", default=None, help="filter by figure name")
    diff.add_argument("--baseline", type=int, default=None, metavar="SEQ",
                      help="baseline sequence number (default: previous entry)")
    diff.add_argument("--tolerance", type=float, default=0.0,
                      help="relative metric tolerance (default: exact match)")
    diff.add_argument("--wall-tolerance", type=float, default=None, metavar="PCT",
                      help="max wall-clock growth in percent (default: ignore)")

    args = parser.parse_args(argv)
    directory = _resolve_dir(args.history_dir)
    if directory is None:
        print(f"error: no history directory (--history-dir or ${HISTORY_DIR_ENV})",
              file=sys.stderr)
        return 2
    try:
        return _command(args, RunHistory(directory))
    except HistoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _command(args: argparse.Namespace, history: RunHistory) -> int:
    if args.command == "list":
        for entry in history.entries(args.figure):
            print(
                f"#{entry['sequence']:<4} {entry['figure'] or '-':<8} "
                f"{len(entry['specs'])} specs  "
                f"{entry['wall_seconds']:.3f}s  jobs={entry['jobs']}"
            )
        return 0

    candidate = history.latest(args.figure)
    if candidate is None:
        print("error: history has no entries", file=sys.stderr)
        return 2
    if args.baseline is not None:
        baseline = history.by_sequence(args.baseline)
        if baseline is None:
            print(f"error: no entry with sequence {args.baseline}", file=sys.stderr)
            return 2
    else:
        baseline = history.latest(args.figure, offset=1)
        if baseline is None:
            print("error: need at least two entries to diff", file=sys.stderr)
            return 2

    problems = diff_entries(
        baseline, candidate,
        rel_tol=args.tolerance, wall_tol_pct=args.wall_tolerance,
    )
    label = args.figure or "all figures"
    if problems:
        print(f"history diff ({label}): #{baseline['sequence']} -> "
              f"#{candidate['sequence']}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"history diff ({label}): #{baseline['sequence']} -> "
          f"#{candidate['sequence']}: identical within tolerance")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
