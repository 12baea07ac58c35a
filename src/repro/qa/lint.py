"""simlint: the scanner, suppression handling, and CLI.

Usage::

    python -m repro.qa.lint src/repro              # text report, exit 1 on findings
    python -m repro.qa.lint src/repro --format json
    python -m repro.qa.lint src/repro --format sarif > simlint.sarif
    python -m repro.qa.lint src/repro --jobs 4
    python -m repro.qa.lint --list-rules
    python -m repro.qa.lint src/repro --select SL002,SL004

Suppression: append ``# simlint: disable=SL001`` (comma-separate for
several codes, omit ``=...`` to disable every rule) to the flagged
line.  Suppressions are expected to carry a justifying comment — the
reviewer's contract, not the tool's.

Each file is parsed exactly once; rules iterate a shared
:class:`~repro.qa.rules.NodeIndex` built in one walk of that tree.
Registry-dependent rules (:class:`~repro.qa.rules.ContextRule`) split
into a per-file *collect* phase and a cross-file *judge* phase, so
``--jobs N`` can fan the per-file work out to worker processes and
judge the returned candidates against the merged registries in the
parent — serial and parallel runs share one implementation of every
rule.
"""

from __future__ import annotations

import argparse
import ast
import json
import multiprocessing
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.qa.findings import Finding, render_text, sort_findings
from repro.qa.rules import (
    ALL_RULES,
    Candidate,
    ContextRule,
    LintContext,
    Module,
    Rule,
    RULES_BY_CODE,
)
from repro.qa.sarif import render_sarif

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?:=(?P<codes>[A-Za-z0-9_,\s]+))?"
)

#: Sentinel for "every rule disabled on this line".
_ALL_CODES = frozenset({"*"})


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    return out


def parse_suppressions(source: str) -> Dict[int, frozenset]:
    """Map line number -> set of disabled rule codes ('*' = all)."""
    out: Dict[int, frozenset] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = _ALL_CODES
        else:
            out[lineno] = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
    return out


def load_module(path: Path) -> Tuple[Optional[Module], Optional[Finding]]:
    """Parse one file; a syntax error becomes a synthetic finding."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule="SL000",
            message=f"syntax error: {exc.msg}",
        )
    return Module(path=str(path), source=source, tree=tree), None


@dataclass
class FileScan:
    """Everything one worker learns about one file.

    Context-free findings are final; candidates await judgement against
    the merged registries.  The payload is picklable, so the same shape
    crosses the ``--jobs`` process boundary and feeds the serial path.
    """

    path: str
    findings: List[Finding] = field(default_factory=list)
    candidates: List[Candidate] = field(default_factory=list)
    suppressions: Dict[int, frozenset] = field(default_factory=dict)
    events: Set[str] = field(default_factory=set)
    metrics: Set[str] = field(default_factory=set)
    decisions: Set[str] = field(default_factory=set)
    fleet_phases: Set[str] = field(default_factory=set)
    statescope: Set[str] = field(default_factory=set)


def scan_file(
    path: Path,
    select: Optional[FrozenSet[str]],
    rules: Sequence[Rule] = ALL_RULES,
) -> FileScan:
    """Parse + index one file; run context-free rules, collect the rest."""
    scan = FileScan(path=str(path))
    module, error = load_module(path)
    if error is not None:
        scan.findings.append(error)
    if module is None:
        return scan
    scan.suppressions = parse_suppressions(module.source)
    registries = LintContext()
    registries.merge_registries(module)
    scan.events = registries.declared_events
    scan.metrics = registries.declared_metrics
    scan.decisions = registries.declared_decisions
    scan.fleet_phases = registries.declared_fleet_phases
    scan.statescope = registries.declared_statescope
    empty_ctx = LintContext()
    for rule in rules:
        if select is not None and rule.code not in select:
            continue
        if not rule.applies_to(module):
            continue
        if isinstance(rule, ContextRule):
            scan.candidates.extend(rule.collect(module))
        else:
            scan.findings.extend(rule.check(module, empty_ctx))
    return scan


def _scan_worker(item: Tuple[str, Optional[FrozenSet[str]]]) -> FileScan:
    path_str, select = item
    return scan_file(Path(path_str), select)


def _judge_and_filter(
    scans: Sequence[FileScan], select: Optional[FrozenSet[str]]
) -> List[Finding]:
    """Merge registries, judge candidates, apply suppressions, sort."""
    ctx = LintContext()
    for scan in scans:
        ctx.declared_events |= scan.events
        ctx.declared_metrics |= scan.metrics
        ctx.declared_decisions |= scan.decisions
        ctx.declared_fleet_phases |= scan.fleet_phases
        ctx.declared_statescope |= scan.statescope

    findings: List[Finding] = []
    for scan in scans:
        findings.extend(scan.findings)
        for cand in scan.candidates:
            rule = RULES_BY_CODE.get(cand.rule)
            if rule is None or not isinstance(rule, ContextRule):
                continue
            if select is not None and rule.code not in select:
                continue
            finding = rule.judge(cand, ctx)
            if finding is not None:
                findings.append(finding)

    by_path = {scan.path: scan.suppressions for scan in scans}
    return sort_findings(
        f for f in findings if not _suppressed(f, by_path.get(f.path, {}))
    )


def lint_paths(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
    rules: Sequence[Rule] = ALL_RULES,
    jobs: int = 1,
) -> List[Finding]:
    """Run the rule set over ``paths`` and return surviving findings.

    ``jobs > 1`` fans per-file scans out to worker processes; custom
    ``rules`` sequences force a serial run (workers only know the
    registered rule set).
    """
    selected = frozenset(select) if select is not None else None
    files = iter_python_files(paths)
    if jobs > 1 and rules is ALL_RULES and len(files) > 1:
        items = [(str(path), selected) for path in files]
        with multiprocessing.Pool(processes=jobs) as pool:
            scans = pool.map(_scan_worker, items)
    else:
        scans = [scan_file(path, selected, rules) for path in files]
    return _judge_and_filter(scans, selected)


def _suppressed(finding: Finding, by_line: Dict[int, frozenset]) -> bool:
    codes = by_line.get(finding.line)
    if codes is None:
        return False
    return codes is _ALL_CODES or "*" in codes or finding.rule in codes


def rule_catalogue() -> Dict[str, Tuple[str, str]]:
    """Rule code -> (title, first doc line), for the SARIF driver."""
    catalogue: Dict[str, Tuple[str, str]] = {
        "SL000": ("syntax error", "the file failed to parse")
    }
    for rule in ALL_RULES:
        doc = (rule.__doc__ or rule.title).strip().splitlines()[0]
        catalogue[rule.code] = (rule.title, doc)
    return catalogue


def list_rules() -> str:
    lines = ["simlint rules:"]
    for rule in ALL_RULES:
        lines.append(f"  {rule.code}  {rule.title}")
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        lines.append(f"         {doc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.qa.lint",
        description="Simulator-specific static analysis (simlint).",
    )
    parser.add_argument(
        "paths", nargs="*", default=[], help="files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the per-file scan (0 = cpu count)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    if not args.paths:
        print("usage: python -m repro.qa.lint <paths> (or --list-rules)",
              file=sys.stderr)
        return 2
    select: Optional[Set[str]] = None
    if args.select:
        select = {code.strip().upper() for code in args.select.split(",")}
        unknown = select - set(RULES_BY_CODE)
        if unknown:
            print(f"unknown rule codes: {sorted(unknown)}", file=sys.stderr)
            return 2
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    started = time.perf_counter()
    findings = lint_paths(args.paths, select=select, jobs=jobs)
    wall = time.perf_counter() - started
    if args.format == "sarif":
        print(render_sarif(findings, tool_name="simlint", rules=rule_catalogue()))
    elif args.format == "json":
        payload = {
            "findings": [asdict(f) for f in findings],
            "stats": {
                "findings": len(findings),
                "files": len(iter_python_files(args.paths)),
                "jobs": jobs,
                "wall_seconds": round(wall, 4),
            },
        }
        print(json.dumps(payload, indent=2))
    elif findings:
        print(render_text(findings))
    else:
        print("simlint: clean")
    if findings:
        print(f"\n{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
