"""simlint: the scanner, suppression handling, and CLI.

Usage::

    python -m repro.qa.lint src/repro              # text report, exit 1 on findings
    python -m repro.qa.lint src/repro --format json
    python -m repro.qa.lint --list-rules
    python -m repro.qa.lint src/repro --select SL002,SL004

Suppression: append ``# simlint: disable=SL001`` (comma-separate for
several codes, omit ``=...`` to disable every rule) to the flagged
line.  Suppressions are expected to carry a justifying comment — the
reviewer's contract, not the tool's.

Each file is parsed exactly once.  A first pass parses every file and
merges the names its registries declare, so the registry rules judge
call sites against declarations in any scanned file; the file rules
then iterate a shared :class:`~repro.qa.rules.NodeIndex` per file, and
the whole-program rules (:mod:`repro.qa.flow`: SL010, SL011) run last
over the same parsed trees.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.qa.findings import Finding, render_text, sort_findings
from repro.qa.flow import PROGRAM_RULES, check_program
from repro.qa.rules import FILE_RULES, LintContext, Module, ProgramRule, Rule

#: Every rule, in code order: the file rules with the whole-program
#: SL010/SL011 slotted in.
ALL_RULES: Sequence[Union[Rule, ProgramRule]] = tuple(
    sorted((*FILE_RULES, *PROGRAM_RULES), key=lambda rule: rule.code)
)
RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}

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


def load_module(path: Path) -> Union[Module, Finding]:
    """Parse one file; a syntax error becomes a synthetic finding."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule="SL000",
            message=f"syntax error: {exc.msg}",
        )
    return Module(path=str(path), source=source, tree=tree)


def lint_paths(
    paths: Iterable[str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the rule set over ``paths`` and return surviving findings."""
    selected = frozenset(select) if select is not None else None

    def wanted(rule: Union[Rule, ProgramRule]) -> bool:
        return selected is None or rule.code in selected

    findings: List[Finding] = []
    modules: List[Module] = []
    ctx = LintContext()
    for path in iter_python_files(paths):
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        modules.append(loaded)
        ctx.merge_registries(loaded)

    for module in modules:
        for rule in FILE_RULES:
            if wanted(rule) and rule.applies_to(module):
                findings.extend(rule.check(module, ctx))
    program_rules = [rule for rule in PROGRAM_RULES if wanted(rule)]
    if program_rules:
        findings.extend(check_program(modules, program_rules))

    by_path = {module.path: parse_suppressions(module.source) for module in modules}
    return sort_findings(
        f for f in findings if not _suppressed(f, by_path.get(f.path, {}))
    )


def _suppressed(finding: Finding, by_line: Dict[int, frozenset]) -> bool:
    codes = by_line.get(finding.line)
    if codes is None:
        return False
    return codes is _ALL_CODES or "*" in codes or finding.rule in codes


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
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
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
    started = time.perf_counter()
    findings = lint_paths(args.paths, select=select)
    wall = time.perf_counter() - started
    if args.format == "json":
        payload = {
            "findings": [asdict(f) for f in findings],
            "stats": {
                "findings": len(findings),
                "files": len(iter_python_files(args.paths)),
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
