"""SL011 — interprocedural determinism taint.

Lexical SL001/SL002 flag a literal ``time.time()`` inside a
sim-affecting module.  What they cannot see is *laundering*: a helper
in a non-sim module that wall-clocks, called (possibly through more
helpers) from sim-scheduled code; an alias (``clock = time.time``); a
source evaluated in a default argument; or one buried in a lambda.

The analysis: every function with a direct determinism source is
tainted, and taint propagates to callers over **precise** call edges
only (bare names, import bindings, ``self.`` within the class
hierarchy) — name-union edges would chain unrelated same-named
methods into false positives.  Findings are reported at the
*boundary*: a sim-scope function calling a tainted function that lives
outside sim scope (with the full chain down to the source), plus
direct non-plain uses (alias / default-arg / lambda) inside sim scope.
Plain direct calls in sim scope are left to SL001/SL002 so each leak
is reported exactly once.

Sanctioned modules neither source nor carry taint: ``sim/rng.py`` (the
seeded-stream façade — deliberate, reviewed entropy) and the ``obs/``
observability layer (wall-clock profiling is its job; sim code calls
it for accounting, never for simulated time).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.qa.findings import Finding
from repro.qa.flow.callgraph import FuncKey, Program
from repro.qa.rules import SIM_AFFECTING_PREFIXES, ProgramRule

#: Modules allowed to touch wall clocks / OS entropy.
SANCTIONED_EXACT = frozenset({"sim/rng.py"})
SANCTIONED_PREFIXES = ("obs/",)

#: ``via`` values SL001/SL002 already handle — skip in sim scope.
_LEXICALLY_VISIBLE = frozenset({"call"})


def _sanctioned(relpath: str) -> bool:
    return relpath in SANCTIONED_EXACT or relpath.startswith(
        SANCTIONED_PREFIXES
    )


def _sim_scope(relpath: str) -> bool:
    """Mirrors the simlint scope rule: sim-affecting package prefixes,
    plus bare filenames (fixtures) which are always in scope."""
    return relpath.startswith(SIM_AFFECTING_PREFIXES) or "/" not in relpath


def _taint_chains(program: Program) -> Dict[FuncKey, Tuple[str, ...]]:
    """Function -> human-readable chain from it down to a source."""
    chains: Dict[FuncKey, Tuple[str, ...]] = {}
    worklist: List[FuncKey] = []
    for key, func in program.functions.items():
        relpath, _ = key
        if _sanctioned(relpath):
            continue
        if func.sources:
            src = func.sources[0]
            chains[key] = (
                f"{func.qualname} ({relpath}:{src.line}) uses "
                f"{src.source} [{src.via}]",
            )
            worklist.append(key)

    callers = program.precise_callers()
    while worklist:
        key = worklist.pop()
        for caller_key in callers.get(key, ()):
            if caller_key in chains:
                continue
            caller_relpath, _ = caller_key
            if _sanctioned(caller_relpath):
                continue
            caller = program.functions[caller_key]
            callee = program.functions[key]
            chains[caller_key] = (
                f"{caller.qualname} ({caller_relpath}) calls "
                f"{callee.qualname}",
            ) + chains[key]
            worklist.append(caller_key)
    return chains


class TaintRule(ProgramRule):
    """SL011: no determinism source may reach sim code through helpers.

    Wall-clock, entropy and stdlib-random sources must not flow into
    sim-scheduled code interprocedurally, nor through aliases, default
    arguments or lambdas (see the module docstring).
    """

    code = "SL011"
    title = "determinism taint"

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        chains = _taint_chains(program)

        for key, func in sorted(program.functions.items()):
            relpath, _ = key
            if not _sim_scope(relpath) or _sanctioned(relpath):
                continue
            mod = program.modules[relpath]

            # Direct uses lexical rules cannot see.
            for src in func.sources:
                if src.via in _LEXICALLY_VISIBLE:
                    continue
                findings.append(
                    Finding(
                        path=mod.path,
                        line=src.line,
                        col=src.col,
                        rule="SL011",
                        message=(
                            f"determinism source {src.source} reaches "
                            f"sim-scheduled code in {func.qualname} via "
                            f"{src.via} — route it through the seeded RNG "
                            f"registry (sim/rng.py) or the sim clock"
                        ),
                    )
                )

            # Boundary crossings: sim scope -> tainted non-sim callee.
            seen_targets: Set[FuncKey] = set()
            for call in func.calls:
                for target in program.resolve_precise(key, call.name):
                    if target in seen_targets:
                        continue
                    seen_targets.add(target)
                    target_relpath, _ = target
                    if _sim_scope(target_relpath):
                        continue  # inner boundary reports it instead
                    chain = chains.get(target)
                    if chain is None:
                        continue
                    findings.append(
                        Finding(
                            path=mod.path,
                            line=call.line,
                            col=call.col,
                            rule="SL011",
                            message=(
                                f"{func.qualname} launders a determinism "
                                f"source through {call.name}: "
                                + " -> ".join(chain)
                            ),
                        )
                    )
        return findings
