"""SL010 — enforcement-path dominance over the TACTIC router modules.

The TACTIC property: no Data/NACK leaves a router unless an
enforcement decision dominates the transmission on *every* CFG path.
A transmission site is discharged when one of these dominates it:

- an **enforcement primitive** call (BF lookup/insert, signature
  verify, the edge/content prechecks, ``record_decision`` with a
  literal kind — SL008 separately polices registry membership);
- a **protocol-state guard** branch test (``.nack`` / ``.access_level``
  inspection, ``is_tag_response()`` / ``is_registration()``), which
  honours a decision made upstream and carried in the packet;
- a call to an **enforcing function** — one whose own exit is
  dominated by a primitive/guard (computed as a fixpoint, so chains of
  helpers count: this is the "call-graph summary").

A site discharged by none of those propagates its obligation to the
enclosing function's callers: every call site of that function must
itself be dominated.  Callers are resolved by *name union* (every
project method with the same terminal name) so an obligation is never
dropped by a resolution miss.  A function with no project callers is a
framework entry point (``on_interest``/``on_data``) — the obligation
has nowhere left to go and becomes a finding naming the original
transmission site and what was missing.  Call cycles discharge
optimistically (the obligation re-enters the cycle's entry edge).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.qa.findings import Finding
from repro.qa.flow.callgraph import FuncKey, Program
from repro.qa.flow.model import SendSite
from repro.qa.rules import ProgramRule

#: Modules whose transmission sites carry the SL010 obligation.  Bare
#: filenames (test fixtures outside any package) are always in scope.
ROUTER_MODULES = frozenset(
    {
        "core/edge_router.py",
        "core/content_router.py",
        "core/intermediate_router.py",
        "core/core_router.py",
    }
)

#: Packet kinds that carry content or denial — Interests don't serve.
_GUARDED_PACKETS = frozenset({"data", "nack", "unknown"})


def _in_scope(relpath: str) -> bool:
    return relpath in ROUTER_MODULES or "/" not in relpath


def _enforcing_functions(program: Program) -> Set[FuncKey]:
    """Fixpoint: exit dominated by a primitive/guard, or by a call to
    an already-enforcing function."""
    enforcing: Set[FuncKey] = {
        key
        for key, func in program.functions.items()
        if func.exit_prims or func.exit_guards
    }
    changed = True
    while changed:
        changed = False
        enforcing_names = {
            program.functions[key].name for key in enforcing
        }
        for key, func in program.functions.items():
            if key in enforcing:
                continue
            if any(name in enforcing_names for name in func.exit_calls):
                enforcing.add(key)
                changed = True
    return enforcing


def _site_guarded(
    prims: Tuple[str, ...],
    guards: Tuple[str, ...],
    calls: Tuple[str, ...],
    enforcing_names: Set[str],
) -> bool:
    if prims or guards:
        return True
    return any(name in enforcing_names for name in calls)


class DominanceRule(ProgramRule):
    """SL010: router Data/NACK sends must be dominated by enforcement.

    Every transmission site in the TACTIC router modules needs an
    enforcement check on every CFG path into it, through call-graph
    summaries (see the module docstring).
    """

    code = "SL010"
    title = "enforcement-path dominance"

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        enforcing = _enforcing_functions(program)
        enforcing_names = {program.functions[key].name for key in enforcing}

        for key, func in sorted(program.functions.items()):
            relpath, _ = key
            if not _in_scope(relpath):
                continue
            for site in func.send_sites:
                if site.packet not in _GUARDED_PACKETS:
                    continue
                if _site_guarded(
                    site.dom_prims, site.dom_guards, site.dom_calls, enforcing_names
                ):
                    continue
                finding = _propagate(program, key, site, enforcing_names)
                if finding is not None:
                    findings.append(finding)
        return findings


def _propagate(
    program: Program,
    origin: FuncKey,
    site: SendSite,
    enforcing_names: Set[str],
) -> "Finding | None":
    """Walk the obligation up the caller graph; a finding means some
    entry path reaches the site with no dominating enforcement."""
    visited: Set[FuncKey] = set()

    def discharged(key: FuncKey) -> Tuple[bool, str]:
        """(obligation met on every path into `key`, failure detail)."""
        if key in visited:
            return True, ""  # cycle: optimistic — entry edge re-checks
        visited.add(key)
        callers = program.union_callers(key)
        if not callers:
            func = program.functions[key]
            return (
                False,
                f"entry point {func.qualname} reaches it with no "
                "dominating enforcement check",
            )
        method = program.functions[key].name
        for caller_key in sorted(callers):
            caller = program.functions[caller_key]
            for call in caller.calls:
                if call.name.split(".")[-1] != method:
                    continue
                if _site_guarded(
                    call.dom_prims, call.dom_guards, call.dom_calls, enforcing_names
                ):
                    continue
                ok, detail = discharged(caller_key)
                if not ok:
                    return (
                        False,
                        f"via {caller.qualname} "
                        f"({caller_key[0]}:{call.line}): {detail}",
                    )
        return True, ""

    ok, detail = discharged(origin)
    if ok:
        return None
    origin_func = program.functions[origin]
    mod = program.modules[origin[0]]
    return Finding(
        path=mod.path,
        line=site.line,
        col=site.col,
        rule="SL010",
        message=(
            f"{site.packet} transmission `send(..., {site.expr})` in "
            f"{origin_func.qualname} is not dominated by an enforcement "
            f"check (BF lookup, signature verify, precheck, or "
            f"record_decision) on every path — {detail}"
        ),
    )
