"""simlint's whole-program rules: SL010 and SL011.

Where simlint's file rules (:mod:`repro.qa.rules`) read one file at a
time, these two are *interprocedural*: a per-function control-flow
graph for every function in the tree (:mod:`repro.qa.flow.cfg`), a
summary of each module as plain data (:mod:`repro.qa.flow.extract`),
and a project-wide symbol table and call graph linking the summaries
(:mod:`repro.qa.flow.callgraph`).  Over that program:

- **SL010** (:mod:`repro.qa.flow.dominance`) — every Data/NACK
  transmission site in the TACTIC router modules must be dominated by
  an enforcement decision on every CFG path, through call-graph
  summaries.
- **SL011** (:mod:`repro.qa.flow.taint`) — interprocedural
  determinism taint from wall-clock/entropy sources into sim-scheduled
  code, catching laundering through helpers, aliases, default
  arguments, and lambdas that lexical SL001/SL002 miss.

``python -m repro.qa.lint`` runs both after its file rules, over the
same parsed trees, with the same ``--select``, report formats and
``# simlint: disable=`` suppressions; docs in docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.qa.findings import Finding
from repro.qa.flow.callgraph import Program
from repro.qa.flow.dominance import DominanceRule
from repro.qa.flow.extract import extract_module
from repro.qa.flow.taint import TaintRule
from repro.qa.rules import Module, ProgramRule

#: The whole-program rules, in code order.
PROGRAM_RULES = (DominanceRule(), TaintRule())


def check_program(
    modules: Iterable[Module], rules: Iterable[ProgramRule] = PROGRAM_RULES
) -> List[Finding]:
    """Link ``modules`` into one program and run ``rules`` over it."""
    program = Program(extract_module(module) for module in modules)
    return [finding for rule in rules for finding in rule.check_program(program)]


__all__ = ["PROGRAM_RULES", "check_program"]
