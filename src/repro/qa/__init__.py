"""Correctness tooling: the ``simlint`` static analyzer and the
"SimSan" runtime sanitizer.

TACTIC's published figures depend on bit-for-bit reproducible runs:
the event schedule must be a pure function of the master seed, and the
forwarding-state invariants routers rely on (PIT record conservation,
bounded occupancy, Bloom-filter fill monotonicity) must hold on every
path.  This package makes both machine-checked:

- :mod:`repro.qa.lint` — an AST-based linter with simulator-specific
  rules, including the whole-program SL010/SL011 of
  :mod:`repro.qa.flow` (``python -m repro.qa.lint src/repro``),
- :mod:`repro.qa.simsan` — an opt-in runtime sanitizer (the
  ``simsan`` row of ``--obs``) that installs invariant hooks into the
  simulator, nodes, and tables,
- :mod:`repro.qa.determinism` — a double-run event-stream hash check,
- ``python -m repro.qa`` — the one-shot gate running all of the above.

See docs/STATIC_ANALYSIS.md for the rule catalogue and invariants.
"""

from repro.qa.findings import Finding, render_json, render_text
from repro.qa.simsan import SanitizerError, SimSan

__all__ = [
    "Finding",
    "render_json",
    "render_text",
    "SanitizerError",
    "SimSan",
]
