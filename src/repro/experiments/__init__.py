"""Experiment harness: scenarios, the runner, and per-artifact modules.

One module per paper artifact regenerates its rows/series:

==========  ====================================================
Artifact    Module
==========  ====================================================
Fig. 5      :mod:`repro.experiments.fig5_latency`
Fig. 6      :mod:`repro.experiments.fig6_tag_rates`
Fig. 7      :mod:`repro.experiments.fig7_operations`
Fig. 8      :mod:`repro.experiments.fig8_bf_reset`
Table II    :mod:`repro.experiments.table2_comparison`
Table IV    :mod:`repro.experiments.table4_delivery`
Table V     :mod:`repro.experiments.table5_bf_resets`
==========  ====================================================
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.experiments.runner import (
        RunResult,
        SCHEME_REGISTRY,
        build_assembly,
        run_scenario,
    )
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweeps import SweepSpec, aggregate, render_sweep, run_sweep

#: Re-export -> defining module, resolved on first access (PEP 562) so
#: ``repro.experiments.runner`` loads without the sweep engine.
_EXPORTS = {
    "RunResult": "runner",
    "SCHEME_REGISTRY": "runner",
    "build_assembly": "runner",
    "run_scenario": "runner",
    "Scenario": "scenario",
    "SweepSpec": "sweeps",
    "aggregate": "sweeps",
    "render_sweep": "sweeps",
    "run_sweep": "sweeps",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
