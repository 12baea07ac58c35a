"""repro.exec — the parallel experiment engine.

Separates every experiment driver into *enumerate* (build picklable
:class:`ScenarioSpec` lists) and *reduce* (fold the returned
:class:`RunSummary` list into figure/table rows), with the engine in
between handling multiprocess fan-out (``--jobs`` / ``REPRO_JOBS``)
and the content-addressed run cache (``--cache-dir`` /
``REPRO_CACHE_DIR``).  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.cache import CACHE_FORMAT, RunCache, cache_key, code_fingerprint
    from repro.exec.engine import (
        FLEET_TRACE_ENV,
        FLEETPERF_ENV,
        ExecStats,
        ExperimentEngine,
        default_registry,
        resolve_jobs,
        run_specs,
    )
    from repro.exec.spec import ScenarioSpec, canonical_value
    from repro.exec.summary import RunSummary, summarize

#: Re-export -> defining submodule, resolved on first access (PEP 562)
#: so that a single paper point, which needs only ``repro.exec.spec``,
#: does not load the engine and its instruments.
_EXPORTS = {
    "CACHE_FORMAT": "cache",
    "RunCache": "cache",
    "cache_key": "cache",
    "code_fingerprint": "cache",
    "FLEET_TRACE_ENV": "engine",
    "FLEETPERF_ENV": "engine",
    "ExecStats": "engine",
    "ExperimentEngine": "engine",
    "default_registry": "engine",
    "resolve_jobs": "engine",
    "run_specs": "engine",
    "ScenarioSpec": "spec",
    "canonical_value": "spec",
    "RunSummary": "summary",
    "summarize": "summary",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
