"""State-footprint benchmark — the ``BENCH_memory.json`` source.

Runs the canonical fig6-scale scenario (paper topology 1; duration via
``REPRO_BENCH_MEMORY_DURATION``, default 4 virtual seconds at scale
0.2 — a documented fraction of the paper's 2000-second ns-3 runs)
under the :class:`~repro.obs.statescope.StateScope` observatory and
publishes the fleet's state footprint: per-series peaks (PIT entries,
content-store bytes, Bloom-filter fill, …), deep byte totals, the
capacity-model conformance verdicts, and any growth findings.

The document is written to ``benchmarks/results/BENCH_memory.json``
AND the repo root ``BENCH_memory.json``.  The human-readable
conformance report rides ``results/memory_footprint.txt``.
"""

from __future__ import annotations

import json
import os
import pathlib

from benchmarks.conftest import RESULTS_DIR, publish
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.statescope import (
    STATESCOPE_SERIES,
    StateScope,
    render_statescope_report,
    statescope_metrics,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent

DURATION = float(os.environ.get("REPRO_BENCH_MEMORY_DURATION", "4.0"))
SCALE = 0.2
SEED = 1


def test_memory_footprint():
    scenario = Scenario.paper_topology(1, duration=DURATION, seed=SEED, scale=SCALE)
    result = run_scenario(scenario, instruments=[StateScope(interval=1.0)])
    record = result.instruments["statescope"]

    # The observatory must have seen the whole run: every registered
    # series sampled, trends fitted, and the conformance engine run.
    assert set(record["series"]) == set(STATESCOPE_SERIES)
    assert all(row["samples"] >= 1 for row in record["series"].values())
    assert record["conformance"]["checks"]
    # The canonical scenario is leak-free and model-conformant; a
    # failure here is a real regression, not benchmark noise.
    assert record["findings"] == []
    assert record["conformance"]["pass"] is True

    metrics = statescope_metrics(record)

    from repro.obs.history import host_metadata

    document = {
        "benchmark": "memory_footprint",
        "host": host_metadata(),
        "scenario": {
            "topology": 1,
            "duration": DURATION,
            "seed": SEED,
            "scale": SCALE,
            "schemes": ["tactic"],
        },
        "series": record["series"],
        "conformance": record["conformance"],
        "findings": record["findings"],
        "deep_bytes_peak": metrics["mem.deep_bytes.peak"],
    }
    blob = json.dumps(document, indent=2, sort_keys=True) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_memory.json").write_text(blob)
    (REPO_ROOT / "BENCH_memory.json").write_text(blob)

    publish(
        "memory_footprint",
        "\n".join(
            [
                f"state footprint — paper topology 1, "
                f"{DURATION:g}s virtual @ scale {SCALE:g}",
                f"  deep bytes (peak)      {int(metrics['mem.deep_bytes.peak']):>12,}",
                f"  PIT entries (peak)     {int(metrics['state.pit.entries.peak']):>12,}",
                f"  CS bytes (peak)        {int(metrics['state.cs.bytes.peak']):>12,}",
                f"  BF bits set (peak)     {int(metrics['state.bf.bits_set.peak']):>12,}",
                "",
            ]
            + render_statescope_report(record)
        ),
    )
