"""Command-line entry point: regenerate paper artifacts from the shell.

Usage::

    python -m repro list
    python -m repro table4 --topologies 1 2 --duration 20 --scale 0.25
    python -m repro fig8 --duration 40 --scale 0.25
    python -m repro all --duration 15 --scale 0.2

Every subcommand maps to one ``repro.experiments`` reproduction module
and prints the same rendered rows/series the benchmarks publish.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List

from repro.experiments.fig5_latency import render_fig5, reproduce_fig5
from repro.experiments.fig6_tag_rates import render_fig6, reproduce_fig6
from repro.experiments.fig7_operations import render_fig7, reproduce_fig7
from repro.experiments.fig8_bf_reset import render_fig8, reproduce_fig8
from repro.experiments.table2_comparison import render_table2, reproduce_table2
from repro.experiments.table4_delivery import render_table4, reproduce_table4
from repro.experiments.table5_bf_resets import render_table5, reproduce_table5
from repro.obs.export import TRACE_FORMATS


def _exec_kwargs(args) -> Dict:
    """The repro.exec engine knobs every reproduction accepts."""
    return dict(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _run_fig5(args) -> str:
    return render_fig5(
        reproduce_fig5(
            topologies=tuple(args.topologies),
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


def _run_fig6(args) -> str:
    return render_fig6(
        reproduce_fig6(
            topologies=tuple(args.topologies),
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


def _run_fig7(args) -> str:
    return render_fig7(
        reproduce_fig7(
            topologies=tuple(args.topologies),
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


def _run_fig8(args) -> str:
    return render_fig8(
        reproduce_fig8(
            topology=args.topologies[0],
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


def _run_table2(args) -> str:
    return render_table2(
        reproduce_table2(
            topology=args.topologies[0],
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


def _run_table4(args) -> str:
    return render_table4(
        reproduce_table4(
            topologies=tuple(args.topologies),
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


def _run_table5(args) -> str:
    return render_table5(
        reproduce_table5(
            topology=args.topologies[0],
            duration=args.duration,
            seed=args.seed,
            scale=args.scale,
            **_exec_kwargs(args),
        )
    )


ARTIFACTS: Dict[str, Callable] = {
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "table2": _run_table2,
    "table4": _run_table4,
    "table5": _run_table5,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures from the TACTIC paper (ICDCS 2018).",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["all", "list"],
        help="which paper artifact to regenerate ('all' runs every one, "
        "'list' shows the mapping)",
    )
    parser.add_argument(
        "--topologies", type=int, nargs="+", default=[1],
        help="Table III topology indices (default: 1)",
    )
    parser.add_argument(
        "--duration", type=float, default=20.0,
        help="simulated seconds per point (paper: 2000)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.25,
        help="entity-count scale factor (paper: 1.0)",
    )
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    execution = parser.add_argument_group(
        "execution", "parallel fan-out and run caching (see "
        "docs/PERFORMANCE.md)"
    )
    execution.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for scenario fan-out (default: REPRO_JOBS "
        "or 1 = serial in-process)",
    )
    execution.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed run cache directory (default: "
        "REPRO_CACHE_DIR or caching off)",
    )
    execution.add_argument(
        "--no-cache", action="store_true",
        help="ignore the run cache entirely, even if --cache-dir or "
        "REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="arm the SimSan runtime invariant checks on every run "
        "(equivalent to REPRO_SIMSAN=1; see docs/STATIC_ANALYSIS.md)",
    )
    telemetry = parser.add_argument_group(
        "telemetry", "observability outputs (all off by default; see "
        "docs/OBSERVABILITY.md)"
    )
    telemetry.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write per-run labeled metrics as one JSON document",
    )
    telemetry.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the packet/span event trace as JSON lines",
    )
    telemetry.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="jsonl",
        help="trace file format: 'jsonl' (archival lines) or 'chrome' "
        "(a trace_event document for chrome://tracing / Perfetto)",
    )
    telemetry.add_argument(
        "--sample-interval", type=float, default=None, metavar="SECONDS",
        help="sample PIT/CS/BF/link/scheduler state every N virtual seconds",
    )
    telemetry.add_argument(
        "--profile", action="store_true",
        help="run under the layer tracer and print per-layer calls, total "
        "and self seconds (docs/PERFORMANCE.md)",
    )
    telemetry.add_argument(
        "--heartbeat", type=float, default=0.0, metavar="SECONDS",
        help="print wall time, virtual time and events executed every N "
        "wall seconds",
    )
    telemetry.add_argument(
        "--flame-out", metavar="PATH", default=None,
        help="statistically sample the run and write collapsed stacks "
        "(Brendan Gregg format) for flamegraph.pl / speedscope",
    )
    telemetry.add_argument(
        "--flame-interval", type=float, default=0.005, metavar="SECONDS",
        help="stack-sampling period for --flame-out (default: 0.005)",
    )
    fleet = parser.add_argument_group(
        "fleet observability", "engine-level progress, merged metrics, and "
        "run history (docs/OBSERVABILITY.md, \"Fleet observability\")"
    )
    fleet.add_argument(
        "--progress", action="store_true",
        help="live fleet status line on stderr while specs execute "
        "(equivalent to REPRO_PROGRESS=1)",
    )
    fleet.add_argument(
        "--engine-events", metavar="PATH", default=None,
        help="append fleet.* engine events as JSON lines (equivalent to "
        "REPRO_ENGINE_EVENTS)",
    )
    fleet.add_argument(
        "--fleet-telemetry", action="store_true",
        help="force the worker telemetry round-trip on even without other "
        "telemetry flags (equivalent to REPRO_FLEET_TELEMETRY=1)",
    )
    fleet.add_argument(
        "--fleet-metrics-out", metavar="PATH", default=None,
        help="write the merged fleet-wide metrics snapshot as JSON "
        "(equivalent to REPRO_FLEET_METRICS)",
    )
    fleet.add_argument(
        "--history-dir", metavar="DIR", default=None,
        help="append per-figure run-history entries for "
        "'python -m repro.obs.history diff' (equivalent to "
        "REPRO_HISTORY_DIR)",
    )
    fleet.add_argument(
        "--fleetperf", action="store_true",
        help="attach the fleet scheduling observatory: per-worker "
        "lifecycle phases and the pool timeline, reported via "
        "'python -m repro.obs.fleetperf report' (equivalent to "
        "REPRO_FLEETPERF=1)",
    )
    fleet.add_argument(
        "--fleet-trace", metavar="PATH", default=None,
        help="write the pool timeline as a Chrome trace (one lane per "
        "worker, spec slices + occupancy counter); implies --fleetperf "
        "(equivalent to REPRO_FLEET_TRACE)",
    )
    fleet.add_argument(
        "--statescope", action="store_true",
        help="attach the state-footprint observatory to every run: "
        "periodic PIT/CS/BF/FIB/heap state accounting, leak detection, "
        "and closed-form conformance checks, reported via "
        "'python -m repro.obs.statescope report' (equivalent to "
        "REPRO_STATESCOPE=1)",
    )
    fleet.add_argument(
        "--statescope-out", metavar="PATH", default=None,
        help="write the fleet-merged statescope conformance report as "
        "JSON; implies --statescope (equivalent to REPRO_STATESCOPE_OUT)",
    )
    audit = parser.add_argument_group(
        "decision auditing", "access-control decision records, the "
        "misauthorization oracle, and the flight recorder "
        "(docs/OBSERVABILITY.md, \"Decision auditing & flight recorder\")"
    )
    audit.add_argument(
        "--audit", action="store_true",
        help="attach the decision audit to every run without writing a "
        "report file (equivalent to REPRO_AUDIT=1)",
    )
    audit.add_argument(
        "--audit-out", metavar="PATH", default=None,
        help="write the fleet-merged audit report (summary + binomial-CI "
        "check) as JSON; implies --audit (equivalent to REPRO_AUDIT_OUT)",
    )
    audit.add_argument(
        "--flightrec", metavar="DIR", default=None,
        help="arm the flight recorder; post-mortem bundles land in DIR "
        "(equivalent to REPRO_FLIGHTREC)",
    )
    audit.add_argument(
        "--flightrec-size", type=int, default=None, metavar="N",
        help="flight-recorder ring capacity in records (default: 512; "
        "equivalent to REPRO_FLIGHTREC_SIZE)",
    )
    audit.add_argument(
        "--flightrec-dump", action="store_true",
        help="force a post-mortem bundle at the end of every run, even "
        "without a trigger (equivalent to REPRO_FLIGHTREC_DUMP=1)",
    )
    return parser


def _telemetry_config(args) -> "TelemetryConfig | None":
    if not (args.metrics_out or args.trace_out or args.sample_interval
            or args.profile or args.heartbeat or args.flame_out):
        return None
    from repro.obs.session import TelemetryConfig

    return TelemetryConfig(
        metrics_path=args.metrics_out,
        trace_path=args.trace_out,
        trace_format=args.trace_format,
        sample_interval=args.sample_interval,
        profile=args.profile,
        heartbeat=args.heartbeat,
        flame_path=args.flame_out,
        flame_interval=args.flame_interval,
    )


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.sanitize:
        # The runner's maybe_install() reads the env var, so the flag
        # arms every run this process makes without threading a
        # parameter through each artifact function.
        os.environ["REPRO_SIMSAN"] = "1"
    # The fleet flags ride the same env-forwarding pattern: the engine
    # reads these at construction, so every ExperimentEngine any driver
    # builds this process picks them up without new parameters.
    if args.progress:
        os.environ["REPRO_PROGRESS"] = "1"
    if args.fleet_telemetry:
        os.environ["REPRO_FLEET_TELEMETRY"] = "1"
    if args.engine_events:
        os.environ["REPRO_ENGINE_EVENTS"] = args.engine_events
    if args.fleet_metrics_out:
        os.environ["REPRO_FLEET_METRICS"] = args.fleet_metrics_out
    if args.history_dir:
        os.environ["REPRO_HISTORY_DIR"] = args.history_dir
    if args.fleetperf:
        os.environ["REPRO_FLEETPERF"] = "1"
    if args.fleet_trace:
        os.environ["REPRO_FLEET_TRACE"] = args.fleet_trace
    if args.statescope:
        os.environ["REPRO_STATESCOPE"] = "1"
    if args.statescope_out:
        os.environ["REPRO_STATESCOPE_OUT"] = args.statescope_out
    # Decision auditing and the flight recorder follow suit: the runner
    # and engine read these, and spawned workers inherit them.
    if args.audit:
        os.environ["REPRO_AUDIT"] = "1"
    if args.audit_out:
        os.environ["REPRO_AUDIT_OUT"] = args.audit_out
    if args.flightrec:
        os.environ["REPRO_FLIGHTREC"] = args.flightrec
    if args.flightrec_size is not None:
        os.environ["REPRO_FLIGHTREC_SIZE"] = str(args.flightrec_size)
    if args.flightrec_dump:
        os.environ["REPRO_FLIGHTREC_DUMP"] = "1"
    if args.artifact == "list":
        for name in sorted(ARTIFACTS):
            print(f"{name:8s} -> repro.experiments.{name}_*")
        return 0
    targets = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    config = _telemetry_config(args)
    if config is None:
        for name in targets:
            print(ARTIFACTS[name](args))
            print()
        return 0
    from repro.obs.session import set_default_telemetry

    set_default_telemetry(config)
    try:
        for name in targets:
            print(ARTIFACTS[name](args))
            print()
    finally:
        set_default_telemetry(None)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
