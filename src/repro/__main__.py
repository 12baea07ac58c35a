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

from repro.exec.engine import resolve_jobs
from repro.experiments.fig5_latency import render_fig5, reproduce_fig5
from repro.experiments.fig6_tag_rates import render_fig6, reproduce_fig6
from repro.experiments.fig7_operations import render_fig7, reproduce_fig7
from repro.experiments.fig8_bf_reset import render_fig8, reproduce_fig8
from repro.experiments.table2_comparison import render_table2, reproduce_table2
from repro.experiments.table4_delivery import render_table4, reproduce_table4
from repro.experiments.table5_bf_resets import render_table5, reproduce_table5
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, OBS_OUT_ENV, resolve


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
    obs = parser.add_argument_group(
        "instruments", "per-run observability layers with fleet-merged "
        "reports (docs/OBSERVABILITY.md, \"Turning it on\")"
    )
    obs.add_argument(
        "--obs", metavar="NAME[,NAME...]", default=None,
        help="attach instruments to every run: "
        + ", ".join(INSTRUMENTS)
        + " (equivalent to REPRO_OBS)",
    )
    obs.add_argument(
        "--obs-out", metavar="DIR", default=None,
        help="write each instrument's fleet report to DIR/<name>.json, "
        "flight-recorder bundles under "
        "DIR/flightrec/ and per-run trace files under DIR/trace/ "
        "(equivalent to REPRO_OBS_OUT)",
    )
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The instrument selection rides the environment: the engine reads
    # it at construction, so every ExperimentEngine a reproduction
    # builds in this process picks it up without new parameters.
    if args.obs is not None:
        os.environ[OBS_ENV] = args.obs
    if args.obs_out is not None:
        os.environ[OBS_OUT_ENV] = args.obs_out
    try:
        # Fail fast, before any run, on a bad selection or REPRO_JOBS.
        resolve()
        resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    if args.artifact == "list":
        for name in sorted(ARTIFACTS):
            print(f"{name:8s} -> repro.experiments.{name}_*")
        return 0
    targets = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in targets:
        print(ARTIFACTS[name](args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
