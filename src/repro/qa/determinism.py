"""Double-run determinism check.

A run is *deterministic* when its entire event schedule is a pure
function of the master seed.  This module executes a scenario twice in
one process with a SimSan attached, hashes each run's event stream
(``(time, priority, callback, arity)`` per event — deliberately
excluding the global event sequence counter and argument reprs, both
of which legitimately differ between same-process runs), and compares
the digests.  On mismatch, the per-block digests localise the first
divergent window of :data:`~repro.qa.simsan.HASH_BLOCK_EVENTS` events.

Usage::

    python -m repro.qa.determinism                 # fig 5/6-style scenarios
    python -m repro.qa.determinism --topology 2 --duration 4 --seed 3
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.qa.simsan import HASH_BLOCK_EVENTS, SimSan

__all__ = ["RunDigest", "DeterminismReport", "scenario_digest", "check_scenario"]


@dataclass(frozen=True)
class RunDigest:
    """The event-stream fingerprint of one completed run."""

    stream: str
    blocks: List[str]
    events: int


@dataclass(frozen=True)
class DeterminismReport:
    """The verdict from comparing two runs of one scenario."""

    label: str
    first: RunDigest
    second: RunDigest

    @property
    def ok(self) -> bool:
        return self.first.stream == self.second.stream

    def first_divergent_block(self) -> Optional[int]:
        """Index of the first differing block digest (None when ok)."""
        if self.ok:
            return None
        for i, (a, b) in enumerate(zip(self.first.blocks, self.second.blocks)):
            if a != b:
                return i
        return min(len(self.first.blocks), len(self.second.blocks))

    def describe(self) -> str:
        if self.ok:
            return (
                f"{self.label}: deterministic "
                f"({self.first.events} events, digest {self.first.stream})"
            )
        block = self.first_divergent_block()
        low = (block or 0) * HASH_BLOCK_EVENTS
        return (
            f"{self.label}: NON-DETERMINISTIC — digests "
            f"{self.first.stream} != {self.second.stream}; first divergence "
            f"in events [{low}, {low + HASH_BLOCK_EVENTS}) "
            f"(event counts {self.first.events} vs {self.second.events})"
        )


def scenario_digest(scenario: Any) -> RunDigest:
    """Run ``scenario`` once under SimSan and fingerprint its events.

    ``collect`` mode: a determinism check should report divergence, not
    abort mid-run on an unrelated invariant.
    """
    from repro.experiments.runner import run_scenario

    san = SimSan(mode="collect")
    run_scenario(scenario, instruments=[san])
    return RunDigest(
        stream=san.stream_digest(),
        blocks=san.block_digests(),
        events=san.events_seen,
    )


def check_scenario(scenario: Any, label: str = "") -> DeterminismReport:
    """Run ``scenario`` twice and compare event-stream digests."""
    label = label or getattr(scenario, "label", "") or "scenario"
    return DeterminismReport(
        label=label,
        first=scenario_digest(scenario),
        second=scenario_digest(scenario),
    )


def _default_scenarios(args: argparse.Namespace) -> List[Tuple[str, Any]]:
    """The Fig. 5 (latency) and Fig. 6 (tag-rate) style scenarios."""
    from repro.experiments.scenario import Scenario

    base = Scenario.paper_topology(
        args.topology, duration=args.duration, seed=args.seed, scale=args.scale
    )
    return [
        ("fig5-style", base.with_config(bf_capacity=1000)),
        ("fig6-style", base.with_config(tag_expiry=2.0)),
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.qa.determinism",
        description="Double-run event-stream determinism check.",
    )
    parser.add_argument("--topology", type=int, default=1)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    failed = False
    for label, scenario in _default_scenarios(args):
        report = check_scenario(scenario, label=label)
        print(report.describe())
        failed = failed or not report.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
