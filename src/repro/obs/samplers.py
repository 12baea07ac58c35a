"""Periodic virtual-time sampling of live simulator state.

A :class:`PeriodicSampler` schedules a read-only tick every
``interval`` virtual seconds up to a horizon and evaluates a list of
*probes* — named zero-argument callables with a label set.  Samples
accumulate as ``(time, value)`` series and, when a
:class:`~repro.obs.metrics.MetricsRegistry` is attached, also back
callback gauges so the final metrics export carries last-known values.

The tick never touches protocol state or any named RNG stream, so an
enabled sampler changes ``events_executed`` but **no published figure
value** — determinism of the workload is untouched.

:meth:`PeriodicSampler.install_standard_probes` wires the default set
over a :class:`~repro.ndn.network.Network`: per-node PIT occupancy and
CS size / hit ratio, per-router Bloom-filter fill ratio and
false-positive probability, per-direction link queue depth, and the
scheduler's pending-event count.

As the ``samples`` row of :mod:`repro.obs.instruments` a sampler
installs itself on a run with that probe set, ticks every
:data:`~repro.obs.instruments.SAMPLE_INTERVAL` virtual seconds up to
the run's horizon and backs its gauges in the ``telemetry`` peer's
registry when that row is selected too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.instruments import SAMPLE_INTERVAL
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


@dataclass
class Probe:
    """One sampled quantity."""

    name: str
    fn: Callable[[], float]
    labels: Dict[str, str] = field(default_factory=dict)

    def key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        return (self.name, tuple(sorted(self.labels.items())))


class PeriodicSampler:
    """Samples a probe list every ``interval`` virtual seconds."""

    name = "samples"

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        interval: float = SAMPLE_INTERVAL,
        until: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = interval
        self.until = until
        self.registry = registry
        self.probes: List[Probe] = []
        self.series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]] = {}
        self.ticks = 0
        self.label = ""
        self._stopped = False
        self._last_tick: Optional[float] = None

    def install(self, run) -> "PeriodicSampler":
        """Instrument protocol: sample ``run``'s network up to its
        horizon, backing gauges in the telemetry peer's registry."""
        self.sim = run.sim
        self.until = run.horizon
        self.label = run.label
        telemetry = run.instruments.get("telemetry")
        if telemetry is not None:
            self.registry = telemetry.registry
        if run.network is not None:
            self.install_standard_probes(run.network)
        self.start()
        return self

    def finalize(self) -> dict:
        """Take the tail sample, stop, and return the series."""
        self.stop()
        return {"label": self.label, "series": self.series_dict()}

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float], **labels: str) -> Probe:
        probe = Probe(name=name, fn=fn, labels=dict(labels))
        self.probes.append(probe)
        self.series[probe.key()] = []
        if self.registry is not None:
            gauge = self.registry.gauge(
                name, labelnames=tuple(sorted(probe.labels))
            )
            gauge.labels(**probe.labels).set_function(fn)
        return probe

    def install_standard_probes(self, network) -> None:
        """The default probe set over a built network."""
        self.add_probe("sim_pending_events", self.sim.pending)
        for node_id, node in network.nodes.items():
            pit = getattr(node, "pit", None)
            if pit is not None:
                self.add_probe("pit_entries", (lambda p=pit: float(len(p))), node=node_id)
            cs = getattr(node, "cs", None)
            if cs is not None and cs.capacity > 0:
                self.add_probe("cs_entries", (lambda c=cs: float(len(c))), node=node_id)
                self.add_probe("cs_hit_ratio", (lambda c=cs: c.hit_ratio()), node=node_id)
            bloom = getattr(node, "bloom", None)
            if bloom is not None:
                self.add_probe(
                    "bf_fill_ratio", (lambda b=bloom: b.fill_ratio()), node=node_id
                )
                self.add_probe(
                    "bf_current_fpp", (lambda b=bloom: b.current_fpp()), node=node_id
                )
        for link in network.links:
            a, b = link._nodes
            for src, dst in ((a, b), (b, a)):
                self.add_probe(
                    "link_queue_seconds",
                    (lambda l=link, s=src: l.utilization(s)),
                    src=src.node_id,
                    dst=dst.node_id,
                )

    # ------------------------------------------------------------------
    # Ticking
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Schedule the first tick (defaults to one interval from now)."""
        first = self.sim.now + self.interval if at is None else at
        if self.until is None or first <= self.until:
            self.sim.schedule_at(first, self._tick)

    def stop(self) -> None:
        """Flush the final partial interval, then stop ticking."""
        self.flush()
        self._stopped = True

    def flush(self) -> int:
        """Take a last sample at the current virtual time.

        Ticks only fire on whole-interval boundaries, so without this
        the tail of a run — or all of a run shorter than one interval —
        would be invisible to sampled series.  Idempotent per instant;
        returns the number of samples taken (0 or 1).
        """
        now = self.sim.now
        if self._stopped or (self._last_tick is not None and self._last_tick >= now):
            return 0
        self.ticks += 1
        self._last_tick = now
        for probe in self.probes:
            self.series[probe.key()].append((now, float(probe.fn())))
        return 1

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        self.ticks += 1
        self._last_tick = now
        for probe in self.probes:
            self.series[probe.key()].append((now, float(probe.fn())))
        next_time = now + self.interval
        if self.until is None or next_time <= self.until:
            self.sim.schedule_at(next_time, self._tick)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def series_dict(self) -> List[dict]:
        """JSON-friendly view: one object per probe with its samples."""
        out = []
        for probe in self.probes:
            samples = self.series[probe.key()]
            out.append(
                {
                    "name": probe.name,
                    "labels": dict(probe.labels),
                    "samples": [[time, value] for time, value in samples],
                }
            )
        return out
