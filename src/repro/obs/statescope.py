"""State-footprint and capacity-model conformance observatory.

TACTIC's value proposition rests on *bounded router state*: fixed-size
Bloom filters with a predictable saturation/reset cadence instead of
per-client ACLs.  The rest of the observability stack measures time
exhaustively; this module measures state.  Two pieces:

1. **Accounting** — every stateful structure (PIT, ContentStore,
   BloomFilter, FIB, the audit shadow sets, the event heap)
   implements a ``state_cost()`` protocol returning logical
   units (entries / records / bits set) plus deep bytes via
   :func:`deep_sizeof`, a memoized recursive sizeof that understands
   ``__slots__`` layouts.  A :class:`StateScope` samples the fleet
   totals every ``interval`` virtual seconds (with an end-of-run
   flush, so short runs are never invisible) and fits a per-series
   trend, flagging unbounded growth — a PIT-record leak — as a
   typed finding.

2. **Conformance** — at finalize the scope walks the live structures
   and compares empirical BF fill ratio, saturation-reset cadence, CS
   hit ratio, and PIT occupancy against the
   :mod:`repro.analysis.bloom_math` / :mod:`repro.analysis.cache_math`
   closed forms with binomial/normal confidence intervals (the same
   CI shape as :func:`repro.obs.audit.fp_confidence`), emitting
   ``model.*`` metrics and a pass/fail report.

Everything is off by default: an unobserved run constructs no scope,
schedules no ticks, and the structures' ``state_cost()`` methods are
never called — the off state is bit-identical to a build without this
module.

CLI::

    python -m repro.obs.statescope report out/statescope.json

exits 1 on a conformance failure or growth finding, 2 on bad input.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.instruments import SAMPLE_INTERVAL

#: Registry of every state series a scope may emit (simlint SL016: a
#: literal passed to ``StateScope.track`` must appear here, so a typo'd
#: series name is a lint error, not a silently separate series).
STATESCOPE_SERIES = (
    "state.pit.entries",
    "state.pit.records",
    "state.pit.bytes",
    "state.cs.entries",
    "state.cs.bytes",
    "state.bf.bits_set",
    "state.bf.bytes",
    "state.fib.entries",
    "state.fib.bytes",
    "state.audit.shadow",
    "state.audit.bytes",
    "state.heap.pending",
    "state.heap.bytes",
    "state.total.bytes",
)

#: Series eligible for growth findings.  Only occupancy series that a
#: healthy run keeps bounded are listed; monotone-by-design series
#: (audit shadow sets, cumulative byte counters) would always "grow".
GROWTH_SERIES = (
    "state.pit.entries",
    "state.pit.records",
    "state.heap.pending",
)

#: Trend-fit thresholds: a growth finding needs at least this many
#: samples, this much least-squares linearity, and both an absolute and
#: a relative rise (so a PIT oscillating around a small steady state
#: never trips it).
TREND_MIN_SAMPLES = 5
TREND_MIN_R2 = 0.8
TREND_MIN_RISE = 8.0
TREND_MIN_RATIO = 2.0

_DESCEND_STOP_ATTRS = ("sim", "node_id", "_nodes")

#: Slots deep_sizeof never reads.  ``_hash`` caches ``hash(...)`` of
#: an interned tuple (:class:`~repro.ndn.name.Name`); the *magnitude*
#: of that int — and so its ``sys.getsizeof`` — depends on per-process
#: hash randomization, which would break the serial ≡ parallel
#: bit-for-bit byte parity.
_SKIP_SLOTS = frozenset({"__dict__", "__weakref__", "_hash"})


def _slot_names(cls: type) -> Tuple[str, ...]:
    names: List[str] = []
    for base in cls.__mro__:
        slots = base.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(s for s in slots if s not in _SKIP_SLOTS)
    return tuple(names)


_SLOT_CACHE: Dict[type, Tuple[str, ...]] = {}


def _descends(obj: Any) -> bool:
    """Should :func:`deep_sizeof` traverse into ``obj``'s attributes?

    Only into objects the measured structure *owns*: instances of
    ``repro.*`` data classes.  Nodes, links, faces, and the simulator
    itself (anything carrying a ``sim``/``node_id`` backref) are
    boundaries — a PIT record's in-face must not drag the whole
    network into the PIT's byte count.  Foreign-library objects and
    callables are counted shallow.
    """
    if not type(obj).__module__.startswith("repro."):
        return False
    if callable(obj):
        return False
    for attr in _DESCEND_STOP_ATTRS:
        if hasattr(obj, attr):
            return False
    return True


_VALUE_SCALARS = (str, bytes, int, float, bool, complex)


def deep_sizeof(obj: Any, seen: Optional[Set[Any]] = None) -> int:
    """Memoized recursive ``sys.getsizeof`` aware of ``__slots__``.

    Traverses built-in containers and owned ``repro.*`` instances
    (both ``__dict__`` and ``__slots__`` layouts); every object is
    counted once per ``seen`` set, so shared substructure — interned
    :class:`~repro.ndn.name.Name` components, aliased tags — is not
    double-billed.  Immutable scalars are memoized by *value* rather
    than identity: whether two equal strings share one object is an
    interning accident that differs between a serial run and a spawned
    worker unpickling the same spec, and byte totals must be
    bit-identical across the two (the serial ≡ parallel merge parity).
    Iterative (explicit stack) so a long PIT-record list cannot hit
    the recursion limit.
    """
    if seen is None:
        seen = set()
    total = 0
    stack = deque([obj])
    while stack:
        item = stack.pop()
        if isinstance(item, _VALUE_SCALARS):
            key = (type(item), item)
            if key in seen:
                continue
            seen.add(key)
            total += sys.getsizeof(item)
            continue
        ident = id(item)
        if ident in seen:
            continue
        seen.add(ident)
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, bytearray):
            continue
        elif _descends(item):
            cls = type(item)
            slots = _SLOT_CACHE.get(cls)
            if slots is None:
                slots = _slot_names(cls)
                _SLOT_CACHE[cls] = slots
            for name in slots:
                try:
                    stack.append(getattr(item, name))
                except AttributeError:
                    pass
            inst = getattr(item, "__dict__", None)
            if inst:
                stack.append(inst)
    return total


# ---------------------------------------------------------------------------
# Trend fitting
# ---------------------------------------------------------------------------
def fit_trend(samples: List[Tuple[float, float]]) -> Dict[str, float]:
    """Least-squares line over ``(t, v)`` samples: slope, intercept, r2."""
    n = len(samples)
    if n < 2:
        return {"n": float(n), "slope": 0.0, "intercept": 0.0, "r2": 0.0}
    mean_t = sum(t for t, _ in samples) / n
    mean_v = sum(v for _, v in samples) / n
    sxx = sum((t - mean_t) ** 2 for t, _ in samples)
    sxy = sum((t - mean_t) * (v - mean_v) for t, v in samples)
    svv = sum((v - mean_v) ** 2 for _, v in samples)
    if sxx <= 0.0:
        return {"n": float(n), "slope": 0.0, "intercept": mean_v, "r2": 0.0}
    slope = sxy / sxx
    r2 = 0.0 if svv <= 0.0 else (sxy * sxy) / (sxx * svv)
    return {
        "n": float(n),
        "slope": slope,
        "intercept": mean_v - slope * mean_t,
        "r2": r2,
    }


def growth_finding(
    series: str, samples: List[Tuple[float, float]]
) -> Optional[Dict[str, Any]]:
    """A typed ``state.growth`` finding when a series grows unboundedly.

    Requires a sustained, near-linear rise: enough samples, a positive
    slope with high linearity, and both an absolute and a relative
    climb from first to last sample.  A healthy PIT oscillating around
    its steady-state occupancy fits none of these.
    """
    if len(samples) < TREND_MIN_SAMPLES:
        return None
    trend = fit_trend(samples)
    first = samples[0][1]
    last = samples[-1][1]
    rise = last - first
    if (
        trend["slope"] <= 0.0
        or trend["r2"] < TREND_MIN_R2
        or rise < TREND_MIN_RISE
        or last < TREND_MIN_RATIO * max(first, 1.0)
    ):
        return None
    return {
        "kind": "state.growth",
        "series": series,
        "slope": trend["slope"],
        "r2": trend["r2"],
        "first": first,
        "last": last,
        "samples": len(samples),
        "detail": (
            f"{series} grew {first:g} -> {last:g} over {len(samples)} samples "
            f"(slope {trend['slope']:.4g}/s, r2 {trend['r2']:.3f})"
        ),
    }


# ---------------------------------------------------------------------------
# The scope
# ---------------------------------------------------------------------------
class StateScope:
    """Samples fleet state footprint in virtual time and checks models.

    Lifecycle: :meth:`install` binds the live structures and
    schedules the periodic tick (:meth:`start`), :meth:`finalize`
    flushes the last partial interval, fits trends, runs the
    conformance engine, and freezes :meth:`record`.  The tick is
    read-only — it never touches protocol state or a named RNG stream
    — so enabling the scope changes ``events_executed`` but no
    published figure value.
    """

    def __init__(
        self,
        interval: float = SAMPLE_INTERVAL,
        z: float = 1.96,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"statescope interval must be positive, got {interval!r}")
        self.interval = interval
        self.z = z
        self.label: Optional[str] = None
        self.timeline: List[Tuple[float, Dict[str, float]]] = []
        self.series: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in STATESCOPE_SERIES
        }
        self.sim: Optional[Any] = None
        self._network: Optional[Any] = None
        self._config: Optional[Any] = None
        self._audit: Optional[Any] = None
        self._pits: List[Tuple[str, Any]] = []
        self._stores: List[Tuple[str, Any]] = []
        self._blooms: List[Tuple[str, Any]] = []
        self._fibs: List[Tuple[str, Any]] = []
        self._until: Optional[float] = None
        self._last_sample: Optional[float] = None
        self._sampling: Optional[Dict[str, float]] = None
        self._stopped = False
        self._record: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    name = "statescope"

    def install(self, run: Any) -> "StateScope":
        """Instrument protocol: bind the live structures of ``run``
        (reading its audit peer's shadow sets) and start ticking."""
        self.sim = run.sim
        self._network = network = run.network
        self._config = run.config
        self._audit = run.instruments.get("audit")
        self.label = run.label
        if network is not None:
            for node_id, node in network.nodes.items():
                pit = getattr(node, "pit", None)
                if pit is not None and hasattr(pit, "state_cost"):
                    self._pits.append((node_id, pit))
                cs = getattr(node, "cs", None)
                if cs is not None and hasattr(cs, "state_cost"):
                    self._stores.append((node_id, cs))
                bloom = getattr(node, "bloom", None)
                if bloom is not None and hasattr(bloom, "state_cost"):
                    self._blooms.append((node_id, bloom))
                fib = getattr(node, "fib", None)
                if fib is not None and hasattr(fib, "state_cost"):
                    self._fibs.append((node_id, fib))
        self.start(horizon=run.horizon)
        return self

    def start(self, horizon: Optional[float] = None) -> None:
        """Schedule the first tick; ``horizon`` bounds rescheduling."""
        if self.sim is None:
            raise RuntimeError("StateScope.start() before install()")
        self._until = horizon
        first = self.sim.now + self.interval
        if self._until is None or first <= self._until:
            self.sim.schedule_at(first, self._tick)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def track(self, name: str, now: float, value: float) -> None:
        """Append one sample to a registered series (SL016 audits the
        ``name`` literal against :data:`STATESCOPE_SERIES`)."""
        self.series[name].append((now, value))
        if self._sampling is not None:
            self._sampling[name] = value

    def sample(self) -> Dict[str, float]:
        """Take one fleet-total sample at the current virtual time."""
        assert self.sim is not None
        now = self.sim.now
        self._sampling = values = {}

        pit_entries = pit_records = pit_bytes = 0
        for _, pit in self._pits:
            cost = pit.state_cost()
            pit_entries += cost["entries"]
            pit_records += cost["records"]
            pit_bytes += cost["bytes"]
        self.track("state.pit.entries", now, float(pit_entries))
        self.track("state.pit.records", now, float(pit_records))
        self.track("state.pit.bytes", now, float(pit_bytes))

        cs_entries = cs_bytes = 0
        for _, cs in self._stores:
            cost = cs.state_cost()
            cs_entries += cost["entries"]
            cs_bytes += cost["bytes"]
        self.track("state.cs.entries", now, float(cs_entries))
        self.track("state.cs.bytes", now, float(cs_bytes))

        bf_bits = bf_bytes = 0
        for _, bloom in self._blooms:
            cost = bloom.state_cost()
            bf_bits += cost["bits_set"]
            bf_bytes += cost["bytes"]
        self.track("state.bf.bits_set", now, float(bf_bits))
        self.track("state.bf.bytes", now, float(bf_bytes))

        fib_entries = fib_bytes = 0
        for _, fib in self._fibs:
            cost = fib.state_cost()
            fib_entries += cost["entries"]
            fib_bytes += cost["bytes"]
        self.track("state.fib.entries", now, float(fib_entries))
        self.track("state.fib.bytes", now, float(fib_bytes))

        if self._audit is not None and hasattr(self._audit, "state_cost"):
            cost = self._audit.state_cost()
            self.track("state.audit.shadow", now, float(cost["shadow"]))
            self.track("state.audit.bytes", now, float(cost["bytes"]))
        else:
            self.track("state.audit.shadow", now, 0.0)
            self.track("state.audit.bytes", now, 0.0)

        heap = getattr(self.sim, "_heap", None)
        pending = self.sim.pending() if hasattr(self.sim, "pending") else 0
        self.track("state.heap.pending", now, float(pending))
        self.track(
            "state.heap.bytes", now,
            float(deep_sizeof(heap)) if heap is not None else 0.0,
        )

        self.track(
            "state.total.bytes", now,
            values["state.pit.bytes"]
            + values["state.cs.bytes"]
            + values["state.bf.bytes"]
            + values["state.fib.bytes"]
            + values["state.audit.bytes"]
            + values["state.heap.bytes"],
        )

        self._sampling = None
        self.timeline.append((now, values))
        self._last_sample = now
        return values

    def _tick(self) -> None:
        if self._stopped or self.sim is None:
            return
        self.sample()
        next_time = self.sim.now + self.interval
        if self._until is None or next_time <= self._until:
            self.sim.schedule_at(next_time, self._tick)

    def flush(self) -> int:
        """Sample the final partial interval (idempotent per instant)."""
        if self._stopped or self.sim is None:
            return 0
        if self._last_sample is not None and self._last_sample >= self.sim.now:
            return 0
        self.sample()
        return 1

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> Dict[str, Any]:
        """Flush, fit trends, run conformance, freeze the record."""
        if self._record is not None:
            return self._record
        self.flush()
        self._stopped = True

        findings: List[Dict[str, Any]] = []
        for name in GROWTH_SERIES:
            finding = growth_finding(name, self.series[name])
            if finding is not None:
                findings.append(finding)

        series_summary: Dict[str, Dict[str, float]] = {}
        for name in STATESCOPE_SERIES:
            samples = self.series[name]
            if samples:
                peaks = [v for _, v in samples]
                series_summary[name] = {
                    "samples": float(len(samples)),
                    "peak": max(peaks),
                    "last": samples[-1][1],
                }
            else:
                series_summary[name] = {"samples": 0.0, "peak": 0.0, "last": 0.0}

        record: Dict[str, Any] = {
            "label": self.label,
            "interval": self.interval,
            "series": series_summary,
            "findings": findings,
            "conformance": self._conformance(findings),
        }
        self._record = record
        return record

    def record(self) -> Dict[str, Any]:
        """The frozen record (finalizes on first call)."""
        return self.finalize()

    # ------------------------------------------------------------------
    # Conformance engine
    # ------------------------------------------------------------------
    def _conformance(self, findings: List[Dict[str, Any]]) -> Dict[str, Any]:
        checks: List[Dict[str, Any]] = []
        checks.extend(self._check_bf_fill())
        checks.extend(self._check_bf_resets())
        cs = self._check_cs_hit_ratio()
        if cs is not None:
            checks.append(cs)
        checks.append(self._check_pit_occupancy(findings))
        failures = sum(1 for c in checks if not c["within_ci"])
        return {
            "checks": checks,
            "checks_total": len(checks),
            "failures": failures,
            "pass": failures == 0,
        }

    def _check_bf_fill(self) -> List[Dict[str, Any]]:
        """Empirical fill ratio vs ``1 - (1 - 1/m)^(kn)`` per filter.

        ``n`` is the insert count since the last reset, so the check
        holds at any point in the saturation cycle.  The normal CI uses
        ``p(1-p)/m`` variance (each of the ``m`` bits is a Bernoulli
        trial) plus a small absolute slack for double-hashing index
        collisions and duplicate inserts.
        """
        out: List[Dict[str, Any]] = []
        agg_observed = agg_expected = agg_var = 0.0
        agg_bits = 0
        for node_id, bloom in self._blooms:
            m = float(bloom.size_bits)
            if m <= 0:
                continue
            k = float(bloom.num_hashes)
            n = float(bloom.count)
            expected = 1.0 - (1.0 - 1.0 / m) ** (k * n)
            observed = bloom.fill_ratio()
            var = expected * (1.0 - expected) / m
            halfwidth = self.z * math.sqrt(max(var, 0.0)) + 0.02
            out.append(
                {
                    "check": "bf_fill",
                    "node": node_id,
                    "inserts": n,
                    "observed": observed,
                    "expected": expected,
                    "ci_halfwidth": halfwidth,
                    "within_ci": abs(observed - expected) <= halfwidth,
                }
            )
            agg_observed += observed * m
            agg_expected += expected * m
            agg_var += var * m * m
            agg_bits += int(m)
        if agg_bits:
            observed = agg_observed / agg_bits
            expected = agg_expected / agg_bits
            halfwidth = self.z * math.sqrt(max(agg_var, 0.0)) / agg_bits + 0.02
            out.append(
                {
                    "check": "bf_fill",
                    "node": "__fleet__",
                    "inserts": float(sum(b.count for _, b in self._blooms)),
                    "observed": observed,
                    "expected": expected,
                    "ci_halfwidth": halfwidth,
                    "within_ci": abs(observed - expected) <= halfwidth,
                }
            )
        return out

    def _check_bf_resets(self) -> List[Dict[str, Any]]:
        """Observed saturation resets vs ``total_inserts / budget``.

        The budget is :func:`repro.analysis.bloom_math
        .inserts_to_saturation` for the filter's sizing.  The reset
        process is deterministic given the insert stream, so the CI is
        a Poisson-style ``z*sqrt(expected) + 1`` guard against edge
        effects (a reset pending at end of run).
        """
        from repro.analysis.bloom_math import inserts_to_saturation

        out: List[Dict[str, Any]] = []
        total_inserts = 0.0
        total_observed = 0.0
        total_expected = 0.0
        for node_id, bloom in self._blooms:
            budget = float(
                inserts_to_saturation(
                    bloom.capacity,
                    bloom.max_fpp,
                    num_hashes=bloom.num_hashes,
                    sizing_fpp=bloom.sizing_fpp,
                )
            )
            if budget <= 0:
                continue
            expected = bloom.total_inserts / budget
            observed = float(bloom.reset_count)
            halfwidth = self.z * math.sqrt(max(expected, 0.0)) + 1.0
            out.append(
                {
                    "check": "bf_resets",
                    "node": node_id,
                    "inserts": float(bloom.total_inserts),
                    "observed": observed,
                    "expected": expected,
                    "ci_halfwidth": halfwidth,
                    "within_ci": abs(observed - expected) <= halfwidth,
                }
            )
            total_inserts += bloom.total_inserts
            total_observed += observed
            total_expected += expected
        if out:
            halfwidth = self.z * math.sqrt(max(total_expected, 0.0)) + float(len(out))
            out.append(
                {
                    "check": "bf_resets",
                    "node": "__fleet__",
                    "inserts": total_inserts,
                    "observed": total_observed,
                    "expected": total_expected,
                    "ci_halfwidth": halfwidth,
                    "within_ci": abs(total_observed - total_expected) <= halfwidth,
                }
            )
        return out

    def _check_cs_hit_ratio(self) -> Optional[Dict[str, Any]]:
        """Fleet CS hit ratio vs the Che approximation — upper bound.

        Che's characteristic-time model predicts the *steady-state* LRU
        hit ratio under the independent-reference model; a finite run
        additionally pays one compulsory miss per distinct chunk, so
        the empirical ratio sits below the model and converges up to
        it.  The check is therefore a corridor: ``observed <= che +
        binomial halfwidth + slack`` (a run beating steady state means
        the model's inputs are wrong).
        """
        config = self._config
        if config is None or self._network is None:
            return None
        lookups = hits = 0
        for _, cs in self._stores:
            if cs.capacity <= 0:
                continue
            lookups += cs.hits + cs.misses
            hits += cs.hits
        if lookups == 0:
            return None
        from repro.analysis.cache_math import aggregate_hit_ratio, zipf_popularities

        providers = sum(
            1
            for node in self._network.nodes.values()
            if getattr(node, "directory", None) is not None
        )
        num_objects = max(providers, 1) * config.objects_per_provider
        chunks = max(config.chunks_per_object, 1)
        object_pops = zipf_popularities(num_objects, config.zipf_alpha)
        chunk_pops = [q / chunks for q in object_pops for _ in range(chunks)]
        capacity = max(cs.capacity for _, cs in self._stores)
        expected = aggregate_hit_ratio(chunk_pops, capacity)
        observed = hits / lookups
        var = expected * (1.0 - expected) / lookups
        halfwidth = self.z * math.sqrt(max(var, 0.0)) + 0.05
        return {
            "check": "cs_hit",
            "node": "__fleet__",
            "lookups": float(lookups),
            "observed": observed,
            "expected": expected,
            "ci_halfwidth": halfwidth,
            "within_ci": observed <= expected + halfwidth,
        }

    def _check_pit_occupancy(
        self, findings: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Sampled PIT occupancy stays bounded (and under capacity)."""
        samples = self.series["state.pit.entries"]
        peak = max((v for _, v in samples), default=0.0)
        capacity = sum(
            pit.capacity for _, pit in self._pits if getattr(pit, "capacity", 0)
        )
        bound = float(capacity) if capacity else None
        leaked = any(f["series"].startswith("state.pit") for f in findings)
        within = not leaked and (bound is None or peak <= bound)
        return {
            "check": "pit_occupancy",
            "node": "__fleet__",
            "observed": peak,
            "expected": bound if bound is not None else peak,
            "ci_halfwidth": 0.0,
            "within_ci": within,
        }


# ---------------------------------------------------------------------------
# Fleet merge + metrics (deterministic: serial == parallel, bit-for-bit)
# ---------------------------------------------------------------------------
def merge_statescope(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one worker's statescope record into a fleet accumulator.

    Called in *submission order* by the engine (never arrival order),
    so serial and ``--jobs N`` runs produce bit-identical merges.
    Series peaks/lasts sum (the fleet's aggregate footprint); findings
    and conformance checks concatenate, each stamped with the run
    label.
    """
    if not into:
        into.update(
            {
                "runs": 0,
                "series": {
                    name: {"samples": 0.0, "peak": 0.0, "last": 0.0}
                    for name in STATESCOPE_SERIES
                },
                "findings": [],
                "conformance": {
                    "checks": [],
                    "checks_total": 0,
                    "failures": 0,
                    "pass": True,
                },
            }
        )
    into["runs"] += 1
    label = record.get("label")
    for name, row in record.get("series", {}).items():
        slot = into["series"].setdefault(
            name, {"samples": 0.0, "peak": 0.0, "last": 0.0}
        )
        slot["samples"] += row.get("samples", 0.0)
        slot["peak"] += row.get("peak", 0.0)
        slot["last"] += row.get("last", 0.0)
    for finding in record.get("findings", []):
        into["findings"].append(dict(finding, run=label))
    conf = record.get("conformance", {})
    merged = into["conformance"]
    for check in conf.get("checks", []):
        merged["checks"].append(dict(check, run=label))
    merged["checks_total"] += conf.get("checks_total", 0)
    merged["failures"] += conf.get("failures", 0)
    merged["pass"] = merged["pass"] and conf.get("pass", True)
    return into


def statescope_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a record into deterministic ``state.*``/``model.*``/
    ``mem.*`` metrics; the memory-footprint benchmark
    (``benchmarks/test_memory_footprint.py``) reads its peaks from
    them."""
    out: Dict[str, float] = {}
    for name in sorted(record.get("series", {})):
        row = record["series"][name]
        out[f"{name}.peak"] = float(row.get("peak", 0.0))
        out[f"{name}.last"] = float(row.get("last", 0.0))
    out["state.findings"] = float(len(record.get("findings", [])))
    conf = record.get("conformance", {})
    out["model.checks"] = float(conf.get("checks_total", 0))
    out["model.failures"] = float(conf.get("failures", 0))
    out["model.pass"] = 1.0 if conf.get("pass", True) else 0.0
    for check in conf.get("checks", []):
        if check.get("node") != "__fleet__":
            continue
        prefix = f"model.{check['check']}"
        out[f"{prefix}.observed"] = float(check["observed"])
        out[f"{prefix}.expected"] = float(check["expected"])
        out[f"{prefix}.within"] = 1.0 if check["within_ci"] else 0.0
    total = record.get("series", {}).get("state.total.bytes", {})
    out["mem.deep_bytes.peak"] = float(total.get("peak", 0.0))
    return out


# ---------------------------------------------------------------------------
# Rendering + CLI
# ---------------------------------------------------------------------------
def statescope_report(record: Dict[str, Any], figure: str, jobs: int) -> Dict[str, Any]:
    """The fleet report document: merged record plus rendered lines
    (``<obs-out>/statescope.json``)."""
    return {
        "figure": figure,
        "jobs": jobs,
        "record": record,
        "report": render_statescope_report(record),
    }


def render_statescope_report(record: Dict[str, Any]) -> List[str]:
    """Human-readable lines for a single or fleet-merged record."""
    lines: List[str] = []
    runs = record.get("runs")
    header = "statescope"
    if runs is not None:
        header += f" ({runs} runs, fleet-merged)"
    elif record.get("label"):
        header += f" ({record['label']})"
    lines.append(header)
    lines.append("  series                    peak          last")
    for name in sorted(record.get("series", {})):
        row = record["series"][name]
        lines.append(
            f"  {name:<24} {row.get('peak', 0.0):>12,.0f} {row.get('last', 0.0):>12,.0f}"
        )
    findings = record.get("findings", [])
    if findings:
        lines.append(f"  findings: {len(findings)}")
        for finding in findings:
            run = f" [{finding['run']}]" if finding.get("run") else ""
            lines.append(f"    {finding['kind']}{run}: {finding['detail']}")
    else:
        lines.append("  findings: none")
    conf = record.get("conformance", {})
    status = "PASS" if conf.get("pass", True) else "FAIL"
    lines.append(
        f"  conformance: {status} "
        f"({conf.get('failures', 0)}/{conf.get('checks_total', 0)} checks failed)"
    )
    for check in conf.get("checks", []):
        if not check["within_ci"] or check.get("node") == "__fleet__":
            mark = "ok" if check["within_ci"] else "FAIL"
            run = f" [{check['run']}]" if check.get("run") else ""
            lines.append(
                f"    {mark:<4} {check['check']:<14} node={check['node']}{run} "
                f"observed={check['observed']:.6g} expected={check['expected']:.6g} "
                f"+-{check['ci_halfwidth']:.6g}"
            )
    return lines


def _load_record(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    # Engine-written reports wrap the merged record in a document.
    if "record" in payload and isinstance(payload["record"], dict):
        payload = payload["record"]
    if "series" not in payload:
        raise ValueError(f"{path}: not a statescope record (no 'series' key)")
    return payload


def main(argv: Optional[Iterable[str]] = None) -> int:
    """``python -m repro.obs.statescope report <file>``.

    Exit 0 when the record is clean, 1 on a conformance failure or
    growth finding, 2 on unreadable/malformed input.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.statescope",
        description="Inspect state-footprint conformance reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="render a statescope record")
    report.add_argument("path", help="statescope JSON (raw record or engine report)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    try:
        record = _load_record(args.path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"statescope: {exc}", file=sys.stderr)
        return 2

    for line in render_statescope_report(record):
        print(line)
    problems = len(record.get("findings", []))
    if not record.get("conformance", {}).get("pass", True):
        problems += 1
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
