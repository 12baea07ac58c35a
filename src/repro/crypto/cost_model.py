"""Latency model for computation-based simulation events.

ns-3 (and therefore ndnSIM) does not account for the wall-clock cost of
computation, so the TACTIC authors benchmarked their primitive
operations on a host (Intel Core-i7 2.93 GHz, Ubuntu 14.04) and injected
the measured latency distributions into the simulation:

- Bloom filter lookup        ~ N(9.14e-7, 6.51e-9)
- Bloom filter insertion     ~ N(3.35e-7, 1.73e-3)
- signature verification     ~ N(1.12e-5, 6.49e-3)

We reproduce exactly that technique.  The paper's ``N(a, b)`` notation
does not say whether ``b`` is a standard deviation or a variance, and
two of the published spreads are larger than their means (almost surely
transcription artifacts).  We interpret ``b`` as a standard deviation
and truncate samples at zero, which preserves the published means — the
quantity that drives every reported trend.  The defaults can be
re-measured on the local host with :func:`benchmark_local_costs`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.rng import Stream, seeded_stream


@dataclass(frozen=True, slots=True)
class OpCost:
    """A truncated-normal latency distribution for one operation."""

    mean: float
    std: float

    def sample(self, rng: Stream) -> float:
        """Draw one latency sample; negative draws truncate to zero."""
        if self.std <= 0.0:
            return max(0.0, self.mean)
        return max(0.0, rng.gauss(self.mean, self.std))


@dataclass(slots=True)
class ComputationCostModel:
    """Named operation costs consumed by router protocol code.

    Router code calls :meth:`sample` with an operation name whenever it
    performs a computation-based event, and schedules its next action
    after the returned delay — exactly the authors' methodology.
    Unknown operations cost zero, so substrate code never crashes when a
    new op name appears before it is calibrated.
    """

    costs: Dict[str, OpCost] = field(default_factory=dict)

    def sample(self, op: str, rng: Stream) -> float:
        # Allocation-free charging: one dict probe plus the RNG draw.
        # The draw is inlined from OpCost.sample (bit-identical clamp and
        # gauss call) because this runs several times per forwarded
        # Interest on TACTIC routers.
        cost = self.costs.get(op)
        if cost is None:
            return 0.0
        std = cost.std
        if std <= 0.0:
            return max(0.0, cost.mean)
        return max(0.0, rng.gauss(cost.mean, std))

    def mean(self, op: str) -> float:
        cost = self.costs.get(op)
        return cost.mean if cost is not None else 0.0

    def with_overrides(self, **overrides: OpCost) -> "ComputationCostModel":
        merged = dict(self.costs)
        merged.update(overrides)
        return ComputationCostModel(costs=merged)


#: The paper's published host benchmarks (Section 8.B).  Spreads are kept
#: tiny relative to the published means (see module docstring) so sampled
#: latencies stay physically sensible.
PAPER_COST_MODEL = ComputationCostModel(
    costs={
        "bf_lookup": OpCost(mean=9.14e-7, std=6.51e-9),
        "bf_insert": OpCost(mean=3.35e-7, std=3.35e-8),
        "signature_verify": OpCost(mean=1.12e-5, std=1.12e-6),
        # Pre-check field comparisons and access-path checks are a few
        # string/byte comparisons; modelled at cache-lookup scale.
        "precheck": OpCost(mean=1.0e-7, std=1.0e-8),
        "access_path_check": OpCost(mean=2.0e-7, std=2.0e-8),
        # Provider-side tag generation (one signature) — only relevant for
        # registration traffic, never on the router fast path.
        "tag_sign": OpCost(mean=2.5e-4, std=2.5e-5),
    }
)

#: The paper's ``N(a, b)`` parameters with ``b`` taken literally as the
#: standard deviation, zero-truncated.  Two of the published spreads
#: (1.73e-3 for insertion, 6.49e-3 for verification) then dwarf their
#: means, giving each operation a half-normal, millisecond-scale cost —
#: which is the only reading under which the paper's Fig. 5 latency
#: separation between Bloom-filter sizes is reproducible (Bloom resets
#: trigger re-validations whose ~ms delays move the per-second latency
#: average; with microsecond costs they cannot).  Used by the Fig. 5
#: reproduction; everything else uses the conservative PAPER_COST_MODEL.
PAPER_LITERAL_COST_MODEL = PAPER_COST_MODEL.with_overrides(
    bf_lookup=OpCost(mean=9.14e-7, std=6.51e-9),
    bf_insert=OpCost(mean=3.35e-7, std=1.73e-3),
    signature_verify=OpCost(mean=1.12e-5, std=6.49e-3),
)

#: A zero-cost model for tests that need deterministic timing.
ZERO_COST_MODEL = ComputationCostModel(costs={})


def benchmark_local_costs(
    bloom_factory: Optional[Callable[[], object]] = None,
    iterations: int = 2000,
    rsa_bits: int = 1024,
) -> ComputationCostModel:
    """Re-measure operation costs on the local host.

    Mirrors the authors' calibration step: time our own Bloom filter
    lookup/insert and *real* (RSA) signature verification — the paper's
    1.12e-5 s figure is OpenSSL-class public-key verification, so the
    HMAC-backed simulated scheme would not be a faithful stand-in here.
    Returns a cost model built from the measured means/standard
    deviations.  Imports are local to keep this module dependency-light.
    """
    import statistics

    from repro.crypto.rsa import generate_keypair
    from repro.filters.bloom import BloomFilter

    def _measure(fn: Callable[[int], None]) -> OpCost:
        samples = []
        for i in range(iterations):
            # Wall-clock is the *subject* here: calibrating real crypto
            # op costs on the host, never consulted during a sim run.
            start = time.perf_counter()  # simlint: disable=SL001
            fn(i)
            samples.append(time.perf_counter() - start)  # simlint: disable=SL001
        mean = statistics.fmean(samples)
        std = statistics.pstdev(samples)
        return OpCost(mean=mean, std=std)

    bloom = (bloom_factory() if bloom_factory else BloomFilter(capacity=1000, max_fpp=1e-4))
    for i in range(500):
        bloom.insert(f"seed-{i}".encode())

    keypair = generate_keypair(bits=rsa_bits, rng=seeded_stream(7))
    message = b"benchmark message for signature verification"
    signature = keypair.sign(message)
    public = keypair.public

    lookup_cost = _measure(lambda i: bloom.contains(f"probe-{i}".encode()))
    insert_cost = _measure(lambda i: bloom.insert(f"item-{i}".encode()))
    verify_cost = _measure(lambda i: public.verify(message, signature))

    return PAPER_COST_MODEL.with_overrides(
        bf_lookup=lookup_cost,
        bf_insert=insert_cost,
        signature_verify=verify_cost,
    )
