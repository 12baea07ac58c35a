"""Parameter sweeps with multi-seed statistics.

The paper "averaged the results of each topology over five runs with
different seeds"; this module provides that machinery generically: a
grid of configuration points, N seeds per point, and per-metric
aggregates (mean, standard deviation, Student-t confidence interval).

>>> from repro.experiments.sweeps import SweepSpec, run_sweep
>>> spec = SweepSpec(
...     base=dict(topology=1, duration=4.0, scale=0.15),
...     grid={"tag_expiry": [5.0, 50.0]},
...     seeds=[1, 2],
...     metrics={"q_rate": lambda r: r.tag_rates()[0]},
... )
>>> points = run_sweep(spec)          # doctest: +SKIP
>>> points[0].aggregate("q_rate").mean  # doctest: +SKIP
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec import ScenarioSpec, run_specs

#: Metric extractors receive a :class:`~repro.exec.summary.RunSummary`,
#: whose accessors mirror ``RunResult`` — extractors written against
#: either API work unchanged.
MetricFn = Callable[[Any], float]

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228}


def t_critical(dof: int) -> float:
    """95% two-sided t value; prefers scipy when available, falls back
    to the table (clamped at the asymptotic 1.96 beyond it)."""
    if dof <= 0:
        return float("nan")
    try:
        from scipy import stats

        return float(stats.t.ppf(0.975, dof))
    except Exception:  # pragma: no cover - scipy is normally installed
        return _T95.get(dof, 1.96)


@dataclass(frozen=True)
class Aggregate:
    """Mean / spread / CI of one metric across seeds."""

    mean: float
    std: float
    count: int
    ci_halfwidth: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth


def aggregate(samples: Sequence[float]) -> Aggregate:
    """Aggregate seed samples into mean/std/95%-CI.

    >>> agg = aggregate([1.0, 2.0, 3.0])
    >>> agg.mean
    2.0
    >>> agg.ci_low < 2.0 < agg.ci_high
    True
    """
    if not samples:
        raise ValueError("no samples")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return Aggregate(mean=mean, std=0.0, count=1, ci_halfwidth=0.0)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    halfwidth = t_critical(n - 1) * std / math.sqrt(n)
    return Aggregate(mean=mean, std=std, count=n, ci_halfwidth=halfwidth)


@dataclass
class SweepSpec:
    """Declarative description of a sweep.

    ``base`` holds fixed scenario parameters (``topology``, ``duration``,
    ``scale``, ``scheme``); ``grid`` maps TacticConfig field names to the
    values to sweep (full cross-product); ``metrics`` maps metric names
    to extractor functions over :class:`RunResult`.
    """

    base: Dict[str, Any]
    grid: Dict[str, List[Any]]
    seeds: List[int]
    metrics: Dict[str, MetricFn]

    def points(self) -> List[Dict[str, Any]]:
        """The cross-product of grid values, as config-override dicts."""
        if not self.grid:
            return [{}]
        keys = sorted(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[k] for k in keys))
        ]


@dataclass
class SweepPoint:
    """Results of all seeds at one grid point."""

    overrides: Dict[str, Any]
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def aggregate(self, metric: str) -> Aggregate:
        return aggregate(self.samples[metric])

    def label(self) -> str:
        if not self.overrides:
            return "(base)"
        return ", ".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))


def enumerate_sweep(spec: SweepSpec) -> List[ScenarioSpec]:
    """Flatten the sweep into (grid point x seed) scenario specs, in
    the same order ``run_sweep`` consumes them."""
    base = dict(spec.base)
    topology = base.pop("topology", 1)
    duration = base.pop("duration", 10.0)
    scale = base.pop("scale", 0.2)
    scheme = base.pop("scheme", "tactic")
    return [
        ScenarioSpec.make(
            topology=topology,
            duration=duration,
            seed=seed,
            scale=scale,
            scheme=scheme,
            overrides={**base, **overrides},
        )
        for overrides in spec.points()
        for seed in spec.seeds
    ]


def run_sweep(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> List[SweepPoint]:
    """Execute the full sweep: every grid point x every seed.

    Runs go through the :mod:`repro.exec` engine — ``jobs`` fans the
    (point x seed) grid over worker processes, ``cache_dir`` reuses
    prior results.  Metric extractors are applied in the parent process
    to the returned summaries, so they never cross a process boundary.
    """
    scenario_specs = enumerate_sweep(spec)
    summaries = run_specs(
        scenario_specs, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        figure="sweep",
    )
    per_point = len(spec.seeds)
    results: List[SweepPoint] = []
    for index, overrides in enumerate(spec.points()):
        point = SweepPoint(overrides=overrides)
        for metric in spec.metrics:
            point.samples[metric] = []
        for summary in summaries[index * per_point : (index + 1) * per_point]:
            for metric, fn in spec.metrics.items():
                point.samples[metric].append(fn(summary))
        results.append(point)
    return results


def render_sweep(points: List[SweepPoint], metrics: Sequence[str]) -> str:
    """ASCII table: one row per grid point, mean +/- CI per metric."""
    from repro.experiments.report import render_table

    rows = []
    for point in points:
        row: List[Any] = [point.label()]
        for metric in metrics:
            agg = point.aggregate(metric)
            row.append(f"{agg.mean:.4g} ± {agg.ci_halfwidth:.2g}")
        rows.append(row)
    return render_table(["point", *metrics], rows, title="Sweep results (95% CI)")
