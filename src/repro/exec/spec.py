"""Picklable scenario specifications.

A :class:`ScenarioSpec` is the *description* of one simulation point —
topology index, duration, seed, scale, scheme, config overrides — as
pure data.  Unlike a live :class:`~repro.experiments.scenario.Scenario`
(which already carries a generated topology plan), a spec is tiny,
cheap to pickle across a ``multiprocessing`` spawn boundary, and has a
canonical JSON form that the run cache hashes (see
:mod:`repro.exec.cache`).  Workers rebuild the full scenario with
:meth:`ScenarioSpec.build`; because a single seed fully determines a
run, the rebuilt scenario is guaranteed to reproduce the same results
the parent process would have measured in-process.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.attacker import AttackerMode


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to JSON-representable data with a stable order.

    Dataclass config objects (e.g. a ``ComputationCostModel`` override)
    are expanded field-by-field and tagged with their class name, so
    two different models never collide under one cache key.  Floats are
    passed through: ``json.dumps`` renders them via ``repr``, which
    round-trips exactly.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                key: canonical_value(val)
                for key, val in sorted(dataclasses.asdict(value).items())
            },
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, Mapping):
        return {str(key): canonical_value(val) for key, val in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to rebuild and run one scenario, as pure data.

    ``overrides`` holds :class:`~repro.core.config.TacticConfig` field
    overrides as a sorted tuple of ``(name, value)`` pairs (use
    :meth:`make` to normalise a dict).  ``attacker_modes`` carries
    :class:`~repro.core.attacker.AttackerMode` *names* (``None`` keeps
    the paper's default mix).  ``latency_bucket`` fixes the bucket the
    latency series is aggregated at.
    """

    topology: int = 1
    duration: float = 20.0
    seed: int = 1
    scale: float = 0.25
    scheme: str = "tactic"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    attacker_modes: Optional[Tuple[str, ...]] = None
    label: str = ""
    latency_bucket: float = 1.0

    @classmethod
    def make(
        cls,
        topology: int = 1,
        duration: float = 20.0,
        seed: int = 1,
        scale: float = 0.25,
        scheme: str = "tactic",
        overrides: Optional[Mapping[str, Any]] = None,
        attacker_modes: Optional[Sequence[Any]] = None,
        label: str = "",
        latency_bucket: float = 1.0,
    ) -> "ScenarioSpec":
        """Build a spec, normalising overrides and attacker modes."""
        items = tuple(sorted((overrides or {}).items()))
        modes: Optional[Tuple[str, ...]] = None
        if attacker_modes is not None:
            modes = tuple(
                mode.name if isinstance(mode, AttackerMode) else str(mode)
                for mode in attacker_modes
            )
        return cls(
            topology=topology,
            duration=duration,
            seed=seed,
            scale=scale,
            scheme=scheme,
            overrides=items,
            attacker_modes=modes,
            label=label,
            latency_bucket=latency_bucket,
        )

    def with_overrides(self, **extra: Any) -> "ScenarioSpec":
        """A copy with additional config overrides merged in."""
        merged = dict(self.overrides)
        merged.update(extra)
        return dataclasses.replace(self, overrides=tuple(sorted(merged.items())))

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def build(self) -> Any:
        """Materialise the live :class:`Scenario` this spec describes."""
        from repro.core.attacker import PAPER_MODES
        from repro.experiments.scenario import Scenario

        modes = PAPER_MODES
        if self.attacker_modes is not None:
            modes = tuple(AttackerMode[name] for name in self.attacker_modes)
        scenario = Scenario.paper_topology(
            self.topology,
            duration=self.duration,
            seed=self.seed,
            scale=self.scale,
            scheme=self.scheme,
            attacker_modes=modes,
        )
        if self.overrides:
            scenario = scenario.with_config(**dict(self.overrides))
        if self.label:
            scenario = dataclasses.replace(scenario, label=self.label)
        return scenario

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """The spec as stable JSON-representable data (cache-key input)."""
        overrides: List[Any] = [
            [name, canonical_value(value)] for name, value in self.overrides
        ]
        return {
            "topology": self.topology,
            "duration": self.duration,
            "seed": self.seed,
            "scale": self.scale,
            "scheme": self.scheme,
            "overrides": overrides,
            "attacker_modes": (
                list(self.attacker_modes) if self.attacker_modes is not None else None
            ),
            "label": self.label,
            "latency_bucket": self.latency_bucket,
        }
