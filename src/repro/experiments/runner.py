"""Scenario assembly and execution.

``run_scenario`` turns a :class:`~repro.experiments.scenario.Scenario`
into a live simulation — providers with published catalogs, TACTIC (or
baseline) routers, access points, enrolled clients, the attacker mix —
runs it, and returns a :class:`RunResult` exposing every quantity the
paper's figures and tables report.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.accconf import ACCCONF_SCHEME
from repro.baselines.client_side import CLIENT_SIDE_SCHEME
from repro.baselines.interfaces import SchemeSpec
from repro.baselines.no_bloom import NO_BLOOM_SCHEME
from repro.baselines.provider_auth import PROVIDER_AUTH_SCHEME
from repro.core.attacker import Attacker, AttackerMode
from repro.core.client import Client
from repro.core.config import TacticConfig
from repro.core.core_router import CoreRouter
from repro.core.edge_router import EdgeRouter
from repro.core.access_path import expected_access_path
from repro.core.metrics import MetricsCollector, OpCounters
from repro.core.provider import Provider
from repro.crypto.pki import Certificate, CertificateStore
from repro.crypto.rsa import generate_keypair
from repro.crypto.sim_signature import SimulatedKeyPair
from repro.experiments.scenario import Scenario
from repro.ndn.link import Face
from repro.ndn.network import Network
from repro.ndn.node import AccessPoint
from repro.ndn.packets import reset_nonce_counter
from repro.sim.engine import Simulator
from repro.workload.catalog import Catalog, build_catalog

TACTIC_SCHEME = SchemeSpec(
    name="tactic",
    make_edge_router=lambda sim, nid, cfg, certs, met=None: EdgeRouter(
        sim, nid, cfg, certs, met
    ),
    make_core_router=lambda sim, nid, cfg, certs, met=None: CoreRouter(
        sim, nid, cfg, certs, met
    ),
    make_provider=lambda sim, nid, cfg, certs, kp: Provider(sim, nid, cfg, certs, kp),
    clients_register=True,
)

SCHEME_REGISTRY: Dict[str, SchemeSpec] = {
    "tactic": TACTIC_SCHEME,
    "no_bloom": NO_BLOOM_SCHEME,
    "client_side": CLIENT_SIDE_SCHEME,
    "provider_auth": PROVIDER_AUTH_SCHEME,
    "accconf": ACCCONF_SCHEME,
}


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    scenario: Scenario
    config: TacticConfig
    metrics: MetricsCollector
    network: Network
    sim: Simulator
    providers: List[Provider]
    clients: List[Client]
    attackers: List[Attacker]
    wall_seconds: float = 0.0
    #: Each installed instrument's ``finalize()`` record, by name
    #: (:mod:`repro.obs.instruments`); empty for a plain run.
    instruments: Dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Table IV quantities
    # ------------------------------------------------------------------
    def client_delivery_ratio(self) -> float:
        return self.metrics.delivery_ratio(attackers=False)

    def attacker_delivery_ratio(self) -> float:
        return self.metrics.delivery_ratio(attackers=True)

    def delivery_table_row(self) -> Dict[str, float]:
        return {
            "client_requested": self.metrics.total_requested(False),
            "client_received": self.metrics.total_received(False),
            "client_ratio": self.client_delivery_ratio(),
            "attacker_requested": self.metrics.total_requested(True),
            "attacker_received": self.metrics.total_received(True),
            "attacker_ratio": self.attacker_delivery_ratio(),
        }

    # ------------------------------------------------------------------
    # Fig. 5 / Fig. 6 quantities
    # ------------------------------------------------------------------
    def latency_series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        return self.metrics.latency_series(bucket)

    def mean_latency(self) -> Optional[float]:
        return self.metrics.mean_latency()

    def tag_rates(self) -> Tuple[float, float]:
        return self.metrics.tag_rates(self.config.duration)

    # ------------------------------------------------------------------
    # Fig. 7 / Fig. 8 / Table V quantities
    # ------------------------------------------------------------------
    def operation_counts(self, edge: bool) -> OpCounters:
        return self.metrics.merged_counters(edge=edge)

    def reset_threshold(self, edge: bool) -> Optional[float]:
        return self.metrics.reset_threshold(edge=edge)

    def total_bf_resets(self, edge: bool) -> int:
        return self.metrics.total_bf_resets(edge=edge)

    # ------------------------------------------------------------------
    # Network-level
    # ------------------------------------------------------------------
    def network_bytes(self) -> int:
        return self.network.total_bytes()

    def network_drops(self) -> int:
        return self.network.total_drops()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def to_summary(self, latency_bucket: float = 1.0):
        """Extract the compact, picklable
        :class:`~repro.exec.summary.RunSummary` carrying every quantity
        the figures and tables read (drops the live simulation)."""
        from repro.exec.summary import summarize

        return summarize(self, latency_bucket=latency_bucket)


@dataclass
class _Assembly:
    """The live run; instruments ``install(run)`` against it."""

    sim: Simulator
    network: Network
    cert_store: CertificateStore
    metrics: MetricsCollector
    config: TacticConfig
    providers: List[Provider] = field(default_factory=list)
    clients: List[Client] = field(default_factory=list)
    attackers: List[Attacker] = field(default_factory=list)
    scenario: Optional[Scenario] = None
    label: str = ""
    horizon: float = 0.0
    #: The run's live instruments by name (each finds its peers here).
    instruments: Dict[str, object] = field(default_factory=dict)
    wall_seconds: float = 0.0


def _make_keypair(config: TacticConfig, rng) -> object:
    if config.signature_scheme == "rsa":
        return generate_keypair(bits=config.rsa_bits, rng=rng)
    return SimulatedKeyPair.generate(rng)


def _access_level_plan(config: TacticConfig) -> List[Optional[int]]:
    """Per-object access levels for one provider's catalog.

    The first ``public_fraction`` of slots publish as public (ALD NULL);
    the rest cycle through levels 1..num_access_levels.
    """
    total = config.objects_per_provider
    num_public = round(config.public_fraction * total)
    levels: List[Optional[int]] = [None] * num_public
    for i in range(total - num_public):
        levels.append(1 + i % config.num_access_levels)
    return levels


def build_assembly(scenario: Scenario) -> _Assembly:
    """Materialize a scenario into live nodes (exposed for tests)."""
    spec = SCHEME_REGISTRY[scenario.scheme]
    config = spec.config_transform(scenario.config)
    config.validate()
    plan = scenario.plan

    # Fresh process-global allocators: nonce and face-id values must
    # depend only on the scenario, not on earlier runs in this process
    # (state-footprint byte accounting is compared bit-for-bit between
    # serial and per-worker executions).
    reset_nonce_counter()
    Face.reset_face_ids()

    sim = Simulator(seed=config.seed)
    network = Network(sim)
    cert_store = CertificateStore()
    metrics = MetricsCollector()
    assembly = _Assembly(
        sim,
        network,
        cert_store,
        metrics,
        config,
        scenario=scenario,
        label=scenario.label or scenario.scheme,
        horizon=config.duration + config.drain_time,
    )
    key_rng = sim.rng.stream("keys")
    population_rng = sim.rng.stream("population")

    # --- Providers -----------------------------------------------------
    for provider_id in plan.provider_ids:
        keypair = _make_keypair(config, key_rng)
        provider = spec.make_provider(sim, provider_id, config, cert_store, keypair)
        provider.publish_catalog(_access_level_plan(config))
        network.add_node(provider, routable=True)
        assembly.providers.append(provider)

    # --- Routers and access points -------------------------------------
    for core_id in plan.core_ids:
        network.add_node(
            spec.make_core_router(sim, core_id, config, cert_store, metrics),
            routable=True,
        )
    for edge_id in plan.edge_ids:
        network.add_node(
            spec.make_edge_router(sim, edge_id, config, cert_store, metrics),
            routable=True,
        )
    for ap_id in plan.ap_ids:
        network.add_node(AccessPoint(sim, ap_id), routable=False)

    # --- Users ----------------------------------------------------------
    catalog = build_catalog(assembly.providers, shuffle_seed=config.seed)
    _build_clients(scenario, config, assembly, catalog, population_rng, key_rng)
    _build_attackers(scenario, config, assembly, catalog, population_rng)

    # --- Links ------------------------------------------------------
    for link_spec in plan.links:
        network.connect(
            network.node(link_spec.a),
            network.node(link_spec.b),
            bandwidth_bps=link_spec.bandwidth_bps,
            latency=link_spec.latency,
            loss_rate=config.edge_loss_rate if link_spec.kind == "edge" else 0.0,
        )
    for ap_id, edge_id in plan.ap_edge.items():
        ap = network.node(ap_id)
        ap.set_uplink(ap.face_toward(network.node(edge_id)))

    # --- Routes ---------------------------------------------------------
    for provider in assembly.providers:
        network.announce_prefix(provider.prefix, provider)

    return assembly


def _build_clients(scenario, config, assembly, catalog, population_rng, key_rng):
    plan = scenario.plan
    client_cls = SCHEME_REGISTRY[scenario.scheme].client_factory or Client
    for client_id in plan.client_ids:
        access_level = population_rng.randint(1, config.num_access_levels)
        stats = assembly.metrics.user(client_id, is_attacker=False)
        keypair = _make_keypair(config, key_rng)
        client = client_cls(
            assembly.sim,
            client_id,
            config,
            catalog.accessible_to(access_level),
            stats,
            access_level=access_level,
            keypair=keypair,
        )
        for provider in assembly.providers:
            client.credentials[provider.node_id] = provider.directory.enroll(
                client_id, access_level, public_key=keypair.public
            )
        # Client certificate, resolvable via the tag's Pubu locator
        # (used only in the client-signature authentication mode).
        assembly.cert_store.register(
            Certificate(
                locator=f"/{client_id}/KEY/pub",
                public_key=keypair.public,
                subject=client_id,
            )
        )
        assembly.network.add_node(client, routable=False)
        assembly.clients.append(client)


def _build_attackers(scenario, config, assembly, catalog, population_rng):
    plan = scenario.plan
    modes = scenario.attacker_modes
    if not modes:
        return
    locators = {p.node_id: p.key_locator for p in assembly.providers}
    target_catalog = catalog.private_only()
    if len(target_catalog) == 0:
        target_catalog = catalog  # all-public runs: attack everything
    for index, attacker_id in enumerate(plan.attacker_ids):
        mode = modes[index % len(modes)]
        victim = None
        if mode is AttackerMode.SHARED_TAG:
            victim = _pick_victim(plan, assembly.clients, attacker_id)
            if victim is None:
                mode = AttackerMode.NO_TAG  # degenerate topology: no victim
        stats = assembly.metrics.user(attacker_id, is_attacker=True)
        attacker = Attacker(
            assembly.sim,
            attacker_id,
            config,
            target_catalog,
            stats,
            mode=mode,
            victim=victim,
            provider_key_locators=locators,
        )
        attacker.expected_access_path = expected_access_path(
            [plan.user_ap[attacker_id]]
        )
        if mode in (AttackerMode.EXPIRED_TAG, AttackerMode.LOW_ACCESS_LEVEL):
            level = 0 if mode is AttackerMode.LOW_ACCESS_LEVEL else config.num_access_levels
            for provider in assembly.providers:
                attacker.credentials[provider.node_id] = provider.directory.enroll(
                    attacker_id, level
                )
        assembly.network.add_node(attacker, routable=False)
        assembly.attackers.append(attacker)


def _pick_victim(plan, clients, attacker_id):
    """A client attached to a *different* access point (the paper's
    assumption: "the client and the unauthorized user are not
    co-located under the same access point")."""
    attacker_ap = plan.user_ap[attacker_id]
    for client in clients:
        if plan.user_ap[client.node_id] != attacker_ap:
            return client
    return None


def _seed_stale_tags(assembly: _Assembly) -> None:
    """Issue time-zero tags to EXPIRED_TAG attackers; they start
    requesting only after the tags die (threat (c))."""
    for attacker in assembly.attackers:
        if attacker.mode is not AttackerMode.EXPIRED_TAG:
            continue
        for provider in assembly.providers:
            tag = provider.issue_tag_direct(
                attacker.node_id, attacker.expected_access_path
            )
            if tag is not None:
                attacker.stale_tags[provider.node_id] = tag


def run_scenario(
    scenario: Scenario, instruments: Optional[Sequence[object]] = None
) -> RunResult:
    """Assemble and execute one scenario end to end.

    ``instruments`` are live objects from :mod:`repro.obs.instruments`
    (``SimSan()``, ``DecisionAudit()``, ``TelemetrySession()``, …);
    each is installed in table order right after the build, before the
    first tag is issued, and finalized in reverse after the run, and its
    record lands in ``RunResult.instruments``.  ``None`` selects the
    ``REPRO_OBS`` rows, as ``ExperimentEngine(obs=None)`` does; ``()``
    selects none.  With ``REPRO_OBS`` unset, a run loads no
    observability or QA module at all.
    """
    if instruments is None:
        instruments = ()
        # The literal, not ``OBS_ENV``: importing it would load the
        # observability package on every plain run.
        if os.environ.get("REPRO_OBS", "").strip():
            from repro.obs.instruments import make_live, resolve

            instruments = make_live(resolve())
    assembly = build_assembly(scenario)
    config = assembly.config
    sim = assembly.sim
    start_rng = sim.rng.stream("start-offsets")
    duration = config.duration

    live = list(instruments)
    if live:
        from repro.obs.instruments import INSTRUMENTS

        order = list(INSTRUMENTS)
        live.sort(key=lambda item: order.index(item.name))
    assembly.instruments = {item.name: item for item in live}
    # Instruments install before any tag is issued (_seed_stale_tags
    # feeds the audit oracle's issued-tag registry through the provider
    # hook).
    for item in live:
        item.install(assembly)

    _seed_stale_tags(assembly)

    for client in assembly.clients:
        client.start(at=start_rng.uniform(0.0, 1.0), until=duration)
    for attacker in assembly.attackers:
        offset = start_rng.uniform(0.0, 1.0)
        if attacker.mode is AttackerMode.EXPIRED_TAG:
            offset += config.tag_expiry + 0.5  # wait out the stale tag
        attacker.start(at=min(offset, duration), until=duration)

    began = time.perf_counter()
    try:
        sim.run(until=assembly.horizon)
        assembly.wall_seconds = time.perf_counter() - began
        # Reverse table order: SimSan finalizes last, so an end-of-run
        # violation raises only after every peer has finalized.
        records = {item.name: item.finalize() for item in reversed(live)}
    finally:
        # Restore the layer shims and stop the side threads even when
        # the run raises (close is idempotent after finalize).
        for item in live:
            close = getattr(item, "close", None)
            if close is not None:
                close()

    return RunResult(
        scenario=scenario,
        config=config,
        metrics=assembly.metrics,
        network=assembly.network,
        sim=sim,
        providers=assembly.providers,
        clients=assembly.clients,
        attackers=assembly.attackers,
        wall_seconds=assembly.wall_seconds,
        instruments=records,
    )
