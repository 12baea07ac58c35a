"""Flight recorder: the bounded ring, the NACK-storm and SimSan
triggers, on-demand bundles, snapshot contents, and the ``--obs`` row."""

from __future__ import annotations

import json

import pytest

from repro.core.access_path import expected_access_path
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.ndn.name import Name
from repro.ndn.node import Node
from repro.ndn.packets import Interest
from repro.ndn.pit import Pit, PitRecord
from repro.obs.audit import DecisionAudit
from repro.obs.flightrec import DEFAULT_RING_SIZE, FlightRecorder
from repro.obs.instruments import INSTRUMENTS, resolve
from repro.qa.simsan import SimSan
from repro.sim.engine import Simulator

from tests.conftest import bare_run, build_mini_net


class Probe(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, cs_capacity=0)
        self.nacks = []

    def on_data(self, data, in_face):
        pass

    def on_nack(self, nack, in_face):
        self.nacks.append(nack)


def probed_net():
    net = build_mini_net()
    probe = Probe(net.sim, "probe")
    net.network.add_node(probe, routable=False)
    net.network.connect(probe, net.ap, bandwidth_bps=10e6, latency=0.002)
    return net, probe


def mismatched_tag(net, user_id="probe"):
    """A tag whose access path NACKs at the edge (Protocol 2)."""
    net.provider.directory.enroll(user_id, 3)
    return net.provider.issue_tag_direct(
        user_id, expected_access_path(("ap-elsewhere",))
    )


# ---------------------------------------------------------------------------
# The ring
# ---------------------------------------------------------------------------
class TestRing:
    def test_ring_is_bounded(self, tmp_path):
        sim = Simulator()
        rec = FlightRecorder(tmp_path, size=4).install(bare_run(sim))
        for i in range(10):
            sim.trace.emit("node.rx.interest", float(i), node=f"n{i}")
        assert len(rec.ring) == 4
        assert rec.ring[0][1] == 6.0  # oldest survivor

    def test_install_is_what_activates_tracing(self, tmp_path):
        sim = Simulator()
        assert not sim.trace.active  # zero-cost off: no subscriber
        FlightRecorder(tmp_path).install(bare_run(sim))
        assert sim.trace.active

    def test_span_lifecycle_tracked(self, tmp_path):
        sim = Simulator()
        rec = FlightRecorder(tmp_path).install(bare_run(sim))
        sim.trace.emit("span.start", 0.1, span=7, kind="interest")
        sim.trace.emit("span.start", 0.2, span=8, kind="interest")
        sim.trace.emit("span.end", 0.3, span=7)
        assert sorted(rec._active_spans) == [8]
        bundle = rec.bundle("test")
        assert list(bundle["active_spans"]) == ["8"]
        assert bundle["active_spans"]["8"]["started"] == 0.2

    def test_audit_decisions_ride_the_ring(self, tmp_path):
        net = build_mini_net()
        rec = FlightRecorder(tmp_path).install(bare_run(net.sim, net.network))
        audit = DecisionAudit(sink=rec.on_decision).install(bare_run(net.sim, net.network))
        audit.record_decision("bf_miss", net.edge, outcome="miss")
        names = [name for name, _, _ in rec.ring]
        assert "audit.decision" in names


# ---------------------------------------------------------------------------
# Triggers
# ---------------------------------------------------------------------------
class TestNackStormTrigger:
    def test_storm_dumps_once(self, tmp_path):
        net, probe = probed_net()
        rec = FlightRecorder(
            tmp_path, nack_threshold=2, nack_window=60.0
        ).install(bare_run(net.sim, net.network))
        tag = mismatched_tag(net)
        for chunk in range(4):
            net.sim.schedule(
                0.0,
                probe.faces[0].send,
                Interest(name=Name(f"/prov-0/obj-0/chunk-{chunk}"), tag=tag),
            )
        net.run()
        assert len(probe.nacks) == 4
        assert len(rec.dumps) == 1  # the storm latch fires exactly once
        bundle = json.loads(rec.dumps[0].read_text())
        assert bundle["reason"] == "nack-storm"

    def test_sparse_nacks_stay_quiet(self, tmp_path):
        sim = Simulator()
        rec = FlightRecorder(
            tmp_path, nack_threshold=3, nack_window=1.0
        ).install(bare_run(sim))
        for i in range(5):
            sim.trace.emit("node.tx.nack", float(i * 10), node="edge-0")
        assert rec.dumps == []

    def test_attached_nack_on_data_counts(self, tmp_path):
        sim = Simulator()
        rec = FlightRecorder(
            tmp_path, nack_threshold=2, nack_window=1.0
        ).install(bare_run(sim))
        sim.trace.emit("node.tx.data", 0.1, node="core-0", nack="invalid_signature")
        sim.trace.emit("node.tx.data", 0.2, node="core-0", nack="invalid_signature")
        sim.trace.emit("node.tx.data", 0.3, node="core-0", nack=None)
        assert len(rec.dumps) == 1


class TestSimSanTrigger:
    def test_first_violation_dumps_a_bundle(self, tmp_path):
        san = SimSan(mode="collect")
        san.flightrec = FlightRecorder(tmp_path, label="san")
        pit = Pit(entry_lifetime=2.0)
        pit.san = san
        pit.insert(
            "/a/1",
            PitRecord(tag=None, flag_f=0.0, in_face="f0", arrived_at=0.0),
            now=0.0,
        )
        pit._entries.clear()  # leak the record
        violations = san.finish()
        assert [v.kind for v in violations] == ["pit-conservation"]
        assert len(san.flightrec.dumps) == 1
        bundle = json.loads(san.flightrec.dumps[0].read_text())
        assert bundle["reason"] == "simsan-pit-conservation"
        assert bundle["label"] == "san"


    def test_end_of_run_violation_still_finalizes(self, tmp_path):
        class FailingSanitizer:
            name = "simsan"
            flightrec = None

            def install(self, run):
                pass

            def finalize(self):
                raise AssertionError("conservation violated")

        scenario = Scenario.paper_topology(1, duration=1.0, seed=5, scale=0.1)
        rec = FlightRecorder(tmp_path, dump_on_exit=True)
        with pytest.raises(AssertionError, match="conservation"):
            run_scenario(scenario, instruments=[rec, FailingSanitizer()])
        assert [path.name for path in tmp_path.iterdir()] == [rec.dumps[0].name]


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------
class TestBundle:
    def test_end_to_end_bundle_snapshots_tables(self, tmp_path):
        scenario = Scenario.paper_topology(1, duration=2.0, seed=5, scale=0.1)
        rec = FlightRecorder(tmp_path, size=4096, dump_on_exit=True)
        result = run_scenario(scenario, instruments=[rec, DecisionAudit()])
        assert result.instruments["flightrec"]["bundles"] == [rec.dumps[0].name]
        assert len(rec.dumps) == 1
        bundle = json.loads(rec.dumps[0].read_text())
        assert bundle["reason"] == "on-demand"
        assert bundle["events_executed"] > 0
        assert bundle["ring"]
        names = {entry["name"] for entry in bundle["ring"]}
        assert "audit.decision" in names  # the audit sink feeds the ring
        some_router = next(
            snap for snap in bundle["nodes"].values() if "bf" in snap
        )
        assert {"count", "size_bits", "fill_ratio", "current_fpp", "resets"} \
            <= set(some_router["bf"])
        assert "pit_entries" in some_router
        assert {"entries", "hits", "misses"} <= set(some_router["cs"])

    def test_bundle_is_json_round_trippable(self, tmp_path):
        sim = Simulator()
        rec = FlightRecorder(tmp_path).install(bare_run(sim))
        sim.trace.emit("node.rx.data", 0.1, node="edge-0", key=b"\x01\x02")
        bundle = rec.bundle("test")
        assert json.loads(json.dumps(bundle)) == bundle
        assert bundle["ring"][0]["payload"]["key"] == "0102"  # bytes hexed

    def test_dump_filenames_sequence(self, tmp_path):
        rec = FlightRecorder(tmp_path, label="fig6")
        first = rec.dump("on-demand")
        second = rec.dump("on-demand")
        assert first.name == "flightrec-fig6-000.json"
        assert second.name == "flightrec-fig6-001.json"

    def test_finish_without_dump_on_exit_writes_nothing(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        assert rec.finalize() == {"runs": 1, "bundles": []}
        assert rec.dumps == []
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Environment gating (REPRO_OBS selects the flightrec row)
# ---------------------------------------------------------------------------
class TestEnvGating:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert "flightrec" not in resolve().names

    def test_directory_opts_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS", "flightrec")
        monkeypatch.setenv("REPRO_OBS_OUT", str(tmp_path))
        rec = INSTRUMENTS["flightrec"].make(resolve())
        assert rec.directory == tmp_path / "flightrec"
        assert rec.size == DEFAULT_RING_SIZE
        assert rec.dump_on_exit  # --obs flightrec always bundles the run end
