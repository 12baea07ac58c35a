"""Decision auditing: the ground-truth oracle's labels, the shadow-set
Bloom mirror, summary determinism/merging, the binomial-CI check, and
the zero-cost-off guarantee (audited runs are bit-identical)."""

from __future__ import annotations

import json

from repro.core.access_path import expected_access_path
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.ndn.name import Name
from repro.ndn.node import Node
from repro.ndn.packets import Interest
from repro.obs.audit import (
    DECISION_KINDS,
    DecisionAudit,
    LABEL_CORRECT,
    LABEL_FALSE_NEGATIVE,
    LABEL_FALSE_POSITIVE,
    audit_metrics,
    fp_confidence,
    merge_audit_summaries,
    render_audit_report,
)
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, resolve

from tests.conftest import bare_run, build_mini_net


class Probe(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, cs_capacity=0)
        self.datas = []
        self.nacks = []

    def on_data(self, data, in_face):
        self.datas.append(data)

    def on_nack(self, nack, in_face):
        self.nacks.append(nack)


def audited_net():
    net = build_mini_net()
    audit = DecisionAudit().install(bare_run(net.sim, net.network))
    probe = Probe(net.sim, "probe")
    net.network.add_node(probe, routable=False)
    net.network.connect(probe, net.ap, bandwidth_bps=10e6, latency=0.002)
    return net, audit, probe


def issue_tag(net, user_id="probe", level=3, ap_ids=("ap-0",)):
    net.provider.directory.enroll(user_id, level)
    return net.provider.issue_tag_direct(user_id, expected_access_path(ap_ids))


def request(net, probe, tag, name="/prov-0/obj-0/chunk-0"):
    net.sim.schedule(0.0, probe.faces[0].send, Interest(name=Name(name), tag=tag))
    net.run()


def decisions(summary, node_id):
    return summary["nodes"][node_id]["decisions"]


# ---------------------------------------------------------------------------
# Oracle labels on the live protocol path
# ---------------------------------------------------------------------------
class TestOracleEndToEnd:
    def test_valid_flow_is_all_correct(self):
        net, audit, probe = audited_net()
        request(net, probe, issue_tag(net))
        assert len(probe.datas) == 1
        totals = audit.summary()["totals"]
        assert totals["decisions"] > 0
        assert totals[LABEL_FALSE_POSITIVE] == 0
        assert totals[LABEL_FALSE_NEGATIVE] == 0
        assert totals[LABEL_CORRECT] == totals["decisions"]

    def test_edge_miss_then_hit_tracked_by_shadow(self):
        net, audit, probe = audited_net()
        tag = issue_tag(net)
        request(net, probe, tag)
        # First pass: the edge BF missed (tag not yet inserted).
        edge = decisions(audit.summary(), "edge-0")
        assert edge.get("bf_miss|miss|correct", 0) >= 1
        # Second pass: the content delivery inserted the tag, so the
        # next lookup is a *true* hit against the shadow.
        net.sim.schedule(0.0, probe.faces[0].send,
                         Interest(name=Name("/prov-0/obj-0/chunk-1"), tag=tag))
        net.run()
        edge = decisions(audit.summary(), "edge-0")
        assert edge.get("bf_hit|hit|correct", 0) >= 1
        assert audit.summary()["nodes"]["edge-0"]["bf_false_positives"] == 0

    def test_forged_tag_denial_is_correct_not_false_negative(self):
        net, audit, probe = audited_net()
        tag = issue_tag(net)
        forged = type(tag)(
            provider_key_locator=tag.provider_key_locator,
            client_key_locator=tag.client_key_locator,
            access_level=tag.access_level,
            access_path=tag.access_path,
            expiry=tag.expiry,
            signature=b"x" * 32,
        )
        request(net, probe, forged)
        assert probe.datas == []
        summary = audit.summary()
        totals = summary["totals"]
        # Denying a never-issued tag is the system working as intended.
        assert totals[LABEL_FALSE_NEGATIVE] == 0
        assert totals[LABEL_FALSE_POSITIVE] == 0
        invalid = [
            key
            for node in summary["nodes"].values()
            for key in node["decisions"]
            if key.startswith("sig_verify|invalid|")
        ]
        assert invalid == ["sig_verify|invalid|correct"]

    def test_roles_assigned_per_node(self):
        net, audit, probe = audited_net()
        request(net, probe, issue_tag(net))
        summary = audit.summary()
        assert summary["nodes"]["edge-0"]["role"] == "edge"
        assert summary["nodes"]["core-0"]["role"] == "core"
        assert summary["nodes"]["prov-0"]["role"] == "provider"
        assert summary["issued_tags"] == 1

    def test_provider_feeds_issuance_registry(self):
        net, audit, probe = audited_net()
        tag = issue_tag(net)
        assert audit._genuinely_valid(tag.cache_key())


# ---------------------------------------------------------------------------
# Oracle labels, site by site
# ---------------------------------------------------------------------------
class TestOracleLabels:
    """Direct hook-level checks against a live router node."""

    def _edge(self):
        net, audit, _ = audited_net()
        return net, audit, net.edge

    def test_bf_hit_without_shadow_membership_is_false_positive(self):
        net, audit, edge = self._edge()
        audit.note_bf_lookup(edge, b"never-inserted", found=True, cost=0.0)
        summary = audit.summary()
        assert decisions(summary, "edge-0")["bf_hit|hit|false_positive"] == 1
        assert summary["nodes"]["edge-0"]["bf_false_positives"] == 1
        assert summary["nodes"]["edge-0"]["bf_negative_lookups"] == 1

    def test_bf_negative_lookup_accumulates_theoretical_fpp(self):
        net, audit, edge = self._edge()
        edge.bloom.insert(b"k1")
        audit.note_bf_insert(edge, b"k1", reset_fired=False)
        audit.note_bf_lookup(edge, b"other", found=False, cost=0.0)
        state = audit.summary()["nodes"]["edge-0"]
        assert state["expected_fp_sum"] > 0.0
        assert 0.0 < state["expected_fp_var"] <= state["expected_fp_sum"]

    def test_saturation_reset_clears_the_shadow(self):
        net, audit, edge = self._edge()
        audit.note_bf_insert(edge, b"k1", reset_fired=False)
        audit.note_bf_insert(edge, b"k2", reset_fired=True)
        # The auto-reset wipes the filter after the insert, so neither
        # key survives: a subsequent miss on k1 is *correct*.
        audit.note_bf_lookup(edge, b"k1", found=False, cost=0.0)
        assert decisions(audit.summary(), "edge-0")["bf_miss|miss|correct"] == 1

    def test_nack_on_genuine_tag_is_false_negative(self):
        net, audit, edge = self._edge()
        tag = issue_tag(net, user_id="u1")
        audit.note_nack(edge, tag.cache_key(), "expired")
        audit.note_nack(edge, b"unknown", "invalid_signature")
        got = decisions(audit.summary(), "edge-0")
        assert got["nack|expired|false_negative"] == 1
        assert got["nack|invalid_signature|correct"] == 1

    def test_revoked_tag_denial_is_correct(self):
        net, audit, edge = self._edge()
        tag = issue_tag(net, user_id="u1")
        edge.revoke_tag_key(tag.cache_key())
        # Once revoked, NACKing the (formerly genuine) tag is correct.
        audit.note_nack(edge, tag.cache_key(), "revoked")
        got = decisions(audit.summary(), "edge-0")
        assert got["revoked|blacklist|correct"] == 1
        assert got["nack|revoked|correct"] == 1
        assert audit.summary()["revoked_tags"] == 1

    def test_f_recheck_skip_on_bogus_tag_is_false_positive(self):
        net, audit, edge = self._edge()
        genuine = issue_tag(net, user_id="u1")

        class FakeTag:
            def cache_key(self):
                return b"bogus"

        audit.note_f_recheck(edge, FakeTag(), fired=False, flag=0.01)
        audit.note_f_recheck(edge, genuine, fired=False, flag=0.01)
        audit.note_f_recheck(edge, FakeTag(), fired=True, flag=0.01)
        got = decisions(audit.summary(), "edge-0")
        assert got["f_recheck|skipped|false_positive"] == 1
        assert got["f_recheck|skipped|correct"] == 1
        assert got["f_recheck|fired|correct"] == 1

    def test_sig_verify_accepting_unissued_tag_is_false_positive(self):
        net, audit, edge = self._edge()

        class FakeTag:
            def cache_key(self):
                return b"forged"

        audit.note_sig_verify(edge, FakeTag(), valid=True, cost=0.0)
        got = decisions(audit.summary(), "edge-0")
        assert got["sig_verify|valid|false_positive"] == 1


# ---------------------------------------------------------------------------
# Record retention, sink, and trace emission
# ---------------------------------------------------------------------------
class TestRecordMaterialisation:
    def test_aggregate_only_by_default(self):
        net, audit, probe = audited_net()
        request(net, probe, issue_tag(net))
        assert audit.records == []
        assert audit.records_dropped == 0

    def test_max_records_caps_retention(self):
        net = build_mini_net()
        audit = DecisionAudit(max_records=3).install(bare_run(net.sim, net.network))
        for i in range(5):
            audit.record_decision("bf_miss", net.edge, outcome="miss")
        assert len(audit.records) == 3
        assert audit.records_dropped == 2
        record = audit.records[0]
        assert record.kind == "bf_miss"
        assert record.role == "edge"
        assert json.dumps(record.to_json_dict())  # JSON-able

    def test_sink_sees_every_record(self):
        net = build_mini_net()
        seen = []
        audit = DecisionAudit(sink=seen.append).install(bare_run(net.sim, net.network))
        audit.record_decision("nack", net.edge, outcome="expired")
        assert [r.kind for r in seen] == ["nack"]

    def test_trace_subscriber_gets_audit_decision_events(self):
        net, audit, probe = audited_net()
        events = []
        net.sim.trace.subscribe("audit.decision", events.append)
        request(net, probe, issue_tag(net))
        assert events
        payload = events[0].payload
        assert payload["decision"] in DECISION_KINDS
        assert payload["label"] == LABEL_CORRECT
        assert payload["node"]


# ---------------------------------------------------------------------------
# Summaries: determinism, merging, CI check, metrics
# ---------------------------------------------------------------------------
def _run_summary():
    net, audit, probe = audited_net()
    request(net, probe, issue_tag(net))
    return audit.summary()


class TestSummary:
    def test_summary_is_deterministic(self):
        first, second = _run_summary(), _run_summary()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_summary_json_round_trips(self):
        summary = _run_summary()
        assert json.loads(json.dumps(summary)) == summary

    def test_merge_into_empty_copies(self):
        summary = _run_summary()
        merged = merge_audit_summaries({}, summary)
        assert merged == summary
        merged["totals"]["decisions"] += 1
        assert merged != summary  # deep copy, not aliased

    def test_merge_doubles_counts(self):
        summary = _run_summary()
        merged = merge_audit_summaries({}, summary)
        merge_audit_summaries(merged, summary)
        assert merged["totals"]["decisions"] == 2 * summary["totals"]["decisions"]
        assert merged["issued_tags"] == 2 * summary["issued_tags"]
        for node_id, node in summary["nodes"].items():
            assert (
                merged["nodes"][node_id]["expected_fp_sum"]
                == 2 * node["expected_fp_sum"]
            )

    def test_merge_is_order_stable_for_counts(self):
        a, b = _run_summary(), _run_summary()
        b["nodes"]["edge-0"]["decisions"]["bf_miss|miss|correct"] = 99
        ab = merge_audit_summaries(merge_audit_summaries({}, a), b)
        ba = merge_audit_summaries(merge_audit_summaries({}, b), a)
        assert ab["totals"] == ba["totals"]

    def test_fleet_fp_within_binomial_ci(self):
        summary = _run_summary()
        confidence = fp_confidence(summary)
        assert confidence["fleet"]["within_ci"]
        assert confidence["fleet"]["lookups"] > 0
        for entry in confidence["nodes"].values():
            assert entry["within_ci"]

    def test_ci_flags_an_implausible_fp_count(self):
        summary = _run_summary()
        summary["nodes"]["edge-0"]["bf_false_positives"] = 1000
        confidence = fp_confidence(summary)
        assert not confidence["nodes"]["edge-0"]["within_ci"]

    def test_audit_metrics_flattens_for_history(self):
        summary = _run_summary()
        metrics = audit_metrics(summary)
        assert metrics["audit.decisions_total"] == summary["totals"]["decisions"]
        assert metrics["audit.false_positives"] == 0
        assert metrics["audit.edge-0.bf_misauth_rate"] == 0.0
        assert json.loads(json.dumps(metrics)) == metrics

    def test_render_report_covers_nodes_and_fleet(self):
        lines = render_audit_report(_run_summary())
        text = "\n".join(lines)
        assert "edge-0" in text and "fleet" in text
        assert "OUT-OF-CI" not in text


# ---------------------------------------------------------------------------
# Zero-cost off: audited runs are bit-identical to unaudited ones
# ---------------------------------------------------------------------------
class TestZeroCostOff:
    def test_audited_run_matches_unaudited_bit_for_bit(self):
        from repro.exec import ScenarioSpec
        from repro.exec.engine import _execute_spec
        from repro.obs.instruments import resolve

        spec = ScenarioSpec.make(
            seed=5, topology=1, duration=2.0, scale=0.1, hash_events=True
        )
        plain = _execute_spec(spec)
        audited = _execute_spec(spec, resolve(("audit",)))
        assert plain.metrics_dict() == audited.metrics_dict()
        assert plain.event_digest == audited.event_digest
        assert plain.event_digest  # the digest actually covers events
        assert audited.instruments["audit"]["totals"]["decisions"] > 0
        assert plain.instruments == {}

    def test_runner_audit_matches_unaudited_metrics(self):
        scenario = Scenario.paper_topology(1, duration=2.0, seed=5, scale=0.1)
        plain = run_scenario(scenario)
        audited = run_scenario(scenario, instruments=[DecisionAudit()])
        assert plain.to_summary().metrics_dict() == \
            audited.to_summary().metrics_dict()
        assert audited.instruments["audit"]["totals"]["decisions"] > 0
        assert plain.instruments == {}


# ---------------------------------------------------------------------------
# Telemetry bridge
# ---------------------------------------------------------------------------
class TestTelemetryBridge:
    def test_audit_tallies_become_labeled_metrics(self):
        from repro.obs.session import TelemetrySession

        scenario = Scenario.paper_topology(1, duration=2.0, seed=5, scale=0.1)
        session = TelemetrySession()
        result = run_scenario(scenario, instruments=[session, DecisionAudit()])
        snapshot = session.registry.snapshot()
        decisions = snapshot["audit_decisions_total"]["samples"]
        assert decisions
        assert sum(s["value"] for s in decisions) == \
            result.instruments["audit"]["totals"]["decisions"]
        rates = snapshot["audit_bf_misauth_rate"]["samples"]
        assert rates and all(s["value"] == 0.0 for s in rates)
        assert "audit_bf_expected_rate" in snapshot


# ---------------------------------------------------------------------------
# Environment gating (REPRO_OBS selects the audit row)
# ---------------------------------------------------------------------------
class TestEnvGating:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        assert resolve().names == ()

    def test_audit_env_opts_in(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "audit")
        obs = resolve()
        assert obs.names == ("audit",)
        assert isinstance(INSTRUMENTS["audit"].make(obs), DecisionAudit)

    def test_falsey_values_stay_off(self, monkeypatch):
        for raw in ("", " ", ",", " , "):
            monkeypatch.setenv(OBS_ENV, raw)
            assert resolve().names == ()
