"""The state-footprint observatory: deep sizeof, trend fitting, the
``state_cost()`` protocol, conformance checks, fleet merge parity, and
the ``python -m repro.obs.statescope`` CLI exit contract."""

from __future__ import annotations

import hashlib
import json
import sys
from types import SimpleNamespace

import pytest

from repro.experiments import Scenario, run_scenario
from repro.filters.bloom import BloomFilter
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.packets import Data
from repro.ndn.pit import Pit, PitRecord
from repro.obs.audit import DecisionAudit
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, resolve
from repro.obs.statescope import (
    GROWTH_SERIES,
    SAMPLE_INTERVAL,
    STATESCOPE_SERIES,
    StateScope,
    deep_sizeof,
    fit_trend,
    growth_finding,
    main,
    merge_statescope,
    render_statescope_report,
    statescope_metrics,
)
from repro.sim.engine import Simulator

from tests.conftest import attach_client, bare_run, build_mini_net

#: sha256 of ``json.dumps(series, sort_keys=True)`` over the per-node
#: series that the former ``samples`` row wrote for
#: ``fast_scenario(seed=3)``, minus its ``sim_pending_events`` series
#: (the same reading as ``state.heap.pending``).  Both rows ticked back
#: to back at the same instants, so ``record["nodes"]`` must match it.
SAMPLES_NODES_SHA256 = "2a8f5d79960851302874e5b0abc9a79f5503be58a1201b86eb30810a478f40a8"

#: A network with no nodes and no links.
EMPTY_NETWORK = SimpleNamespace(nodes={}, links=[])


def fast_scenario(**kwargs):
    params = dict(duration=5.0, seed=1, scale=0.1)
    params.update(kwargs)
    return Scenario.paper_topology(1, **params)


# ---------------------------------------------------------------------------
# deep_sizeof
# ---------------------------------------------------------------------------
class TestDeepSizeof:
    def test_counts_container_contents(self):
        payload = "x" * 4096
        assert deep_sizeof([payload]) >= sys.getsizeof(payload)
        assert deep_sizeof({"k": payload}) >= sys.getsizeof(payload)

    def test_shared_substructure_counted_once(self):
        inner = ["x" * 256, "y" * 256]
        outer = [inner, inner]
        assert (
            deep_sizeof(outer) - sys.getsizeof(outer) == deep_sizeof(inner)
        )

    def test_seen_set_memoizes_across_calls(self):
        seen = set()
        inner = ["x" * 256]
        assert deep_sizeof(inner, seen) > 0
        assert deep_sizeof(inner, seen) == 0

    def test_slots_instances_traversed(self):
        # PitRecord is a __slots__ dataclass: its tag payload must be
        # billed even though the instance has no __dict__.
        record = PitRecord(
            tag="t" * 2048, flag_f=0.0, in_face=None, arrived_at=0.0
        )
        assert deep_sizeof(record) >= sys.getsizeof("t" * 2048)

    def test_ownership_boundary_stops_at_backrefs(self):
        # An object carrying a node_id backref (faces, nodes) is a
        # boundary: counted shallow, never traversed.
        class _Face:
            def __init__(self):
                self.node_id = "r1"
                self.payload = "z" * 100000

        _Face.__module__ = "repro._fixture"
        face = _Face()
        record = PitRecord(tag=None, flag_f=0.0, in_face=face, arrived_at=0.0)
        assert deep_sizeof(record) < 50000

    def test_foreign_objects_counted_shallow(self):
        class _Foreign:
            def __init__(self):
                self.payload = "z" * 100000

        obj = _Foreign()  # module is not repro.* -> shallow
        assert deep_sizeof([obj]) < 50000


# ---------------------------------------------------------------------------
# Trend fitting and growth findings
# ---------------------------------------------------------------------------
class TestTrends:
    def test_fit_exact_line(self):
        samples = [(float(t), 2.0 * t + 1.0) for t in range(5)]
        trend = fit_trend(samples)
        assert trend["slope"] == pytest.approx(2.0)
        assert trend["intercept"] == pytest.approx(1.0)
        assert trend["r2"] == pytest.approx(1.0)

    def test_flat_series_has_zero_slope(self):
        trend = fit_trend([(float(t), 7.0) for t in range(5)])
        assert trend["slope"] == 0.0
        assert trend["r2"] == 0.0

    def test_degenerate_inputs(self):
        assert fit_trend([])["slope"] == 0.0
        assert fit_trend([(1.0, 2.0)])["slope"] == 0.0
        # All samples at one instant: no time axis to regress on.
        assert fit_trend([(1.0, 2.0), (1.0, 9.0)])["slope"] == 0.0

    def test_linear_growth_is_a_finding(self):
        samples = [(float(t), 10.0 * t) for t in range(10)]
        finding = growth_finding("state.pit.entries", samples)
        assert finding is not None
        assert finding["kind"] == "state.growth"
        assert finding["series"] == "state.pit.entries"
        assert "state.pit.entries" in finding["detail"]

    def test_oscillation_is_not_a_finding(self):
        samples = [(float(t), 5.0 if t % 2 else 0.0) for t in range(10)]
        assert growth_finding("state.pit.entries", samples) is None

    def test_short_series_is_not_a_finding(self):
        samples = [(float(t), 10.0 * t) for t in range(4)]
        assert growth_finding("state.pit.entries", samples) is None

    def test_small_rise_is_not_a_finding(self):
        samples = [(float(t), float(t)) for t in range(6)]  # rise 5 < 8
        assert growth_finding("state.pit.entries", samples) is None

    def test_growth_series_are_registered(self):
        assert set(GROWTH_SERIES) <= set(STATESCOPE_SERIES)


# ---------------------------------------------------------------------------
# The state_cost() protocol
# ---------------------------------------------------------------------------
class TestStateCost:
    def test_pit(self):
        pit = Pit(entry_lifetime=100.0)
        rec = lambda: PitRecord(tag=None, flag_f=0.0, in_face=None, arrived_at=0.0)
        pit.insert("/a/1", rec(), now=0.0)
        pit.insert("/a/1", rec(), now=0.0)  # aggregated
        pit.insert("/b/1", rec(), now=0.0)
        cost = pit.state_cost()
        assert cost["entries"] == 2
        assert cost["records"] == 3
        assert cost["bytes"] > 0

    def test_content_store(self):
        cs = ContentStore(capacity=4)
        empty = cs.state_cost()["bytes"]
        cs.insert(Data(name=Name("/a/1"), payload=b"x" * 512))
        cost = cs.state_cost()
        assert cost["entries"] == 1
        assert cost["bytes"] > empty

    def test_fib(self):
        fib = Fib()
        fib.add("/a", face=None, cost=1.0)
        cost = fib.state_cost()
        assert cost["entries"] == 1
        assert cost["bytes"] > 0

    def test_bloom(self):
        bloom = BloomFilter(capacity=64)
        assert bloom.state_cost()["bits_set"] == 0
        bloom.insert(b"tag-1")
        cost = bloom.state_cost()
        assert 0 < cost["bits_set"] <= bloom.num_hashes
        assert cost["size_bits"] == bloom.size_bits
        assert cost["bytes"] >= len(bloom._bits)

    def test_audit(self):
        cost = DecisionAudit().state_cost()
        assert set(cost) == {"shadow", "issued", "revoked", "bytes"}
        assert cost["shadow"] == 0


# ---------------------------------------------------------------------------
# StateScope lifecycle
# ---------------------------------------------------------------------------
def leaky_pit_scope(horizon=20.0, interval=1.0):
    """A run whose PIT gains one never-consumed entry per second —
    the seeded-leak fixture the acceptance gate detects."""
    sim = Simulator(seed=1)
    pit = Pit(entry_lifetime=1e9)
    counter = {"n": 0}

    def leak():
        counter["n"] += 1
        pit.insert(
            f"/leak/{counter['n']}",
            PitRecord(tag=None, flag_f=0.0, in_face=None, arrived_at=sim.now),
            now=sim.now,
        )
        if sim.now + 0.5 <= horizon:
            sim.schedule(0.5, leak)

    sim.schedule(0.5, leak)
    network = SimpleNamespace(nodes={"r0": SimpleNamespace(pit=pit)}, links=[])
    scope = StateScope(interval=interval)
    scope.install(bare_run(sim, network, label="leaky", horizon=horizon))
    sim.run(until=horizon)
    return scope


class TestStateScope:
    def test_interval_env_and_validation(self, monkeypatch):
        # One sampling period; no env knob.
        monkeypatch.setenv("REPRO_STATESCOPE_INTERVAL", "0.25")
        assert StateScope().interval == SAMPLE_INTERVAL == 1.0
        assert StateScope(interval=0.25).interval == 0.25
        with pytest.raises(ValueError):
            StateScope(interval=0.0)

    def test_start_requires_install(self):
        with pytest.raises(RuntimeError):
            StateScope().start()

    def test_env_gating(self, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        assert resolve().names == ()
        monkeypatch.setenv(OBS_ENV, "statescope")
        obs = resolve()
        assert obs.names == ("statescope",)
        scope = INSTRUMENTS["statescope"].make(obs)
        assert isinstance(scope, StateScope)
        assert scope.interval == SAMPLE_INTERVAL

    def test_scoped_run_produces_clean_record(self):
        scope = StateScope()
        run_scenario(fast_scenario(), instruments=[scope])
        record = scope.record()
        assert set(record["series"]) == set(STATESCOPE_SERIES)
        assert record["series"]["state.total.bytes"]["samples"] >= 5
        assert record["series"]["state.total.bytes"]["peak"] > 0
        assert record["findings"] == []
        conf = record["conformance"]
        assert conf["checks_total"] > 0
        assert conf["pass"] is True
        checks = {c["check"] for c in conf["checks"]}
        assert {"bf_fill", "bf_resets", "cs_hit", "pit_occupancy"} <= checks

    def test_finalize_is_idempotent(self):
        scope = StateScope()
        run_scenario(fast_scenario(), instruments=[scope])
        assert scope.finalize() is scope.finalize()

    def test_scope_does_not_change_figure_values(self):
        # The tick itself executes as an event, so events_executed moves;
        # every published figure value must not.
        plain = run_scenario(fast_scenario()).to_summary().metrics_dict()
        scoped = (
            run_scenario(fast_scenario(), instruments=[StateScope()])
            .to_summary()
            .metrics_dict()
        )
        plain.pop("events_executed")
        scoped.pop("events_executed")
        assert scoped == plain

    def test_seeded_pit_leak_detected(self):
        scope = leaky_pit_scope()
        record = scope.record()
        series = [f["series"] for f in record["findings"]]
        assert "state.pit.entries" in series
        assert "state.pit.records" in series
        assert record["conformance"]["pass"] is False
        occupancy = [
            c for c in record["conformance"]["checks"]
            if c["check"] == "pit_occupancy"
        ]
        assert occupancy and occupancy[0]["within_ci"] is False

    def test_flush_samples_partial_tail(self):
        sim = Simulator(seed=1)
        scope = StateScope(interval=1.0)
        scope.install(bare_run(sim, EMPTY_NETWORK, horizon=10.0))
        sim.run(until=2.5)  # 2 ticks; tail 2.0..2.5 unsampled
        assert len(scope.series["state.total.bytes"]) == 2
        scope.finalize()
        samples = scope.record()["series"]["state.total.bytes"]["samples"]
        assert samples == 3  # flush added the 2.5 tail sample

    def test_flush_idempotent_per_instant(self):
        sim = Simulator(seed=2)
        scope = StateScope(interval=1.0)
        scope.install(bare_run(sim, EMPTY_NETWORK))
        sim.run(until=1.5)
        assert scope.flush() == 1
        assert scope.flush() == 0  # same instant: no duplicate sample
        assert [t for t, _ in scope.series["state.heap.pending"]] == [1.0, 1.5]

    def test_flush_noop_on_tick_boundary(self):
        sim = Simulator(seed=2)
        scope = StateScope(interval=1.0)
        scope.install(bare_run(sim, EMPTY_NETWORK))
        sim.run(until=3.0)
        # The tick at t=3.0 already sampled this instant.
        assert scope.flush() == 0
        assert len(scope.timeline) == 3

    def test_finalize_flushes_then_silences(self):
        sim = Simulator(seed=2)
        scope = StateScope(interval=1.0)
        scope.install(bare_run(sim, EMPTY_NETWORK))
        sim.run(until=0.4)  # shorter than one interval: only the flush sees it
        scope.finalize()
        assert [t for t, _ in scope.timeline] == [0.4]
        assert scope.flush() == 0  # finalized: flush is inert
        sim.run(until=5.0)
        assert len(scope.timeline) == 1  # no further ticks

    def test_horizon_bounds_ticking(self):
        sim = Simulator(seed=2)
        scope = StateScope(interval=1.0)
        scope.install(bare_run(sim, EMPTY_NETWORK, horizon=3.0))
        sim.run(until=10.0)
        assert [t for t, _ in scope.timeline] == [1.0, 2.0, 3.0]
        assert sim.pending() == 0  # no stray tick left queued

    def test_nodes_cover_tables_and_links(self):
        net = build_mini_net()
        scope = StateScope(interval=1.0)
        scope.install(bare_run(net.sim, net.network, horizon=4.0))
        wired = len(net.network.links)  # the client's link comes later
        client = attach_client(net, "alice")
        client.start(at=0.0, until=3.0)
        net.sim.run(until=6.0)
        assert {row["name"] for row in scope.nodes} == {
            "pit_entries",
            "cs_entries",
            "cs_hit_ratio",
            "bf_fill_ratio",
            "bf_current_fpp",
            "link_queue_seconds",
        }
        links = [row["labels"] for row in scope.nodes if row["name"] == "link_queue_seconds"]
        assert len(links) == 2 * wired
        assert {"src": "ap-0", "dst": "edge-0"} in links
        for row in scope.nodes:
            assert [t for t, _ in row["samples"]] == [1.0, 2.0, 3.0, 4.0]

    def test_nodes_reproduce_the_samples_series(self):
        scope = StateScope()
        run_scenario(fast_scenario(seed=3), instruments=[scope])
        blob = json.dumps(scope.record()["nodes"], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == SAMPLES_NODES_SHA256

    def test_node_series_sum_to_fleet_totals(self):
        scope = StateScope()
        run_scenario(fast_scenario(seed=3), instruments=[scope])
        nodes = scope.record()["nodes"]
        for name, total in (
            ("pit_entries", "state.pit.entries"),
            ("cs_entries", "state.cs.entries"),
        ):
            rows = [row["samples"] for row in nodes if row["name"] == name]
            fleet = scope.series[total]
            assert max(value for _, value in fleet) > 0, total
            # At every tick, the per-node readings add up to the total.
            for at, tick in zip(fleet, zip(*rows)):
                assert {t for t, _ in tick} == {at[0]}
                assert sum(value for _, value in tick) == at[1], (total, at[0])
            assert len(fleet) == len(rows[0])

    def test_sampling_does_not_change_published_values(self):
        def measure(with_scope):
            net = build_mini_net()
            if with_scope:
                StateScope(interval=0.5).install(bare_run(net.sim, net.network, horizon=8.0))
            client = attach_client(net, "alice")
            client.start(at=0.0, until=5.0)
            net.sim.run(until=8.0)
            return [latency for _, latency in client.stats.latency_samples]

        assert measure(True) == measure(False)

    def test_off_state_schedules_nothing(self):
        sim = Simulator(seed=1)
        baseline = sim.pending()
        StateScope(interval=1.0)  # constructed but never installed
        assert sim.pending() == baseline


# ---------------------------------------------------------------------------
# Merge + metrics
# ---------------------------------------------------------------------------
class TestMergeAndMetrics:
    def _record(self, label="run-a", leak=False):
        scope = leaky_pit_scope() if leak else StateScope()
        if not leak:
            run_scenario(fast_scenario(), instruments=[scope])
        record = dict(scope.record())
        record["label"] = label
        return record

    def test_merge_sums_series_and_stamps_labels(self):
        a = self._record("run-a")
        b = self._record("run-b", leak=True)
        merged = {}
        merge_statescope(merged, a)
        merge_statescope(merged, b)
        assert [run["label"] for run in merged["runs"]] == ["run-a", "run-b"]
        assert merged["runs"][0]["nodes"] == a["nodes"]
        total = merged["series"]["state.total.bytes"]
        assert total["peak"] == pytest.approx(
            a["series"]["state.total.bytes"]["peak"]
            + b["series"]["state.total.bytes"]["peak"]
        )
        assert all(f["run"] == "run-b" for f in merged["findings"])
        assert merged["conformance"]["pass"] is False
        assert merged["conformance"]["checks_total"] == (
            a["conformance"]["checks_total"] + b["conformance"]["checks_total"]
        )

    def test_merge_is_deterministic(self):
        a = self._record("run-a")
        first, second = {}, {}
        merge_statescope(first, a)
        merge_statescope(second, json.loads(json.dumps(a)))
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_metrics_are_flat_and_deterministic(self):
        record = self._record()
        metrics = statescope_metrics(record)
        for name in STATESCOPE_SERIES:
            assert f"{name}.peak" in metrics
            assert f"{name}.last" in metrics
        assert metrics["state.findings"] == 0.0
        assert metrics["model.pass"] == 1.0
        assert metrics["model.failures"] == 0.0
        assert metrics["model.cs_hit.within"] == 1.0
        assert metrics["mem.deep_bytes.peak"] > 0
        assert all(isinstance(v, float) for v in metrics.values())


# ---------------------------------------------------------------------------
# Rendering + CLI
# ---------------------------------------------------------------------------
class TestReportCli:
    def _clean_record(self):
        scope = StateScope()
        run_scenario(fast_scenario(), instruments=[scope])
        return scope.record()

    def test_render_mentions_series_and_verdict(self):
        lines = render_statescope_report(self._clean_record())
        text = "\n".join(lines)
        assert "state.total.bytes" in text
        assert "conformance: PASS" in text
        assert "findings: none" in text

    def test_cli_clean_record_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "scope.json"
        path.write_text(json.dumps(self._clean_record()))
        assert main(["report", str(path)]) == 0
        assert "conformance: PASS" in capsys.readouterr().out

    def test_cli_leak_exits_one(self, tmp_path, capsys):
        path = tmp_path / "scope.json"
        path.write_text(json.dumps(leaky_pit_scope().record()))
        assert main(["report", str(path)]) == 1
        out = capsys.readouterr().out
        assert "state.growth" in out
        assert "conformance: FAIL" in out

    def test_cli_reads_engine_report_wrapper(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"figure": "fig6",
                                    "record": self._clean_record()}))
        assert main(["report", str(path)]) == 0

    def test_cli_bad_input_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("[]")
        assert main(["report", str(garbage)]) == 2
        not_a_record = tmp_path / "not-a-record.json"
        not_a_record.write_text(json.dumps({"foo": 1}))
        assert main(["report", str(not_a_record)]) == 2
        assert capsys.readouterr().err  # errors land on stderr
