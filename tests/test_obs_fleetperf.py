"""The fleet scheduling observatory: worker lifecycle records, the
pool-timeline report, speedup attribution, the Chrome-trace export, and
the ``python -m repro.obs.fleetperf`` CLI exit contract."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.exec import ExperimentEngine, ScenarioSpec
from repro.obs.export import fleet_trace_events
from repro.obs.fleetperf import (
    FLEETPERF_PHASES,
    FleetPerf,
    WorkerLifecycle,
    attribute_speedup,
    fleetperf_report,
    main,
    merge_fleetperf,
    occupancy_samples,
    render_attribution,
)

FAST = dict(topology=1, duration=2.0, scale=0.1)


def fast_spec(seed=1, **kwargs):
    params = dict(FAST)
    params.update(kwargs)
    return ScenarioSpec.make(seed=seed, **params)


class FakeClock:
    """Deterministic perf_counter stand-in: each call advances by step."""

    def __init__(self, start=100.0, step=0.5):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def synthetic_report(wall=10.0):
    """Two workers, three runs, hand-built stamps: worker 7 runs slots
    0 and 2 back to back, worker 8 runs slot 1 (the straggler) and then
    idles nothing — slot 2's early finish leaves worker 7 idle."""
    timeline = [
        {
            "slot": 0, "label": "a", "worker_pid": 7, "worker_born": 1.0,
            "submitted": 0.1, "started": 1.2, "finished": 4.2,
            "received": 4.3, "envelope_bytes": 1000,
            "phases": {
                "fleet.import": {"calls": 1, "seconds": 0.5},
                "fleet.sim": {"calls": 1, "seconds": 2.0},
                "fleet.pickle": {"calls": 1, "seconds": 0.1},
            },
        },
        {
            "slot": 1, "label": "b", "worker_pid": 8, "worker_born": 1.1,
            "submitted": 0.1, "started": 1.3, "finished": 9.5,
            "received": 9.6, "envelope_bytes": 1200,
            "phases": {
                "fleet.import": {"calls": 1, "seconds": 0.5},
                "fleet.sim": {"calls": 1, "seconds": 7.5},
                "fleet.pickle": {"calls": 1, "seconds": 0.1},
            },
        },
        {
            "slot": 2, "label": "c", "worker_pid": 7, "worker_born": 1.0,
            "submitted": 0.1, "started": 4.4, "finished": 6.4,
            "received": 6.5, "envelope_bytes": 1100,
            "phases": {
                "fleet.sim": {"calls": 1, "seconds": 1.8},
                "fleet.pickle": {"calls": 1, "seconds": 0.1},
            },
        },
    ]
    return {
        "jobs": 2,
        "total": 3,
        "runs": 3,
        "cached": 0,
        "wall_seconds": wall,
        "pool_opened": 0.05,
        "parent_phases": {},
        "timeline": timeline,
        "occupancy": occupancy_samples(timeline),
    }


# ---------------------------------------------------------------------------
# WorkerLifecycle
# ---------------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_charges_accumulate(self):
        lifecycle = WorkerLifecycle(5.0, clock=FakeClock())
        lifecycle.charge("fleet.sim", 2.0)
        lifecycle.charge("fleet.sim", 1.5)
        lifecycle.charge("fleet.build", 0.25)
        assert lifecycle.phases["fleet.sim"] == {"calls": 2, "seconds": 3.5}
        assert lifecycle.phases["fleet.build"]["calls"] == 1

    def test_finalize_record_shape(self):
        lifecycle = WorkerLifecycle(5.0, clock=FakeClock(start=10.0))
        lifecycle.charge("fleet.sim", 1.0)
        record = lifecycle.finalize({"payload": "x" * 64})
        assert record["module_imported_at"] == 5.0
        assert record["started_at"] == 10.0
        assert record["finished_at"] > record["started_at"]
        assert record["envelope_bytes"] == len(
            pickle.dumps({"payload": "x" * 64}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert "fleet.pickle" in record["phases"]

    def test_phase_names_are_registered(self):
        # The literals this suite and the engine charge must all be in
        # the registry SL015 lints against.
        for name in ("fleet.import", "fleet.build", "fleet.sim",
                     "fleet.envelope", "fleet.pickle", "fleet.cache"):
            assert name in FLEETPERF_PHASES


# ---------------------------------------------------------------------------
# FleetPerf report + occupancy
# ---------------------------------------------------------------------------
class TestFleetPerf:
    def test_report_is_parent_relative(self):
        clock = FakeClock(start=50.0, step=1.0)
        fleet = FleetPerf(jobs=2, total=2, clock=clock)  # began_at = 50
        fleet.pool_opening()                             # 51 -> rel 1.0
        fleet.spec_submitted(0, "a")                     # 52 -> rel 2.0
        summary = dataclasses.make_dataclass("S", ["instruments"])(
            instruments={"fleetperf": {
                "worker_pid": 9, "module_imported_at": 53.0,
                "started_at": 54.0, "finished_at": 55.0,
                "envelope_bytes": 10, "phases": {},
            }}
        )
        fleet.spec_received(0, summary)                  # 53 -> rel 3.0
        report = fleet.report(wall_seconds=6.0)
        assert report["pool_opened"] == 1.0
        entry = report["timeline"][0]
        assert entry["submitted"] == 2.0
        assert entry["received"] == 3.0
        assert entry["worker_born"] == 3.0
        assert entry["started"] == 4.0
        assert entry["finished"] == 5.0

    def test_unreceived_specs_are_dropped(self):
        fleet = FleetPerf(jobs=1, total=2, clock=FakeClock())
        fleet.spec_submitted(0, "a")
        report = fleet.report(wall_seconds=1.0)
        assert report["timeline"] == []

    def test_occupancy_tracks_busy_and_queue(self):
        report = synthetic_report()
        samples = report["occupancy"]
        # Two submits at t=0.1 before any start: queue depth 2, busy 0.
        assert samples[0] == [0.1, 0, 3]
        busy = {when: busy for when, busy, _ in samples}
        assert busy[1.3] == 2          # both workers running
        assert busy[9.5] == 0          # straggler done, pool empty
        assert all(queued >= 0 for _, _, queued in samples)


# ---------------------------------------------------------------------------
# merge_fleetperf
# ---------------------------------------------------------------------------
class TestMerge:
    def test_records_fold_and_sum(self):
        into = {}
        for entry in synthetic_report()["timeline"]:
            merge_fleetperf(into, entry)
        assert into["runs"] == 3
        assert into["envelope_bytes"] == 3300
        assert into["phases"]["fleet.sim"]["calls"] == 3
        assert into["phases"]["fleet.sim"]["seconds"] == pytest.approx(11.3)


# ---------------------------------------------------------------------------
# Speedup attribution
# ---------------------------------------------------------------------------
class TestAttribution:
    def test_components_sum_to_wall_exactly(self):
        attribution = attribute_speedup(synthetic_report(wall=10.0))
        total = sum(attribution["components"].values())
        assert total == pytest.approx(10.0, abs=1e-9)

    def test_coverage_invariant_holds_on_synthetic_timeline(self):
        attribution = attribute_speedup(synthetic_report(wall=10.0))
        assert attribution["coverage"] >= 0.9

    def test_straggler_carved_out_of_imbalance(self):
        attribution = attribute_speedup(synthetic_report())
        components = attribution["components"]
        # Worker 7 idles 9.5 - 6.4 = 3.1 slot-seconds while the
        # straggler (slot 1, 8.2s vs ~4.4s mean) drains; most of that
        # idle is attributable to the straggler excess.
        assert components["straggler"] > 1.0
        assert components["imbalance"] >= 0.0
        assert components["startup"] == pytest.approx(
            ((1.0 - 0.05) + (1.1 - 0.05)) / 2
        )

    def test_speedup_fields_with_serial_wall(self):
        attribution = attribute_speedup(synthetic_report(wall=10.0), serial_wall=15.0)
        assert attribution["actual_speedup"] == pytest.approx(1.5)
        assert attribution["ideal_speedup"] == 2.0
        assert attribution["efficiency"] == pytest.approx(0.75)

    def test_empty_timeline_degrades(self):
        attribution = attribute_speedup(
            {"wall_seconds": 1.0, "timeline": [], "jobs": 4}
        )
        assert attribution["coverage"] == 0.0
        assert attribution["workers"] == 0

    def test_render_mentions_every_component(self):
        text = render_attribution(attribute_speedup(synthetic_report()))
        for name in ("compute", "startup", "serialization", "imbalance",
                     "straggler", "residual"):
            assert name in text


# ---------------------------------------------------------------------------
# Engine integration: round-trip, parity, cache replay, byte accounting
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_off_by_default(self):
        engine = ExperimentEngine(jobs=1, use_cache=False, obs=())
        summaries = engine.run_specs([fast_spec()])
        assert summaries[0].instruments == {}
        assert "fleetperf" not in engine.fleet

    def test_serial_records_and_report(self):
        engine = ExperimentEngine(jobs=1, use_cache=False, obs=("fleetperf",))
        summaries = engine.run_specs([fast_spec(seed=1), fast_spec(seed=2)])
        for summary in summaries:
            record = summary.instruments["fleetperf"]
            assert record["envelope_bytes"] > 0
            assert set(record["phases"]) <= set(FLEETPERF_PHASES)
            assert record["phases"]["fleet.sim"]["seconds"] > 0
        assert engine.fleet["fleetperf"]["runs"] == 2
        report = engine.fleet["fleetperf"]["pool"]
        assert report["runs"] == 2
        assert len(report["timeline"]) == 2
        attribution = attribute_speedup(report)
        assert sum(attribution["components"].values()) == pytest.approx(
            report["wall_seconds"]
        )

    def test_envelope_bytes_match_shipped_pickle(self):
        engine = ExperimentEngine(jobs=1, use_cache=False, obs=("fleetperf",))
        (summary,) = engine.run_specs([fast_spec()])
        bare = dataclasses.replace(summary, instruments={})
        assert summary.instruments["fleetperf"]["envelope_bytes"] == len(
            pickle.dumps(bare, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_observatory_preserves_figure_values(self):
        specs = [fast_spec(hash_events=True)]
        plain = ExperimentEngine(jobs=1, use_cache=False).run_specs(specs)
        observed = ExperimentEngine(
            jobs=1, use_cache=False, obs=("fleetperf",)
        ).run_specs(specs)
        assert plain[0].metrics_dict() == observed[0].metrics_dict()
        assert plain[0].event_digest == observed[0].event_digest

    def test_serial_parallel_parity_with_observatory(self):
        specs = [fast_spec(seed=1, hash_events=True),
                 fast_spec(seed=2, hash_events=True)]
        serial = ExperimentEngine(jobs=1, use_cache=False, obs=("fleetperf",))
        parallel = ExperimentEngine(jobs=2, use_cache=False, obs=("fleetperf",))
        serial_out = serial.run_specs(specs)
        parallel_out = parallel.run_specs(specs)
        assert [s.metrics_dict() for s in serial_out] == [
            s.metrics_dict() for s in parallel_out
        ]
        # The merged fleet views agree structurally: same run count,
        # same phase vocabulary (walls differ — they measure different
        # processes).
        merged_serial, merged_parallel = serial.fleet["fleetperf"], parallel.fleet["fleetperf"]
        assert merged_serial["runs"] == merged_parallel["runs"]
        assert set(merged_serial["phases"]) == set(merged_parallel["phases"])
        pool = merged_parallel["pool"]
        assert pool["pool_opened"] is not None
        assert len({e["worker_pid"] for e in pool["timeline"]}) >= 1

    def test_cache_replays_fleetperf_records(self, tmp_path):
        specs = [fast_spec()]
        prime = ExperimentEngine(cache_dir=tmp_path, obs=("fleetperf",))
        (first,) = prime.run_specs(specs)
        replay = ExperimentEngine(cache_dir=tmp_path, obs=("fleetperf",))
        (second,) = replay.run_specs(specs)
        assert second.cached
        assert second.instruments == first.instruments
        merged = replay.fleet["fleetperf"]
        assert merged["runs"] == 1
        assert merged["pool"]["cached"] == 1
        assert merged["pool"]["timeline"] == []  # nothing executed

    def test_fleet_trace_written(self, tmp_path):
        engine = ExperimentEngine(
            jobs=1, use_cache=False, obs=("fleetperf",), obs_out=str(tmp_path)
        )
        engine.run_specs([fast_spec()])
        document = json.loads((tmp_path / "fleetperf.json").read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "process_name" in names
        assert "fleet.occupancy" in names


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------
class TestFleetTraceExport:
    def test_one_lane_per_worker(self):
        events = fleet_trace_events(synthetic_report())
        lanes = {
            event["args"]["name"]: event["tid"]
            for event in events
            if event["name"] == "thread_name"
        }
        assert lanes == {"worker 7": 1, "worker 8": 2}

    def test_spec_slices_and_phase_children(self):
        events = fleet_trace_events(synthetic_report())
        slices = [e for e in events if e.get("cat") == "fleet.spec"]
        assert len(slices) == 3
        slot0 = next(e for e in slices if e["args"]["slot"] == 0)
        assert slot0["ts"] == pytest.approx(1.2e6)
        assert slot0["dur"] == pytest.approx(3.0e6)
        children = [
            e for e in events
            if e.get("cat") == "fleet.phase" and e["args"]["slot"] == 0
        ]
        assert [c["name"] for c in children] == ["fleet.import", "fleet.sim",
                                                "fleet.pickle"]
        # Containment: children stay inside the parent slice.
        for child in children:
            assert child["ts"] >= slot0["ts"]
            assert child["ts"] + child["dur"] <= slot0["ts"] + slot0["dur"] + 1e-6

    def test_occupancy_counter_track(self):
        events = fleet_trace_events(synthetic_report())
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(e["name"] == "fleet.occupancy" for e in counters)
        assert {"busy", "queued"} == set(counters[0]["args"])

    def test_write_fleet_trace_round_trips(self, tmp_path):
        document = fleetperf_report({"pool": synthetic_report()}, "fig6", 2)
        assert json.loads(json.dumps(document)) == document
        assert document["traceEvents"] == fleet_trace_events(synthetic_report())


# ---------------------------------------------------------------------------
# CLI exit contract (0 clean / 1 regression / 2 bad input)
# ---------------------------------------------------------------------------
class TestCli:
    def _write(self, tmp_path, name, attribution):
        path = tmp_path / name
        path.write_text(json.dumps({"fleetperf": attribution}))
        return str(path)

    def test_clean_report_exits_zero(self, tmp_path, capsys):
        good = attribute_speedup(synthetic_report(), serial_wall=15.0)
        path = self._write(tmp_path, "bench.json", good)
        assert main(["report", path]) == 0
        assert "compute" in capsys.readouterr().out

    def test_low_coverage_exits_one(self, tmp_path, capsys):
        bad = attribute_speedup(synthetic_report())
        bad["coverage"] = 0.5
        path = self._write(tmp_path, "bench.json", bad)
        assert main(["report", path]) == 1
        assert "coverage" in capsys.readouterr().err

    def test_speedup_regression_exits_one(self, tmp_path, capsys):
        base = attribute_speedup(synthetic_report(wall=10.0), serial_wall=15.0)
        cand = attribute_speedup(synthetic_report(wall=10.0), serial_wall=15.0)
        cand["actual_speedup"] = 0.5
        base_path = self._write(tmp_path, "base.json", base)
        cand_path = self._write(tmp_path, "cand.json", cand)
        assert main(["report", cand_path, base_path, "--tolerance", "25"]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_regression_within_tolerance_passes(self, tmp_path):
        base = attribute_speedup(synthetic_report(wall=10.0), serial_wall=15.0)
        cand = dict(base)
        cand["actual_speedup"] = base["actual_speedup"] * 0.9
        base_path = self._write(tmp_path, "base.json", base)
        cand_path = self._write(tmp_path, "cand.json", cand)
        assert main(["report", cand_path, base_path, "--tolerance", "25"]) == 0

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json")]) == 2

    def test_document_without_block_exits_two(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"jobs": 2}))
        assert main(["report", str(path)]) == 2

    def test_accepts_raw_timeline_report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(synthetic_report()))
        assert main(["report", path.as_posix()]) == 0
