"""The repro.exec engine: spec canonicalisation, summary round-trips,
serial/parallel equivalence, and the content-addressed run cache."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle

import pytest

from repro.exec import (
    ExperimentEngine,
    RunCache,
    RunSummary,
    ScenarioSpec,
    cache_key,
    canonical_value,
    resolve_jobs,
    run_specs,
)
from repro.exec.engine import _execute_spec
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, OBS_OUT_ENV, Obs, resolve
from repro.obs.session import COUNT_KEYS, telemetry_report

#: Small enough for CI, large enough that every figure quantity is
#: non-trivial (clients request, attackers probe, filters fill).
FAST = dict(topology=1, duration=2.0, scale=0.1)


def fast_spec(seed=1, **kwargs):
    params = dict(FAST)
    params.update(kwargs)
    return ScenarioSpec.make(seed=seed, **params)


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------
class TestScenarioSpec:
    def test_canonical_is_json_stable(self):
        spec = fast_spec(overrides=dict(tag_expiry=5.0, bf_capacity=8))
        blob = json.dumps(spec.canonical(), sort_keys=True)
        again = json.dumps(fast_spec(
            overrides=dict(bf_capacity=8, tag_expiry=5.0)
        ).canonical(), sort_keys=True)
        assert blob == again  # override order must not matter

    def test_different_specs_differ(self):
        assert fast_spec(seed=1).canonical() != fast_spec(seed=2).canonical()

    def test_pickle_round_trip(self):
        spec = fast_spec(overrides=dict(tag_expiry=5.0))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_with_overrides_merges(self):
        spec = fast_spec(overrides=dict(tag_expiry=5.0))
        widened = spec.with_overrides(bf_capacity=8)
        assert dict(widened.overrides) == {"tag_expiry": 5.0, "bf_capacity": 8}
        assert dict(spec.overrides) == {"tag_expiry": 5.0}

    def test_build_applies_overrides(self):
        scenario = fast_spec(overrides=dict(tag_expiry=7.5)).build()
        assert scenario.config.tag_expiry == 7.5
        assert scenario.config.seed == 1

    def test_canonical_value_handles_nested(self):
        assert canonical_value({"b": (1, 2), "a": 1}) == {"a": 1, "b": [1, 2]}


# ---------------------------------------------------------------------------
# RunSummary
# ---------------------------------------------------------------------------
class TestRunSummary:
    @pytest.fixture(scope="class")
    def summary(self):
        return _execute_spec(fast_spec(), resolve(("simsan",)))

    def test_json_round_trip_is_exact(self, summary):
        restored = RunSummary.from_json_dict(
            json.loads(json.dumps(summary.to_json_dict()))
        )
        assert restored == summary
        assert restored.metrics_dict() == summary.metrics_dict()

    def test_accessors_mirror_run_result(self, summary):
        from repro.experiments.runner import run_scenario

        result = run_scenario(fast_spec().build())
        assert summary.client_delivery_ratio() == result.client_delivery_ratio()
        assert summary.tag_rates() == result.tag_rates()
        assert summary.mean_latency() == result.mean_latency()
        assert summary.latency_series(1.0) == result.latency_series(1.0)
        assert summary.operation_counts(edge=True) == result.operation_counts(edge=True)
        assert summary.reset_threshold(edge=False) == result.reset_threshold(edge=False)
        assert summary.delivery_table_row() == result.delivery_table_row()

    def test_to_summary_on_run_result(self):
        from repro.experiments.runner import run_scenario

        result = run_scenario(fast_spec().build())
        assert result.to_summary() == _execute_spec(fast_spec())

    def test_provenance_excluded_from_equality(self, summary):
        twin = RunSummary.from_json_dict(summary.to_json_dict())
        twin.wall_seconds = 99.0
        twin.cached = True
        twin.worker_pid = 1
        assert twin == summary
        assert "wall_seconds" not in twin.metrics_dict()

    def test_wrong_latency_bucket_rejected(self, summary):
        with pytest.raises(ValueError):
            summary.latency_series(bucket=2.0)


# ---------------------------------------------------------------------------
# Serial / parallel equivalence (the tentpole's correctness bar)
# ---------------------------------------------------------------------------
class TestSerialParallelEquivalence:
    def test_jobs4_matches_jobs1_bit_for_bit(self):
        specs = [fast_spec(seed=seed) for seed in (1, 2)]
        serial = run_specs(specs, jobs=1, use_cache=False, obs=("simsan",))
        parallel = run_specs(specs, jobs=4, use_cache=False, obs=("simsan",))
        assert [s.metrics_dict() for s in serial] == \
            [p.metrics_dict() for p in parallel]
        digests = [s.instruments["simsan"]["digest"] for s in serial]
        assert [p.instruments["simsan"]["digest"] for p in parallel] == digests
        assert len(set(digests)) == 2

    def test_sweep_jobs1_matches_jobs4(self):
        from repro.experiments.sweeps import SweepSpec, run_sweep

        sweep = SweepSpec(
            base=dict(FAST),
            grid={"tag_expiry": [5.0, 50.0]},
            seeds=[1, 2],
            metrics={
                "q_rate": lambda r: r.tag_rates()[0],
                "delivery": lambda r: r.client_delivery_ratio(),
            },
        )
        serial = run_sweep(sweep, jobs=1, use_cache=False)
        parallel = run_sweep(sweep, jobs=4, use_cache=False)
        assert [p.samples for p in serial] == [p.samples for p in parallel]

    def test_results_keep_submission_order(self, tmp_path):
        specs = [fast_spec(seed=seed) for seed in (3, 1, 2)]
        summaries = run_specs(specs, jobs=1, cache_dir=tmp_path)
        assert [s.seed for s in summaries] == [3, 1, 2]


# ---------------------------------------------------------------------------
# Pool teardown: no worker outlives run_specs, on any exit path
# ---------------------------------------------------------------------------
class TestPoolTeardown:
    def test_no_worker_left_after_a_run(self):
        engine = ExperimentEngine(jobs=2, use_cache=False)
        assert len(engine.run_specs([fast_spec(seed=seed) for seed in (1, 2)])) == 2
        assert engine.stats.parallel_runs == 2
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_a_worker_build_raises(self):
        broken = fast_spec(seed=2, overrides=dict(no_such_field=1))
        engine = ExperimentEngine(jobs=2, use_cache=False)
        with pytest.raises(TypeError, match="no_such_field"):
            engine.run_specs([fast_spec(seed=1), broken])
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Run cache
# ---------------------------------------------------------------------------
class TestRunCache:
    def test_hit_returns_without_executing(self, tmp_path, monkeypatch):
        spec = fast_spec()
        first = run_specs([spec], cache_dir=tmp_path)

        def explode(_spec):
            raise AssertionError("cache hit must not execute the scenario")

        monkeypatch.setattr("repro.exec.engine._execute_spec", explode)
        engine = ExperimentEngine(cache_dir=tmp_path)
        second = engine.run_specs([spec])
        assert second == first  # provenance excluded; measurements equal
        assert second[0].cached and not first[0].cached
        assert engine.stats.cache_hits == 1
        assert engine.stats.serial_runs == engine.stats.parallel_runs == 0

    def test_cache_round_trips_exactly(self, tmp_path):
        spec = fast_spec()
        first = run_specs([spec], cache_dir=tmp_path, obs=("simsan",))
        cached = run_specs([spec], cache_dir=tmp_path, obs=("simsan",))
        assert cached[0].cached
        assert cached[0].metrics_dict() == first[0].metrics_dict()
        assert cached[0].instruments["simsan"] == first[0].instruments["simsan"]

    def test_stale_code_fingerprint_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "build-1")
        spec = fast_spec()
        run_specs([spec], cache_dir=tmp_path)

        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "build-2")
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run_specs([spec])
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 1
        assert engine.stats.serial_runs == 1

    def test_no_cache_bypasses(self, tmp_path):
        spec = fast_spec()
        run_specs([spec], cache_dir=tmp_path)
        engine = ExperimentEngine(cache_dir=tmp_path, use_cache=False)
        engine.run_specs([spec])
        assert engine.cache is None
        assert engine.stats.serial_runs == 1
        assert engine.stats.cache_hits == engine.stats.cache_misses == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = fast_spec()
        cache = RunCache(tmp_path)
        key = cache_key(spec, fingerprint="pinned")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_key_depends_on_spec_and_code(self):
        base = cache_key(fast_spec(), fingerprint="f1")
        assert cache_key(fast_spec(), fingerprint="f1") == base
        assert cache_key(fast_spec(seed=2), fingerprint="f1") != base
        assert cache_key(fast_spec(), fingerprint="f2") != base


# ---------------------------------------------------------------------------
# The instrument round-trip (repro.obs.instruments)
# ---------------------------------------------------------------------------
def _stable(name, merged):
    """The part of a fleet view that must not depend on execution mode:
    the telemetry view's exec counters count runs by mode; the profile
    view is a wall-clock measurement."""
    if name == "telemetry":
        return json.dumps({key: merged[key] for key in COUNT_KEYS}, sort_keys=True)
    if name == "profile":
        return [(run["label"], run["events"]) for run in merged["runs"]]
    return json.dumps(merged, sort_keys=True)


def _per_run(name, record):
    """The part of one run's record that must not depend on execution
    mode (wall times and the trace file's directory)."""
    if name == "telemetry":
        return {key: value for key, value in record.items() if key != "wall_seconds"}
    if name == "profile":
        return record["label"], record["events"], sorted(record["layers"])
    if name == "trace":
        return {**record, "path": os.path.basename(record["path"])}
    return record


def _exec_runs(merged):
    stats = telemetry_report(merged)["exec"]
    return stats["serial_runs"] + stats["parallel_runs"]


def _bundles_on_disk(out):
    return sorted(path.name for path in (out / "flightrec").iterdir())


def _traces_on_disk(out):
    return {path.name: path.read_text() for path in (out / "trace").iterdir()}


def _trace_check(merged, out):
    """One JSONL file per spec, each named in the fleet view and each
    rendered as its own Chrome process in ``trace.json``."""
    files = _traces_on_disk(out)
    chrome = json.loads((out / "trace.json").read_text())
    return (
        merged["runs"] == 2
        and sorted(files) == sorted(merged["files"])
        and len(files) == 2
        and all(files.values())
        and {event["pid"] for event in chrome["traceEvents"]} == {1, 2}
    )


#: Instrument-specific checks on a two-run fleet view and the engine's
#: ``--obs-out`` directory.
_FLEET_CHECKS = {
    "audit": lambda m, out: m["totals"]["decisions"] > 0
    and m["totals"]["false_positive"] == 0,
    # One bundle per run, each its own file in the shared directory.
    "flightrec": lambda m, out: m["runs"] == 2
    and len(set(m["bundles"])) == 2
    and _bundles_on_disk(out) == sorted(m["bundles"]),
    # The fleet view counts every execution, serial or parallel, sums
    # every run's counts, and the report carries every run's record.
    "telemetry": lambda m, out: m["router_ops"]
    and m["client_latency"]["count"]
    == sum(run["client_latency"]["count"] for run in m["runs"])
    and _exec_runs(m) == 2
    and len(json.loads((out / "telemetry.json").read_text())["runs"]) == 2,
    "trace": _trace_check,
    # Every run's per-node series, in submission order.
    "statescope": lambda m, out: len(m["runs"]) == 2
    and all(run["nodes"] for run in m["runs"])
    and m["conformance"]["pass"] is True
    and m["series"]["state.total.bytes"]["peak"] > 0,
    "profile": lambda m, out: len(m["runs"]) == 2
    and all("sim.loop" in run["layers"] for run in m["runs"])
    and len(json.loads((out / "profile.json").read_text())["runs"]) == 2,
    # One distinct digest per run, and the report carries them all.
    "simsan": lambda m, out: len({run["digest"] for run in m["runs"]}) == 2
    and json.loads((out / "simsan.json").read_text()) == {"runs": m["runs"]},
}


def _engine(name, tmp_path, **kwargs):
    kwargs.setdefault("use_cache", False)
    kwargs.setdefault("obs_out", str(tmp_path / "obs"))
    return ExperimentEngine(obs=(name,), **kwargs)


# The contracts every INSTRUMENTS row keeps.  Telemetry, audit and
# statescope run them under their established test names; the other
# rows through TestInstrumentRoundTrip.
def _serial_and_parallel_merges_bit_for_bit(name, tmp_path):
    specs = [fast_spec(seed=seed) for seed in (1, 2)]
    serial = _engine(name, tmp_path / "serial", jobs=1)
    parallel = _engine(name, tmp_path / "parallel", jobs=4)
    first = serial.run_specs(specs)
    second = parallel.run_specs(specs)
    assert all(name in s.instruments for s in first + second)
    assert [_per_run(name, s.instruments[name]) for s in first] == \
        [_per_run(name, p.instruments[name]) for p in second]
    assert _stable(name, serial.fleet[name]) == _stable(name, parallel.fleet[name])
    assert _FLEET_CHECKS[name](serial.fleet[name], tmp_path / "serial" / "obs")
    assert _FLEET_CHECKS[name](parallel.fleet[name], tmp_path / "parallel" / "obs")
    if name == "trace":  # the same records, file by file
        assert _traces_on_disk(tmp_path / "serial" / "obs") == \
            _traces_on_disk(tmp_path / "parallel" / "obs")


def _cache_hit_replays_record_without_executing(name, tmp_path, monkeypatch):
    spec = fast_spec()
    cached = dict(use_cache=True, cache_dir=tmp_path)
    first = _engine(name, tmp_path, obs_out=str(tmp_path / "cold"), **cached)
    original = first.run_specs([spec])

    def explode(_spec, _obs=None):
        raise AssertionError("cache hit must not execute the scenario")

    monkeypatch.setattr("repro.exec.engine._execute_spec", explode)
    second = _engine(name, tmp_path, obs_out=str(tmp_path / "warm"), **cached)
    replayed = second.run_specs([spec])
    assert replayed[0].cached
    assert replayed[0].instruments[name] == original[0].instruments[name]
    assert _stable(name, second.fleet[name]) == _stable(name, first.fleet[name])


def _off_ships_nothing(name, tmp_path):
    others = tuple(other for other in INSTRUMENTS if other != name)
    engine = ExperimentEngine(jobs=1, use_cache=False, obs=others, obs_out=str(tmp_path))
    (summary,) = engine.run_specs([fast_spec()])
    assert set(summary.instruments) == set(others)
    assert name not in engine.fleet


#: What a non-replayable row leaves in ``--obs-out`` during a run.
_RUN_OUTPUT = {
    "flightrec": lambda out, record: _bundles_on_disk(out) == record["bundles"],
    "trace": lambda out, record: list(_traces_on_disk(out))
    == [os.path.basename(record["path"])],
    "profile": lambda out, record: record["events"] > 0
    and len(json.loads((out / "profile.json").read_text())["runs"]) == 1,
}


def _cache_re_executes(name, tmp_path):
    """A row whose output comes from executing the run is never
    replayed: a warm run re-executes and writes its own output."""
    spec = fast_spec()
    cached = dict(use_cache=True, cache_dir=tmp_path / "cache")
    _engine(name, tmp_path, obs_out=str(tmp_path / "cold"), **cached).run_specs([spec])
    warm = _engine(name, tmp_path, obs_out=str(tmp_path / "warm"), **cached)
    (summary,) = warm.run_specs([spec])
    assert not summary.cached
    assert warm.stats.cache_misses == 1
    assert _RUN_OUTPUT[name](tmp_path / "warm", summary.instruments[name])


def _record_excluded_from_equality_and_round_trips(name, tmp_path):
    observed = _execute_spec(fast_spec(), resolve((name,), str(tmp_path)))
    plain = _execute_spec(fast_spec())
    assert plain.instruments == {}
    assert dataclasses.replace(observed, instruments={}) == observed
    if name != "statescope":  # ticks are events of their own
        assert observed == plain
    assert name not in observed.metrics_dict()
    assert name not in plain.metrics_dict()
    assert not any(key.startswith("instruments") for key in observed.metrics_dict())
    restored = RunSummary.from_json_dict(
        json.loads(json.dumps(observed.to_json_dict()))
    )
    assert restored.instruments[name] == observed.instruments[name]


def _env_selects(name, monkeypatch, tmp_path):
    monkeypatch.setenv(OBS_ENV, name)
    monkeypatch.setenv(OBS_OUT_ENV, str(tmp_path))
    assert ExperimentEngine().obs.names == (name,)
    # An explicit selection wins over the environment.
    assert ExperimentEngine(obs=()).obs.names == ()


class TestFleetTelemetry:
    def test_serial_and_parallel_fleet_registries_bit_for_bit(self, tmp_path):
        _serial_and_parallel_merges_bit_for_bit("telemetry", tmp_path)

    def test_cache_hit_replays_telemetry_without_executing(
        self, tmp_path, monkeypatch
    ):
        _cache_hit_replays_record_without_executing("telemetry", tmp_path, monkeypatch)

    def test_collect_off_ships_no_envelope(self, tmp_path):
        _off_ships_nothing("telemetry", tmp_path)

    def test_telemetry_excluded_from_equality_and_metrics(self, tmp_path):
        _record_excluded_from_equality_and_round_trips("telemetry", tmp_path)

    def test_env_flag_resolution(self, monkeypatch, tmp_path):
        _env_selects("telemetry", monkeypatch, tmp_path)

    def test_envelope_metrics_match_in_process_session(self):
        # The shipped envelope is the same finalize record an in-process
        # session would produce: bridged router ops equal OpCounters.
        summary = _execute_spec(fast_spec(), resolve(("telemetry",)))
        envelope = summary.instruments["telemetry"]
        edge_lookups = sum(
            node["bf_lookups"] for node in envelope["router_ops"].values()
            if node["role"] == "edge"
        )
        assert edge_lookups == summary.edge_ops["bf_lookups"]
        assert envelope["events_executed"] == summary.events_executed

    def test_metrics_out_gets_each_run_once_in_every_mode(self, tmp_path):
        # telemetry.json's runs are written by the engine's fold alone,
        # so serial, parallel and cached runs each land there once.
        specs = [fast_spec(seed=seed) for seed in (1, 2)]
        cached = dict(use_cache=True, cache_dir=tmp_path / "cache")
        labels = {}
        for mode, jobs in (("serial", 1), ("parallel", 4), ("cached", 1)):
            out = tmp_path / mode
            engine = _engine("telemetry", tmp_path, jobs=jobs, obs_out=str(out),
                             **(cached if mode != "parallel" else {}))
            engine.run_specs(specs)
            runs = json.loads((out / "telemetry.json").read_text())["runs"]
            labels[mode] = [run["events_executed"] for run in runs]
        assert engine.stats.cache_hits == len(specs)
        assert labels["serial"] == labels["parallel"] == labels["cached"]
        assert len(labels["serial"]) == len(specs)

    def test_report_counts_only_this_engines_runs(self, tmp_path):
        # Two engines in one process (``python -m repro all`` builds one
        # per artifact): each report's exec block counts its own runs.
        spec = fast_spec()
        for _ in range(2):
            engine = _engine("telemetry", tmp_path, jobs=1, obs_out=str(tmp_path))
            engine.run_specs([spec])
        document = json.loads((tmp_path / "telemetry.json").read_text())
        assert len(document["runs"]) == 1
        assert document["exec"]["serial_runs"] + document["exec"]["parallel_runs"] == 1
        assert document["exec"] == dataclasses.asdict(engine.stats)

    def test_reports_hold_every_finished_run_when_a_later_run_fails(
        self, tmp_path, monkeypatch
    ):
        # Each fold rewrites the reports, so an invocation that dies
        # mid-fleet still leaves a parseable file of the runs before.
        specs = [fast_spec(seed=seed) for seed in (1, 2)]
        real = _execute_spec

        def second_fails(spec, obs=None):
            if spec.seed == 2:
                raise KeyboardInterrupt
            return real(spec, obs)

        monkeypatch.setattr("repro.exec.engine._execute_spec", second_fails)
        engine = _engine("telemetry", tmp_path, jobs=1, obs_out=str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            engine.run_specs(specs)
        runs = json.loads((tmp_path / "telemetry.json").read_text())["runs"]
        assert [run["label"] for run in runs] == [specs[0].build().label]

    def test_cache_counter_parity_across_modes(self, tmp_path):
        specs = [fast_spec(seed=seed) for seed in (1, 2)]
        cached = dict(use_cache=True, cache_dir=tmp_path)
        _engine("telemetry", tmp_path, jobs=1, **cached).run_specs(specs)
        serial = _engine("telemetry", tmp_path, jobs=1, **cached)
        serial.run_specs(specs)
        parallel = _engine("telemetry", tmp_path, jobs=4, **cached)
        parallel.run_specs(specs)

        def cache_events(engine):
            stats = telemetry_report(engine.fleet["telemetry"])["exec"]
            return stats["cache_hits"], stats["cache_misses"]

        assert cache_events(serial) == cache_events(parallel) == (2, 0)
        assert serial.stats.cache_hits == parallel.stats.cache_hits == 2
        assert _stable("telemetry", serial.fleet["telemetry"]) == \
            _stable("telemetry", parallel.fleet["telemetry"])


class TestFleetAudit:
    def test_serial_and_parallel_fleet_audit_bit_for_bit(self, tmp_path):
        _serial_and_parallel_merges_bit_for_bit("audit", tmp_path)

    def test_cache_hit_replays_audit_summary(self, tmp_path, monkeypatch):
        _cache_hit_replays_record_without_executing("audit", tmp_path, monkeypatch)

    def test_audit_off_by_default(self, tmp_path):
        _off_ships_nothing("audit", tmp_path)

    def test_audit_excluded_from_equality_and_metrics(self, tmp_path):
        _record_excluded_from_equality_and_round_trips("audit", tmp_path)

    def test_env_flag_resolution(self, monkeypatch, tmp_path):
        _env_selects("audit", monkeypatch, tmp_path)

    def test_audit_out_writes_fleet_report(self, tmp_path):
        engine = _engine("audit", tmp_path, jobs=1, obs_out=str(tmp_path))
        engine.run_specs([fast_spec()], figure="fig6")
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["figure"] == "fig6"
        assert payload["summary"]["totals"]["decisions"] > 0
        assert payload["confidence"]["fleet"]["within_ci"] is True
        assert any("fleet" in line for line in payload["report"])


class TestFleetStateScope:
    def test_serial_and_parallel_fleet_statescope_bit_for_bit(self, tmp_path):
        _serial_and_parallel_merges_bit_for_bit("statescope", tmp_path)
        # The fleet files, per-node series included, differ only in the
        # pool size they name.
        serial, parallel = (
            (tmp_path / mode / "obs" / "statescope.json").read_text()
            for mode in ("serial", "parallel")
        )
        assert '"nodes": [' in serial
        assert serial.replace('"jobs": 1,', '"jobs": 4,', 1) == parallel

    def test_cache_hit_replays_statescope_record(self, tmp_path, monkeypatch):
        _cache_hit_replays_record_without_executing("statescope", tmp_path, monkeypatch)
        cold, warm = (
            (tmp_path / pass_ / "statescope.json").read_text() for pass_ in ("cold", "warm")
        )
        assert '"nodes": [' in cold and cold == warm

    def test_statescope_off_by_default(self, tmp_path):
        _off_ships_nothing("statescope", tmp_path)

    def test_statescope_excluded_from_equality_and_metrics(self, tmp_path):
        _record_excluded_from_equality_and_round_trips("statescope", tmp_path)

    def test_env_flag_resolution(self, monkeypatch, tmp_path):
        _env_selects("statescope", monkeypatch, tmp_path)

    def test_statescope_out_writes_fleet_report(self, tmp_path):
        engine = _engine("statescope", tmp_path, jobs=1, obs_out=str(tmp_path))
        engine.run_specs([fast_spec()], figure="fig6")
        payload = json.loads((tmp_path / "statescope.json").read_text())
        assert payload["figure"] == "fig6"
        assert len(payload["record"]["runs"]) == 1
        assert payload["record"]["conformance"]["pass"] is True
        assert any("conformance" in line for line in payload["report"])


#: The rows without a class of their own above.
@pytest.mark.parametrize(
    "name", ["simsan", "flightrec", "trace", "profile"]
)
class TestInstrumentRoundTrip:
    def test_serial_and_parallel_merges_bit_for_bit(self, name, tmp_path, capsys):
        _serial_and_parallel_merges_bit_for_bit(name, tmp_path)
        if name == "profile":  # one layer table per executed spec
            assert capsys.readouterr().err.count("── profile: topo1@0.1 ──") == 4

    def test_cache_round_trip(self, name, tmp_path, monkeypatch):
        if INSTRUMENTS[name].replayable:
            _cache_hit_replays_record_without_executing(name, tmp_path, monkeypatch)
        else:
            _cache_re_executes(name, tmp_path)

    def test_off_ships_nothing(self, name, tmp_path):
        _off_ships_nothing(name, tmp_path)

    def test_record_excluded_from_equality_and_round_trips(self, name, tmp_path):
        _record_excluded_from_equality_and_round_trips(name, tmp_path)


class TestObsSelection:
    def test_env_fallback_and_usage_errors(self, monkeypatch, tmp_path):
        monkeypatch.delenv(OBS_ENV, raising=False)
        monkeypatch.delenv(OBS_OUT_ENV, raising=False)
        assert resolve() == Obs()
        monkeypatch.setenv(OBS_ENV, "statescope, audit")
        monkeypatch.setenv(OBS_OUT_ENV, str(tmp_path))
        engine = ExperimentEngine()
        assert engine.obs.names == ("audit", "statescope")  # table order
        assert engine.obs.out == str(tmp_path)
        assert resolve("telemetry").names == ("telemetry",)
        assert resolve(()).out is None  # explicit names skip the env
        for names, out in (("audit,bogus", None), ((), "dir"),
                           (("flightrec",), None)):
            with pytest.raises(ValueError, match="audit, flightrec"):
                resolve(names, out)
        monkeypatch.setenv(OBS_ENV, "nope")
        with pytest.raises(ValueError, match="nope"):
            ExperimentEngine()

    def test_explicit_opt_out_beats_env(self, monkeypatch):
        from repro.experiments.runner import run_scenario

        monkeypatch.setenv(OBS_ENV, "audit,statescope")
        engine = ExperimentEngine(jobs=1, use_cache=False, obs=())
        (summary,) = engine.run_specs([fast_spec()])
        assert summary.instruments == {}
        assert engine.fleet == {}
        assert run_scenario(fast_spec().build(), instruments=()).instruments == {}
        # Left unset, the runner follows the environment, like the engine.
        followed = run_scenario(fast_spec().build()).instruments
        assert set(followed) == {"audit", "statescope"}

    def test_warm_cache_replays_every_record(self, tmp_path):
        specs = [fast_spec(seed=seed) for seed in (1, 2)]

        def audited(cache, out):
            engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / cache,
                                      obs=("audit",), obs_out=str(tmp_path / out))
            engine.run_specs(specs, figure="fig6")
            return json.loads((tmp_path / out / "audit.json").read_text()), engine

        # Seed 1 cached without auditing, then an audited pass over both.
        run_specs(specs[:1], jobs=1, cache_dir=tmp_path / "warm", obs=())
        warm, engine = audited("warm", "warm-out")
        assert engine.stats.cache_misses == 2  # the unaudited entry re-ran
        cold, _ = audited("cold", "cold-out")
        assert warm == cold
        replay, engine = audited("warm", "replay-out")
        assert engine.stats.cache_hits == 2
        assert replay == cold


# ---------------------------------------------------------------------------
# Knob resolution and telemetry
# ---------------------------------------------------------------------------
class TestEngineKnobs:
    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(2) == 2
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        with pytest.raises(ValueError, match=r"REPRO_JOBS='garbage'"):
            resolve_jobs(None)
        assert resolve_jobs(2) == 2  # an explicit count never reads it

    def test_cache_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = ExperimentEngine()
        assert engine.cache is not None
        assert engine.cache.directory == tmp_path

    def test_registry_counters_move(self, tmp_path):
        spec = fast_spec()
        cold = ExperimentEngine(cache_dir=tmp_path)
        cold.run_specs([spec])
        warm = ExperimentEngine(cache_dir=tmp_path)
        warm.run_specs([spec])
        assert (cold.stats.serial_runs, cold.stats.parallel_runs) == (1, 0)
        assert (cold.stats.cache_hits, cold.stats.cache_misses) == (0, 1)
        assert len(cold.stats.per_run_wall) == 1
        assert cold.stats.worker_wall_total == cold.stats.per_run_wall[0] > 0.0
        assert (warm.stats.serial_runs, warm.stats.parallel_runs) == (0, 0)
        assert (warm.stats.cache_hits, warm.stats.cache_misses) == (1, 0)
        assert warm.stats.per_run_wall == []
