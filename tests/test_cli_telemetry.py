"""End-to-end telemetry: the ``--obs`` rows, their files, and equivalence.

These tests run real (tiny) scenarios through ``python -m repro``'s
``main``, through the engine and through ``run_scenario`` with the
telemetry rows attached, then check the three acceptance properties:
parseable artifacts, telemetry counts equal to the figures'
OpCounters, and zero change to published values when telemetry is on.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.exec import ExperimentEngine, ScenarioSpec
from repro.exec.summary import OP_FIELDS
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs.instruments import INSTRUMENTS, OBS_ENV, OBS_OUT_ENV, make_live, resolve
from repro.obs.session import LATENCY_BUCKETS

#: Flags of earlier versions: each became an ``--obs`` row or went with
#: a removed one.
REMOVED_FLAGS = (
    ("--metrics-out", "m.json"),
    ("--trace-out", "t.jsonl"),
    ("--trace-format", "chrome"),
    ("--sample-interval", "0.5"),
    ("--profile",),
    ("--heartbeat", "1"),
    ("--flame-out", "f.txt"),
    ("--flame-interval", "0.01"),
    ("--progress",),
    ("--engine-events", "e.jsonl"),
    ("--history-dir", "h"),
)

#: Rows that were folded into another (``samples`` into ``statescope``)
#: or deleted; selecting one is an unknown-instrument error.
REMOVED_ROWS = ("flame", "heartbeat", "samples")


def _tiny_scenario(seed: int = 3) -> Scenario:
    return Scenario.paper_topology(1, duration=2.0, seed=seed, scale=0.1)


class TestCliFlags:
    def test_table4_writes_parseable_artifacts(self, tmp_path, capsys, monkeypatch):
        # main() forwards --obs/--obs-out through the environment;
        # restore it afterwards.
        monkeypatch.setenv(OBS_ENV, "")
        monkeypatch.setenv(OBS_OUT_ENV, "")
        out = tmp_path / "obs"
        code = main(
            [
                "table4",
                "--duration", "2",
                "--scale", "0.1",
                "--obs", "telemetry,trace,profile,statescope",
                "--obs-out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Table IV" in captured.out
        assert "events/sec" in captured.err  # layer table went to stderr

        document = json.loads((out / "telemetry.json").read_text())
        assert document["runs"]
        assert document["exec"]["serial_runs"] == len(document["runs"])
        run = document["runs"][0]
        assert run["wall_seconds"] > 0
        assert run["virtual_seconds"] > 0
        assert {node["role"] for node in run["router_ops"].values()} == {"edge", "core"}
        profile = json.loads((out / "profile.json").read_text())
        assert [r["events"] for r in profile["runs"]] == [
            r["events_executed"] for r in document["runs"]
        ]
        layers = profile["runs"][0]["layers"]
        assert "sim.loop" in layers
        own = sum(row["self_s"] for row in layers.values())
        assert own == pytest.approx(layers["sim.loop"]["total_s"], rel=0.01)
        state = json.loads((out / "statescope.json").read_text())["record"]
        assert len(state["runs"]) == len(document["runs"])
        assert all(r["nodes"] for r in state["runs"]), "statescope produced no node series"

        files = sorted((out / "trace").iterdir())
        assert len(files) == len(document["runs"])
        lines = files[0].read_text().splitlines()
        assert lines
        events = set()
        for line in lines:
            record = json.loads(line)
            assert "time" in record
            events.add(record["event"])
        # The new substrate events and the span lifecycle all fired
        # (aggregation-dependent events like pit.aggregate are too rare
        # at this tiny scale to assert on).
        assert {"node.tx.interest", "node.tx.data", "node.rx.interest",
                "span.start", "span.link", "span.end"} <= events
        chrome = json.loads((out / "trace.json").read_text())
        assert chrome["traceEvents"]

    def test_flags_off_means_no_telemetry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OBS_ENV, raising=False)
        code = main(["fig7", "--duration", "1", "--scale", "0.1"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []
        for flag in REMOVED_FLAGS:
            with pytest.raises(SystemExit):
                main(["fig7", "--duration", "1", "--scale", "0.1", *flag])
        for name in ("telemetry", "trace", "statescope", "profile"):
            assert name in INSTRUMENTS

    def test_removed_rows_rejected(self, monkeypatch, capsys):
        # main() forwards --obs through the environment; restore it.
        monkeypatch.setenv(OBS_ENV, "")
        kept = ", ".join(INSTRUMENTS)
        assert len(INSTRUMENTS) == 7
        for name in REMOVED_ROWS:
            assert name not in INSTRUMENTS
            with pytest.raises(ValueError, match=f"'{name}'.*{kept}"):
                resolve(name)
            with pytest.raises(ValueError, match=f"'{name}'.*{kept}"):
                resolve(("telemetry", name))
            with pytest.raises(SystemExit) as exit_info:
                main(["fig7", "--duration", "1", "--scale", "0.1", "--obs", name])
            assert exit_info.value.code == 2
            assert kept in capsys.readouterr().err
        monkeypatch.setenv(OBS_ENV, "samples")
        with pytest.raises(ValueError, match=f"'samples'.*{kept}"):
            resolve()


def _telemetry_run():
    obs = resolve(("telemetry",))
    result = run_scenario(_tiny_scenario(), instruments=make_live(obs))
    return result, result.instruments["telemetry"]


class TestBridgedCounters:
    def test_router_ops_match_figure_counters(self):
        result, record = _telemetry_run()
        ops = record["router_ops"]
        for edge in (True, False):
            role = "edge" if edge else "core"
            merged = result.metrics.merged_counters(edge=edge)
            for op in OP_FIELDS:
                total = sum(node[op] for node in ops.values() if node["role"] == role)
                assert total == getattr(merged, op), (role, op)

    def test_user_outcomes_match_collector(self):
        result, record = _telemetry_run()
        outcomes = record["user_outcomes"]
        assert outcomes["clients"]["chunks_requested"] == (
            result.metrics.total_requested(False)
        )
        assert outcomes["attackers"]["chunks_received"] == (
            result.metrics.total_received(True)
        )
        latency = record["client_latency"]
        client_samples = [
            latency_value
            for user in result.metrics.users.values()
            if not user.is_attacker
            for _, latency_value in user.latency_samples
        ]
        assert latency["count"] == len(client_samples)
        assert latency["sum"] == pytest.approx(sum(client_samples))
        # Each sample sits in the first bucket whose bound it does not
        # exceed, counted here by a plain scan of the bounds.
        expected = dict.fromkeys(latency["buckets"], 0)
        for value in client_samples:
            bound = next((b for b in LATENCY_BUCKETS if value <= b), None)
            expected[repr(bound) if bound is not None else "+Inf"] += 1
        assert latency["buckets"] == expected
        assert list(expected) == [repr(b) for b in LATENCY_BUCKETS] + ["+Inf"]


class TestZeroBehaviourChange:
    def test_published_values_identical_with_telemetry_on(self, tmp_path):
        plain = run_scenario(_tiny_scenario())
        obs = resolve(("telemetry", "trace", "statescope", "profile"), str(tmp_path))
        telemetered = run_scenario(
            _tiny_scenario(),
            instruments=make_live(obs),
        )

        assert set(telemetered.instruments) == set(obs.names)
        assert plain.delivery_table_row() == telemetered.delivery_table_row()
        assert plain.mean_latency() == telemetered.mean_latency()
        assert plain.latency_series() == telemetered.latency_series()
        for edge in (True, False):
            a = plain.operation_counts(edge)
            b = telemetered.operation_counts(edge)
            assert a == b

    def test_multi_run_artifacts_accumulate(self, tmp_path):
        specs = [
            ScenarioSpec.make(topology=1, duration=2.0, seed=seed, scale=0.1)
            for seed in (3, 4)
        ]
        engine = ExperimentEngine(
            jobs=1, use_cache=False, obs=("telemetry", "trace"), obs_out=str(tmp_path),
        )
        engine.run_specs(specs)
        document = json.loads((tmp_path / "telemetry.json").read_text())
        assert len(document["runs"]) == 2
        # Same label, different scenarios: one trace file each.
        files = sorted(path.name for path in (tmp_path / "trace").iterdir())
        assert len(files) == 2
        assert all(name.startswith("topo1@0.1-") for name in files)
        chrome = json.loads((tmp_path / "trace.json").read_text())
        assert {e["pid"] for e in chrome["traceEvents"]} == {1, 2}
