"""Run history: append/read round-trip, drift diffs, CLI exit codes."""

from __future__ import annotations

import copy
import json

import pytest

from repro.exec.engine import ExperimentEngine
from repro.experiments.fig6_tag_rates import enumerate_fig6
from repro.obs.history import (
    HistoryError,
    RunHistory,
    diff_entries,
    main,
    spec_fingerprint,
)


def _specs(n=2):
    return enumerate_fig6(duration=2.0, scale=0.1)[:n]


def _record_run(history_dir, figure="fig6", n=2):
    engine = ExperimentEngine(jobs=1, use_cache=False,
                              history_dir=str(history_dir))
    summaries = engine.run_specs(_specs(n), figure=figure)
    return summaries


class TestFingerprint:
    def test_stable_and_code_independent(self):
        a, b = _specs(2)
        assert spec_fingerprint(a) == spec_fingerprint(a)
        assert spec_fingerprint(a) != spec_fingerprint(b)
        assert len(spec_fingerprint(a)) == 24  # blake2b digest_size=12


class TestAppendReadRoundTrip:
    def test_engine_appends_one_entry_per_run(self, tmp_path):
        _record_run(tmp_path)
        _record_run(tmp_path)
        history = RunHistory(tmp_path)
        entries = history.entries()
        assert [e["sequence"] for e in entries] == [1, 2]
        assert all(e["figure"] == "fig6" for e in entries)
        assert all(len(e["specs"]) == 2 for e in entries)

    def test_entry_carries_summary_metrics(self, tmp_path):
        summaries = _record_run(tmp_path, n=1)
        entry = RunHistory(tmp_path).latest("fig6")
        spec_row = entry["specs"][0]
        # (JSON round-trip turns tuples into lists; normalise both sides.)
        expected = json.loads(json.dumps(summaries[0].metrics_dict()))
        assert spec_row["metrics"] == expected
        assert spec_row["label"] == summaries[0].label
        assert spec_row["cached"] is False
        assert entry["jobs"] == 1 and entry["wall_seconds"] > 0.0

    def test_figure_filter_and_latest_offset(self, tmp_path):
        history = RunHistory(tmp_path)
        for figure in ("fig5", "fig6", "fig6"):
            history.append(figure=figure, jobs=1, wall_seconds=1.0,
                           specs=[], summaries=[], timestamp=0.0)
        assert [e["figure"] for e in history.entries("fig6")] == ["fig6", "fig6"]
        assert history.latest("fig6")["sequence"] == 3
        assert history.latest("fig6", offset=1)["sequence"] == 2
        assert history.latest("fig5", offset=1) is None
        assert history.by_sequence(1)["figure"] == "fig5"
        assert history.by_sequence(99) is None

    def test_no_history_dir_means_no_file(self, tmp_path):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_specs(_specs(1), figure="fig6")
        assert RunHistory(tmp_path).entries() == []

    def test_audit_metrics_folded_into_entry(self, tmp_path):
        # With auditing on, the misauthorization rates ride the entry's
        # metrics dict, putting them under the regression gate.
        engine = ExperimentEngine(jobs=1, use_cache=False,
                                  history_dir=str(tmp_path), obs=("audit",))
        engine.run_specs(_specs(1), figure="fig6")
        metrics = RunHistory(tmp_path).latest("fig6")["specs"][0]["metrics"]
        assert metrics["audit.decisions_total"] > 0
        assert metrics["audit.false_positives"] == 0
        assert any(key.endswith(".bf_misauth_rate") for key in metrics)


class TestDiff:
    def _entry(self, tmp_path):
        _record_run(tmp_path)
        return RunHistory(tmp_path).latest("fig6")

    def test_identical_entries_are_clean(self, tmp_path):
        entry = self._entry(tmp_path)
        assert diff_entries(entry, copy.deepcopy(entry)) == []

    def test_metric_drift_reported(self, tmp_path):
        entry = self._entry(tmp_path)
        drifted = copy.deepcopy(entry)
        key = sorted(drifted["specs"][0]["metrics"])[0]
        metrics = drifted["specs"][0]["metrics"]
        value = metrics[key]
        metrics[key] = (value + 1) if isinstance(value, (int, float)) else "x"
        problems = diff_entries(entry, drifted)
        assert len(problems) == 1 and "drifted" in problems[0]

    def test_tolerance_absorbs_small_drift(self):
        base = {"wall_seconds": 1.0, "specs": [
            {"fingerprint": "f", "label": "a", "metrics": {"m": 100.0}}]}
        cand = copy.deepcopy(base)
        cand["specs"][0]["metrics"]["m"] = 100.5
        assert diff_entries(base, cand) != []
        assert diff_entries(base, cand, rel_tol=0.01) == []

    def test_missing_spec_and_metric_reported(self):
        base = {"wall_seconds": 1.0, "specs": [
            {"fingerprint": "f1", "label": "a", "metrics": {"m": 1, "n": 2}},
            {"fingerprint": "f2", "label": "b", "metrics": {"m": 1}}]}
        cand = {"wall_seconds": 1.0, "specs": [
            {"fingerprint": "f1", "label": "a", "metrics": {"m": 1}}]}
        problems = diff_entries(base, cand)
        assert any("missing from candidate" in p for p in problems)
        assert any("present on one side only" in p for p in problems)

    def test_wall_clock_regression_gate(self):
        base = {"wall_seconds": 1.0, "specs": []}
        cand = {"wall_seconds": 1.4, "specs": []}
        assert diff_entries(base, cand) == []  # ignored by default
        assert diff_entries(base, cand, wall_tol_pct=50.0) == []
        problems = diff_entries(base, cand, wall_tol_pct=20.0)
        assert len(problems) == 1 and "wall clock regressed" in problems[0]

    def test_bool_metric_not_numeric_matched(self):
        base = {"wall_seconds": 1.0, "specs": [
            {"fingerprint": "f", "label": "a", "metrics": {"ok": True}}]}
        cand = copy.deepcopy(base)
        cand["specs"][0]["metrics"]["ok"] = 1.0000001
        assert diff_entries(base, cand, rel_tol=0.1) != []

    def test_zero_baseline_admits_no_tolerance(self):
        # A zero-baseline counter (e.g. audit.false_positives) must stay
        # zero: rel_tol scales with magnitude, so without this rule any
        # drift away from 0 would slip through every tolerance.
        base = {"wall_seconds": 1.0, "specs": [
            {"fingerprint": "f", "label": "a", "metrics": {"fp": 0}}]}
        cand = copy.deepcopy(base)
        cand["specs"][0]["metrics"]["fp"] = 1
        problems = diff_entries(base, cand, rel_tol=0.5)
        assert len(problems) == 1 and "drifted" in problems[0]

    def test_zero_baseline_zero_candidate_clean(self):
        base = {"wall_seconds": 1.0, "specs": [
            {"fingerprint": "f", "label": "a", "metrics": {"fp": 0}}]}
        cand = copy.deepcopy(base)
        cand["specs"][0]["metrics"]["fp"] = 0.0  # int/float zero match
        assert diff_entries(base, cand, rel_tol=0.5) == []
        assert diff_entries(base, cand) == []


class TestCli:
    def test_diff_identical_runs_exits_zero(self, tmp_path, capsys):
        _record_run(tmp_path)
        _record_run(tmp_path)
        code = main(["diff", "--history-dir", str(tmp_path),
                     "--figure", "fig6", "--wall-tolerance", "10000"])
        assert code == 0
        assert "identical within tolerance" in capsys.readouterr().out

    def test_diff_drift_exits_one(self, tmp_path, capsys):
        _record_run(tmp_path)
        # Forge a drifted second entry directly in the file.
        history = RunHistory(tmp_path)
        entry = copy.deepcopy(history.latest("fig6"))
        entry["sequence"] += 1
        key = sorted(entry["specs"][0]["metrics"])[0]
        entry["specs"][0]["metrics"][key] = -12345
        with open(history.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        code = main(["diff", "--history-dir", str(tmp_path), "--figure", "fig6"])
        assert code == 1
        assert "drifted" in capsys.readouterr().out

    def test_diff_explicit_baseline(self, tmp_path):
        _record_run(tmp_path)
        _record_run(tmp_path)
        _record_run(tmp_path)
        assert main(["diff", "--history-dir", str(tmp_path),
                     "--figure", "fig6", "--baseline", "1"]) == 0
        assert main(["diff", "--history-dir", str(tmp_path),
                     "--baseline", "42"]) == 2

    def test_usage_errors_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
        assert main(["diff"]) == 2
        assert main(["diff", "--history-dir", str(tmp_path)]) == 2  # empty
        _record_run(tmp_path)
        assert main(["diff", "--history-dir", str(tmp_path)]) == 2  # single
        capsys.readouterr()

    def test_env_var_supplies_directory(self, tmp_path, monkeypatch, capsys):
        _record_run(tmp_path)
        _record_run(tmp_path)
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
        assert main(["diff", "--figure", "fig6"]) == 0
        capsys.readouterr()

    def test_truncated_line_exits_two_naming_file_and_line(self, tmp_path, capsys):
        entry = {"sequence": 1, "figure": "fig6", "jobs": 1,
                 "wall_seconds": 0.5, "specs": []}
        whole = json.dumps(entry)
        history = RunHistory(tmp_path)
        tmp_path.joinpath("history.jsonl").write_text(
            whole + "\n" + whole[: len(whole) // 2], encoding="utf-8"
        )
        with pytest.raises(HistoryError, match=r"history\.jsonl:2: corrupt"):
            history.entries()
        for command in ("diff", "list"):
            assert main([command, "--history-dir", str(tmp_path)]) == 2
            assert f"{history.path}:2: corrupt" in capsys.readouterr().err

    def test_list_renders_entries(self, tmp_path, capsys):
        _record_run(tmp_path)
        assert main(["list", "--history-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "#1" in out and "fig6" in out and "2 specs" in out


class TestDeterminism:
    def test_two_runs_identical_metrics(self, tmp_path):
        """The gate is only useful if fixed-seed reruns really agree."""
        _record_run(tmp_path)
        _record_run(tmp_path)
        history = RunHistory(tmp_path)
        first, second = history.entries("fig6")
        assert diff_entries(first, second) == []

    @pytest.mark.parametrize("jobs", [1])
    def test_cached_rerun_matches_fresh(self, tmp_path, jobs):
        cache = tmp_path / "cache"
        for _ in range(2):
            engine = ExperimentEngine(jobs=jobs, cache_dir=str(cache),
                                      use_cache=True,
                                      history_dir=str(tmp_path))
            engine.run_specs(_specs(1), figure="fig6")
        history = RunHistory(tmp_path)
        first, second = history.entries("fig6")
        assert second["specs"][0]["cached"] is True
        assert first["specs"][0]["cached"] is False
        # Cached flag lives outside metrics; the metrics agree exactly.
        assert diff_entries(first, second) == []
