"""The parent-versus-candidate perf gate (``benchmarks/perf_gate.py``):
its verdict, perfbench JSON-line parsing and run order, with no
perfbench subprocess."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from benchmarks import perf_gate
from benchmarks.perf_gate import GateError, measure, parse_wall, schedule, verdict


def _line(wall: float, failed: int = 0) -> str:
    """perfbench stdout: human lines, then the JSON line."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    last = {"correct": not failed, "attempted": 5, "failed": failed, "metrics": metrics}
    return f"# topo1_paper seed=1\nwall_s  {wall}  s\n{json.dumps(last)}\n"


def _runs(parent, candidate):
    return [{"side": "parent", "wall_s": w} for w in parent] + [
        {"side": "candidate", "wall_s": w} for w in candidate
    ]


class TestVerdict:
    def test_slower_beyond_threshold_exits_one(self):
        slower = 1.0 + perf_gate.THRESHOLD + 0.01
        result = verdict(_runs([2.0, 2.1, 1.9], [2.0 * slower] * 3))
        assert result["exit"] == 1
        assert result["slowdown"] == pytest.approx(slower - 1.0)

    def test_within_threshold_exits_zero(self):
        within = 1.0 + perf_gate.THRESHOLD - 0.01
        assert verdict(_runs([2.0] * 3, [2.0 * within] * 3))["exit"] == 0
        assert verdict(_runs([2.0] * 3, [1.5] * 3))["exit"] == 0

    def test_medians_ignore_one_outlier_per_side(self):
        result = verdict(_runs([2.0, 2.0, 9.0], [2.0, 2.01, 0.5]))
        assert result["parent_median_s"] == 2.0
        assert result["candidate_median_s"] == 2.0
        assert result["exit"] == 0


class TestParseWall:
    def test_last_json_line_is_read(self):
        assert parse_wall(_line(2.125)) == 2.125

    @pytest.mark.parametrize("failed", [1, 4])
    def test_failed_operations_are_no_verdict(self, failed):
        with pytest.raises(GateError, match="failed operations"):
            parse_wall(_line(2.0, failed=failed))

    @pytest.mark.parametrize(
        "stdout",
        [
            "",
            "\n\n",
            "# topo1_paper seed=1\nwall_s 2.0 s\n",
            _line(2.0)[:-20],
            '{"failed": 0, "metrics": {}}\n',
            '{"failed": 0, "metrics": {"wall_s": {"value": "fast"}}}\n',
            "[1, 2]\n",
        ],
    )
    def test_missing_or_garbled_line_is_no_verdict(self, stdout):
        with pytest.raises(GateError):
            parse_wall(stdout)


class TestRunOrder:
    def test_pairs_alternate_which_side_goes_first(self):
        assert schedule(4) == [
            ("parent", "candidate"), ("candidate", "parent"),
            ("parent", "candidate"), ("candidate", "parent"),
        ]

    def test_measure_runs_each_tree_pairs_times_in_schedule_order(self):
        trees = {"parent": Path("/parent"), "candidate": Path("/candidate")}
        order = []

        def run(tree):
            order.append(tree.name)
            return 2.0

        runs = measure(trees, run)
        expected = [side for pair in schedule(perf_gate.PAIRS) for side in pair]
        assert order == expected
        assert [r["side"] for r in runs] == expected
        assert [r["pair"] for r in runs] == [i // 2 for i in range(2 * perf_gate.PAIRS)]


class TestExitTwo:
    @pytest.mark.parametrize("failing", ["parent", "candidate"])
    def test_failed_side_gives_exit_two_and_a_result(self, monkeypatch, tmp_path, failing):
        result = tmp_path / "perf_gate.json"
        parent = tmp_path / "parent"
        removed = []

        @contextmanager
        def worktree(ref):
            try:
                yield parent
            finally:
                removed.append(ref)

        def run(tree):
            side = "parent" if tree == parent else "candidate"
            return parse_wall(_line(2.0, failed=int(side == failing)))

        monkeypatch.setattr(perf_gate, "RESULT", result)
        monkeypatch.setattr(perf_gate, "git", lambda *args: "0123abc")
        monkeypatch.setattr(perf_gate, "worktree", worktree)
        monkeypatch.setattr(perf_gate, "run_perfbench", run)
        assert perf_gate.main(["HEAD"]) == 2
        assert removed == ["0123abc"]
        document = json.loads(result.read_text())
        assert "failed operations" in document["error"]
        assert document["host"] and document["threshold"] == perf_gate.THRESHOLD

    def test_unknown_ref_gives_exit_two(self, monkeypatch, tmp_path):
        monkeypatch.setattr(perf_gate, "RESULT", tmp_path / "perf_gate.json")
        assert perf_gate.main(["no-such-ref-anywhere"]) == 2

    def test_usage_error_exits_two(self):
        assert perf_gate.main([]) == 2
