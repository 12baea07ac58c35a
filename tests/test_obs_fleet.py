"""Fleet status line: TTY-only rendering, ETA/utilization math."""

from __future__ import annotations

import io

from repro.exec.engine import ExperimentEngine
from repro.exec.spec import ScenarioSpec
from repro.experiments.fig6_tag_rates import enumerate_fig6
from repro.obs.fleet import FleetProgress


class FakeClock:
    """Deterministic, manually-advanced wall clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Tty(io.StringIO):
    """A captured stream that reports itself as a terminal."""

    def isatty(self):
        return True


def _progress(**kwargs):
    clock = FakeClock()
    stream = Tty()
    kwargs.setdefault("jobs", 2)
    progress = FleetProgress(total=4, stream=stream, clock=clock, **kwargs)
    return progress, clock, stream


def _lines(stream):
    """The successive status lines drawn on ``stream``."""
    return [line for line in stream.getvalue().split("\r\x1b[2K") if line]


class TestDerivedQuantities:
    def test_eta_none_before_first_completion(self):
        progress, _, _ = _progress()
        assert progress.eta_seconds() is None

    def test_eta_extrapolates_mean_wall_over_workers(self):
        progress, clock, _ = _progress()
        progress.spec_started()
        clock.advance(2.0)
        progress.spec_finished(wall_seconds=2.0)
        # 3 remaining × mean 2.0s ÷ 2 workers
        assert progress.eta_seconds() == 3.0
        progress.spec_finished(wall_seconds=4.0)
        # 2 remaining × mean 3.0s ÷ 2 workers
        assert progress.eta_seconds() == 3.0

    def test_utilization_is_busy_over_capacity(self):
        progress, clock, _ = _progress()
        clock.advance(4.0)
        progress.spec_finished(wall_seconds=6.0)
        # 6 busy worker-seconds over 4s elapsed × 2 workers
        assert progress.utilization() == 0.75

    def test_utilization_zero_when_no_time_elapsed(self):
        progress, _, _ = _progress()
        assert progress.utilization() == 0.0


class TestStatusLine:
    def test_status_line_counts_running_and_done(self):
        progress, _, stream = _progress()
        progress.spec_started()
        progress.spec_finished(wall_seconds=1.0)
        lines = _lines(stream)
        assert lines[0] == "fleet 0/4 · 1 running"
        assert lines[1].startswith("fleet 1/4 · ")
        assert "util" in lines[1]

    def test_cached_specs_reported(self):
        progress, _, stream = _progress()
        progress.spec_cached()
        assert _lines(stream) == ["fleet 1/4 · 1 cached"]

    def test_tty_stream_refreshes_one_line(self):
        progress, _, stream = _progress(jobs=1)
        progress.spec_started()
        progress.spec_finished(wall_seconds=1.0)
        progress.run_finished()
        value = stream.getvalue()
        assert value.count("\r\x1b[2K") == 2
        assert value.count("\n") == 1
        assert value.endswith("\n")  # run_finished closes the open line


class TestEngineIntegration:
    def test_engine_draws_status_line_on_a_tty(self):
        stream = Tty()
        engine = ExperimentEngine(jobs=1, use_cache=False, obs=(), stream=stream)
        engine.run_specs(enumerate_fig6(duration=2.0, scale=0.1)[:2], figure="fig6")
        assert "fleet 2/2" in stream.getvalue()
        assert stream.getvalue().endswith("\n")

    def test_pool_line_never_counts_more_running_than_workers(self):
        # The engine hands a pool every pending spec up front; only
        # ``jobs`` of them run at once.
        stream = Tty()
        engine = ExperimentEngine(jobs=2, use_cache=False, obs=(), stream=stream)
        specs = [
            ScenarioSpec.make(topology=1, duration=0.5, scale=0.05, seed=seed)
            for seed in (1, 2, 3, 4)
        ]
        engine.run_specs(specs)
        lines = _lines(stream)
        assert lines[:4] == ["fleet 0/4 · 1 running"] + ["fleet 0/4 · 2 running"] * 3
        assert not any(f"{count} running" in line for line in lines for count in (3, 4))
        assert lines[-1].startswith("fleet 4/4")

    def test_engine_quiet_by_default(self):
        stream = io.StringIO()
        engine = ExperimentEngine(jobs=1, use_cache=False, stream=stream)
        engine.run_specs(enumerate_fig6(duration=2.0, scale=0.1)[:1])
        assert stream.getvalue() == ""
