"""The event loop runs with the cyclic garbage collector paused.

``Simulator.run`` disables the collector for the loop and restores it on
return.  That is only safe while the loop creates no reference cycles:
refcounting must free every packet, heap entry and PIT record.  These
tests are that safety argument.  With the collector off, each run is
bracketed by ``gc.collect()`` calls, and the second one must find
nothing the run left behind.
"""

from __future__ import annotations

import gc

import pytest

from repro.exec.spec import ScenarioSpec
from repro.experiments.runner import run_scenario
from repro.obs.instruments import INSTRUMENTS, Obs
from repro.qa.simsan import SimSan
from repro.sim.engine import SimulationError, Simulator


@pytest.fixture
def restore_collector():
    """Put the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def cycles_per_run(monkeypatch, restore_collector):
    """With the collector off, a list that receives the number of
    unreachable objects each ``Simulator.run`` call left behind."""
    found = []
    run = Simulator.run

    def bracketed(self, until=None):
        gc.collect()
        try:
            run(self, until)
        finally:
            found.append(gc.collect())

    monkeypatch.setattr(Simulator, "run", bracketed)
    gc.disable()
    return found


def _topo1(duration=2.0, scale=0.2, **overrides):
    return ScenarioSpec.make(
        topology=1, duration=duration, scale=scale, seed=1, overrides=overrides or None
    ).build()


class TestLoopIsCycleFree:
    def test_topology1(self, cycles_per_run):
        run_scenario(_topo1())
        assert cycles_per_run == [0]

    def test_topology1_under_simsan(self, cycles_per_run):
        run_scenario(_topo1(), instruments=[SimSan(mode="collect")])
        assert cycles_per_run == [0]

    def test_table5_regime_with_filter_resets(self, cycles_per_run):
        # Table V's small-filter regime, shrunk to this population:
        # filters saturate and reset dozens of times inside the loop.
        result = run_scenario(_topo1(bf_capacity=3, bf_max_fpp=1e-4, tag_expiry=10.0))
        assert result.total_bf_resets(edge=True) > 10
        assert cycles_per_run == [0]

    @pytest.mark.parametrize(
        "row", [name for name, row in INSTRUMENTS.items() if row.make is not None]
    )
    def test_obs_row_leaves_a_fixed_count(self, row, cycles_per_run, tmp_path):
        # An instrument may leave a fixed number of cycles (objects it
        # builds once per run); it must not leave more per event.
        counts = []
        for duration in (1.0, 2.0):
            obs = Obs(names=(row,), out=str(tmp_path / f"d{duration:g}"))
            cycles_per_run.clear()
            run_scenario(
                _topo1(duration=duration, scale=0.1),
                instruments=[INSTRUMENTS[row].make(obs)],
            )
            counts.append(sum(cycles_per_run))
        assert counts[0] == counts[1]


class TestRunRestoresCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, enabled, restore_collector):
        seen = []
        sim = Simulator()
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        (gc.enable if enabled else gc.disable)()
        sim.run()
        assert gc.isenabled() is enabled
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_callback_raises(self, enabled, restore_collector):
        def boom():
            raise RuntimeError("boom")

        sim = Simulator()
        sim.schedule(1.0, boom)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError):
            sim.run(until=2.0)
        assert gc.isenabled() is enabled

    def test_loop_survivors_skip_the_young_generations(self, restore_collector):
        # What the loop allocated goes straight to the oldest generation,
        # so the first young pass after the loop does not walk it.
        kept = []
        sim = Simulator()
        sim.schedule(1.0, lambda: kept.append([]))
        gc.enable()
        sim.run()
        survivor = kept[0]
        assert not any(obj is survivor for obj in gc.get_objects(generation=0))
        assert not any(obj is survivor for obj in gc.get_objects(generation=1))
        assert any(obj is survivor for obj in gc.get_objects(generation=2))
        assert gc.get_freeze_count() == 0

    def test_objects_frozen_by_the_caller_stay_frozen(self, restore_collector):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            gc.enable()
            sim.run()
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_nested_run_leaves_collector_paused(self, restore_collector):
        # The inner run raises before touching the collector, so the
        # outer loop keeps running paused.
        seen = []
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()
            seen.append(gc.isenabled())

        sim.schedule(1.0, nested)
        gc.enable()
        sim.run()
        assert gc.isenabled()
        assert seen == [False]
