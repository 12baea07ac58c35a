"""simlint: one failing fixture per rule, suppression semantics,
reporters, CLI exit codes, and the repo-is-clean gate."""

from __future__ import annotations

import json
import pathlib
import textwrap

from repro.qa.findings import Finding, render_json, render_text
from repro.qa.lint import lint_paths, main, parse_suppressions
from repro.qa.rules import package_relpath

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def run_lint(tmp_path, source, name="fixture.py", select=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], select=select)


def codes(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# SL001: wall clock
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert codes(findings) == ["SL001"]
        assert "time.time" in findings[0].message

    def test_from_import_alias_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            from time import perf_counter as tick

            def stamp():
                return tick()
            """,
        )
        assert codes(findings) == ["SL001"]

    def test_datetime_now_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
        )
        assert codes(findings) == ["SL001"]

    def test_virtual_time_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def stamp(sim):
                return sim.now
            """,
        )
        assert findings == []

    def test_out_of_scope_path_exempt(self, tmp_path):
        # Files under a repro/ tree but outside sim-affecting
        # subpackages (e.g. the experiment harness) may wall-clock.
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        path = pkg / "harness.py"
        path.write_text("import time\nwall = time.time()\n")
        assert lint_paths([str(path)], select={"SL001"}) == []

    def test_sim_scope_path_checked(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        path = pkg / "clock.py"
        path.write_text("import time\nwall = time.time()\n")
        assert codes(lint_paths([str(path)])) == ["SL001"]


# ---------------------------------------------------------------------------
# SL002: stdlib random
# ---------------------------------------------------------------------------
class TestStdlibRandom:
    def test_import_random_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "import random\n")
        assert codes(findings) == ["SL002"]

    def test_from_random_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "from random import choice\n")
        assert codes(findings) == ["SL002"]

    def test_rng_streams_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            from repro.sim.rng import Stream, seeded_stream

            def draw(rng: Stream) -> float:
                return rng.random()
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SL003: undeclared event / metric names
# ---------------------------------------------------------------------------
class TestUndeclaredNames:
    REGISTRY = textwrap.dedent(
        """
        KNOWN_EVENTS = ("node.rx.interest", "pit.timeout")
        METRIC_NAMES = ("pit_entries",)
        """
    )

    def test_undeclared_event_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + textwrap.dedent(
                """
                def fire(trace, now):
                    trace.emit("node.rx.intrest", now)
                """
            ),
        )
        assert codes(findings) == ["SL003"]
        assert "node.rx.intrest" in findings[0].message

    def test_declared_event_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + textwrap.dedent(
                """
                def fire(trace, now):
                    trace.emit("node.rx.interest", now)
                    trace.wants("pit.timeout")
                """
            ),
        )
        assert findings == []

    def test_undeclared_metric_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + textwrap.dedent(
                """
                def build(registry):
                    return registry.gauge("pit_entrees", "typo'd family")
                """
            ),
        )
        assert codes(findings) == ["SL003"]

    def test_silent_without_registries(self, tmp_path):
        # A lone snippet with no registry in the scan must stay quiet:
        # the rule cannot know the full declared set.
        findings = run_lint(
            tmp_path,
            """
            def fire(trace, now):
                trace.emit("anything.goes", now)
            """,
        )
        assert findings == []

    def test_wildcard_subscription_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + textwrap.dedent(
                """
                def tap(trace, sink):
                    trace.subscribe("*", sink)
                """
            ),
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SL004: mutable defaults
# ---------------------------------------------------------------------------
class TestMutableDefaults:
    def test_list_literal_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "def f(acc=[]):\n    return acc\n")
        assert codes(findings) == ["SL004"]

    def test_dict_call_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "def f(*, acc=dict()):\n    return acc\n")
        assert codes(findings) == ["SL004"]

    def test_none_default_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def f(acc=None):
                return [] if acc is None else acc
            """,
        )
        assert findings == []

    def test_immutable_defaults_clean(self, tmp_path):
        findings = run_lint(tmp_path, "def f(a=0, b=(), c='x'):\n    return a\n")
        assert findings == []


# ---------------------------------------------------------------------------
# SL005: schedule() misuse
# ---------------------------------------------------------------------------
class TestScheduleMisuse:
    def test_negative_delay_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "def f(sim, cb):\n    sim.schedule(-1.0, cb)\n")
        assert codes(findings) == ["SL005"]

    def test_invoked_callback_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "def f(sim, cb):\n    sim.schedule(1.0, cb())\n")
        assert codes(findings) == ["SL005"]
        assert "invoked at schedule time" in findings[0].message

    def test_partial_factory_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            from functools import partial

            def f(sim, cb):
                sim.schedule(1.0, partial(cb, 42))
            """,
        )
        assert findings == []

    def test_plain_callable_clean(self, tmp_path):
        findings = run_lint(tmp_path, "def f(sim, cb):\n    sim.schedule(0.5, cb, 1)\n")
        assert findings == []


# ---------------------------------------------------------------------------
# SL006: run_scenario loops in experiment drivers
# ---------------------------------------------------------------------------
class TestDirectRunScenario:
    def test_for_loop_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def reproduce(scenarios):
                results = []
                for scenario in scenarios:
                    results.append(run_scenario(scenario))
                return results
            """,
        )
        assert codes(findings) == ["SL006"]
        assert "run_specs" in findings[0].message

    def test_comprehension_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            "def reproduce(ss):\n    return [run_scenario(s) for s in ss]\n",
        )
        assert codes(findings) == ["SL006"]

    def test_nested_loop_flagged_once(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def reproduce(grid, seeds):
                for point in grid:
                    for seed in seeds:
                        run_scenario(point, seed)
            """,
        )
        assert codes(findings) == ["SL006"]

    def test_straight_line_call_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def reproduce(scenario):
                return run_scenario(scenario)
            """,
        )
        assert findings == []

    def test_run_specs_loop_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            def reproduce(specs):
                out = []
                for summary in run_specs(specs):
                    out.append(summary)
                return out
            """,
        )
        assert findings == []

    def test_non_experiment_path_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "exec"
        pkg.mkdir(parents=True)
        path = pkg / "engine.py"
        path.write_text(
            "def drain(scenarios):\n"
            "    return [run_scenario(s) for s in scenarios]\n"
        )
        assert lint_paths([str(path)], select={"SL006"}) == []

    def test_experiments_path_checked(self, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        path = pkg / "driver.py"
        path.write_text(
            "def drain(scenarios):\n"
            "    return [run_scenario(s) for s in scenarios]\n"
        )
        assert codes(lint_paths([str(path)])) == ["SL006"]


# ---------------------------------------------------------------------------
# SL007: fleet event names
# ---------------------------------------------------------------------------
class TestFleetEvents:
    REGISTRY = 'FLEET_EVENTS = ("fleet.run.start", "fleet.run.done")\n'

    def test_declared_emission_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def go(self):\n"
            + '    self._event("fleet.run.start", {})\n',
        )
        assert findings == []

    def test_undeclared_emission_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def go(self):\n"
            + '    self._event("fleet.run.strat", {})\n',
        )
        assert codes(findings) == ["SL007"]
        assert "fleet.run.strat" in findings[0].message

    def test_registry_in_sibling_module_counts(self, tmp_path):
        # FLEET_EVENTS lives in repro/obs/fleet.py; the emission site in
        # repro/exec/engine.py is checked against it cross-file.
        (tmp_path / "registry.py").write_text(self.REGISTRY)
        (tmp_path / "engine.py").write_text(
            'def go(self):\n    self._event("fleet.bogus", {})\n'
        )
        findings = lint_paths(
            [str(tmp_path / "registry.py"), str(tmp_path / "engine.py")],
            select={"SL007"},
        )
        assert codes(findings) == ["SL007"]

    def test_quiet_without_any_registry(self, tmp_path):
        findings = run_lint(
            tmp_path,
            'def go(self):\n    self._event("fleet.bogus", {})\n',
            select={"SL007"},
        )
        assert findings == []

    def test_out_of_scope_package_exempt(self, tmp_path):
        # Only obs/ and exec/ modules emit fleet events; an unrelated
        # subpackage using a same-named helper is not checked.
        pkg = tmp_path / "repro" / "ndn"
        pkg.mkdir(parents=True)
        (pkg / "router.py").write_text(
            self.REGISTRY
            + 'def go(self):\n    self._event("not.a.fleet.event", {})\n'
        )
        assert lint_paths([str(pkg / "router.py")], select={"SL007"}) == []

    def test_obs_package_checked(self, tmp_path):
        pkg = tmp_path / "repro" / "obs"
        pkg.mkdir(parents=True)
        (pkg / "fleet.py").write_text(
            self.REGISTRY
            + 'def go(self):\n    self._event("fleet.typo", {})\n'
        )
        assert codes(lint_paths([str(pkg / "fleet.py")])) == ["SL007"]

    def test_non_literal_and_non_emit_calls_ignored(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def go(self, name):\n"
            + "    self._event(name, {})\n"
            + '    self.note("fleet.bogus")\n',
            select={"SL007"},
        )
        assert findings == []

    def test_suppression_honoured(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def go(self):\n"
            + '    self._event("fleet.legacy", {})  # simlint: disable=SL007\n',
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SL008: audit decision kinds
# ---------------------------------------------------------------------------
class TestDecisionKinds:
    REGISTRY = 'DECISION_KINDS = ("bf_hit", "bf_miss", "nack")\n'

    def test_declared_kind_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def note(self, node):\n"
            + '    self.record_decision("bf_hit", node, outcome="hit")\n',
        )
        assert findings == []

    def test_undeclared_kind_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def note(self, node):\n"
            + '    self.record_decision("bf_hti", node)\n',
        )
        assert codes(findings) == ["SL008"]
        assert "bf_hti" in findings[0].message

    def test_non_literal_kind_flagged(self, tmp_path):
        # Unlike SL007, a dynamic first argument is itself a finding:
        # the decision namespace must stay statically checkable.
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def note(self, node, kind):\n"
            + "    self.record_decision(kind, node)\n",
            select={"SL008"},
        )
        assert codes(findings) == ["SL008"]
        assert "string literal" in findings[0].message

    def test_registry_in_sibling_module_counts(self, tmp_path):
        # DECISION_KINDS lives in repro/obs/audit.py; call sites in the
        # core routers are checked against it cross-file.
        (tmp_path / "audit.py").write_text(self.REGISTRY)
        (tmp_path / "router.py").write_text(
            'def note(self, node):\n    self.record_decision("bogus", node)\n'
        )
        findings = lint_paths(
            [str(tmp_path / "audit.py"), str(tmp_path / "router.py")],
            select={"SL008"},
        )
        assert codes(findings) == ["SL008"]

    def test_quiet_without_any_registry(self, tmp_path):
        findings = run_lint(
            tmp_path,
            'def note(self, node):\n    self.record_decision("bogus", node)\n',
            select={"SL008"},
        )
        assert findings == []

    def test_out_of_scope_package_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "exec"
        pkg.mkdir(parents=True)
        (pkg / "engine.py").write_text(
            self.REGISTRY
            + 'def note(self, node):\n    self.record_decision("bogus", node)\n'
        )
        assert lint_paths([str(pkg / "engine.py")], select={"SL008"}) == []

    def test_core_package_checked(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "router.py").write_text(
            self.REGISTRY
            + 'def note(self, node):\n    self.record_decision("typo", node)\n'
        )
        assert codes(lint_paths([str(pkg / "router.py")])) == ["SL008"]

    def test_other_calls_ignored(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def note(self, node):\n"
            + '    self.record("bogus", node)\n',
            select={"SL008"},
        )
        assert findings == []

    def test_suppression_honoured(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def note(self, node):\n"
            + '    self.record_decision("legacy", node)'
            + "  # simlint: disable=SL008\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SL015: fleet phase names
# ---------------------------------------------------------------------------
class TestFleetPhases:
    REGISTRY = 'FLEETPERF_PHASES = ("fleet.sim", "fleet.pickle", "fleet.cache")\n'

    def test_declared_phase_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def run(self, spec):\n"
            + '    self.lifecycle.charge("fleet.sim", 1.0)\n',
        )
        assert findings == []

    def test_undeclared_phase_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def run(self, spec):\n"
            + '    self.lifecycle.charge("fleet.simm", 1.0)\n',
            select={"SL015"},
        )
        assert codes(findings) == ["SL015"]
        assert "fleet.simm" in findings[0].message

    def test_non_literal_phase_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def run(self, spec, which):\n"
            + "    self.lifecycle.charge(which, 1.0)\n",
            select={"SL015"},
        )
        assert codes(findings) == ["SL015"]
        assert "string literal" in findings[0].message

    def test_registry_in_sibling_module_counts(self, tmp_path):
        # FLEETPERF_PHASES lives in repro/obs/fleetperf.py; charge()
        # call sites in the engine are checked against it cross-file.
        (tmp_path / "fleetperf.py").write_text(self.REGISTRY)
        (tmp_path / "engine.py").write_text(
            'def run(self, spec):\n    fleet.charge("fleet.bogus", 0.1)\n'
        )
        findings = lint_paths(
            [str(tmp_path / "fleetperf.py"), str(tmp_path / "engine.py")],
            select={"SL015"},
        )
        assert codes(findings) == ["SL015"]

    def test_quiet_without_any_registry(self, tmp_path):
        findings = run_lint(
            tmp_path,
            'def run(self, spec):\n    fleet.charge("fleet.bogus", 0.1)\n',
            select={"SL015"},
        )
        assert findings == []

    def test_registry_does_not_leak_into_perf_phases(self, tmp_path):
        # Only FLEETPERF_PHASES declares fleet phases: a name listed in
        # some other *_PHASES tuple is still an undeclared SL015 phase.
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + 'PERF_PHASES = ("fleet.bogus",)\n'
            + "def run(self, spec):\n"
            + '    fleet.charge("fleet.bogus", 0.1)\n',
            select={"SL015"},
        )
        assert codes(findings) == ["SL015"]
        assert "fleet.bogus" in findings[0].message

    def test_suppression_honoured(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def run(self, spec):\n"
            + '    self.lifecycle.charge("fleet.legacy", 0.1)'
            + "  # simlint: disable=SL015\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SL016: statescope series names
# ---------------------------------------------------------------------------
class TestStateScopeSeries:
    REGISTRY = (
        'STATESCOPE_SERIES = ("state.pit.entries", "state.cs.bytes", '
        '"state.total.bytes")\n'
    )

    def test_declared_series_clean(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def sample(self, now):\n"
            + '    self.track("state.pit.entries", now, 1.0)\n',
        )
        assert findings == []

    def test_undeclared_series_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def sample(self, now):\n"
            + '    self.track("state.pit.entires", now, 1.0)\n',
            select={"SL016"},
        )
        assert codes(findings) == ["SL016"]
        assert "state.pit.entires" in findings[0].message

    def test_non_literal_series_flagged(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def sample(self, now, name):\n"
            + "    self.track(name, now, 1.0)\n",
            select={"SL016"},
        )
        assert codes(findings) == ["SL016"]
        assert "string literal" in findings[0].message

    def test_registry_in_sibling_module_counts(self, tmp_path):
        # STATESCOPE_SERIES lives in repro/obs/statescope.py; track()
        # call sites elsewhere are checked against it cross-file.
        (tmp_path / "statescope.py").write_text(self.REGISTRY)
        (tmp_path / "engine.py").write_text(
            'def sample(self, now):\n    scope.track("state.bogus", now, 1.0)\n'
        )
        findings = lint_paths(
            [str(tmp_path / "statescope.py"), str(tmp_path / "engine.py")],
            select={"SL016"},
        )
        assert codes(findings) == ["SL016"]

    def test_quiet_without_any_registry(self, tmp_path):
        findings = run_lint(
            tmp_path,
            'def sample(self, now):\n    scope.track("state.bogus", now, 1.0)\n',
            select={"SL016"},
        )
        assert findings == []

    def test_registry_does_not_leak_into_other_registries(self, tmp_path):
        # STATESCOPE_SERIES feeds SL016 only — an emit() of a state
        # series name is still an undeclared event for SL003.
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + 'KNOWN_EVENTS = ("interest.sent",)\n'
            + "def sample(self):\n"
            + '    self.trace.emit("state.pit.entries", {})\n',
            select={"SL003"},
        )
        assert codes(findings) == ["SL003"]

    def test_suppression_honoured(self, tmp_path):
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + "def sample(self, now):\n"
            + '    self.track("state.legacy", now, 1.0)'
            + "  # simlint: disable=SL016\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
class TestSuppression:
    def test_targeted_suppression(self, tmp_path):
        findings = run_lint(
            tmp_path, "import random  # deliberate  # simlint: disable=SL002\n"
        )
        assert findings == []

    def test_blanket_suppression(self, tmp_path):
        findings = run_lint(tmp_path, "import random  # simlint: disable\n")
        assert findings == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        findings = run_lint(tmp_path, "import random  # simlint: disable=SL001\n")
        assert codes(findings) == ["SL002"]

    def test_suppression_is_per_line(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """
            import random  # simlint: disable=SL002
            from random import choice
            """,
        )
        assert codes(findings) == ["SL002"]

    def test_parse_multiple_codes(self):
        sup = parse_suppressions("x = 1  # simlint: disable=SL001, SL004\n")
        assert sup == {1: frozenset({"SL001", "SL004"})}


# ---------------------------------------------------------------------------
# Reporters / loader / CLI
# ---------------------------------------------------------------------------
class TestReporting:
    def test_syntax_error_becomes_sl000(self, tmp_path):
        findings = run_lint(tmp_path, "def broken(:\n")
        assert codes(findings) == ["SL000"]

    def test_text_reporter_format(self):
        finding = Finding(path="a.py", line=3, col=5, rule="SL001", message="boom")
        assert render_text([finding]) == "a.py:3:5: SL001 boom"

    def test_json_reporter_roundtrip(self):
        finding = Finding(path="a.py", line=3, col=5, rule="SL001", message="boom")
        [parsed] = json.loads(render_json([finding]))
        assert parsed == {
            "path": "a.py", "line": 3, "col": 5, "rule": "SL001", "message": "boom",
        }

    def test_select_restricts_rules(self, tmp_path):
        source = "import random\ndef f(acc=[]):\n    return acc\n"
        assert codes(run_lint(tmp_path, source)) == ["SL002", "SL004"]
        assert codes(run_lint(tmp_path, source, select={"SL004"})) == ["SL004"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([str(dirty), "--select", "SL999"]) == 2
        assert main([]) == 2
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SL005" in out

    def test_cli_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "SL002"
        assert payload["stats"]["findings"] == 1
        assert payload["stats"]["wall_seconds"] >= 0.0

    def test_cli_sarif_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(dirty), "--format", "sarif"]) == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        assert [r["ruleId"] for r in run["results"]] == ["SL002"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SL000", "SL002", "SL008", "SL015"} <= rule_ids

    def test_parallel_matches_serial(self, tmp_path):
        # Registry in one file, a bad emit in another: the judge phase
        # must see the *merged* registries whichever path produced the
        # candidates.
        (tmp_path / "registry.py").write_text(
            'KNOWN_EVENTS = ("node.rx",)\n'
        )
        (tmp_path / "emitter.py").write_text(
            'def go(trace):\n    trace.emit("node.rxx", 1)\n'
        )
        (tmp_path / "dirty.py").write_text("import random\n")
        serial = lint_paths([str(tmp_path)], jobs=1)
        parallel = lint_paths([str(tmp_path)], jobs=2)
        assert serial == parallel
        assert codes(serial) == ["SL002", "SL003"]


class TestPackageRelpath:
    def test_repro_anchored(self):
        assert package_relpath("src/repro/ndn/node.py") == "ndn/node.py"

    def test_innermost_repro_wins(self):
        assert package_relpath("repro/vendor/repro/sim/x.py") == "sim/x.py"

    def test_bare_file(self):
        assert package_relpath("/tmp/fixture.py") == "fixture.py"


# ---------------------------------------------------------------------------
# The gate the CI job enforces
# ---------------------------------------------------------------------------
def test_repo_is_simlint_clean():
    findings = lint_paths([str(REPO_SRC)])
    assert findings == [], render_text(findings)
