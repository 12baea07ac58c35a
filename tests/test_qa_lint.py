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
# SL003: undeclared event names
# ---------------------------------------------------------------------------
class TestUndeclaredNames:
    REGISTRY = textwrap.dedent(
        """
        KNOWN_EVENTS = ("node.rx.interest", "pit.timeout")
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

    def test_only_exact_registry_names_declare(self, tmp_path):
        # A ``*_EVENTS`` name that is not a registry declares nothing.
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + textwrap.dedent(
                """
                FOO_EVENTS = ("x",)

                def fire(trace, now):
                    trace.emit("x", now)
                """
            ),
        )
        assert codes(findings) == ["SL003"]
        assert "event name 'x' is not declared" in findings[0].message

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

    def test_non_literal_and_non_emit_calls_ignored(self, tmp_path):
        # SL003's rows carry no ``nonliteral`` message, so a computed
        # name is not a finding (unlike SL008/SL016), and a call outside
        # the row's call family is not checked at all.
        findings = run_lint(
            tmp_path,
            self.REGISTRY
            + textwrap.dedent(
                """
                def fire(trace, name, now):
                    trace.emit(name, now)
                    trace.note("node.rx.bogus")
                """
            ),
            select={"SL003"},
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

    def test_invoked_callback_flagged_in_post_at(self, tmp_path):
        findings = run_lint(
            tmp_path, "def f(sim, cb, t):\n    sim.post_at(t, cb(), ())\n"
        )
        assert codes(findings) == ["SL005"]

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
        # Unlike SL003, a dynamic first argument is itself a finding:
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
# SL014: __slots__ in hot modules
# ---------------------------------------------------------------------------
class TestSlots:
    def _lint_ndn(self, tmp_path, source):
        pkg = tmp_path / "repro" / "ndn"
        pkg.mkdir(parents=True)
        path = pkg / "record.py"
        path.write_text(textwrap.dedent(source))
        return lint_paths([str(path)], select={"SL014"})

    def test_class_without_slots_flagged(self, tmp_path):
        findings = self._lint_ndn(
            tmp_path,
            """
            class PitRecord:
                def __init__(self, face):
                    self.face = face
            """,
        )
        assert codes(findings) == ["SL014"]
        assert "PitRecord" in findings[0].message

    def test_slots_dataclass_and_exception_clean(self, tmp_path):
        findings = self._lint_ndn(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class PitRecord:
                face: int

            class TableFull(Exception):
                pass

            class Entry:
                __slots__ = ("name",)
            """,
        )
        assert findings == []

    def test_plain_dataclass_flagged(self, tmp_path):
        findings = self._lint_ndn(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class PitRecord:
                face: int
            """,
        )
        assert codes(findings) == ["SL014"]

    def test_suppression_with_reason_silences(self, tmp_path):
        findings = self._lint_ndn(
            tmp_path,
            """
            class Node:  # monkey-patched by the tracer  # simlint: disable=SL014
                pass
            """,
        )
        assert findings == []

    def test_cold_module_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        path = pkg / "sweep.py"
        path.write_text("class Sweep:\n    pass\n")
        assert lint_paths([str(path)], select={"SL014"}) == []


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
