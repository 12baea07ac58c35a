"""The simlint rule catalogue.

Each rule is an AST visitor over one module; the scanner in
:mod:`repro.qa.lint` drives every rule over every file and applies
per-line ``# simlint: disable=SLxxx`` suppressions afterwards.  Rules
are *simulator-specific*: they encode invariants a generic linter
cannot know — that virtual time must never read the wall clock, that
randomness must thread :mod:`repro.sim.rng` streams, that telemetry
names must be declared before use.

Path scoping: rules that only apply to simulation-affecting code
compute a package-relative path (the part after the last ``repro``
path segment) and match it against subpackage prefixes.  Files outside
any ``repro`` tree — e.g. test fixtures — are always in scope, so rule
tests can exercise rules on standalone snippets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.qa.findings import Finding

#: Subpackages whose code executes under (or feeds) the virtual clock.
SIM_AFFECTING_PREFIXES = (
    "sim/",
    "ndn/",
    "core/",
    "filters/",
    "workload/",
    "topology/",
    "crypto/",
    "extensions/",
    "baselines/",
)

#: Wall-clock callables banned from simulation paths (SL001).
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Names importable ``from time import ...`` that read the wall clock.
_WALL_CLOCK_FROM_TIME = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}

#: Callable factories whose result is a legitimate deferred callback
#: (SL005 does not treat these as "invoked at schedule time").
_CALLBACK_FACTORIES = {"partial", "methodcaller", "attrgetter", "itemgetter"}

#: Registry variable names recognised by the SL003 collection pass.
_EVENT_REGISTRY_NAMES = ("KNOWN_EVENTS", "SPAN_EVENTS")
_METRIC_REGISTRY_NAMES = ("METRIC_NAMES",)
#: Decision-kind registries recognised for SL008
#: (:data:`repro.obs.audit.DECISION_KINDS`).
_DECISION_REGISTRY_NAMES = ("DECISION_KINDS",)
#: Fleet-phase registries recognised for SL015
#: (:data:`repro.obs.fleetperf.FLEETPERF_PHASES`).
_FLEETPERF_REGISTRY_NAMES = ("FLEETPERF_PHASES",)
#: Statescope series registries recognised for SL016
#: (:data:`repro.obs.statescope.STATESCOPE_SERIES`).
_STATESCOPE_REGISTRY_NAMES = ("STATESCOPE_SERIES",)

#: Trace-hub methods whose first string argument is an event name.
_EVENT_CALL_ATTRS = {"emit", "wants", "subscribe", "unsubscribe"}

#: Metric-construction methods whose first string argument is a family
#: name.
_METRIC_CALL_ATTRS = {"counter", "gauge", "histogram", "add_probe"}


def package_relpath(path: str) -> str:
    """The path relative to the innermost ``repro`` package root.

    ``src/repro/ndn/node.py`` -> ``ndn/node.py``; a path with no
    ``repro`` segment maps to its bare filename (always in scope).
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        tail = parts[anchor + 1:]
        if tail:
            return "/".join(tail)
    return PurePath(path).name


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, or '' when not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _first_str_arg(call: ast.Call) -> Tuple[str, bool]:
    """(value, is_literal) for a call's first positional argument."""
    if call.args:
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value, True
    return "", False


_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSION_NODES = (
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@dataclass
class NodeIndex:
    """Shared per-module node lists, built in ONE walk of the AST.

    Every rule used to re-walk the whole tree; now the scanner builds
    this index once and each rule iterates only the node kind it cares
    about.  ``loop_calls`` additionally records which calls sit inside
    a repeating region (loop body/orelse, comprehension) — the SL006
    question — so that rule needs no walk of its own either.
    """

    calls: List[ast.Call] = field(default_factory=list)
    imports: List[ast.Import] = field(default_factory=list)
    import_froms: List[ast.ImportFrom] = field(default_factory=list)
    functions: List[ast.AST] = field(default_factory=list)
    loop_calls: List[ast.Call] = field(default_factory=list)


def build_index(tree: ast.Module) -> NodeIndex:
    index = NodeIndex()

    def visit(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, ast.Call):
            index.calls.append(node)
            if in_loop:
                index.loop_calls.append(node)
        elif isinstance(node, ast.Import):
            index.imports.append(node)
        elif isinstance(node, ast.ImportFrom):
            index.import_froms.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions.append(node)
        repeating: Tuple[ast.AST, ...] = ()
        if isinstance(node, _LOOP_NODES):
            # Only the body repeats; the iterable expression runs once.
            repeating = tuple(node.body) + tuple(node.orelse)
        elif isinstance(node, _COMPREHENSION_NODES):
            repeating = tuple(ast.iter_child_nodes(node))
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or any(child is c for c in repeating))

    visit(tree, False)
    return index


@dataclass
class Module:
    """One parsed file under lint."""

    path: str
    source: str
    tree: ast.Module
    relpath: str = ""
    _index: Optional[NodeIndex] = None

    def __post_init__(self) -> None:
        if not self.relpath:
            self.relpath = package_relpath(self.path)

    @property
    def index(self) -> NodeIndex:
        if self._index is None:
            self._index = build_index(self.tree)
        return self._index


@dataclass
class LintContext:
    """Cross-file state shared by all rules (built in a first pass)."""

    declared_events: Set[str] = field(default_factory=set)
    declared_metrics: Set[str] = field(default_factory=set)
    declared_decisions: Set[str] = field(default_factory=set)
    declared_fleet_phases: Set[str] = field(default_factory=set)
    declared_statescope: Set[str] = field(default_factory=set)

    def merge_registries(self, module: Module) -> None:
        """Collect module-level event/metric name declarations."""
        for node in module.tree.body:
            targets: List[ast.expr] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                strings = _collect_strings(value)
                if name in _EVENT_REGISTRY_NAMES or name.endswith("_EVENTS"):
                    self.declared_events.update(strings)
                elif name in _METRIC_REGISTRY_NAMES or name.endswith("_METRICS"):
                    self.declared_metrics.update(strings)
                elif name in _DECISION_REGISTRY_NAMES:
                    self.declared_decisions.update(strings)
                elif name in _FLEETPERF_REGISTRY_NAMES:
                    self.declared_fleet_phases.update(strings)
                elif name in _STATESCOPE_REGISTRY_NAMES:
                    self.declared_statescope.update(strings)


def _collect_strings(node: ast.AST) -> List[str]:
    out: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return out


class Rule:
    """Base class: yield findings for one module."""

    code = "SL000"
    title = "abstract"
    #: True for rules that judge against cross-file registries and so
    #: cannot complete inside a single-file worker (``--jobs``).
    needs_context = False

    def applies_to(self, module: Module) -> bool:
        return True

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


@dataclass(frozen=True)
class Candidate:
    """A possible finding from a registry-dependent rule.

    In ``--jobs`` mode workers cannot judge these (the registries live
    in *other* files), so they ship candidates back to the parent,
    which judges them against the merged :class:`LintContext`.  Serial
    mode uses the same collect-then-judge path so there is exactly one
    implementation of each rule's logic.
    """

    rule: str
    path: str
    line: int
    col: int
    attr: str  #: the call attribute (``emit``, ``record_decision``, ...)
    name: str  #: the literal first argument ('' when non-literal)
    literal: bool


class ContextRule(Rule):
    """A rule split into per-file collection + registry judgement."""

    needs_context = True

    def collect(self, module: Module) -> Iterator[Candidate]:
        raise NotImplementedError

    def judge(self, cand: Candidate, ctx: LintContext) -> Optional[Finding]:
        raise NotImplementedError

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for cand in self.collect(module):
            finding = self.judge(cand, ctx)
            if finding is not None:
                yield finding

    def _candidate(self, module: Module, node: ast.Call) -> Candidate:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else ""
        name, literal = _first_str_arg(node)
        return Candidate(
            rule=self.code,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            attr=attr,
            name=name,
            literal=literal,
        )

    def _cand_finding(self, cand: Candidate, message: str) -> Finding:
        return Finding(
            path=cand.path,
            line=cand.line,
            col=cand.col,
            rule=self.code,
            message=message,
        )


def _in_sim_scope(relpath: str) -> bool:
    """True for sim-affecting files (and for bare fixture filenames)."""
    if "/" not in relpath:
        return True
    return relpath.startswith(SIM_AFFECTING_PREFIXES)


class WallClockRule(Rule):
    """SL001: no wall-clock reads in simulation paths.

    Virtual time comes from ``sim.now``; a ``time.time()`` anywhere in
    a sim-affecting module couples event timing to the host machine and
    silently breaks same-seed reproducibility.  Wall-clock measurement
    belongs in :mod:`repro.obs` (layer tracer) and the experiment harness,
    both of which are out of scope for this rule.
    """

    code = "SL001"
    title = "no wall-clock reads in sim/ndn/core paths"

    def applies_to(self, module: Module) -> bool:
        return _in_sim_scope(module.relpath)

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        from_time_names: Set[str] = set()
        for node in module.index.import_froms:
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_FROM_TIME:
                        from_time_names.add(alias.asname or alias.name)
        for node in module.index.calls:
            dotted = _dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS or dotted in from_time_names:
                yield self._finding(
                    module,
                    node,
                    f"wall-clock call {dotted}() in a simulation path; "
                    f"use virtual time (sim.now) instead",
                )


class StdlibRandomRule(Rule):
    """SL002: no stdlib ``random`` imports outside ``repro.sim.rng``.

    Every sim-affecting draw must come from a named, explicitly seeded
    stream so a single master seed determines the run.  A module-level
    ``import random`` invites unseeded ``random.Random()`` instances or
    — worse — module-level ``random.random()`` sharing one global RNG
    across components.  Thread :data:`repro.sim.rng.Stream` /
    :func:`repro.sim.rng.seeded_stream` instead.
    """

    code = "SL002"
    title = "no stdlib random outside repro.sim.rng"

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for node in module.index.imports:
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self._finding(
                        module,
                        node,
                        "stdlib 'random' imported; thread a seeded "
                        "repro.sim.rng stream instead",
                    )
        for node in module.index.import_froms:
            if node.module == "random":
                yield self._finding(
                    module,
                    node,
                    "stdlib 'random' imported; thread a seeded "
                    "repro.sim.rng stream instead",
                )


class UndeclaredNameRule(ContextRule):
    """SL003: every emitted event / registered metric name is declared.

    A typo'd event name in ``trace.emit("node.rx.intrest", ...)``
    doesn't error — the record is published to zero subscribers and the
    telemetry silently drops.  This rule checks the literal first
    argument of trace-hub calls against the declared event registries
    (``KNOWN_EVENTS`` / ``SPAN_EVENTS`` / any ``*_EVENTS`` tuple) and
    of metric constructors against ``METRIC_NAMES``.  The rule only
    fires when the scan actually saw a registry declaration, so linting
    a lone snippet without its registries stays quiet.
    """

    code = "SL003"
    title = "event/metric names must be declared in a registry"

    def collect(self, module: Module) -> Iterator[Candidate]:
        for node in module.index.calls:
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _EVENT_CALL_ATTRS or func.attr in _METRIC_CALL_ATTRS:
                yield self._candidate(module, node)

    def judge(self, cand: Candidate, ctx: LintContext) -> Optional[Finding]:
        if cand.attr in _EVENT_CALL_ATTRS:
            if not ctx.declared_events or not cand.literal:
                return None
            if cand.name != "*" and cand.name not in ctx.declared_events:
                return self._cand_finding(
                    cand,
                    f"event name {cand.name!r} is not declared in any "
                    f"event registry (KNOWN_EVENTS / SPAN_EVENTS)",
                )
            return None
        if not ctx.declared_metrics or not cand.literal:
            return None
        if cand.name not in ctx.declared_metrics:
            return self._cand_finding(
                cand,
                f"metric name {cand.name!r} is not declared in METRIC_NAMES",
            )
        return None


class MutableDefaultRule(Rule):
    """SL004: no mutable default arguments.

    A ``def f(x, acc=[])`` shares one list across every call — in a
    simulator that means state leaking *between runs* in the same
    process, the exact aliasing bug that makes "same seed, different
    result" reports unreproducible.
    """

    code = "SL004"
    title = "no mutable default arguments"

    _MUTABLE_CALLS = {
        "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
        "Counter", "deque",
    }

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for node in module.index.functions:
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self._finding(
                        module,
                        default,
                        f"mutable default argument in {node.name}(); "
                        f"use None and construct inside the body",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            return dotted.split(".")[-1] in self._MUTABLE_CALLS
        return False


class ScheduleMisuseRule(Rule):
    """SL005: no negative delays or invoked callbacks in ``schedule()``.

    ``sim.schedule(-1.0, cb)`` raises at runtime — but only on the
    code path that reaches it.  ``sim.schedule(d, cb())`` is worse: the
    callback runs *immediately* (at schedule time) and ``None`` is
    scheduled, which detonates ``delay`` seconds later with a confusing
    "NoneType is not callable".  Both are caught statically here.
    ``functools.partial`` and friends are recognised as legitimate
    callback factories.
    """

    code = "SL005"
    title = "schedule() misuse: negative delay / callback invoked"

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for node in module.index.calls:
            func_name = _dotted_name(node.func).split(".")[-1]
            if func_name not in ("schedule", "schedule_at"):
                continue
            if node.args:
                delay = node.args[0]
                if (
                    isinstance(delay, ast.UnaryOp)
                    and isinstance(delay.op, ast.USub)
                    and isinstance(delay.operand, ast.Constant)
                    and isinstance(delay.operand.value, (int, float))
                ):
                    yield self._finding(
                        module,
                        delay,
                        f"negative literal passed to {func_name}(); the "
                        f"engine rejects past scheduling at runtime",
                    )
            if len(node.args) >= 2:
                callback = node.args[1]
                if isinstance(callback, ast.Call):
                    factory = _dotted_name(callback.func).split(".")[-1]
                    if factory not in _CALLBACK_FACTORIES:
                        yield self._finding(
                            module,
                            callback,
                            f"callback argument of {func_name}() is "
                            f"invoked at schedule time; pass the "
                            f"callable (or functools.partial) instead",
                        )


class DirectRunScenarioRule(Rule):
    """SL006: no direct ``run_scenario`` loops in experiment drivers.

    A driver that loops ``run_scenario`` serialises the whole grid in
    one process and bypasses the run cache — exactly the pattern the
    :mod:`repro.exec` engine replaces.  Enumerate the grid as
    :class:`~repro.exec.spec.ScenarioSpec` values and hand them to
    ``repro.exec.run_specs`` (which fans out over ``--jobs`` workers
    and consults the content-addressed cache); reduce the returned
    summaries afterwards.  Single straight-line calls stay legal — the
    rule only fires on calls inside a loop or comprehension.
    """

    code = "SL006"
    title = "no run_scenario loops in experiment drivers"

    def applies_to(self, module: Module) -> bool:
        if "/" not in module.relpath:
            return True
        return module.relpath.startswith("experiments/")

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for node in module.index.loop_calls:
            name = _dotted_name(node.func).split(".")[-1]
            if name == "run_scenario":
                yield self._finding(
                    module,
                    node,
                    "run_scenario() called in a loop; enumerate "
                    "ScenarioSpec values and route them through "
                    "repro.exec.run_specs (parallel fan-out + run cache)",
                )


class FleetEventRule(ContextRule):
    """SL007: fleet/engine event emissions must be declared.

    The fleet observability layer (:mod:`repro.obs.fleet`,
    ``engine.events.jsonl``) has its own event namespace, emitted
    through ``_event(...)`` rather than the trace hub, so SL003 never
    sees it.  Same failure mode though: a typo'd name silently forks
    the on-disk schema and every downstream consumer (the regress CI
    job, offline analysis) misses those records.  This rule checks the
    literal first argument of fleet emission calls in ``obs``/``exec``
    modules against the declared ``*_EVENTS`` registries
    (:data:`repro.obs.fleet.FLEET_EVENTS`), and — like SL003 — stays
    quiet when the scan saw no registry at all.
    """

    code = "SL007"
    title = "fleet event names must be declared in FLEET_EVENTS"

    _EMIT_ATTRS = {"_event", "emit_event", "record_event"}

    def applies_to(self, module: Module) -> bool:
        if "/" not in module.relpath:
            return True
        return module.relpath.startswith(("obs/", "exec/"))

    def collect(self, module: Module) -> Iterator[Candidate]:
        for node in module.index.calls:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._EMIT_ATTRS:
                yield self._candidate(module, node)

    def judge(self, cand: Candidate, ctx: LintContext) -> Optional[Finding]:
        if not ctx.declared_events or not cand.literal:
            return None
        if cand.name not in ctx.declared_events:
            return self._cand_finding(
                cand,
                f"fleet event name {cand.name!r} is not declared in any "
                f"event registry (FLEET_EVENTS / *_EVENTS)",
            )
        return None


class DecisionKindRule(ContextRule):
    """SL008: audit decision kinds must be declared in DECISION_KINDS.

    Every access-control decision enters the audit stream through
    ``record_decision(kind, ...)`` (:mod:`repro.obs.audit`), and the
    ``kind`` namespace is the schema of the audit report, the history
    metrics, and the Chrome-trace decision instants.  A typo'd kind at
    any call site would silently fork that schema; this rule checks the
    literal first argument of every ``record_decision`` call against
    the declared :data:`~repro.obs.audit.DECISION_KINDS` registry, and
    — like SL003/SL007 — stays quiet when the scan saw no registry.
    """

    code = "SL008"
    title = "audit decision kinds must be declared in DECISION_KINDS"

    _CALL_ATTRS = {"record_decision"}

    def applies_to(self, module: Module) -> bool:
        if "/" not in module.relpath:
            return True
        return module.relpath.startswith(("obs/", "core/"))

    def collect(self, module: Module) -> Iterator[Candidate]:
        for node in module.index.calls:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._CALL_ATTRS:
                yield self._candidate(module, node)

    def judge(self, cand: Candidate, ctx: LintContext) -> Optional[Finding]:
        if not ctx.declared_decisions:
            return None
        if not cand.literal:
            return self._cand_finding(
                cand,
                "record_decision kind must be a string literal so the "
                "decision namespace stays statically checkable",
            )
        if cand.name not in ctx.declared_decisions:
            return self._cand_finding(
                cand,
                f"audit decision kind {cand.name!r} is not declared in "
                f"DECISION_KINDS (repro.obs.audit)",
            )
        return None


class FleetPhaseRule(ContextRule):
    """SL015: fleet phase names must be declared in FLEETPERF_PHASES.

    The fleet observatory's phase taxonomy
    (:data:`repro.obs.fleetperf.FLEETPERF_PHASES`) is the schema of
    ``BENCH_parallel.json``'s attribution block, the worker-lifecycle
    records the run cache replays, and the Chrome-trace worker lanes.
    A typo'd phase at any ``charge(...)`` call site — worker lifecycle
    or parent collector — would silently fork that schema, and a
    computed name would defeat static checking, so non-literal names
    are findings in their own right (the SL008 discipline).  Like
    SL003/SL007/SL008 the rule stays quiet when the scan saw no
    fleet-phase registry at all.
    """

    code = "SL015"
    title = "fleet phase names must be declared in FLEETPERF_PHASES"

    _CALL_ATTRS = {"charge"}

    def applies_to(self, module: Module) -> bool:
        if "/" not in module.relpath:
            return True
        return module.relpath.startswith(("obs/", "exec/"))

    def collect(self, module: Module) -> Iterator[Candidate]:
        for node in module.index.calls:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._CALL_ATTRS:
                yield self._candidate(module, node)

    def judge(self, cand: Candidate, ctx: LintContext) -> Optional[Finding]:
        if not ctx.declared_fleet_phases:
            return None
        if not cand.literal:
            return self._cand_finding(
                cand,
                "fleet charge() phase name must be a string literal so "
                "the fleet phase taxonomy stays statically checkable",
            )
        if cand.name not in ctx.declared_fleet_phases:
            return self._cand_finding(
                cand,
                f"fleet phase {cand.name!r} is not declared in "
                f"FLEETPERF_PHASES (repro.obs.fleetperf)",
            )
        return None


class StateScopeSeriesRule(ContextRule):
    """SL016: statescope series names must be declared in
    STATESCOPE_SERIES.

    The state observatory's series vocabulary
    (:data:`repro.obs.statescope.STATESCOPE_SERIES`) is the schema of
    the ``state.*`` regression-gate metrics, the Chrome-trace counter
    tracks, and the conformance report's series table.  A typo'd name
    at a ``track(...)`` call site would silently open an unregistered
    series that the summary/merge layers drop, and a computed name
    would defeat static checking, so non-literal names are findings in
    their own right (the SL008/SL015 discipline).  Like those rules it
    stays quiet when the scan saw no statescope registry at all.
    """

    code = "SL016"
    title = "statescope series names must be declared in STATESCOPE_SERIES"

    _CALL_ATTRS = {"track"}

    def applies_to(self, module: Module) -> bool:
        if "/" not in module.relpath:
            return True
        return module.relpath.startswith(("obs/", "exec/"))

    def collect(self, module: Module) -> Iterator[Candidate]:
        for node in module.index.calls:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._CALL_ATTRS:
                yield self._candidate(module, node)

    def judge(self, cand: Candidate, ctx: LintContext) -> Optional[Finding]:
        if not ctx.declared_statescope:
            return None
        if not cand.literal:
            return self._cand_finding(
                cand,
                "statescope track() series name must be a string literal "
                "so the state-series vocabulary stays statically checkable",
            )
        if cand.name not in ctx.declared_statescope:
            return self._cand_finding(
                cand,
                f"state series {cand.name!r} is not declared in "
                f"STATESCOPE_SERIES (repro.obs.statescope)",
            )
        return None


#: Modules whose classes are instantiated per event / per packet, so an
#: instance ``__dict__`` is measurable allocation churn (SL014).  The
#: ``sim/`` and ``ndn/`` subpackages are hot wholesale; elsewhere only
#: the named files carry per-packet objects.
_HOT_SLOT_PREFIXES = ("sim/", "ndn/")
_HOT_SLOT_FILES = ("core/tag.py", "crypto/cost_model.py")

#: Base classes that manage instance layout themselves — subclassing
#: them with ``__slots__`` is either impossible or pointless.
_SLOTS_EXEMPT_BASES = (
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "Protocol", "ABC", "NamedTuple", "TypedDict",
    "Exception", "BaseException",
)


class SlotsRule(Rule):
    """SL014: classes in hot modules must declare ``__slots__``.

    The sim-core speed overhaul removed per-event/per-packet
    ``__dict__`` allocations (events, packets, PIT/CS records, faces,
    tags, cost entries); this rule keeps them removed.  A class in a
    declared hot module satisfies the rule by a literal ``__slots__``
    assignment in its body or by ``@dataclass(slots=True)``.  Classes
    that *need* a ``__dict__`` — monkey-patch targets like ``Node`` and
    ``Simulator``, one-per-topology objects like ``Link`` — carry a
    per-class ``# simlint: disable=SL014`` with a reason, which is the
    auditable list of exceptions.  Exception/Enum/Protocol subclasses
    are exempt (their metaclasses own the layout).
    """

    code = "SL014"
    title = "hot-path classes must declare __slots__"

    def applies_to(self, module: Module) -> bool:
        rel = module.relpath
        if "/" not in rel:
            return True
        return rel.startswith(_HOT_SLOT_PREFIXES) or rel in _HOT_SLOT_FILES

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt_bases(node) or self._declares_slots(node):
                continue
            yield self._finding(
                module, node,
                f"class {node.name!r} in a hot module defines no "
                f"__slots__ (add __slots__, use @dataclass(slots=True), "
                f"or suppress with a reason if it must keep a __dict__)",
            )

    @staticmethod
    def _exempt_bases(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if name in _SLOTS_EXEMPT_BASES or name.endswith(
                ("Error", "Exception", "Warning")
            ):
                return True
        return False

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets = ()
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = (stmt.target,)
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name != "dataclass":
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        return False


#: The active rule set, in code order.
ALL_RULES: Sequence[Rule] = (
    WallClockRule(),
    StdlibRandomRule(),
    UndeclaredNameRule(),
    MutableDefaultRule(),
    ScheduleMisuseRule(),
    DirectRunScenarioRule(),
    FleetEventRule(),
    DecisionKindRule(),
    SlotsRule(),
    FleetPhaseRule(),
    StateScopeSeriesRule(),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
