"""The simlint rule catalogue.

Each file rule is an AST visitor over one module; the scanner in
:mod:`repro.qa.lint` drives every rule over every file and applies
per-line ``# simlint: disable=SLxxx`` suppressions afterwards.  The two
whole-program rules (SL010, SL011) live in :mod:`repro.qa.flow` and
subclass :class:`ProgramRule`.  Rules are *simulator-specific*: they
encode invariants a generic linter cannot know — that virtual time
must never read the wall clock, that randomness must thread
:mod:`repro.sim.rng` streams, that telemetry names must be declared
before use.

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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

#: Registry kind -> the variable names that declare it.  A module-level
#: assignment to one of them declares every string in its value.
_REGISTRIES: Dict[str, Tuple[str, ...]] = {
    "events": ("KNOWN_EVENTS", "SPAN_EVENTS"),
    "decisions": ("DECISION_KINDS",),  # repro.obs.audit
    "statescope": ("STATESCOPE_SERIES",),  # repro.obs.statescope
}


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
    """Cross-file state shared by all rules (built in a first pass):
    the names each registry kind declares."""

    declared: Dict[str, Set[str]] = field(
        default_factory=lambda: {kind: set() for kind in _REGISTRIES}
    )

    def merge_registries(self, module: Module) -> None:
        """Collect module-level registry declarations."""
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
                for kind, names in _REGISTRIES.items():
                    if target.id in names:
                        self.declared[kind].update(_collect_strings(value))


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


class ProgramRule:
    """Base class: yield findings for the whole scanned program, given
    the linked flow summaries (a :class:`repro.qa.flow.callgraph.Program`)
    of every file."""

    code = "SL000"
    title = "abstract"

    def check_program(self, program) -> Iterable[Finding]:
        raise NotImplementedError


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
    """SL005: no negative delays or invoked callbacks in ``schedule()``
    (nor in ``schedule_at()``/``post_at()``, which share the layout).

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
            if func_name not in ("schedule", "schedule_at", "post_at"):
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


@dataclass(frozen=True)
class RegistryRow:
    """One registry check: calls to ``attrs`` must name a string the
    ``registry`` kind declares.  ``nonliteral`` (when set) makes a
    computed name a finding in its own right."""

    code: str
    attrs: FrozenSet[str]
    #: Package-relative prefixes the check covers (``None``: everywhere).
    prefixes: Optional[Tuple[str, ...]]
    registry: str
    #: Undeclared-name message; ``{name!r}`` is the literal.
    message: str
    nonliteral: Optional[str] = None


#: Every registry check, one row per call family.  A typo'd name at any
#: of these call sites doesn't error: it silently forks a namespace that
#: downstream consumers key on (trace subscribers, the audit report,
#: the statescope series), so each is checked against its
#: declared registry.  A check stays quiet when the scan saw no
#: declaration of its registry, so linting a lone snippet without its
#: registries stays clean.
REGISTRY_ROWS: Tuple[RegistryRow, ...] = (
    RegistryRow(
        "SL003",
        frozenset({"emit", "wants", "subscribe", "unsubscribe"}),
        None,
        "events",
        "event name {name!r} is not declared in any event registry "
        "(KNOWN_EVENTS / SPAN_EVENTS)",
    ),
    RegistryRow(
        "SL008",
        frozenset({"record_decision"}),
        ("obs/", "core/"),
        "decisions",
        "audit decision kind {name!r} is not declared in DECISION_KINDS "
        "(repro.obs.audit)",
        "record_decision kind must be a string literal so the decision "
        "namespace stays statically checkable",
    ),
    RegistryRow(
        "SL016",
        frozenset({"track"}),
        ("obs/", "exec/"),
        "statescope",
        "state series {name!r} is not declared in STATESCOPE_SERIES "
        "(repro.obs.statescope)",
        "statescope track() series name must be a string literal so the "
        "state-series vocabulary stays statically checkable",
    ),
)


class RegistryRule(Rule):
    """Names passed to a registered call family must be declared in
    that family's registry (the :data:`REGISTRY_ROWS` of one code)."""

    def __init__(self, code: str, title: str, doc: str) -> None:
        self.code = code
        self.title = title
        self.__doc__ = doc
        self.rows = {
            attr: row for row in REGISTRY_ROWS if row.code == code for attr in row.attrs
        }
        self.prefixes = next(row.prefixes for row in REGISTRY_ROWS if row.code == code)

    def applies_to(self, module: Module) -> bool:
        if self.prefixes is None or "/" not in module.relpath:
            return True
        return module.relpath.startswith(self.prefixes)

    def check(self, module: Module, ctx: LintContext) -> Iterator[Finding]:
        for node in module.index.calls:
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in self.rows):
                continue
            row = self.rows[func.attr]
            declared = ctx.declared[row.registry]
            if not declared:
                continue
            name, literal = _first_str_arg(node)
            if not literal:
                if row.nonliteral is not None:
                    yield self._finding(module, node, row.nonliteral)
            elif not (name in declared or (row.registry == "events" and name == "*")):
                yield self._finding(module, node, row.message.format(name=name))


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


#: The per-file rules, in code order.
FILE_RULES: Sequence[Rule] = (
    WallClockRule(),
    StdlibRandomRule(),
    RegistryRule(
        "SL003",
        "event names must be declared in a registry",
        "SL003: every emitted or subscribed event name is declared.",
    ),
    MutableDefaultRule(),
    ScheduleMisuseRule(),
    DirectRunScenarioRule(),
    RegistryRule(
        "SL008",
        "audit decision kinds must be declared in DECISION_KINDS",
        "SL008: audit decision kinds must be declared in DECISION_KINDS.",
    ),
    SlotsRule(),
    RegistryRule(
        "SL016",
        "statescope series names must be declared in STATESCOPE_SERIES",
        "SL016: statescope series names must be declared in\n"
        "STATESCOPE_SERIES.",
    ),
)
