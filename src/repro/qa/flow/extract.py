"""The per-module front-end: one file -> one :class:`ModuleSummary`.

This is the only module that reads an AST; everything downstream (call
graph, both analyses) consumes plain summaries.  It works on the tree
simlint already parsed (:class:`repro.qa.rules.Module`), so each file
is parsed once per run.  Per function the extractor records:

- every call expression (dotted name as written),
- direct determinism-source uses — plain calls, ``clock = time.time``
  aliases, default-argument evaluations, and lambda bodies,
- packet transmission sites (``self.send(face, pkt, ...)``) with the
  packet's inferred kind (Data / Nack / Interest), and
- for each transmission site, each ordinary call site, and the
  function's exit: the *protectors* that dominate it on every CFG path
  — enforcement-primitive calls, protocol-state clearance guards, and
  plain callee names (resolved interprocedurally later).

Clearance guards are polarity-sensitive: only an
:class:`~repro.qa.flow.cfg.Assume`-True node whose condition (or a
top-level ``and`` conjunct of it) establishes ``<pkt>.nack is None`` /
``<pkt>.access_level is None`` (public content), or classifies the
packet via ``is_tag_response()`` / ``is_registration()``, counts.
Merely *mentioning* protocol state in some branch test must not
discharge an enforcement obligation — that is exactly the laundering
SL010 exists to catch.

Packet kinds come from a lightweight local type environment: parameter
annotations, ``Data(...)``/``Nack(...)``/``Interest(...)``
constructions, ``x.copy()`` chains, and (matching repo idiom) the
variable-name conventions ``data``/``nack``/``interest``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.qa.flow.cfg import Assume, build_cfg, strict_dominators
from repro.qa.flow.model import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleSummary,
    SendSite,
    SourceUse,
)
from repro.qa.rules import (
    _WALL_CLOCK_CALLS,
    _WALL_CLOCK_FROM_TIME,
    Module,
)

#: Determinism sources beyond the wall clock (dotted call names).
ENTROPY_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: ``random.X`` module-level functions draw from the shared global RNG;
#: ``random.Random()`` with no arguments seeds from OS entropy.
RANDOM_MODULE = "random"
SECRETS_MODULE = "secrets"

#: Enforcement primitives: a dominating call to one of these names is
#: an access-control decision (SL008 separately polices that
#: ``record_decision`` kinds are DECISION_KINDS literals).
ENFORCEMENT_CALLS = {
    "bf_lookup",
    "bf_insert",
    "verify_tag_signature",
    "edge_precheck",
    "content_precheck",
    "paths_match",
    "record_decision",
    "_verify_client_signature",
}

#: Clearance guards: attributes whose ``is None`` comparison, when it
#: dominates with True polarity, licenses a transmission (NACK-free
#: packet, public content); calls that classify the packet kind.
GUARD_ATTRS = {"nack", "access_level"}
GUARD_CALLS = {"is_tag_response", "is_registration"}

#: Transmission calls: ``<recv>.send(face, packet, ...)``.
SEND_ATTRS = {"send"}

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk_pruned(root: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but does not descend into nested function
    definitions or lambdas (their bodies belong to *their* scans).  The
    pruned node itself is still yielded so callers can special-case it
    (lambda source scanning)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        if node is not root and isinstance(node, _DEF_NODES + (ast.Lambda,)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _own_exprs(node: ast.AST) -> List[ast.AST]:
    """The expressions belonging to a CFG node *itself* — compound
    statements are lowered body-by-body, so scanning the whole subtree
    of a ``with``/``try`` head would double-count nested statements."""
    if isinstance(node, ast.Try):
        return []
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    if isinstance(node, _DEF_NODES + (ast.ClassDef,)):
        return []
    return [node]


def module_dotted_name(relpath: str) -> str:
    """``core/edge_router.py`` -> ``repro.core.edge_router``."""
    if "/" not in relpath:
        return ""  # bare filename: not importable as a repro module
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + parts)


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _annotation_terminal(node: Optional[ast.AST]) -> str:
    """The terminal name of a plain/string annotation (``Data``)."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip()
    dotted = _dotted(node)
    if dotted:
        return dotted.split(".")[-1]
    return ""


class _ImportTable:
    """Local binding -> dotted target, from the module's imports."""

    def __init__(self, tree: ast.Module) -> None:
        self.bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bindings[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{node.module}.{alias.name}"

    def expand(self, dotted: str) -> str:
        """Rewrite a call name through the import table
        (``spec.make`` -> ``repro.exec.spec.make`` when imported)."""
        head, _, rest = dotted.partition(".")
        target = self.bindings.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


class _FunctionExtractor:
    """Walks one function body and produces a :class:`FunctionInfo`."""

    def __init__(
        self,
        func: ast.AST,
        class_name: str,
        imports: _ImportTable,
        from_time_names: Set[str],
    ) -> None:
        self.func = func
        self.class_name = class_name
        self.imports = imports
        self.from_time_names = from_time_names
        self.types: Dict[str, str] = {}
        self.aliases: Dict[str, str] = {}  # local name -> source dotted

    # ------------------------------------------------------------------
    # Local type environment
    # ------------------------------------------------------------------
    _PACKET_TYPES = {"Data": "data", "Nack": "nack", "Interest": "interest"}
    _NAME_CONVENTIONS = {
        "data": "data",
        "out": "data",
        "nack": "nack",
        "interest": "interest",
        "forwarded": "interest",
    }

    def _collect_env(self) -> None:
        args = getattr(self.func, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                terminal = _annotation_terminal(arg.annotation)
                if terminal in self._PACKET_TYPES:
                    self.types[arg.arg] = self._PACKET_TYPES[terminal]
        for node in _walk_pruned(self.func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = self._expr_packet_kind(node.value, allow_env=True)
            if kind != "unknown":
                self.types[target.id] = kind
                continue
            # Source aliasing: ``clock = time.time`` (no call).
            dotted = _dotted(node.value)
            if dotted and self._is_source_name(dotted):
                self.aliases[target.id] = self._normalize_source(dotted)

    def _expr_packet_kind(self, node: ast.AST, allow_env: bool = False) -> str:
        if isinstance(node, ast.Call):
            callee = _dotted(node.func)
            terminal = callee.split(".")[-1]
            if terminal in self._PACKET_TYPES:
                return self._PACKET_TYPES[terminal]
            if terminal == "copy":
                # ``out = data.copy()`` — the copy keeps the kind.
                receiver = callee.rsplit(".", 1)[0] if "." in callee else ""
                return self._name_kind(receiver) if receiver else "unknown"
            return "unknown"
        if isinstance(node, ast.IfExp):
            kinds = {
                self._expr_packet_kind(node.body, allow_env),
                self._expr_packet_kind(node.orelse, allow_env),
            }
            kinds.discard("unknown")
            return kinds.pop() if len(kinds) == 1 else "unknown"
        if isinstance(node, ast.Name) and allow_env:
            return self._name_kind(node.id)
        return "unknown"

    def _name_kind(self, name: str) -> str:
        if name in self.types:
            return self.types[name]
        return self._NAME_CONVENTIONS.get(name, "unknown")

    # ------------------------------------------------------------------
    # Determinism sources
    # ------------------------------------------------------------------
    def _is_source_name(self, dotted: str) -> bool:
        expanded = self.imports.expand(dotted)
        if dotted in _WALL_CLOCK_CALLS or expanded in _WALL_CLOCK_CALLS:
            return True
        if dotted in ENTROPY_CALLS or expanded in ENTROPY_CALLS:
            return True
        if dotted in self.from_time_names:
            return True
        for name in (dotted, expanded):
            head = name.split(".")[0]
            if head in (RANDOM_MODULE, SECRETS_MODULE) and "." in name:
                return True
        return False

    def _normalize_source(self, dotted: str) -> str:
        expanded = self.imports.expand(dotted)
        if dotted in self.from_time_names:
            return f"time.{dotted.split('.')[-1]}"
        return expanded if expanded != dotted else dotted

    # ------------------------------------------------------------------
    # Main walk
    # ------------------------------------------------------------------
    def extract(self) -> FunctionInfo:
        self._collect_env()
        cfg = build_cfg(self.func)
        site_doms, exit_dom = strict_dominators(cfg)

        calls: List[CallSite] = []
        sources: List[SourceUse] = []
        sends: List[SendSite] = []

        for nid in range(2, len(cfg.nodes)):
            stmt = cfg.nodes[nid]
            if stmt is None or isinstance(stmt, Assume):
                continue
            doms = self._classify_dominators(cfg, site_doms.get(nid, set()))
            self._scan_node(stmt, doms, calls, sources, sends)

        self._scan_defaults(sources)
        exit_prims, exit_guards, exit_calls = self._classify_dominators(
            cfg, exit_dom
        )
        name = getattr(self.func, "name", "<lambda>")
        qualname = f"{self.class_name}.{name}" if self.class_name else name
        return FunctionInfo(
            qualname=qualname,
            name=name,
            line=getattr(self.func, "lineno", 1),
            class_name=self.class_name,
            calls=tuple(calls),
            sources=tuple(sources),
            send_sites=tuple(sends),
            exit_prims=exit_prims,
            exit_guards=exit_guards,
            exit_calls=exit_calls,
        )

    def _scan_node(
        self,
        stmt: ast.AST,
        doms: Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]],
        calls: List[CallSite],
        sources: List[SourceUse],
        sends: List[SendSite],
    ) -> None:
        dom_prims, dom_guards, dom_calls = doms
        for root in _own_exprs(stmt):
            for node in _walk_pruned(root):
                if isinstance(node, _DEF_NODES):
                    continue
                if isinstance(node, ast.Lambda):
                    self._scan_lambda(node, sources)
                    continue
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func)
                if not dotted:
                    continue
                terminal = dotted.split(".")[-1]
                calls.append(
                    CallSite(
                        name=dotted,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        dom_prims=dom_prims,
                        dom_guards=dom_guards,
                        dom_calls=dom_calls,
                    )
                )
                if self._is_source_name(dotted) or self._no_arg_entropy(
                    node, dotted
                ):
                    sources.append(
                        SourceUse(
                            source=self._normalize_source(dotted),
                            line=node.lineno,
                            col=node.col_offset + 1,
                            via="call",
                        )
                    )
                elif dotted in self.aliases:
                    sources.append(
                        SourceUse(
                            source=self.aliases[dotted],
                            line=node.lineno,
                            col=node.col_offset + 1,
                            via="alias",
                        )
                    )
                if terminal in SEND_ATTRS and len(node.args) >= 2:
                    packet_expr = node.args[1]
                    sends.append(
                        SendSite(
                            line=node.lineno,
                            col=node.col_offset + 1,
                            packet=self._expr_packet_kind(
                                packet_expr, allow_env=True
                            ),
                            expr=ast.unparse(packet_expr),
                            dom_prims=dom_prims,
                            dom_guards=dom_guards,
                            dom_calls=dom_calls,
                        )
                    )

    def _scan_lambda(self, node: ast.Lambda, sources: List[SourceUse]) -> None:
        for sub in ast.walk(node.body):
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted and self._is_source_name(dotted):
                    sources.append(
                        SourceUse(
                            source=self._normalize_source(dotted),
                            line=sub.lineno,
                            col=sub.col_offset + 1,
                            via="lambda",
                        )
                    )

    def _scan_defaults(self, sources: List[SourceUse]) -> None:
        # Default arguments evaluate once, at definition time — a
        # source there is both a determinism leak and an aliasing bug.
        args = getattr(self.func, "args", None)
        if args is None:
            return
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            for node in ast.walk(default):
                if isinstance(node, ast.Call):
                    dotted = _dotted(node.func)
                    if dotted and self._is_source_name(dotted):
                        sources.append(
                            SourceUse(
                                source=self._normalize_source(dotted),
                                line=node.lineno,
                                col=node.col_offset + 1,
                                via="default-arg",
                            )
                        )

    def _no_arg_entropy(self, node: ast.Call, dotted: str) -> bool:
        """``random.Random()`` / ``Random()`` with no seed argument."""
        expanded = self.imports.expand(dotted)
        if expanded in ("random.Random", "random.SystemRandom") or dotted in (
            "random.Random",
            "random.SystemRandom",
        ):
            return not node.args and not node.keywords
        return False

    # ------------------------------------------------------------------
    # Dominator classification
    # ------------------------------------------------------------------
    def _classify_dominators(
        self, cfg, dom_ids: Set[int]
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
        prims: List[str] = []
        guards: List[str] = []
        callee_names: List[str] = []
        for dom_id in sorted(dom_ids):
            node = cfg.nodes[dom_id]
            if node is None:
                continue
            if isinstance(node, Assume):
                if node.value:
                    guard = self._guard_description(node.test)
                    if guard:
                        guards.append(guard)
                continue
            for root in _own_exprs(node):
                for sub in _walk_pruned(root):
                    if isinstance(sub, _DEF_NODES + (ast.Lambda,)):
                        continue
                    if not isinstance(sub, ast.Call):
                        continue
                    dotted = _dotted(sub.func)
                    if not dotted:
                        continue
                    terminal = dotted.split(".")[-1]
                    if terminal in ENFORCEMENT_CALLS:
                        if terminal == "record_decision" and not (
                            sub.args
                            and isinstance(sub.args[0], ast.Constant)
                            and isinstance(sub.args[0].value, str)
                        ):
                            continue
                        prims.append(terminal)
                    else:
                        callee_names.append(terminal)
        return (
            tuple(dict.fromkeys(prims)),
            tuple(dict.fromkeys(guards)),
            tuple(dict.fromkeys(callee_names)),
        )

    def _guard_description(self, test: ast.expr) -> str:
        """Non-empty when Assume-True of ``test`` licenses transmission."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            conjuncts = list(test.values)
        else:
            conjuncts = [test]
        for conj in conjuncts:
            if (
                isinstance(conj, ast.Compare)
                and len(conj.ops) == 1
                and isinstance(conj.ops[0], ast.Is)
                and isinstance(conj.comparators[0], ast.Constant)
                and conj.comparators[0].value is None
                and isinstance(conj.left, ast.Attribute)
                and conj.left.attr in GUARD_ATTRS
            ):
                return f"{_dotted(conj.left) or conj.left.attr} is None"
            if isinstance(conj, ast.Call):
                terminal = _dotted(conj.func).split(".")[-1]
                if terminal in GUARD_CALLS:
                    return f"{terminal}()"
        return ""


def extract_module(module: Module) -> ModuleSummary:
    """Summarise one parsed file."""
    tree = module.tree
    imports = _ImportTable(tree)
    from_time_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_FROM_TIME:
                    from_time_names.add(alias.asname or alias.name)

    functions: List[FunctionInfo] = []
    classes: List[ClassInfo] = []

    def _extract_function(func: ast.AST, class_name: str) -> None:
        functions.append(
            _FunctionExtractor(
                func, class_name, imports, from_time_names
            ).extract()
        )

    for node in tree.body:
        if isinstance(node, _DEF_NODES):
            _extract_function(node, "")
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEF_NODES):
                    _extract_function(member, node.name)
            bases = tuple(
                filter(None, (_dotted(base).split(".")[-1] for base in node.bases))
            )
            classes.append(ClassInfo(name=node.name, bases=bases))

    return ModuleSummary(
        path=module.path,
        relpath=module.relpath,
        module=module_dotted_name(module.relpath),
        imports=dict(imports.bindings),
        functions=tuple(functions),
        classes=tuple(classes),
    )
