"""The whole-program rules' data model: per-module summaries.

A :class:`ModuleSummary` is everything the whole-program phase needs
to know about one file, as plain frozen data: the extractor
(:mod:`repro.qa.flow.extract`) is the only code that reads an AST, and
the call graph and both analyses consume summaries only.  Findings
reuse :class:`repro.qa.findings.Finding`, so SL010/SL011 report
through simlint's renderers and suppressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class CallSite:
    """One call expression, as written (``self.bf_lookup``, ``helper``)."""

    name: str
    line: int
    col: int
    #: Dominating protector sets of this call site (populated only in
    #: modules where SL010 obligation propagation may need them).
    dom_prims: Tuple[str, ...] = ()
    dom_guards: Tuple[str, ...] = ()
    dom_calls: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SourceUse:
    """One direct use of a determinism source inside a function."""

    source: str  #: dotted source name, e.g. ``time.time``
    line: int
    col: int
    via: str  #: ``call`` | ``alias`` | ``default-arg`` | ``lambda``


@dataclass(frozen=True)
class SendSite:
    """One packet transmission call (``self.send(face, pkt, ...)``)."""

    line: int
    col: int
    packet: str  #: ``data`` | ``nack`` | ``interest`` | ``unknown``
    expr: str  #: the packet argument, as source text (for messages)
    dom_prims: Tuple[str, ...] = ()
    dom_guards: Tuple[str, ...] = ()
    dom_calls: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionInfo:
    """The flow-relevant facts about one function or method."""

    qualname: str  #: ``Class.method`` or plain ``func``
    name: str
    line: int
    class_name: str = ""  #: empty for module-level functions
    calls: Tuple[CallSite, ...] = ()
    sources: Tuple[SourceUse, ...] = ()
    send_sites: Tuple[SendSite, ...] = ()
    #: Protectors dominating the function's EXIT node — a call to a
    #: function whose exit is enforcement-dominated counts as an
    #: enforcement check at the call site ("call-graph summary").
    exit_prims: Tuple[str, ...] = ()
    exit_guards: Tuple[str, ...] = ()
    exit_calls: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassInfo:
    name: str
    bases: Tuple[str, ...] = ()  #: terminal names of base expressions


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the whole-program phase needs from one file."""

    path: str
    relpath: str  #: package-relative (``core/edge_router.py``)
    module: str  #: dotted module name (``repro.core.edge_router``)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Tuple[FunctionInfo, ...] = ()
    classes: Tuple[ClassInfo, ...] = ()
