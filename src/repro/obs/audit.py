"""Access-control decision auditing with a ground-truth oracle.

TACTIC's security argument is made of per-router authorization
decisions — Bloom-filter hits, signature verifies, the ``F``-flag
probabilistic recheck, NACK issuance, revocation denials.  This module
turns every one of them into a structured :class:`DecisionRecord` and
labels it against ground truth, so a run can *empirically* report the
paper's central claim: misauthorizations are bounded by the filter's
false-positive probability ``p_fp``.

The oracle has two halves:

- a **shadow set** per router mirroring its Bloom filter exactly
  (add on insert, clear on saturation reset).  A BF hit whose key is
  not in the shadow is a *false positive* — the only misauthorization
  TACTIC admits by design.  Every negative-truth lookup also
  accumulates the theoretical per-lookup FPP
  (:func:`repro.filters.params.estimate_fpp` at that lookup's insert
  count) and its variance, so the observed false-positive count can be
  checked against a binomial confidence interval (:func:`fp_confidence`);
- an **issued-tag registry** fed by the providers
  (:meth:`DecisionAudit.note_issued`).  Signature verdicts, NACKs, and
  skipped ``F``-rechecks are labeled against it: admitting a key that
  was never issued is a false positive, denying one that was genuinely
  issued (and not revoked) is a false negative.

Zero cost when off: routers guard every hook behind a single
``self.audit is not None`` attribute check, and no hook draws from the
simulation RNG or schedules events, so an audited run is bit-identical
to an unaudited one.  Summaries (:meth:`DecisionAudit.summary`) are
plain JSON-able dicts; :func:`merge_audit_summaries` folds them
additively in submission order, so the fleet-merged summary from
``--jobs N`` is bit-for-bit identical to a serial run's.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.filters.params import estimate_fpp

__all__ = [
    "DECISION_KINDS",
    "DecisionAudit",
    "DecisionRecord",
    "audit_report",
    "fp_confidence",
    "merge_audit_summaries",
    "render_audit_report",
]

#: Every decision kind the audit stream may carry.  simlint rule SL008
#: checks the literal first argument of each ``record_decision(...)``
#: call site against this registry, so a typo'd kind fails lint instead
#: of silently forking the decision namespace.
DECISION_KINDS = (
    "bf_hit",
    "bf_miss",
    "sig_verify",
    "f_recheck",
    "nack",
    "revoked",
)

#: Oracle labels.
LABEL_CORRECT = "correct"
LABEL_FALSE_POSITIVE = "false_positive"
LABEL_FALSE_NEGATIVE = "false_negative"


@dataclass(frozen=True)
class DecisionRecord:
    """One access-control decision, fully attributed."""

    node: str
    role: str
    kind: str
    outcome: str
    label: str
    tag_key: str
    cost: float
    time: float

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "role": self.role,
            "kind": self.kind,
            "outcome": self.outcome,
            "label": self.label,
            "tag_key": self.tag_key,
            "cost": self.cost,
            "time": self.time,
        }


@dataclass
class _NodeAudit:
    """Per-router oracle state and decision tallies."""

    role: str = "core"
    #: ``(kind, outcome, label) -> count``.
    decisions: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    #: Exact mirror of the router's Bloom-filter contents.
    shadow: Set[bytes] = field(default_factory=set)
    bf_negative_lookups: int = 0
    bf_false_positives: int = 0
    #: Sum of the theoretical per-lookup FPP over negative-truth
    #: lookups (the binomial mean), and its variance sum p(1-p).
    expected_fp_sum: float = 0.0
    expected_fp_var: float = 0.0


class DecisionAudit:
    """The decision-record stream plus its ground-truth oracle.

    Parameters
    ----------
    max_records:
        Full :class:`DecisionRecord` retention cap (0 = aggregate-only;
        counts and oracle state are always kept).
    sink:
        Optional callback receiving every record as it is made — the
        flight recorder's tap.
    """

    def __init__(
        self,
        max_records: int = 0,
        sink: Optional[Callable[[DecisionRecord], None]] = None,
    ) -> None:
        self.max_records = max_records
        self.sink = sink
        self.records: List[DecisionRecord] = []
        self.records_dropped = 0
        self._nodes: Dict[str, _NodeAudit] = {}
        #: Cache keys of genuinely issued tags (fed by the providers).
        self._issued: Set[bytes] = set()
        #: Cache keys revoked on any router.
        self._revoked: Set[bytes] = set()

    # ------------------------------------------------------------------
    # Wiring (the instrument protocol: install / finalize)
    # ------------------------------------------------------------------
    name = "audit"

    def install(self, run: Any) -> "DecisionAudit":
        """Point every TACTIC router in ``run.network`` at this audit."""
        for node in run.network.nodes.values():
            if getattr(node, "bloom", None) is None:
                continue
            node.audit = self
            self._state(node)
        return self

    def finalize(self) -> Dict[str, Any]:
        return self.summary()

    def _role_of(self, node: Any) -> str:
        if getattr(node, "directory", None) is not None:
            return "provider"
        if getattr(node, "is_edge", False):
            return "edge"
        return "core"

    def _state(self, node: Any) -> _NodeAudit:
        state = self._nodes.get(node.node_id)
        if state is None:
            state = _NodeAudit(role=self._role_of(node))
            self._nodes[node.node_id] = state
        return state

    # ------------------------------------------------------------------
    # Oracle feeds
    # ------------------------------------------------------------------
    def note_issued(self, tag: Any) -> None:
        """Register a genuinely issued tag (provider hook)."""
        self._issued.add(tag.cache_key())

    def note_revoked(self, node: Any, key: bytes) -> None:
        """Register an administrative revocation (router hook)."""
        self._revoked.add(key)
        self.record_decision("revoked", node, tag_key=key, outcome="blacklist")

    def _genuinely_valid(self, key: bytes) -> bool:
        return key in self._issued and key not in self._revoked

    # ------------------------------------------------------------------
    # Decision entry points (one per enforcement site)
    # ------------------------------------------------------------------
    def note_bf_lookup(self, node: Any, key: bytes, found: bool, cost: float) -> None:
        """A Bloom-filter membership test, oracle-checked via the shadow."""
        state = self._state(node)
        truth = key in state.shadow
        if not truth:
            state.bf_negative_lookups += 1
            bloom = node.bloom
            p = estimate_fpp(bloom.size_bits, bloom.num_hashes, bloom.count)
            state.expected_fp_sum += p
            state.expected_fp_var += p * (1.0 - p)
        if found:
            label = LABEL_CORRECT if truth else LABEL_FALSE_POSITIVE
            if not truth:
                state.bf_false_positives += 1
            self.record_decision(
                "bf_hit", node, tag_key=key, outcome="hit", label=label, cost=cost
            )
        else:
            # Bloom filters have no false negatives; a miss on a
            # shadow-present key would mean out-of-band bit clearing.
            label = LABEL_CORRECT if not truth else LABEL_FALSE_NEGATIVE
            self.record_decision(
                "bf_miss", node, tag_key=key, outcome="miss", label=label, cost=cost
            )

    def note_bf_insert(self, node: Any, key: bytes, reset_fired: bool) -> None:
        """Mirror an insert (and any saturation reset) into the shadow."""
        state = self._state(node)
        if reset_fired:
            # The auto-reset wipes the filter *after* the insert, so the
            # just-inserted key is gone too.
            state.shadow.clear()
        else:
            state.shadow.add(key)

    def note_sig_verify(self, node: Any, tag: Any, valid: bool, cost: float) -> None:
        """A full signature verification, labeled against issuance."""
        key = tag.cache_key()
        truth = self._genuinely_valid(key)
        if valid:
            label = LABEL_CORRECT if truth else LABEL_FALSE_POSITIVE
        else:
            label = LABEL_CORRECT if not truth else LABEL_FALSE_NEGATIVE
        self.record_decision(
            "sig_verify",
            node,
            tag_key=key,
            outcome="valid" if valid else "invalid",
            label=label,
            cost=cost,
        )

    def note_f_recheck(self, node: Any, tag: Any, fired: bool, flag: float) -> None:
        """The probabilistic ``F``-flag recheck decision (Protocols 3/4).

        Skipping the recheck *admits* the tag on the edge's word; when
        the tag was never genuinely issued that skip is the
        misauthorization the F-flag collaboration exists to bound.
        """
        key = tag.cache_key() if tag is not None else b""
        if fired:
            label = LABEL_CORRECT
        else:
            label = (
                LABEL_CORRECT if self._genuinely_valid(key) else LABEL_FALSE_POSITIVE
            )
        self.record_decision(
            "f_recheck",
            node,
            tag_key=key,
            outcome="fired" if fired else "skipped",
            label=label,
            cost=flag,
        )

    def note_nack(self, node: Any, key: bytes, reason: Any) -> None:
        """A NACK issuance; NACKing a genuinely valid tag is a false
        negative (the oracle's view — expiry and path checks may still
        be right to deny, which the outcome field preserves)."""
        label = (
            LABEL_FALSE_NEGATIVE if self._genuinely_valid(key) else LABEL_CORRECT
        )
        self.record_decision(
            "nack",
            node,
            tag_key=key,
            outcome=getattr(reason, "value", str(reason)),
            label=label,
        )

    # ------------------------------------------------------------------
    # The uniform record sink (SL008 checks the literal kind argument)
    # ------------------------------------------------------------------
    def record_decision(
        self,
        kind: str,
        node: Any,
        tag_key: bytes = b"",
        outcome: str = "",
        label: str = LABEL_CORRECT,
        cost: float = 0.0,
    ) -> None:
        """Count one decision; materialise a full record only when a
        consumer (retention, sink, or trace subscriber) wants it."""
        state = self._state(node)
        tally_key = (kind, outcome, label)
        state.decisions[tally_key] = state.decisions.get(tally_key, 0) + 1

        trace = node.sim.trace
        wants_trace = trace.wants("audit.decision")
        keep = self.max_records > 0
        if not (keep or self.sink is not None or wants_trace):
            return
        now = node.sim.now
        record = DecisionRecord(
            node=node.node_id,
            role=state.role,
            kind=kind,
            outcome=outcome,
            label=label,
            tag_key=tag_key.hex()[:16],
            cost=cost,
            time=now,
        )
        if keep:
            if len(self.records) < self.max_records:
                self.records.append(record)
            else:
                self.records_dropped += 1
        if self.sink is not None:
            self.sink(record)
        if wants_trace:
            trace.emit(
                "audit.decision",
                now,
                node=record.node,
                role=record.role,
                decision=kind,
                outcome=outcome,
                label=label,
                tag=record.tag_key,
                cost=cost,
            )

    def state_cost(self) -> Dict[str, int]:
        """Statescope accounting: oracle shadow-set population + deep
        bytes (per-node Bloom shadows plus the issued/revoked sets)."""
        from repro.obs.statescope import deep_sizeof

        seen: set = set()
        shadow = sum(len(state.shadow) for state in self._nodes.values())
        size = deep_sizeof(self._issued, seen) + deep_sizeof(self._revoked, seen)
        for state in self._nodes.values():
            size += deep_sizeof(state.shadow, seen)
        return {
            "shadow": shadow,
            "issued": len(self._issued),
            "revoked": len(self._revoked),
            "bytes": size,
        }

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The whole audit as deterministic, JSON-able plain data."""
        nodes: Dict[str, Any] = {}
        for node_id in sorted(self._nodes):
            state = self._nodes[node_id]
            nodes[node_id] = {
                "role": state.role,
                "decisions": {
                    "|".join(key): state.decisions[key]
                    for key in sorted(state.decisions)
                },
                "bf_negative_lookups": state.bf_negative_lookups,
                "bf_false_positives": state.bf_false_positives,
                "expected_fp_sum": state.expected_fp_sum,
                "expected_fp_var": state.expected_fp_var,
            }
        return {
            "nodes": nodes,
            "totals": _totals(nodes),
            "issued_tags": len(self._issued),
            "revoked_tags": len(self._revoked),
        }


def _totals(nodes: Dict[str, Any]) -> Dict[str, Any]:
    totals = {
        "decisions": 0,
        LABEL_CORRECT: 0,
        LABEL_FALSE_POSITIVE: 0,
        LABEL_FALSE_NEGATIVE: 0,
        "bf_negative_lookups": 0,
        "bf_false_positives": 0,
        "expected_fp_sum": 0.0,
        "expected_fp_var": 0.0,
    }
    for node_id in sorted(nodes):
        node = nodes[node_id]
        for key, count in node["decisions"].items():
            label = key.rsplit("|", 1)[-1]
            totals["decisions"] += count
            if label in totals:
                totals[label] += count
        totals["bf_negative_lookups"] += node["bf_negative_lookups"]
        totals["bf_false_positives"] += node["bf_false_positives"]
        totals["expected_fp_sum"] += node["expected_fp_sum"]
        totals["expected_fp_var"] += node["expected_fp_var"]
    return totals


def merge_audit_summaries(
    into: Dict[str, Any], summary: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold ``summary`` into ``into`` additively (in place).

    Calling this over per-run summaries *in submission order* gives a
    fleet merge that is bit-for-bit identical between serial and
    parallel execution: integer counts are order-free and the float
    accumulators are summed in one fixed order.
    """
    if not into:
        into.update(copy.deepcopy(summary))
        return into
    nodes = into.setdefault("nodes", {})
    for node_id, node in summary.get("nodes", {}).items():
        target = nodes.get(node_id)
        if target is None:
            nodes[node_id] = copy.deepcopy(node)
            continue
        decisions = target["decisions"]
        for key, count in node["decisions"].items():
            decisions[key] = decisions.get(key, 0) + count
        target["decisions"] = {key: decisions[key] for key in sorted(decisions)}
        for key in (
            "bf_negative_lookups",
            "bf_false_positives",
            "expected_fp_sum",
            "expected_fp_var",
        ):
            target[key] += node[key]
    into["nodes"] = {node_id: nodes[node_id] for node_id in sorted(nodes)}
    into["totals"] = _totals(into["nodes"])
    into["issued_tags"] = into.get("issued_tags", 0) + summary.get("issued_tags", 0)
    into["revoked_tags"] = into.get("revoked_tags", 0) + summary.get("revoked_tags", 0)
    return into


def fp_confidence(
    summary: Dict[str, Any], z: float = 1.96, slack: float = 0.5
) -> Dict[str, Any]:
    """Binomial CI check: observed BF false positives vs theory.

    Each negative-truth lookup ``i`` is a Bernoulli trial with success
    probability ``p_i`` = the filter's FPP estimate at that lookup's
    insert count; the observed false-positive count should fall within
    ``z`` standard deviations of ``sum(p_i)`` (variance
    ``sum(p_i * (1 - p_i))``).  ``slack`` is a continuity correction for
    the discreteness of the count.  Returns per-node stats plus the
    fleet aggregate under ``"fleet"``.
    """
    out: Dict[str, Any] = {"nodes": {}, "fleet": None}
    fleet = {"lookups": 0, "observed": 0, "expected": 0.0, "variance": 0.0}
    for node_id in sorted(summary.get("nodes", {})):
        node = summary["nodes"][node_id]
        n = node["bf_negative_lookups"]
        observed = node["bf_false_positives"]
        expected = node["expected_fp_sum"]
        variance = node["expected_fp_var"]
        fleet["lookups"] += n
        fleet["observed"] += observed
        fleet["expected"] += expected
        fleet["variance"] += variance
        out["nodes"][node_id] = _ci_entry(n, observed, expected, variance, z, slack)
    out["fleet"] = _ci_entry(
        fleet["lookups"],
        fleet["observed"],
        fleet["expected"],
        fleet["variance"],
        z,
        slack,
    )
    return out


def _ci_entry(
    lookups: int,
    observed: int,
    expected: float,
    variance: float,
    z: float,
    slack: float,
) -> Dict[str, Any]:
    halfwidth = z * math.sqrt(max(variance, 0.0)) + slack
    return {
        "lookups": lookups,
        "observed_fp": observed,
        "expected_fp": expected,
        "empirical_rate": observed / lookups if lookups else 0.0,
        "expected_rate": expected / lookups if lookups else 0.0,
        "ci_halfwidth": halfwidth,
        "within_ci": abs(observed - expected) <= halfwidth,
    }


def render_audit_report(summary: Dict[str, Any]) -> List[str]:
    """Human-readable end-of-run report lines (per node + fleet)."""
    confidence = fp_confidence(summary)
    lines = ["access-control decision audit"]
    totals = summary.get("totals", {})
    lines.append(
        f"  decisions={totals.get('decisions', 0)} "
        f"correct={totals.get(LABEL_CORRECT, 0)} "
        f"false_positive={totals.get(LABEL_FALSE_POSITIVE, 0)} "
        f"false_negative={totals.get(LABEL_FALSE_NEGATIVE, 0)}"
    )
    for node_id in sorted(summary.get("nodes", {})):
        node = summary["nodes"][node_id]
        entry = confidence["nodes"][node_id]
        verdict = "ok" if entry["within_ci"] else "OUT-OF-CI"
        lines.append(
            f"  {node_id:10s} [{node['role']:8s}] "
            f"bf_fp={entry['observed_fp']}/{entry['lookups']} "
            f"(empirical {entry['empirical_rate']:.2e} vs theoretical "
            f"{entry['expected_rate']:.2e}) {verdict}"
        )
    fleet = confidence["fleet"]
    verdict = "ok" if fleet["within_ci"] else "OUT-OF-CI"
    lines.append(
        f"  fleet      bf_fp={fleet['observed_fp']}/{fleet['lookups']} "
        f"(empirical {fleet['empirical_rate']:.2e} vs theoretical "
        f"{fleet['expected_rate']:.2e}) {verdict}"
    )
    return lines


def audit_report(summary: Dict[str, Any], figure: str, jobs: int) -> Dict[str, Any]:
    """The fleet report document: merged summary, binomial-CI check and
    rendered lines (``<obs-out>/audit.json``)."""
    return {
        "figure": figure,
        "jobs": jobs,
        "summary": summary,
        "confidence": fp_confidence(summary),
        "report": render_audit_report(summary),
    }
