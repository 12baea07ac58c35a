"""Protocol 4: the intermediate-router procedure.

An *intermediate router* is a core router that does not hold the
requested content.  On Interest it aggregates: a first request creates
a PIT entry and is forwarded; subsequent requests for the same name add
their ``<Tu, F, InFace>`` tuple to the entry (lines 1-5).

On content arrival the first requester's copy is forwarded as received
— content, tag, and any attached NACK (lines 6-10).  Every *aggregated*
tag is then validated individually (lines 11-26):

- ``F != 0`` and the router decides not to re-validate (probability
  ``1 - F``): deliver,
- otherwise verify the signature; valid tags are inserted into the
  router's Bloom filter and served (with ``F`` forced to 0 when it was
  0, so the edge inserts too), invalid ones get ``<D, Tw, NACK>``.

One deliberate strengthening over the listing: aggregated tags are also
run through the Protocol 1 content pre-check (access level and provider
key-locator match) before the signature work.  The listing validates
only the signature, which would let a low-access-level tag ride an
aggregation race past the access-level check that Protocol 3 applies to
every non-aggregated request; the pre-check is the cheap, designed
remedy and the paper applies it "whenever a router needs to validate a
tag".
"""

from __future__ import annotations

from repro.core.precheck import content_precheck
from repro.ndn.link import Face
from repro.ndn.packets import AttachedNack, Data, Interest, NackReason
from repro.ndn.pit import PitRecord


class IntermediateRouterMixin:
    """Protocol 4, mixed into :class:`~repro.core.core_router.CoreRouter`."""

    def aggregate_or_forward(self, interest: Interest, in_face: Face) -> None:
        """Lines 1-5: PIT aggregation with TACTIC's extended records."""
        record = PitRecord(
            tag=interest.tag,
            flag_f=interest.flag_f,
            in_face=in_face,
            arrived_at=self.sim.now,
            requester_id=interest.requester_id,
            nonce=interest.nonce,
        )
        if self.pit.insert(interest.name, record, now=self.sim.now):
            self.forward_interest(interest, in_face)

    def distribute_content(self, data: Data, in_face: Face) -> None:
        """Lines 6-26: per-record validation and reverse-path delivery."""
        entry = self.pit.consume(data.name, now=self.sim.now)
        if entry is not None:
            primary_key = data.tag._cache_key if data.tag is not None else None
            primary_served = False

            for record in entry.records:
                record_key = record.tag._cache_key if record.tag is not None else b""

                # Lines 6-10: the first requester's copy goes out as-is
                # (including any attached NACK).
                if not primary_served and record_key == (primary_key or b""):
                    out = data.copy()
                    out.tag = record.tag
                    out.span_id = record.nonce
                    # Lines 6-10 forward the primary copy *as received* —
                    # the upstream content router already enforced (and
                    # any denial rides along as the attached NACK), so
                    # this is the one designed send with no local decision.
                    self.send(record.in_face, out)  # simlint: disable=SL010
                    primary_served = True
                    continue

                self._validate_and_deliver(data, record)

        # Last, because delivery reads the tag, NACK and F flag that the
        # store strips from the packet it keeps (docs/ARCHITECTURE.md,
        # "Packet ownership").
        if data.nack is None and not data.is_tag_response():
            # Registration responses are client-specific and never
            # reused; caching them would only pollute the store.
            self.cs.insert(data)

    def _validate_and_deliver(self, data: Data, record: PitRecord) -> None:
        """Lines 11-26 for one aggregated ``<Tw, F, InFacew>`` tuple."""
        out = data.copy()
        out.tag = record.tag
        out.nack = None  # the received NACK named Tu, not Tw
        out.span_id = record.nonce
        delay = 0.0

        if record.tag is None:
            # Tag-less aggregated requester: public data flows, private
            # data gets the NO_TAG NACK a content router would attach.
            if data.access_level is not None:
                self.counters.nacks_issued += 1
                if self.audit is not None:
                    self.audit.note_nack(self, b"", NackReason.NO_TAG)
                if not self.config.nack_carries_content:
                    return
                out.nack = AttachedNack(tag_key=b"", reason=NackReason.NO_TAG)
            # Join of the ALD inspection above: public data flows
            # clean, private data now carries the NO_TAG denial — both
            # arms of the access-level decision are enforcement.
            self.send(record.in_face, out)  # simlint: disable=SL010
            return

        if data.access_level is not None:
            delay += self.cost_model.sample("precheck", self.rng)
            reason = content_precheck(record.tag, data)
            if reason is not None:
                self.counters.precheck_drops += 1
                self.counters.nacks_issued += 1
                if self.audit is not None:
                    self.audit.note_nack(self, record.tag._cache_key, reason)
                if not self.config.nack_carries_content:
                    return
                out.nack = AttachedNack(tag_key=record.tag._cache_key, reason=reason)
                self.send(record.in_face, out, delay)
                return

        flag = record.flag_f
        if flag != 0.0:
            fired = self.rng.random() < flag
            if self.audit is not None:
                self.audit.note_f_recheck(self, record.tag, fired, flag)
            if not fired:
                # Line 12-13: decide not to re-validate; trust the
                # edge's BF decision carried in F — the probabilistic
                # draw above *is* the protocol's enforcement here, and
                # the audit oracle records it as an f_recheck.
                out.flag_f = flag
                self.send(record.in_face, out, delay)  # simlint: disable=SL010
                return

        # Lines 14-24: F == 0, or the probabilistic re-validation fired.
        valid, verify_delay = self.verify_tag_signature(record.tag)
        delay += verify_delay
        if valid:
            delay += self.bf_insert(record.tag)
            out.flag_f = 0.0 if flag == 0.0 else flag
            self.send(record.in_face, out, delay)
        else:
            self.counters.nacks_issued += 1
            if self.audit is not None:
                self.audit.note_nack(
                    self, record.tag._cache_key, NackReason.INVALID_SIGNATURE
                )
            if not self.config.nack_carries_content:
                return
            out.nack = AttachedNack(
                tag_key=record.tag._cache_key, reason=NackReason.INVALID_SIGNATURE
            )
            self.send(record.in_face, out, delay)
