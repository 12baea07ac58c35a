"""Protocol 3: the content-router procedure.

A *content router* is any core router that can satisfy a request from
its content store.  Given the cached Data and the arriving Interest:

- ``F == 0`` and the tag is in the Bloom filter -> serve, echo ``F = 0``
  (lines 1-3),
- ``F == 0`` and the tag is absent -> verify the signature; on success
  insert the tag and serve with ``F = 0`` ("reminding rE that the tag
  is not available in its Bloom filter"), on failure attach a NACK
  (lines 4-10, 17-19),
- ``F != 0`` -> re-validate only with probability ``F`` (the edge
  filter's false-positive probability), echoing the received ``F`` so
  the edge does not re-insert (lines 11-16).

"rcC returns the content D even if Tu is invalid.  This is to satisfy
other possible valid aggregated requests in the downstream routers" —
hence the *attached* NACK rather than a bare rejection.

Implemented as a mixin so :class:`~repro.core.core_router.CoreRouter`
(which flips between content and intermediate roles per request) and
:class:`~repro.core.provider.Provider` (the origin, which behaves like
a content router for its own catalog) share one code path.
"""

from __future__ import annotations

from repro.core.precheck import content_precheck
from repro.ndn.link import Face
from repro.ndn.packets import AttachedNack, Data, Interest, NackReason


class ContentRouterMixin:
    """Protocol 3, shared by core routers and the provider origin.

    Host classes must provide the :class:`~repro.core.router_base.
    TacticRouterBase` interface (``bf_lookup``, ``bf_insert``,
    ``verify_tag_signature``, ``cost_model``, ``counters``, ``rng``,
    ``send``).
    """

    def serve_content(self, interest: Interest, data: Data, in_face: Face) -> None:
        """Answer ``interest`` with cached/origin ``data`` per Protocol 3.

        Takes ownership of ``data``: it is stamped with the request's
        tag, span and flag and sent on, so callers pass a fresh object
        (``ContentStore.lookup`` returns a copy; the provider builds
        one per request).
        """
        tag = interest.tag
        data.tag = tag
        data.span_id = interest.nonce
        if self.sim.trace._n_subs:
            self.trace_span_serve(interest)
        delay = self.cost_model.sample("precheck", self.rng)

        # Public content: "return the requested content without tag
        # verification" (ALD is NULL).
        if data.access_level is None:
            data.flag_f = interest.flag_f
            self.send(in_face, data, delay)
            return

        # Protocol 1, content-router half (AL and key-locator checks).
        reason = content_precheck(tag, data)
        if reason is not None:
            self.counters.precheck_drops += 1
            self._serve_with_nack(data, interest, in_face, reason, delay)
            return

        if interest.flag_f == 0.0:
            found, lookup_delay = self.bf_lookup(tag)
            delay += lookup_delay
            if found:
                data.flag_f = 0.0
                self.send(in_face, data, delay)
                return
            valid, verify_delay = self.verify_tag_signature(tag)
            delay += verify_delay
            if valid:
                delay += self.bf_insert(tag)
                data.flag_f = 0.0
                self.send(in_face, data, delay)
            else:
                self._serve_with_nack(
                    data, interest, in_face, NackReason.INVALID_SIGNATURE, delay
                )
            return

        # F != 0: the edge vouched; re-validate with probability F.
        data.flag_f = interest.flag_f  # copy the received F (line 13)
        fired = self.rng.random() < interest.flag_f
        if self.audit is not None:
            self.audit.note_f_recheck(self, tag, fired, interest.flag_f)
        if fired:
            valid, verify_delay = self.verify_tag_signature(tag)
            delay += verify_delay
            if not valid:
                self._serve_with_nack(
                    data, interest, in_face, NackReason.INVALID_SIGNATURE, delay
                )
                return
        self.send(in_face, data, delay)

    def _serve_with_nack(
        self,
        data: Data,
        interest: Interest,
        in_face: Face,
        reason: NackReason,
        delay: float,
    ) -> None:
        """Return ``<D, Tu, NACK>``: content still flows downstream.

        Under the drop-only ablation (``nack_carries_content=False``)
        nothing is returned at all; downstream PIT entries — including
        valid aggregated requesters — starve until their lifetimes
        expire.
        """
        self.counters.nacks_issued += 1
        tag_key = interest.tag._cache_key if interest.tag is not None else b""
        if self.audit is not None:
            self.audit.note_nack(self, tag_key, reason)
        if not self.config.nack_carries_content:
            return
        data.nack = AttachedNack(tag_key=tag_key, reason=reason)
        self.send(in_face, data, delay)
