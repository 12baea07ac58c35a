"""The discrete-event simulator core.

The design mirrors ns-3's scheduler in miniature: a binary heap of
events ordered by virtual time, a ``now`` clock that only moves when an
event is dequeued, and helpers for scheduling relative (``schedule``)
or absolute (``schedule_at``) callbacks.

The heap holds two entry shapes, both ordered by their first three
fields:

- ``(time, priority, seq, event)`` from ``schedule``/``schedule_at``:
  a cancellable :class:`~repro.sim.events.Event`;
- ``(time, 0, seq, callback, args)`` from ``post_at``: fire-and-forget,
  no object to allocate or cancel (link deliveries, delayed sends).

``seq`` comes from one global counter for both, so keys are unique and
same-time entries dispatch in scheduling order whatever their shape.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import Event, _event_counter
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceHub

#: Compact the heap when more than this many cancelled entries linger
#: *and* they outnumber the live ones — lazy deletion stays O(1) per
#: cancel, but a timeout-heavy workload no longer drags a majority-dead
#: heap through every push/pop sift.
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduler operations (e.g. scheduling in the past)."""


class Simulator:  # simlint: disable=SL014 (SimSan patches schedule/schedule_at/post_at)
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Master seed for the simulator's :class:`~repro.sim.rng.RngRegistry`.
        Every component derives its own named stream from this seed, so a
        single integer fully determines a run.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, 'b')
    >>> _ = sim.schedule(1.0, fired.append, 'a')
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, seed: int = 0) -> None:
        # Heap entries are native tuples (see the module docstring), so
        # heapq compares them at C speed.
        self._heap: list = []
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: every hop reads it, and only the loops write it.
        self.now: float = 0.0
        self._running = False
        self._stopped = False
        #: Cancelled entries still in the heap.  Only a cancel and the
        #: pop of a cancelled entry touch it, so scheduling and dispatch
        #: pay nothing for :meth:`pending`.
        self._dead = 0
        self.events_executed = 0
        self.rng = RngRegistry(seed)
        self.trace = TraceHub()
        #: Optional :class:`~repro.qa.simsan.SimSan`.  When set, ``run``
        #: dispatches through ``step()``, whose hook checks clock
        #: monotonicity and hashes the event stream; ``None`` keeps the
        #: hot loop untouched.
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}"
            )
        event = Event(time, callback, args, priority)
        event.on_cancel = self._note_cancel
        heappush(self._heap, (time, priority, event.seq, event))
        return event

    def post_at(
        self, time: float, callback: Callable[..., Any], args: tuple
    ) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time``; no handle.

        The per-packet paths' scheduler: the entry cannot be cancelled,
        so no :class:`Event` is built.  Callers pass a ``time`` at or
        after ``now`` (it is not checked).
        """
        heappush(self._heap, (time, 0, next(_event_counter), callback, args))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy deletion)."""
        event.cancel()

    def _note_cancel(self) -> None:
        self._dead += 1
        # Lazy-cancel compaction: once dead entries outnumber live ones
        # (and there are enough to matter), rebuild in place.  The slice
        # assignment keeps the list identity, so a run loop holding a
        # local reference to the heap keeps working; relative order of
        # live entries is restored by heapify (tuples are unique by
        # seq), so dispatch order — and therefore the SimSan digest —
        # is unchanged.  Posted (5-tuple) entries are never cancelled.
        heap = self._heap
        dead = self._dead
        if dead > _COMPACT_MIN_DEAD and dead << 1 > len(heap):
            heap[:] = [
                entry for entry in heap
                if len(entry) == 5 or not entry[3].cancelled
            ]
            heapify(heap)
            self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time; the clock is then advanced to ``until`` so that a
            subsequent ``run`` resumes cleanly.

        The cyclic garbage collector is paused while the loop runs and
        left as it was found on return, also when a callback raises.
        Before it is re-enabled, the objects that survived the loop are
        moved to the oldest generation without being walked.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        # The loop makes no reference cycles (refcounting frees every
        # packet, heap entry and PIT record), so the cyclic collector
        # would only re-walk a heap that grows with virtual time.
        # tests/test_gc_pause.py guards the no-cycles premise.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            if self.sanitizer is not None:
                # step() carries the sanitizer hook, so run and
                # single-stepping dispatch through one code path.
                while not self._stopped:
                    time = self.peek_time()
                    if time is None or (until is not None and time > until):
                        break
                    self.step()
            else:
                self._drain(until)
            if until is not None and self.now < until and not self._stopped:
                self.now = until
        finally:
            self._running = False
            if paused:
                # Everything the loop allocated is still in the young
                # generation, and the first pass after gc.enable() would
                # walk all of it.  freeze() + unfreeze() splices every
                # tracked object into the oldest generation instead, in
                # O(1).  Objects someone else froze stay frozen.
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()

    def _drain(self, until: Optional[float]) -> None:
        """The plain (uninstrumented) dispatch loop — the hot path.

        Restructured for per-event cost: the heap entry tuple is read
        once (its ``[0]`` element *is* the event time), ``heappop`` is a
        preloaded global, and the no-deadline case drops the ``until``
        comparison from the loop entirely.  A posted 5-tuple skips the
        cancel check and the ``on_cancel`` reset.  Same-timestamp runs
        drain through the same tight body — ``heappop`` resolves
        time/priority/seq ties in C tuple comparison.  Dispatch order,
        clock updates, and counter updates are exactly the seed loop's;
        the SimSan digest is bit-identical.
        """
        heap = self._heap
        pop = heappop
        if until is None:
            while heap and not self._stopped:
                entry = heap[0]
                if len(entry) == 5:
                    pop(heap)
                    self.now = entry[0]
                    self.events_executed += 1
                    entry[3](*entry[4])
                    continue
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    self._dead -= 1
                    continue
                pop(heap)
                event.on_cancel = None
                self.now = entry[0]
                self.events_executed += 1
                event.callback(*event.args)
        else:
            while heap and not self._stopped:
                entry = heap[0]
                if len(entry) == 5:
                    time = entry[0]
                    if time > until:
                        break
                    pop(heap)
                    self.now = time
                    self.events_executed += 1
                    entry[3](*entry[4])
                    continue
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    self._dead -= 1
                    continue
                time = entry[0]
                if time > until:
                    break
                pop(heap)
                event.on_cancel = None
                self.now = time
                self.events_executed += 1
                event.callback(*event.args)

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False when drained.

        The only loop that calls the sanitizer hook: a sanitized ``run``
        dispatches through it, so single-stepping a simulation produces
        the identical event digest a full ``run`` would.  Both entry
        shapes reach the hook as the same ``(time, priority, callback,
        args)`` fields.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 5:
                time, priority, _, callback, args = entry
            else:
                event = entry[3]
                if event.cancelled:
                    self._dead -= 1
                    continue
                event.on_cancel = None
                time, priority = entry[0], entry[1]
                callback, args = event.callback, event.args
            if self.sanitizer is not None:
                self.sanitizer.before_event(time, priority, callback, args, self.now)
            self.now = time
            self.events_executed += 1
            callback(*args)
            return True
        return False

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None when drained."""
        heap = self._heap
        while heap and len(heap[0]) == 4 and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) entries still queued.

        O(1): the heap's length minus the cancelled entries it still
        holds (counted on cancel, uncounted when popped or compacted
        away), so samplers can poll this every tick without scanning
        the heap.
        """
        return len(self._heap) - self._dead
