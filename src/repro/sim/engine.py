"""The discrete-event simulator core.

The design mirrors ns-3's scheduler in miniature: a binary heap of
events ordered by virtual time, a ``now`` clock that only moves when an
event is dequeued, and helpers for scheduling relative (``schedule``)
or absolute (``schedule_at``) callbacks.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceHub

#: Compact the heap when more than this many cancelled entries linger
#: *and* they outnumber the live ones — lazy deletion stays O(1) per
#: cancel, but a timeout-heavy workload no longer drags a majority-dead
#: heap through every push/pop sift.
_COMPACT_MIN_DEAD = 64

#: Optional compiled drain loop (``SIM_KERNEL=c``).  Loaded once at
#: import; any failure (no compiler, no headers) falls back silently to
#: the Python loop, which is digest-identical by construction.
_C_KERNEL = None
if os.environ.get("SIM_KERNEL", "").strip().lower() == "c":
    try:
        from repro.sim._ckernel import load_kernel as _load_kernel

        _C_KERNEL = _load_kernel()
    except Exception:  # pragma: no cover - depends on host toolchain
        _C_KERNEL = None


class SimulationError(RuntimeError):
    """Raised for invalid scheduler operations (e.g. scheduling in the past)."""


class Simulator:  # simlint: disable=SL014 (SimSan patches schedule/schedule_at; C kernel reads __dict__)
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
        # Heap entries are (time, priority, seq, event) tuples so heapq
        # compares native tuples (C speed) instead of Event.__lt__.
        self._heap: list = []
        self._now: float = 0.0
        self._running = False
        self._stopped = False
        self._live = 0
        self.events_executed = 0
        self.rng = RngRegistry(seed)
        self.trace = TraceHub()
        #: Optional :class:`~repro.qa.simsan.SimSan`.  When set, ``run``
        #: uses a sanitized loop that checks clock monotonicity and hashes
        #: the event stream; ``None`` keeps the hot loop untouched.
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

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
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self._now!r}"
            )
        event = Event(time, callback, args, priority)
        event.on_cancel = self._note_cancel
        heappush(self._heap, (time, priority, event.seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy deletion)."""
        event.cancel()

    def _note_cancel(self) -> None:
        self._live -= 1
        # Lazy-cancel compaction: once dead entries outnumber live ones
        # (and there are enough to matter), rebuild in place.  The slice
        # assignment keeps the list identity, so a run loop holding a
        # local reference to the heap keeps working; relative order of
        # live entries is restored by heapify (tuples are unique by
        # seq), so dispatch order — and therefore the SimSan digest —
        # is unchanged.
        heap = self._heap
        dead = len(heap) - self._live
        if dead > _COMPACT_MIN_DEAD and dead << 1 > len(heap):
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapify(heap)

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
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            if self.sanitizer is not None:
                self._run_sanitized(until)
            elif _C_KERNEL is not None:
                _C_KERNEL(self, until)
            else:
                self._drain(until)
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False

    def _drain(self, until: Optional[float]) -> None:
        """The plain (uninstrumented) dispatch loop — the hot path.

        Restructured for per-event cost: the heap entry tuple is read
        once (its ``[0]`` element *is* ``event.time``, so the event's
        attributes are not re-read), ``heappop`` is a preloaded global,
        and the no-deadline case drops the ``until`` comparison from
        the loop entirely.  Same-timestamp runs drain through the same
        tight body — ``heappop`` resolves time/priority/seq ties in C
        tuple comparison, so no re-heapify or tie-break work happens in
        Python.  Dispatch order, clock updates, and counter updates are
        exactly the seed loop's; the SimSan digest is bit-identical.
        """
        heap = self._heap
        pop = heappop
        if until is None:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    continue
                pop(heap)
                self._live -= 1
                event.on_cancel = None
                self._now = entry[0]
                self.events_executed += 1
                event.callback(*event.args)
        else:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    continue
                time = entry[0]
                if time > until:
                    break
                pop(heap)
                self._live -= 1
                event.on_cancel = None
                self._now = time
                self.events_executed += 1
                event.callback(*event.args)

    def _run_sanitized(self, until: Optional[float]) -> None:
        """The ``run`` loop with SimSan invariant hooks.

        A separate loop so the unsanitized path pays nothing; the extra
        work per event is one method call into the sanitizer, which
        checks clock monotonicity and folds the event into the
        determinism hash.
        """
        heap = self._heap
        san = self.sanitizer
        while heap and not self._stopped:
            event = heap[0][3]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and event.time > until:
                break
            heappop(heap)
            self._live -= 1
            event.on_cancel = None
            san.before_event(event, self._now)
            self._now = event.time
            self.events_executed += 1
            event.callback(*event.args)

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False when drained.

        Routes through the same sanitizer hook as ``run``, so
        single-stepping a simulation produces the identical event digest
        a full ``run`` would.
        """
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event.cancelled:
                heappop(heap)
                continue
            heappop(heap)
            self._live -= 1
            event.on_cancel = None
            if self.sanitizer is not None:
                self.sanitizer.before_event(event, self._now)
            self._now = event.time
            self.events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None when drained."""
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a live counter is maintained across schedule / cancel /
        execute, so samplers can poll this every tick without scanning
        the heap.
        """
        return self._live
