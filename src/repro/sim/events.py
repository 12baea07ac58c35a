"""Cancellable events for the discrete-event engine.

Only callers that may cancel need an :class:`Event`: the engine's
fire-and-forget entries (:meth:`~repro.sim.engine.Simulator.post_at`)
carry no object at all.  Both draw their tie-breaking sequence number
from :data:`_event_counter`, so same-time entries dispatch in
scheduling order whichever shape they have.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Tuple

_event_counter = itertools.count()


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, priority, sequence)``.  The sequence
    number breaks ties deterministically: two events scheduled for the
    same instant fire in scheduling order, which keeps simulations
    reproducible across runs.

    Events support cancellation: a cancelled event stays in the heap but
    is skipped when popped (lazy deletion), which is O(1) instead of the
    O(n) cost of removing from the middle of a heap.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "on_cancel")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = next(_event_counter)
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Fired exactly once on the first ``cancel()`` of a still-pending
        #: event.  The scheduler uses it to keep its count of cancelled
        #: heap entries exact without scanning the heap; it is cleared
        #: when the event is popped for execution, so a late ``cancel()``
        #: is a no-op for the count.
        self.on_cancel: Any = None

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{state}>"
