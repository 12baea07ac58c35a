"""Side-thread instruments: stack sampling and the heartbeat.

A :class:`StackSampler` samples the running thread's Python stack from
a side thread and folds the samples into Brendan Gregg's collapsed-stack
format; :func:`collapsed_text` and :func:`merge_collapsed` render and
aggregate them.  As the ``flame`` row of :mod:`repro.obs.instruments`
it samples every run at :data:`FLAME_INTERVAL`, and the engine writes
the fleet's summed stacks to ``<obs-out>/flame.txt``.

A :class:`Heartbeat` (the ``heartbeat`` row) prints a liveness pulse
every :data:`HEARTBEAT_PERIOD` wall seconds.  Both only read the
simulator from their own thread, so every run loop keeps its per-event
cost.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional

#: Stack-sampling period of the ``flame`` row, in wall seconds.
FLAME_INTERVAL = 0.005

#: Pulse period of the ``heartbeat`` row, in wall seconds: long enough
#: that a minutes-long paper point prints a handful of lines, short
#: enough to tell a slow run from a hung one.
HEARTBEAT_PERIOD = 10.0


def _frame_label(code) -> str:
    """``module.Qualified.name`` — stable across samples so identical
    stacks collapse (line numbers would fragment them)."""
    module = os.path.basename(code.co_filename)
    if module.endswith(".py"):
        module = module[:-3]
    # co_qualname is 3.11+; co_name alone loses the class but merges.
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}.{name}"


class StackSampler:
    """Low-overhead statistical profiler for one thread.

    A daemon thread wakes every ``interval`` seconds, grabs the target
    thread's current frame via :func:`sys._current_frames`, and folds
    the walked stack into a collapsed-stack dict — Brendan Gregg's
    flamegraph input format (``frame;frame;frame count`` per line, root
    first).  The *target* thread pays nothing: sampling rides the GIL
    from the side, which is what makes this the honest complement to
    the layer tracer (layers tell you *which subsystem*, samples tell
    you *which line of Python*).

    Collapsed dicts from parallel workers merge by summing counts
    (:func:`merge_collapsed`), so fleet flamegraphs aggregate exactly
    like fleet metrics.
    """

    name = "flame"

    def __init__(
        self,
        interval: float = FLAME_INTERVAL,
        max_depth: int = 120,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.interval = interval
        self.max_depth = max_depth
        self.clock = clock
        #: ``{";".join(root..leaf): samples}``
        self.collapsed: Dict[str, int] = {}
        self.samples = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self.label = ""
        self._target_ident: Optional[int] = None
        self._stop_event: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, target_ident: Optional[int] = None) -> None:
        """Begin sampling the calling thread (or ``target_ident``)."""
        if self._thread is not None:
            return
        self._target_ident = (
            target_ident if target_ident is not None else threading.get_ident()
        )
        self._stop_event = threading.Event()
        self.started_at = self.clock()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-stack-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.stopped_at = self.clock()

    #: Instrument protocol: the runner closes an instrument even when
    #: the run raises.
    close = stop

    def install(self, run: Any) -> "StackSampler":
        """Instrument protocol: sample the thread executing ``run``."""
        self.label = run.label
        self.start()
        return self

    def finalize(self) -> dict:
        self.stop()
        return {"label": self.label, **self.report()}

    def _sample_loop(self) -> None:
        wait = self._stop_event.wait
        interval = self.interval
        while not wait(interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is None:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(_frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            key = ";".join(reversed(stack))
            self.collapsed[key] = self.collapsed.get(key, 0) + 1
            self.samples += 1

    def wall_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self.clock()
        return max(0.0, end - self.started_at)

    def report(self) -> dict:
        """JSON-serializable summary (the ``flame`` row's record)."""
        return {
            "interval": self.interval,
            "samples": self.samples,
            "wall_seconds": self.wall_seconds(),
            "stacks": dict(self.collapsed),
        }


def collapsed_text(collapsed: Dict[str, int]) -> str:
    """A collapsed-stack dict in Brendan Gregg's format, stacks sorted:
    the input ``flamegraph.pl`` and speedscope read."""
    return "".join(f"{stack} {collapsed[stack]}\n" for stack in sorted(collapsed))


def merge_collapsed(into: Dict[str, int], stacks: Dict[str, int]) -> Dict[str, int]:
    """Sum one worker's collapsed stacks into an accumulator."""
    for stack, count in stacks.items():
        into[stack] = into.get(stack, 0) + count
    return into


def merge_flame(into: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, Any]:
    """Sum one run's stacks into the fleet view (``into["stacks"]``)."""
    merge_collapsed(into.setdefault("stacks", {}), record.get("stacks") or {})
    return into


def flame_report(merged: Dict[str, Any], figure: str, jobs: int) -> str:
    """``<obs-out>/flame.txt``: the fleet's collapsed stacks."""
    return collapsed_text(merged.get("stacks", {}))


class Heartbeat:
    """Prints wall time, ``sim.now`` and events executed every
    ``period`` wall seconds from a daemon thread, on ``stream``
    (stderr when None)."""

    name = "heartbeat"

    def __init__(self, period: float = HEARTBEAT_PERIOD, stream: Any = None) -> None:
        self.period = period
        self.stream = stream
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def install(self, run: Any) -> "Heartbeat":
        self.sim = run.sim
        self._thread = threading.Thread(
            target=self._pulse, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _pulse(self) -> None:
        stream = self.stream or sys.stderr
        began = time.perf_counter()
        while not self._stop_event.wait(self.period):
            stream.write(
                f"[obs] {time.perf_counter() - began:8.1f}s wall  "
                f"sim.now={self.sim.now:.3f}s  "
                f"{self.sim.events_executed} events\n"
            )
            stream.flush()

    def close(self) -> None:
        """Stop and join the pulse thread; idempotent."""
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None

    def finalize(self) -> dict:
        self.close()
        return {"runs": 1}
