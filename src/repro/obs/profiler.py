"""Statistical stack sampling of the event loop (flamegraph input).

A :class:`StackSampler` samples the running thread's Python stack from
a side thread and folds the samples into Brendan Gregg's collapsed-stack
format; :func:`write_collapsed` and :func:`merge_collapsed` persist and
aggregate them (the ``--flame-out`` flag).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable, Dict, Optional


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

    def __init__(
        self,
        interval: float = 0.005,
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
        """JSON-serializable summary (rides the telemetry envelope)."""
        return {
            "interval": self.interval,
            "samples": self.samples,
            "wall_seconds": self.wall_seconds(),
            "stacks": dict(self.collapsed),
        }

    def write_collapsed(self, path: str) -> int:
        """Write collapsed stacks (``--flame-out`` target); feed the
        file to ``flamegraph.pl`` or speedscope.  Returns line count."""
        return write_collapsed(path, self.collapsed)


def write_collapsed(path: str, collapsed: Dict[str, int]) -> int:
    """Write a collapsed-stack dict in Brendan Gregg's format."""
    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        for stack in sorted(collapsed):
            fh.write(f"{stack} {collapsed[stack]}\n")
            lines += 1
    return lines


def merge_collapsed(into: Dict[str, int], stacks: Dict[str, int]) -> Dict[str, int]:
    """Sum one worker's collapsed stacks into an accumulator."""
    for stack, count in stacks.items():
        into[stack] = into.get(stack, 0) + count
    return into
