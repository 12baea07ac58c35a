"""Live fleet status line for the parallel experiment engine.

:class:`FleetProgress` is the engine's completion-side observer: the
engine calls it as specs are cache-probed, dispatched, and completed,
and it redraws one carriage-return status line on a terminal.  The
engine builds one only when its stream is a TTY, so a pipe or a file
never receives it.

Everything is derived from completion timestamps — ETA is the mean
completed-run wall time extrapolated over the remaining specs divided
by the worker count, and utilization is busy worker-seconds over
elapsed wall-seconds times the worker count — so the display needs no
cooperation from the workers themselves.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

__all__ = ["FleetProgress"]


class FleetProgress:
    """Completion-queue observer drawing one refreshed status line.

    Parameters
    ----------
    total:
        Number of specs in the run.
    jobs:
        Worker process count (the ETA/utilization denominator).
    stream:
        The terminal the line is drawn on.
    clock:
        Injectable wall clock for tests (defaults to
        ``time.perf_counter``).
    """

    def __init__(
        self,
        total: int,
        stream: Any,
        jobs: int = 1,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.total = total
        self.jobs = max(1, jobs)
        self.stream = stream
        self.clock = clock
        self.done = 0
        self.cached = 0
        #: Specs handed to the pool and not yet finished; a pool takes
        #: them all up front, so at most ``jobs`` of them are running.
        self.dispatched = 0
        self.completed_walls: List[float] = []
        self.started_at = clock()
        self._line_open = False

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def spec_cached(self) -> None:
        self.done += 1
        self.cached += 1
        self._render()

    def spec_started(self) -> None:
        self.dispatched += 1
        self._render()

    def spec_finished(self, wall_seconds: float) -> None:
        self.dispatched = max(0, self.dispatched - 1)
        self.done += 1
        self.completed_walls.append(wall_seconds)
        self._render()

    def run_finished(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self._line_open = False

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def eta_seconds(self) -> Optional[float]:
        """Mean completed wall time over the remaining specs, per worker."""
        if not self.completed_walls:
            return None
        remaining = self.total - self.done
        mean = sum(self.completed_walls) / len(self.completed_walls)
        return mean * remaining / self.jobs

    def utilization(self) -> float:
        """Busy worker-seconds over elapsed capacity (0 when idle)."""
        elapsed = self.clock() - self.started_at
        if elapsed <= 0.0:
            return 0.0
        return sum(self.completed_walls) / (elapsed * self.jobs)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def _status_line(self) -> str:
        parts = [f"fleet {self.done}/{self.total}"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        running = min(self.dispatched, self.jobs)
        if running:
            parts.append(f"{running} running")
        eta = self.eta_seconds()
        if eta is not None and self.done < self.total:
            parts.append(f"eta {eta:.1f}s")
        if self.completed_walls:
            parts.append(f"util {self.utilization():.0%}")
        return " · ".join(parts)

    def _render(self) -> None:
        self.stream.write("\r\x1b[2K" + self._status_line())
        self.stream.flush()
        self._line_open = True
