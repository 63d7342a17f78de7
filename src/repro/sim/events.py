"""A minimal discrete-event scheduler.

Used by the §9 multi-reader :class:`~repro.sim.medium.Medium` and the
city engines (:mod:`repro.sim.city`): events are (time, priority,
callback) triples executed in time order; callbacks may schedule
further events.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError

__all__ = ["KINDS", "EventScheduler"]

#: What an event may be. The kind labels an event's ``scheduler.*``
#: series and trace instant, so the vocabulary is fixed: a run's series
#: do not grow with its cars or stations.
KINDS = ("attempt", "retry", "process", "transition", "car-enter", "car-exit")


class EventScheduler:
    """Heap-based discrete-event loop.

    The current time is only advanced by :meth:`run_until`; callbacks
    observe it via :attr:`now_s` and may call :meth:`schedule`.
    """

    def __init__(self, obs=None):
        self.now_s = 0.0
        #: ``(time_s, priority, sequence, callback, kind)`` entries:
        #: ``sequence`` is unique, so a comparison never reaches the
        #: callback.
        self._heap: list[tuple] = []
        self._counter = itertools.count()
        self.processed = 0
        #: Nullable observability hook (see :mod:`repro.obs`): counts
        #: scheduled/processed events by kind and, when a tracer is
        #: attached, marks each processed event on the ``sim`` track.
        self.obs = obs

    def schedule(
        self,
        time_s: float,
        callback: Callable[["EventScheduler"], None],
        kind: str,
        priority: int = 0,
    ) -> None:
        """Add an event of one of the :data:`KINDS`; scheduling in the
        past is an error. Same-time events run by priority, then FIFO."""
        if time_s < self.now_s - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time_s} (now is {self.now_s})"
            )
        if kind not in KINDS:
            raise SimulationError(f"unknown event kind {kind!r}; kinds: {KINDS}")
        heapq.heappush(
            self._heap, (time_s, priority, next(self._counter), callback, kind)
        )
        if self.obs is not None:
            self.obs.count("scheduler.scheduled", kind=kind)

    def step(self) -> None:
        """Run the next event (there must be one)."""
        time_s, _, _, callback, kind = heapq.heappop(self._heap)
        self.now_s = time_s
        callback(self)
        self.processed += 1
        if self.obs is not None:
            self.obs.count("scheduler.processed", kind=kind)
            self.obs.instant(kind, time_s, track="sim")

    def run_until(self, end_s: float, max_events: int = 1_000_000) -> int:
        """Run all events with time <= end_s; returns how many ran."""
        ran = 0
        heap = self._heap
        while heap and heap[0][0] <= end_s:
            if ran >= max_events:
                raise SimulationError(f"exceeded {max_events} events before {end_s}s")
            self.step()
            ran += 1
        self.now_s = max(self.now_s, end_s)
        return ran
