"""A minimal discrete-event scheduler.

Used by the multi-reader MAC simulation (§9) and the traffic model
(Fig 12): events are (time, priority, callback) triples executed in time
order; callbacks may schedule further events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..errors import SimulationError

__all__ = ["Event", "EventScheduler"]


@dataclass(frozen=True)
class Event:
    """One scheduled callback. The scheduler runs events by time, then
    priority, then FIFO (``sequence``)."""

    time_s: float
    priority: int
    sequence: int
    callback: Callable[["EventScheduler"], None] = field(compare=False)
    label: str = field(default="", compare=False)


class EventScheduler:
    """Heap-based discrete-event loop.

    The current time is only advanced by :meth:`run_until` / :meth:`run`;
    callbacks observe it via :attr:`now_s` and may call :meth:`schedule`.
    """

    def __init__(self, start_s: float = 0.0, obs=None):
        self.now_s = start_s
        #: ``(time_s, priority, sequence, event)`` entries: ``sequence`` is
        #: unique, so a comparison never reaches the event itself.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live: set[int] = set()
        self._cancelled: set[int] = set()
        self.processed = 0
        #: Nullable observability hook (see :mod:`repro.obs`): counts
        #: scheduled/processed/cancelled events and, when a tracer is
        #: attached, marks each processed event on the ``sim`` track.
        self.obs = obs

    def schedule(
        self,
        time_s: float,
        callback: Callable[["EventScheduler"], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Add an event; scheduling in the past is an error."""
        if time_s < self.now_s - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time_s} (now is {self.now_s})"
            )
        sequence = next(self._counter)
        event = Event(time_s, priority, sequence, callback, label)
        heapq.heappush(self._heap, (time_s, priority, sequence, event))
        self._live.add(sequence)
        if self.obs is not None:
            self.obs.count("scheduler.scheduled", kind=label or "event")
        return event

    def schedule_in(
        self,
        delay_s: float,
        callback: Callable[["EventScheduler"], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Relative-time convenience wrapper around :meth:`schedule`."""
        return self.schedule(self.now_s + delay_s, callback, priority, label)

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event; returns False if already run/cancelled.

        Cancellation is lazy: the event stays in the heap and is skipped
        (without advancing the clock or counting as processed) when its
        time comes, which keeps :meth:`cancel` O(1).
        """
        if event.sequence not in self._live:
            return False
        self._live.discard(event.sequence)
        self._cancelled.add(event.sequence)
        if self.obs is not None:
            self.obs.count("scheduler.cancelled", kind=event.label or "event")
        return True

    @property
    def pending(self) -> int:
        return len(self._live)

    def peek_time(self) -> float | None:
        """Time of the next live event, if any."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2] in self._cancelled:
            self._cancelled.discard(heapq.heappop(self._heap)[2])

    def step(self) -> Event | None:
        """Run exactly one event; returns it (or None if idle)."""
        self._drop_cancelled()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)[3]
        self._live.discard(event.sequence)
        self.now_s = event.time_s
        event.callback(self)
        self.processed += 1
        if self.obs is not None:
            self.obs.count("scheduler.processed", kind=event.label or "event")
            self.obs.instant(
                event.label or "event", event.time_s, track="sim"
            )
        return event

    def run_until(self, end_s: float, max_events: int = 1_000_000) -> int:
        """Run all events with time <= end_s; returns how many ran."""
        ran = 0
        self._drop_cancelled()
        while self._heap and self._heap[0][0] <= end_s:
            if ran >= max_events:
                raise SimulationError(f"exceeded {max_events} events before {end_s}s")
            self.step()
            ran += 1
            self._drop_cancelled()
        self.now_s = max(self.now_s, end_s)
        return ran

    def run(self, max_events: int = 1_000_000) -> int:
        """Run to quiescence; returns how many events ran."""
        ran = 0
        self._drop_cancelled()
        while self._heap:
            if ran >= max_events:
                raise SimulationError(f"exceeded {max_events} events")
            self.step()
            ran += 1
            self._drop_cancelled()
        return ran
