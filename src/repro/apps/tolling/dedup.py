"""The windowed dedup stage: many reads, one toll event per crossing.

A car crossing one gantry is read many times — every pole of the edge
sights it each query round, a pushed entry resolves it before arrival,
a neighbor handoff re-sights it, an overheard-window decode lands late.
Charging per *read* would bill a crossing five times over; the dedup
stage collapses all reads of one ``(tag, zone)`` inside one time window
into a single admitted event.

Windows are fixed ``window_s`` bins of the sim clock
(``index = floor(t / window_s)``): a second read in the same bin is a
duplicate; a read in the next bin is a new crossing (a car genuinely
circling back through the gantry is a new toll). The table is bounded:
entries whose window can no longer receive a duplicate — the stream's
watermark has moved a full window past them — are swept out, amortized,
so memory tracks *concurrent* crossings, not history length.
"""

from __future__ import annotations

from ...errors import ConfigurationError
from .events import TollEvent

__all__ = ["TollDedup"]


class TollDedup:
    """Windowed first-read filter over the (tag, zone) sighting stream.

    Relies on the *delivery* stream being time-ordered, which every
    feed guarantees: the mesh engine's coordinator replays sightings
    in canonical ``(t_s, group, arrival)`` order, and a batched backhaul
    link applies its batches in delivery order. Emit times inside those
    deliveries may lag: the watermark tracks delivery time, and a read
    *emitted* more than ``window_s + max_lag_s`` behind it would be
    unjudgeable (its window may have been swept) and raises instead of
    guessing — out-of-order batches are rejected loudly, never
    silently double-charged.

    Attributes:
        window_s: dedup window length (over *emit* time — a crossing
            is a crossing whenever billing hears of it).
        max_lag_s: how far an emit time may trail the delivery
            watermark beyond one window before the stream is declared
            out of contract. 0 (the default) is the wired behavior:
            delivery is emission. A batched feed must cover its
            worst-case sync lag (including the final convergence
            flush), trading sweep memory for tolerance — entries now
            live ``max_lag_s`` longer.
        events: admitted first reads (one per toll event).
        duplicates: reads suppressed as repeats.
        peak_entries: high-water mark of the live table — the number the
            memory gate in ``benchmarks/bench_billing.py`` bounds.
    """

    def __init__(self, window_s: float = 5.0, max_lag_s: float = 0.0) -> None:
        if window_s <= 0:
            raise ConfigurationError("the dedup window must be positive")
        if max_lag_s < 0:
            raise ConfigurationError("max_lag_s cannot be negative")
        self.window_s = float(window_s)
        self.max_lag_s = float(max_lag_s)
        # Per (tag, zone): every un-swept window index -> its toll event.
        # Remembering *all* windows inside the sweep horizon (not just
        # the latest) is what keeps a reordered batch from re-opening a
        # window that already billed, and what folds a late duplicate
        # into its own window's event; on an ordered wired stream each
        # key holds exactly one window.
        self._live: dict[tuple[int, str], dict[int, TollEvent]] = {}
        self._watermark_s = float("-inf")
        self._next_sweep_s = float("-inf")
        self.events = 0
        self.duplicates = 0
        self.peak_entries = 0

    def admit(
        self,
        tag_id: int,
        zone: str,
        t_s: float,
        delivered_s: float | None = None,
    ) -> TollEvent | None:
        """The new toll event this read opens, or None for a duplicate
        of one already admitted in its window (whose ``n_reads`` the
        duplicate increments).

        ``t_s`` is the *emit* time (when the car crossed — the dedup
        window key); ``delivered_s`` is when the read reached billing
        (None: delivered at emission, the wired case). The split is
        load-bearing under batched backhaul: a legitimately late
        delivery of an on-time crossing must be admitted (its window
        is judged by emit time), while a crossing emitted beyond the
        sweep guarantee is rejected loudly.
        """
        t_s = float(t_s)
        delivered = t_s if delivered_s is None else float(delivered_s)
        if delivered < t_s:
            raise ConfigurationError(
                f"read emitted at t={t_s:.3f}s delivered at "
                f"{delivered:.3f}s — delivery cannot precede emission"
            )
        if t_s < self._watermark_s - self.window_s - self.max_lag_s:
            raise ConfigurationError(
                f"read emitted at t={t_s:.3f}s arrived more than a window "
                f"(+{self.max_lag_s:.3f}s lag allowance) behind the "
                f"delivery watermark ({self._watermark_s:.3f}s) — its dedup "
                "window may already be swept, so admitting it could "
                "double-charge; raise max_lag_s to cover the feed's "
                "worst-case sync lag"
            )
        self._watermark_s = max(self._watermark_s, delivered)
        if delivered >= self._next_sweep_s:
            self._sweep()
            self._next_sweep_s = delivered + self.window_s
        index = int(t_s // self.window_s)
        key = (int(tag_id), zone)
        windows = self._live.get(key)
        if windows is not None and index in windows:
            windows[index].n_reads += 1
            self.duplicates += 1
            return None
        event = TollEvent(
            tag_id=key[0], zone=zone, window_index=index, first_read_s=t_s
        )
        self._live.setdefault(key, {})[index] = event
        self.events += 1
        if len(self._live) > self.peak_entries:
            self.peak_entries = len(self._live)
        return event

    def _sweep(self) -> None:
        # An entry in window w can only receive duplicates while
        # admissible emit times can still land inside w; once the
        # delivery watermark is a full window (plus the lag allowance)
        # past its end, no admissible read can match it.
        horizon = int(
            (self._watermark_s - self.window_s - self.max_lag_s) // self.window_s
        )
        stale = []
        for key, windows in self._live.items():
            done = [index for index in windows if index < horizon]
            for index in done:
                del windows[index]
            if not windows:
                stale.append(key)
        for key in stale:
            del self._live[key]

    def __len__(self) -> int:
        return len(self._live)

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly."""
        return {
            "window_s": self.window_s,
            "events": self.events,
            "duplicates": self.duplicates,
            "live_entries": len(self._live),
            "peak_entries": self.peak_entries,
        }
