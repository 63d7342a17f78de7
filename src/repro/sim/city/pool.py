"""The shared trigger-window response pool: one street, one air medium.

Caraoke's §8/§9 design assumes every transponder answer is broadcast on
one shared channel: a tag that responds to pole A's query is physically
audible at every pole whose coverage overlaps the tag. The corridor
engine used to synthesize each station's capture only from its *own*
candidates; this module is the missing cross-pole half.

Every query that triggered responses publishes a :class:`TriggerWindow`
to the corridor's :class:`ResponsePool`: who queried, when the response
slot runs, which tags answered, and — crucially — each response's random
oscillator phase. The phase is a property of the *transmission*, not the
receiver, so a pole overhearing the window must see the same per-tag
phase as the pole that triggered it; only the channel (per-pole
delay/attenuation/array geometry) differs. Harvesting stations pull
windows they could physically have buffered (recent, not their own, not
overlapping their own capture slots, with at least one responder in
radio range) and re-synthesize them over their own geometry via
:meth:`~repro.sim.city.moving.MovingCollisionSource.overhear` — free
decode evidence donated to a
:class:`~repro.core.decoding.DecodeSession`. Stations harvest only
under their corridor's ``opportunistic="accept"`` policy.

What the pool does *not* model: partial-overlap mixing (a window that
overlaps the harvesting pole's own capture slot is skipped outright —
overlapping triggers already merge into the pole's own capture) and
capture-effect/near-far suppression between overheard responses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import ConfigurationError
from .moving import MovingTag, in_range_mask

__all__ = ["TriggerWindow", "ResponsePool"]


@dataclass(frozen=True)
class TriggerWindow:
    """One query's worth of on-air responses, as published to the pool.

    Attributes:
        origin: the station whose query opened the window.
        t_query_s: when the triggering query started.
        start_s / end_s: the response slot (§3 timing).
        tags: the responders (every tag in the origin's radio range).
        phases_rad: each response's random oscillator phase — identical
            at every receiving pole (the transmission carries it). Empty
            for corrupted windows: the origin never synthesized the
            responses, so no phases exist to share (the tags are still
            listed — harvesters need them to know the garbage was
            audible).
        corrupted: the origin's synthesis-time verdict: some other
            reader's query stepped on this window, so its content is
            garbage at *every* receiver. Harvesters re-check against the
            air log as known at harvest time (later-recorded queries may
            have landed on the window since).
    """

    origin: str
    t_query_s: float
    start_s: float
    end_s: float
    tags: tuple[MovingTag, ...] = ()
    phases_rad: tuple[float, ...] = ()
    corrupted: bool = False

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"empty trigger window [{self.start_s}, {self.end_s}]"
            )
        if not self.corrupted and len(self.tags) != len(self.phases_rad):
            raise ConfigurationError("one response phase per responding tag")

    def overlaps(self, start_s: float, end_s: float) -> bool:
        return self.start_s < end_s and start_s < self.end_s

    def audible_tags(
        self, pole_m: np.ndarray, range_m: float
    ) -> list[tuple[MovingTag, float]]:
        """The (tag, phase) responders in radio range of a listening pole
        at the window's response time, through one range gate
        (:func:`~repro.sim.city.moving.in_range_mask`)."""
        if not self.tags:
            return []
        near = in_range_mask(self.tags, pole_m, self.start_s, range_m)
        return [
            (tag, phase)
            for tag, phase, keep in zip(self.tags, self.phases_rad, near)
            if keep
        ]


class ResponsePool:
    """Everything triggered on the shared street, queryable by window.

    Windows are appended in near event order (a decode burst publishes
    its future windows when the burst executes, bounded by the burst
    span), so time-range scans walk back from the newest record and stop
    ``slack_s`` past the range — O(recent traffic), like the
    :class:`~repro.sim.medium.AirLog` it mirrors.
    """

    def __init__(self, slack_s: float = 0.25, obs=None) -> None:
        self.slack_s = float(slack_s)
        self.windows: list[TriggerWindow] = []
        #: Nullable observability hook (see :mod:`repro.obs`): counts
        #: windows published and each harvest's kept/dropped verdicts.
        self.obs = obs

    def __len__(self) -> int:
        return len(self.windows)

    def publish(self, window: TriggerWindow) -> TriggerWindow:
        """Record one trigger window; returns it for chaining."""
        self.windows.append(window)
        if self.obs is not None:
            self.obs.count(
                "pool.published",
                origin=window.origin,
                corrupted=str(window.corrupted).lower(),
            )
        return window

    def windows_ending_in(
        self, lo_s: float, hi_s: float, exclude_origin: str | None = None
    ) -> list[TriggerWindow]:
        """Windows with ``end_s`` in ``(lo_s, hi_s]``, oldest first.

        The half-open interval is the harvest contract: a station that
        harvests up to its current time and remembers that time as the
        next call's ``lo_s`` sees every window exactly once, even when
        bursts published windows out of record order.
        """
        out = []
        for window in reversed(self.windows):
            if window.end_s < lo_s - self.slack_s:
                break
            if lo_s < window.end_s <= hi_s and window.origin != exclude_origin:
                out.append(window)
        out.reverse()
        return out

    def harvest(
        self,
        station: str,
        pole_m: np.ndarray,
        lo_s: float,
        hi_s: float,
        own_windows: list[tuple[float, float]],
        range_m: float,
    ) -> list[tuple[TriggerWindow, list[tuple[MovingTag, float]]]]:
        """Windows a station could have buffered since its last harvest.

        Selects windows ending in ``(lo_s, hi_s]`` that were triggered by
        *another* station, do not overlap any of the station's own
        capture slots (its receiver was busy there — and overlapping
        triggers already merged into its own capture), and carry at least
        one responder inside the station's radio range at response time.
        Corruption is deliberately *not* judged here: the caller checks
        the air log as known at harvest time, so the pool's bookkeeping
        and the medium's stay independently auditable.

        Returns ``(window, audible (tag, phase) pairs)`` tuples, oldest
        first.
        """
        out = []
        dropped = {"own_window": 0, "out_of_range": 0}
        for window in self.windows_ending_in(lo_s, hi_s, exclude_origin=station):
            if any(window.overlaps(w_lo, w_hi) for w_lo, w_hi in own_windows):
                dropped["own_window"] += 1
                continue
            if window.corrupted:
                # No phases to synthesize from — but an audible corrupted
                # window still counts (the receiver buffered garbage and
                # the caller's corruption accounting must see it).
                if window.tags and in_range_mask(
                    window.tags, pole_m, window.start_s, range_m
                ).any():
                    out.append((window, []))
                else:
                    dropped["out_of_range"] += 1
                continue
            audible = window.audible_tags(pole_m, range_m)
            if audible:
                out.append((window, audible))
            else:
                dropped["out_of_range"] += 1
        if self.obs is not None:
            self.obs.count("pool.harvested", n=len(out), station=station)
            for reason, n in dropped.items():
                if n:
                    self.obs.count("pool.dropped", n=n, station=station, reason=reason)
        return out
