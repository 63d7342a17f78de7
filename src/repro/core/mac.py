"""Reader-side medium access (§9).

Tags have no MAC, so the *readers* must avoid stepping on each other.
Two interference cases:

1. **Query x query** — harmless: queries are bare sinewaves near the
   carrier, and a sum of sinewaves is still a valid trigger. Readers
   never defer to other queries' energy alone being present *before*
   their own; they only need rule 2.
2. **Query x tag response** — harmful and avoidable: a response can only
   exist if some query ended within the last turnaround window. A reader
   that observes the channel idle for ``query + turnaround = 120 us`` is
   guaranteed no response is in flight or imminent, and may transmit.

The resulting protocol is CSMA with a fixed 120 µs listen window and *no
contention window* (query collisions being acceptable, there is nothing
to randomize away).

Energy a reader hears can be *classified*: a query is a bare sinewave, a
tag response is OOK-modulated. :class:`CsmaState` therefore records what
kind each busy interval was, and :class:`ReaderMac` exploits it under the
default §9 policy (``defer_to_queries=False``): another reader's query in
flight does not block transmission — only response energy and the
response *window* each heard query opens do. A query heard ending at
``e`` implies any triggered responses occupy exactly
``[e + turnaround, e + turnaround + response]``; the reader's own query
must not overlap that window. Setting ``defer_to_queries=True`` models
the conservative reader that treats all energy alike (the ablation
baseline): it simply waits for 120 µs of total silence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constants import (
    CSMA_LISTEN_S,
    QUERY_DURATION_S,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from ..errors import ConfigurationError

__all__ = ["CsmaState", "ReaderMac"]


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals, merged (abutting intervals coalesce)."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _idle_since(intervals: list[tuple[float, float]], t_s: float) -> float:
    """Continuous idle time at ``t_s`` over a set of busy intervals."""
    last_end = None
    for lo, hi in intervals:
        if lo <= t_s < hi:
            return 0.0
        if hi <= t_s:
            last_end = hi if last_end is None else max(last_end, hi)
    return float("inf") if last_end is None else t_s - last_end


@dataclass
class CsmaState:
    """What a reader has heard: merged busy intervals on the medium.

    ``busy_intervals`` is the merged union of *all* energy, regardless of
    kind (the conservative picture). Intervals added with
    ``kind="query"`` are additionally remembered individually, so the
    aggressive §9 policy can subtract them from the carrier sense and
    honor only the response windows they open.
    """

    busy_intervals: list[tuple[float, float]] = field(default_factory=list)
    _query_spans: list[tuple[float, float]] = field(default_factory=list, repr=False)

    @classmethod
    def from_heard(
        cls, intervals: list[tuple[float, float, str]]
    ) -> "CsmaState":
        """Build a state from many heard intervals in one pass.

        Equivalent to repeated :meth:`add_busy` calls but merges once
        (O(n log n) instead of O(n^2)) — carrier sensing rebuilds the
        state per query, so bulk construction is the hot path.
        """
        state = cls()
        state._query_spans = [
            (start, end) for start, end, kind in intervals if kind == "query"
        ]
        state.busy_intervals = _merge([(start, end) for start, end, _ in intervals])
        return state

    def add_busy(self, start_s: float, end_s: float, kind: str = "unknown") -> None:
        """Record a heard transmission, merging overlaps.

        Args:
            start_s / end_s: the transmission interval.
            kind: ``"query"`` if the energy was classified as another
                reader's query sinewave; ``"response"`` or ``"unknown"``
                otherwise. Unknown energy is treated like a response
                (the §9 blanket rule applies to anything a reader cannot
                rule out).
        """
        if end_s <= start_s:
            raise ConfigurationError(f"empty interval [{start_s}, {end_s}]")
        if kind not in ("query", "response", "unknown"):
            raise ConfigurationError(f"unknown transmission kind {kind!r}")
        if kind == "query":
            self._query_spans.append((start_s, end_s))
        self.busy_intervals = _merge(self.busy_intervals + [(start_s, end_s)])

    def idle_since(self, t_s: float) -> float:
        """How long the medium has been continuously idle at time ``t_s``.

        Counts energy of every kind. Returns +inf if nothing was ever
        heard before ``t_s``.
        """
        return _idle_since(self.busy_intervals, t_s)

    def response_energy_intervals(self) -> list[tuple[float, float]]:
        """Busy intervals after subtracting energy classified as queries.

        What remains is response energy plus anything unclassifiable —
        the energy the §9 listen rule must actually defer to.
        """
        queries = _merge(self._query_spans)
        out: list[tuple[float, float]] = []
        for lo, hi in self.busy_intervals:
            cursor = lo
            for q_lo, q_hi in queries:
                if q_hi <= cursor or q_lo >= hi:
                    continue
                if q_lo > cursor:
                    out.append((cursor, q_lo))
                cursor = max(cursor, q_hi)
                if cursor >= hi:
                    break
            if cursor < hi:
                out.append((cursor, hi))
        return out

    def response_idle_since(self, t_s: float) -> float:
        """Continuous idle time at ``t_s`` counting only non-query energy."""
        return _idle_since(self.response_energy_intervals(), t_s)

    def query_spans(self) -> list[tuple[float, float]]:
        """The individual intervals classified as queries, as heard.

        Includes *announced* queries whose start lies in the future: a
        decode burst's 1 ms cadence (§12.4) is protocol-deterministic,
        so a reader that heard the burst begin knows where its remaining
        queries fall and can keep its own response slot clear of them.
        """
        return list(self._query_spans)

    def response_windows(
        self,
        turnaround_s: float = TURNAROUND_S,
        response_s: float = RESPONSE_DURATION_S,
    ) -> list[tuple[float, float]]:
        """The response slot each heard query opens (§3 timing).

        Every query ending at ``e`` triggers any in-range tags to respond
        over exactly ``[e + turnaround, e + turnaround + response]``; a
        reader that heard the query knows the window even before any
        response energy arrives.
        """
        return [
            (hi + turnaround_s, hi + turnaround_s + response_s)
            for _, hi in self._query_spans
        ]


@dataclass
class ReaderMac:
    """The §9 CSMA policy: listen 120 µs, then transmit.

    Attributes:
        listen_s: required continuous idle time (query + turnaround).
        query_s: duration of the query this reader would transmit.
        defer_to_queries: if False (the default, per §9), energy
            identified as *another reader's query* does not block
            transmission — query collisions are benign, so the reader
            only defers to response energy and to the response windows
            heard queries open. Enabling it models a conservative reader
            (every kind of energy restarts the 120 µs listen window) for
            the ablation benchmark.
        obs: nullable observability hook (see :mod:`repro.obs`):
            counts carrier-sense verdicts by outcome. Verdict counts are
            a function of sim time and seeded state only.
    """

    listen_s: float = CSMA_LISTEN_S
    query_s: float = QUERY_DURATION_S
    defer_to_queries: bool = False
    obs: object = None

    def can_transmit(self, now_s: float, state: CsmaState) -> bool:
        """Whether a reader may begin its query at ``now_s``.

        The default §9 policy requires three things: 120 µs with no
        response-or-unknown energy; the query itself clear of every
        response window heard queries have opened (rule 2 — the harmful
        case); and the *own* response slot the query triggers clear of
        every known query interval, including announced future burst
        queries — otherwise the reader would invite its tags to respond
        straight into a transmission it already knows is coming.
        """
        verdict = self._clear(now_s, *self._deferred_to(state))
        if self.obs is not None:
            self.obs.count(
                "mac.carrier_sense", outcome="allow" if verdict else "defer"
            )
        return verdict

    def _deferred_to(self, state: CsmaState):
        """What the policy defers to in ``state``: (busy intervals,
        response windows, query spans).

        The conservative reader defers to every kind of energy and to
        nothing else: the busy union and two empty lists.
        """
        if self.defer_to_queries:
            return state.busy_intervals, [], []
        return (
            state.response_energy_intervals(),
            state.response_windows(),
            state.query_spans(),
        )

    def _clear(
        self,
        now_s: float,
        busy: list[tuple[float, float]],
        windows: list[tuple[float, float]],
        spans: list[tuple[float, float]],
    ) -> bool:
        """Whether a query may begin at ``now_s`` against the three lists
        of :meth:`_deferred_to`."""
        if _idle_since(busy, now_s) < self.listen_s:
            return False
        tx_end = now_s + self.query_s
        if any(now_s < w_hi and w_lo < tx_end for w_lo, w_hi in windows):
            return False
        slot_lo = tx_end + TURNAROUND_S
        slot_hi = slot_lo + RESPONSE_DURATION_S
        return not any(q_lo < slot_hi and slot_lo < q_hi for q_lo, q_hi in spans)

    def next_opportunity(self, now_s: float, state: CsmaState) -> float:
        """Earliest time >= now at which transmission becomes allowed.

        The search probes candidate times without counting them as
        carrier-sense verdicts: ``mac.carrier_sense`` counts the
        decisions a reader acts on (:meth:`can_transmit`), not the
        probes of a search that follows one. The state does not change
        during the search, so what the policy defers to is read from it
        once and every probe checks against those lists.
        """
        busy, windows, spans = self._deferred_to(state)
        if self._clear(now_s, busy, windows, spans):
            return now_s
        candidates = [hi + self.listen_s for _, hi in busy]
        candidates += [w_hi for _, w_hi in windows]
        # A query interval blocking the response slot clears once the
        # slot start passes the interval end: query + turnaround earlier.
        candidates += [q_hi - self.query_s - TURNAROUND_S for _, q_hi in spans]
        ends = [hi for _, hi in busy] + [w_hi for _, w_hi in windows]
        ends += [q_hi + self.listen_s for _, q_hi in spans]
        if ends:
            candidates.append(max(ends) + self.listen_s)  # always admissible
        for t in sorted(c for c in candidates if c > now_s):
            if self._clear(t, busy, windows, spans):
                return t
        return now_s  # unreachable when blocked; defensive

    def response_window(self, t_query_s: float) -> tuple[float, float]:
        """The response slot a query starting at ``t_query_s`` opens.

        §3 timing: tags answer exactly ``turnaround`` after the query
        ends, for one response duration. This is both the window the
        querying reader captures and the window every *other* in-range
        reader overhears — the cross-pole response pool keys trigger
        windows off it, and harvesting stations use it to keep overheard
        windows clear of their own capture slots.
        """
        start = t_query_s + self.query_s + TURNAROUND_S
        return (start, start + RESPONSE_DURATION_S)

    def guaranteed_safe(self, idle_observed_s: float) -> bool:
        """§9's argument, as a predicate: after ``query + turnaround`` of
        silence no tag response can start, because any response needs a
        query to have ended within the last turnaround window."""
        return idle_observed_s >= self.listen_s
