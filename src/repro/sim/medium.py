"""Shared-medium simulation for the multi-reader MAC (§9).

Models the §9 interference taxonomy on an event timeline:

* a **query** triggers every in-range tag (even when queries from several
  readers overlap — the superposition of sinewaves is still a valid
  trigger);
* a **tag response** overlapped by a *query* transmission is corrupted at
  readers trying to receive it (the harmful case CSMA must avoid);
* tag responses overlapping each other are *not* corruption — decoding
  collisions is the whole point of Caraoke.

The taxonomy itself lives in :class:`AirLog`, a reusable record of
everything on the air: it answers carrier-sense questions (what has a
reader heard by time t, classified by kind) and corruption questions
(which responses were stepped on by queries). :class:`Medium` drives an
abstract reader population over one ``AirLog`` for the §9 benchmark; the
city corridor engine (:mod:`repro.sim.city`) drives *real* reader
stations over another.

One log is one ether: every transmission on it is heard by every reader
on it, as on one street. A city keeps distant streets apart by giving
each its own log (the mesh runs every corridor edge on its own), not by
placing transmissions along an axis.

Readers run the :class:`~repro.core.mac.ReaderMac` policy against what
they can hear. The benchmark compares corrupted-response rates with CSMA
on versus off (ALOHA-style blind querying).
"""

from __future__ import annotations

import bisect
import enum
import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from ..constants import QUERY_DURATION_S, RESPONSE_DURATION_S, TURNAROUND_S
from ..core.mac import CsmaState, ReaderMac
from ..errors import SimulationError
from ..utils import as_rng
from .events import EventScheduler

__all__ = ["TxKind", "Transmission", "AirLog", "ReaderNode", "Medium"]

#: Slack on the corruption sweep's lower bound, far above the rounding
#: error of a recorded query span at any simulated time.
_SWEEP_MARGIN_S = 1e-6

_start_s = attrgetter("start_s")
_end_s = attrgetter("end_s")


class TxKind(enum.Enum):
    QUERY = "query"
    RESPONSE = "response"


@dataclass(frozen=True)
class Transmission:
    """One on-air transmission interval.

    ``triggered_by`` is provenance for responses: the reader whose query
    opened this response window. One physical response is audible at
    *every* reader in range — the shared-medium bookkeeping (e.g. the
    city corridor's cross-pole response pool) uses this field to tie
    overheard captures back to the transmission that explains them.
    """

    kind: TxKind
    source: str
    start_s: float
    end_s: float
    triggered_by: str | None = None

    def overlaps(self, other: "Transmission") -> bool:
        return self.start_s < other.end_s and other.start_s < self.end_s


class AirLog:
    """Everything transmitted on one shared channel, in record order.

    The log is the §9 interference taxonomy made queryable:

    * :meth:`heard_state` — the :class:`~repro.core.mac.CsmaState` a
      reader carrier-sensing at a given instant has built up, with each
      interval classified by kind (queries are bare sinewaves and thus
      recognizable; a reader hearing one also knows, from the protocol
      timing, when it will end and when its response slot opens).
    * :meth:`corrupted_responses` — every held response some query
      stepped on.

    ``transmissions`` holds one record per transmission, one per
    responding tag included. Carrier sensing reads a smaller view
    instead: one entry per query and one per response window, since the
    responders one query triggers share one interval (§3). The view is
    built lazily from records the last sense has not seen (a log nobody
    senses or settles builds none) and trimmed from the front as its
    entries die, so it holds only recent traffic.

    **Settlement.** An event engine records every transmission at or
    after its event clock, so at clock ``T`` a response that has
    already ended can never be stepped on again. :meth:`settle` gives
    each such response its final verdict (:meth:`corrupted_responses`
    over the responses it settles), adds it to the running totals
    :attr:`settled_responses` and :attr:`settled_corrupted`, and drops
    it. A query is dropped once it ends before every held response
    starts and more than the caller's lookback before ``T``. Records
    are folded into the sensing view before they leave it. From then
    on :meth:`record` refuses a transmission starting before ``T``. A
    log nobody settles (the §9 :class:`Medium`) keeps every record.
    """

    def __init__(self, sense_slack_s: float = 0.25, obs=None) -> None:
        #: How far behind the newest sensing time a later call may look.
        #: Event engines process a decode burst synchronously, so
        #: sensing times run ahead of the event clock by up to the burst
        #: span; records must not be skipped until they are safely past
        #: any such lookback. Callers that issue longer bursts must size
        #: this to at least the burst span (CityCorridor does).
        self.sense_slack_s = float(sense_slack_s)
        #: The held records, in record order.
        self.transmissions: list[Transmission] = []
        #: Held queries by start time, and unsettled responses by end
        #: time (ties in record order).
        self._queries: list[Transmission] = []
        self._responses: list[Transmission] = []
        #: Longest recorded query, end minus start: bounds how far back
        #: the corruption sweep looks for a query overlapping a response.
        self._longest_query_s = 0.0
        #: The sensing view: ``(start_s, end_s, kind, triggered_by)``
        #: entries in record order, and how many held records it has
        #: folded in (see :meth:`heard_state`).
        self._heard: deque[tuple] = deque()
        self._heard_folded = 0
        #: The last settle time: no record may start before it.
        self.settled_s = -math.inf
        #: Running totals: responses settled, and those of them some
        #: query stepped on.
        self.settled_responses = 0
        self.settled_corrupted = 0
        #: Nullable observability hook (see :mod:`repro.obs`): counts
        #: every recorded transmission by kind and source.
        self.obs = obs

    def record(self, tx: Transmission) -> Transmission:
        """Append one transmission; returns it for chaining.

        Raises :class:`~repro.errors.SimulationError` for a
        transmission starting before the last settle time: its verdicts
        were already final.
        """
        if tx.start_s < self.settled_s:
            raise SimulationError(
                f"{tx.kind.value} from {tx.source} starts at {tx.start_s!r} s, "
                f"before the air log settled at {self.settled_s!r} s"
            )
        self.transmissions.append(tx)
        if tx.kind is TxKind.QUERY:
            bisect.insort(self._queries, tx, key=_start_s)
            self._longest_query_s = max(self._longest_query_s, tx.end_s - tx.start_s)
        else:
            bisect.insort(self._responses, tx, key=_end_s)
        if self.obs is not None:
            self.obs.count(f"air.{tx.kind.value}", source=tx.source)
        return tx

    def record_query(self, source: str, start_s: float) -> Transmission:
        """Record a standard 20 µs query starting at ``start_s``."""
        return self.record(
            Transmission(TxKind.QUERY, source, start_s, start_s + QUERY_DURATION_S)
        )

    def record_response(
        self, source: str, start_s: float, triggered_by: str | None = None
    ) -> Transmission:
        """Record a standard 512 µs tag response starting at ``start_s``.

        ``triggered_by`` names the reader whose query opened the window,
        so overheard-capture bookkeeping can find the on-air record that
        backs each synthesized capture.
        """
        return self.record(
            Transmission(
                TxKind.RESPONSE,
                source,
                start_s,
                start_s + RESPONSE_DURATION_S,
                triggered_by=triggered_by,
            )
        )

    def queries(self) -> list[Transmission]:
        """The held queries, by start time."""
        return list(self._queries)

    def any_query_overlapping(
        self,
        start_s: float,
        end_s: float,
        exclude_source: str | None = None,
        exclude_start_s: float | None = None,
    ) -> bool:
        """Whether any held query steps on the interval.

        ``exclude_source``/``exclude_start_s`` skip one transmission (a
        caller's own query). The scan walks back from the latest-starting
        query and stops once it is ``sense_slack_s`` past any possible
        overlap — O(recent traffic), not O(run history).
        """
        for query in reversed(self._queries):
            if query.end_s < start_s - self.sense_slack_s:
                break
            if query.start_s >= end_s or query.end_s <= start_s:
                continue
            if (
                exclude_source is not None
                and query.source == exclude_source
                and query.start_s == exclude_start_s
            ):
                continue
            return True
        return False

    def responses(self) -> list[Transmission]:
        """The unsettled responses, by end time."""
        return list(self._responses)

    def heard_state(self, now_s: float, horizon_s: float = 10e-3) -> CsmaState:
        """What a reader carrier-sensing at ``now_s`` knows about the air.

        A started transmission contributes its full interval (the
        protocol fixes each kind's duration, so a reader hearing energy
        begin knows when it will end). Recorded transmissions whose
        start still lies in the future are *announced*: a decode burst's
        remaining 1 ms-cadence queries (§12.4) are predictable from its
        first, and the MAC keeps its own response slot clear of them.
        Transmissions ending more than ``horizon_s`` before ``now_s``
        are dropped — they cannot affect a 120 µs listen decision.

        The scan reads the sensing view, not the records: consecutive
        response records with equal start, end and ``triggered_by`` (one
        query's responders) are one entry. Entries ending before
        ``now_s - horizon_s - sense_slack_s`` leave the front of the view
        (records are appended in near time order, so a later sense
        never needs them), and sensing cost tracks recent traffic
        instead of the whole run's history. The state equals a scan of
        every record: duplicate intervals add nothing to a union.
        """
        floor = now_s - horizon_s
        prune_floor = floor - self.sense_slack_s
        self._fold()
        heard = self._heard
        while heard and heard[0][1] < prune_floor:
            heard.popleft()
        return CsmaState.from_heard(
            [(start, end, kind) for start, end, kind, _ in heard if end >= floor]
        )

    def _fold(self) -> None:
        """Fold the records the sensing view has not seen into it."""
        heard = self._heard
        transmissions = self.transmissions
        for tx in transmissions[self._heard_folded :]:
            if (
                tx.kind is TxKind.RESPONSE
                and heard
                and heard[-1] == (tx.start_s, tx.end_s, "response", tx.triggered_by)
            ):
                continue
            heard.append((tx.start_s, tx.end_s, tx.kind.value, tx.triggered_by))
        self._heard_folded = len(transmissions)

    def corrupted_responses(
        self, responses: list[Transmission] | None = None
    ) -> list[Transmission]:
        """The responses some held query overlaps, in order: of
        ``responses`` when given (:meth:`settle` passes those it
        settles), else of every held response.

        On a log nobody settles the held responses are every response
        recorded; settled ones are counted in :attr:`settled_corrupted`
        instead.
        """
        if responses is None:
            responses = self._responses
        queries = self._queries
        reach_s = self._longest_query_s + _SWEEP_MARGIN_S
        stepped_on = []
        for response in responses:
            # Only queries starting before the response ends, and no more
            # than the longest query before it starts, can overlap.
            lo = bisect.bisect_left(queries, response.start_s - reach_s, key=_start_s)
            hi = bisect.bisect_left(queries, response.end_s, key=_start_s)
            if any(q.overlaps(response) for q in queries[lo:hi]):
                stepped_on.append(response)
        return stepped_on

    def settle(self, now_s: float, lookback_s: float) -> list[Transmission]:
        """Settle the log at event time ``now_s``; returns the newly
        settled responses some query stepped on.

        The caller promises that every record it makes from now on
        starts at or after ``now_s``, so every response ending by then
        has its final verdict: it is counted and dropped. A query is
        dropped once it ends before ``now_s - lookback_s`` and before
        every held response starts, so later :meth:`any_query_overlapping`
        calls reaching back ``lookback_s`` see every query they could.
        Records are folded into the sensing view before they go, and the
        view keeps what a later :meth:`heard_state` reaching back up to
        ``lookback_s`` plus the sense slack can read, so a log sensed
        rarely (a rounds corridor) stays as small as one sensed often.
        A settle time at or before the last one does nothing.
        """
        if now_s <= self.settled_s:
            return []
        self.settled_s = now_s
        responses = self._responses
        n_settled = bisect.bisect_right(responses, now_s, key=_end_s)
        settled = responses[:n_settled]
        del responses[:n_settled]
        stepped_on = self.corrupted_responses(settled) if settled else []
        self.settled_responses += n_settled
        self.settled_corrupted += len(stepped_on)

        floor = now_s - lookback_s
        if responses:
            floor = min(floor, min(r.start_s for r in responses))
        queries = self._queries
        n_dropped = 0
        while n_dropped < len(queries) and queries[n_dropped].end_s < floor:
            n_dropped += 1
        del queries[:n_dropped]

        records = self.transmissions
        n_dropped = 0
        for tx in records:
            # The dropped prefix ends at the first query still reachable
            # or the first response not yet settled.
            if tx.kind is TxKind.QUERY:
                held = tx.end_s >= floor
            else:
                held = tx.end_s > now_s
            if held:
                break
            n_dropped += 1
        if n_dropped:
            if n_dropped > self._heard_folded:
                self._fold()
            del records[:n_dropped]
            self._heard_folded -= n_dropped
        heard = self._heard
        prune_floor = now_s - lookback_s - self.sense_slack_s
        while heard and heard[0][1] < prune_floor:
            heard.popleft()
        return stepped_on


@dataclass
class ReaderNode:
    """One reader on the shared medium.

    Attributes:
        name: identifier.
        use_csma: whether the §9 listen-before-talk policy is enforced;
            False models a naive periodic reader (the ablation baseline).
        query_interval_s: target cadence of queries.
        jitter_s: uniform jitter applied to each cadence step.
    """

    name: str
    use_csma: bool = True
    query_interval_s: float = 1e-3
    jitter_s: float = 0.2e-3
    mac: ReaderMac = field(default_factory=ReaderMac)
    queries_sent: int = 0
    queries_deferred: int = 0


class Medium:
    """The shared channel: schedules queries, responses and corruption.

    All readers hear all readers (same street), and ``n_tags`` tags are in
    range of every reader. Per query, every tag responds after the 100 µs
    turnaround; the response is *corrupted* if any query transmission
    overlaps it.

    Why it stays next to the city corridor engine: it already *is*
    :class:`AirLog` + :class:`~repro.core.mac.ReaderMac` — the same air
    log and MAC policy the corridor runs on, plus only a cadence loop
    and an abstract tag count. It is the only §9 model of abstract
    readers without waveform synthesis, so a reader-density sweep needs
    no radio simulation, and the three claims of
    ``benchmarks/bench_sec09_mac.py`` (query/query overlap is harmless,
    listen-before-talk removes query/response corruption, blind readers
    corrupt responses) run on it.
    """

    def __init__(self, n_tags: int = 3, rng=None, obs=None):
        if n_tags < 0:
            raise SimulationError("n_tags must be non-negative")
        self.n_tags = n_tags
        self.rng = as_rng(rng)
        self.readers: list[ReaderNode] = []
        self.obs = obs
        self.air = AirLog(obs=obs)
        self.triggered_queries = 0

    @property
    def transmissions(self) -> list[Transmission]:
        return self.air.transmissions

    @property
    def responses(self) -> list[Transmission]:
        return self.air.responses()

    def add_reader(self, reader: ReaderNode) -> None:
        self.readers.append(reader)

    # -- simulation ------------------------------------------------------------

    def run(self, duration_s: float) -> dict:
        """Run the medium for a duration; returns summary statistics."""
        scheduler = EventScheduler(obs=self.obs)
        for reader in self.readers:
            first = float(self.rng.uniform(0.0, reader.query_interval_s))
            scheduler.schedule(first, self._make_attempt(reader), label=f"{reader.name}-first")
        scheduler.run_until(duration_s)
        return self.stats()

    def _make_attempt(self, reader: ReaderNode):
        def attempt(scheduler: EventScheduler) -> None:
            now = scheduler.now_s
            state = self.air.heard_state(now) if reader.use_csma else None
            if reader.use_csma and not reader.mac.can_transmit(now, state):
                reader.queries_deferred += 1
                if self.obs is not None:
                    self.obs.count("mac.deferral", station=reader.name)
                retry = reader.mac.next_opportunity(now, state)
                # Defer; small jitter avoids lock-step retries of two readers.
                retry += float(self.rng.uniform(0.0, 20e-6))
                scheduler.schedule(retry, self._make_attempt(reader), label=f"{reader.name}-retry")
                return
            self._transmit_query(scheduler, reader, now)
            next_attempt = now + reader.query_interval_s + float(
                self.rng.uniform(-reader.jitter_s, reader.jitter_s)
            )
            scheduler.schedule(
                max(next_attempt, now + 1e-9),
                self._make_attempt(reader),
                label=f"{reader.name}-next",
            )

        return attempt

    def _transmit_query(self, scheduler: EventScheduler, reader: ReaderNode, now: float) -> None:
        query = self.air.record_query(reader.name, now)
        reader.queries_sent += 1
        self.triggered_queries += 1
        # Every in-range tag responds 100 us after the query ends (§3).
        # Tags triggered by overlapping queries respond once per trigger
        # window; coincident triggers merge into the same response slot.
        response_start = query.end_s + TURNAROUND_S
        for tag_index in range(self.n_tags):
            self.air.record_response(
                f"tag{tag_index}", response_start, triggered_by=reader.name
            )

    # -- metrics ------------------------------------------------------------------

    def corrupted_responses(self) -> list[Transmission]:
        """Responses overlapped by some reader's query transmission."""
        return self.air.corrupted_responses()

    def stats(self) -> dict:
        """Summary: queries, responses, corruption rate, deferral counts."""
        corrupted = self.corrupted_responses()
        n_responses = len(self.responses)
        return {
            "queries_sent": sum(r.queries_sent for r in self.readers),
            "queries_deferred": sum(r.queries_deferred for r in self.readers),
            "responses": n_responses,
            "corrupted_responses": len(corrupted),
            "corruption_rate": len(corrupted) / n_responses if n_responses else 0.0,
        }
