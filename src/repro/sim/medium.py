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

Readers run the :class:`~repro.core.mac.ReaderMac` policy against what
they can hear. The benchmark compares corrupted-response rates with CSMA
on versus off (ALOHA-style blind querying).
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field


from ..constants import QUERY_DURATION_S, RESPONSE_DURATION_S, TURNAROUND_S
from ..core.mac import CsmaState, ReaderMac
from ..errors import SimulationError
from ..utils import as_rng
from .events import EventScheduler

__all__ = ["TxKind", "Transmission", "AirLog", "ReaderNode", "Medium"]

#: Slack on the corruption sweep's lower bound, far above the rounding
#: error of a recorded query span at any simulated time.
_SWEEP_MARGIN_S = 1e-6


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

    ``x_m`` is the transmitter's along-city coordinate, when the caller
    models a deployment larger than one street: a city mesh shares one
    time axis across corridors that are physically far apart, and a
    query on one street neither carrier-senses nor corrupts anything on
    another. None (the default) means "audible everywhere" — the
    single-street behavior every pre-mesh caller gets unchanged.
    """

    kind: TxKind
    source: str
    start_s: float
    end_s: float
    triggered_by: str | None = None
    x_m: float | None = None

    def overlaps(self, other: "Transmission") -> bool:
        return self.start_s < other.end_s and other.start_s < self.end_s

    def reaches(self, x_m: float | None, range_m: float | None) -> bool:
        """Whether a listener at ``x_m`` hears this transmission.

        Distance gating only applies when all three of the
        transmission's coordinate, the listener's coordinate and the
        range are known — any None falls back to "hears everything",
        the single-street model.
        """
        if range_m is None or x_m is None or self.x_m is None:
            return True
        return abs(self.x_m - x_m) <= range_m


class AirLog:
    """Everything transmitted on one shared channel, in record order.

    The log is the §9 interference taxonomy made queryable:

    * :meth:`heard_state` — the :class:`~repro.core.mac.CsmaState` a
      reader carrier-sensing at a given instant has built up, with each
      interval classified by kind (queries are bare sinewaves and thus
      recognizable; a reader hearing one also knows, from the protocol
      timing, when it will end and when its response slot opens).
    * :meth:`corrupted_responses` — every response some query stepped on.
    """

    def __init__(self, sense_slack_s: float = 0.25, obs=None) -> None:
        #: How far behind the newest sensing time a later call may look.
        #: Event engines process a decode burst synchronously, so
        #: sensing times run ahead of the event clock by up to the burst
        #: span; records must not be skipped until they are safely past
        #: any such lookback. Callers that issue longer bursts must size
        #: this to at least the burst span (CityCorridor does).
        self.sense_slack_s = float(sense_slack_s)
        self.transmissions: list[Transmission] = []
        self._queries: list[Transmission] = []
        #: Longest recorded query, end minus start: bounds how far back
        #: the corruption sweep looks for a query overlapping a response.
        self._longest_query_s = 0.0
        self._sense_cursor = 0
        # End-of-run sweeps over a *shared* log are repeated per caller
        # (every mesh corridor collects its own result); the log is
        # append-only, so one-slot caches keyed by record count make
        # the repeats O(1) instead of re-sorting/re-scanning the whole
        # city's history each time.
        self._sorted_queries_cache: tuple[int, list[Transmission]] | None = None
        self._corrupted_cache: tuple[tuple[int, float | None], list[Transmission]] | None = None
        #: Nullable observability hook (see :mod:`repro.obs`): counts
        #: every recorded transmission by kind and source.
        self.obs = obs

    def record(self, tx: Transmission) -> Transmission:
        """Append one transmission; returns it for chaining."""
        self.transmissions.append(tx)
        if tx.kind is TxKind.QUERY:
            self._queries.append(tx)
            self._longest_query_s = max(self._longest_query_s, tx.end_s - tx.start_s)
        if self.obs is not None:
            self.obs.count(f"air.{tx.kind.value}", source=tx.source)
        return tx

    def record_query(
        self, source: str, start_s: float, x_m: float | None = None
    ) -> Transmission:
        """Record a standard 20 µs query starting at ``start_s``.

        ``x_m`` optionally places the transmitter along the city axis
        (see :class:`Transmission`); omit it for single-street worlds.
        """
        return self.record(
            Transmission(
                TxKind.QUERY, source, start_s, start_s + QUERY_DURATION_S, x_m=x_m
            )
        )

    def record_response(
        self,
        source: str,
        start_s: float,
        triggered_by: str | None = None,
        x_m: float | None = None,
    ) -> Transmission:
        """Record a standard 512 µs tag response starting at ``start_s``.

        ``triggered_by`` names the reader whose query opened the window,
        so overheard-capture bookkeeping can find the on-air record that
        backs each synthesized capture. ``x_m`` optionally places the
        responding tag along the city axis.
        """
        return self.record(
            Transmission(
                TxKind.RESPONSE,
                source,
                start_s,
                start_s + RESPONSE_DURATION_S,
                triggered_by=triggered_by,
                x_m=x_m,
            )
        )

    def queries(self) -> list[Transmission]:
        return list(self._queries)

    def sorted_queries(self) -> list[Transmission]:
        """Every query in start-time order (cached until the next
        record — callers must not mutate the returned list)."""
        cache = self._sorted_queries_cache
        if cache is None or cache[0] != len(self._queries):
            ordered = sorted(self._queries, key=lambda q: q.start_s)
            self._sorted_queries_cache = (len(self._queries), ordered)
            return ordered
        return cache[1]

    def any_query_overlapping(
        self,
        start_s: float,
        end_s: float,
        exclude_source: str | None = None,
        exclude_start_s: float | None = None,
        x_m: float | None = None,
        hear_range_m: float | None = None,
    ) -> bool:
        """Whether any recorded query steps on the interval.

        ``exclude_source``/``exclude_start_s`` skip one transmission (a
        caller's own query). ``x_m``/``hear_range_m`` restrict the check
        to queries a receiver at that along-city coordinate could hear
        (a mesh question; both default off). Queries are recorded in
        near time order, so the scan walks back from the newest record
        and stops once it is ``sense_slack_s`` past any possible overlap
        — O(recent traffic), not O(run history).
        """
        for query in reversed(self._queries):
            if query.end_s < start_s - self.sense_slack_s:
                # Records are appended in near time order (disorder is
                # bounded by the slack), so nothing earlier in the list
                # can still reach the interval.
                break
            if query.start_s >= end_s or query.end_s <= start_s:
                continue
            if not query.reaches(x_m, hear_range_m):
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
        return [t for t in self.transmissions if t.kind is TxKind.RESPONSE]

    def heard_state(
        self,
        now_s: float,
        horizon_s: float = 10e-3,
        x_m: float | None = None,
        hear_range_m: float | None = None,
    ) -> CsmaState:
        """What a reader carrier-sensing at ``now_s`` knows about the air.

        A started transmission contributes its full interval (the
        protocol fixes each kind's duration, so a reader hearing energy
        begin knows when it will end). Recorded transmissions whose
        start still lies in the future are *announced*: a decode burst's
        remaining 1 ms-cadence queries (§12.4) are predictable from its
        first, and the MAC keeps its own response slot clear of them.
        ``x_m``/``hear_range_m`` place the listener along the city axis:
        transmissions farther than the hearing range contribute nothing
        (distant streets share the clock, not the ether); both default
        off. Transmissions ending more than ``horizon_s`` before
        ``now_s`` are dropped — they cannot affect a 120 µs listen
        decision — and a cursor skips the long-dead prefix of the log
        (records are appended in near time order), so sensing cost
        tracks recent traffic instead of the whole run's history.
        """
        floor = now_s - horizon_s
        prune_floor = floor - self.sense_slack_s
        cursor = self._sense_cursor
        transmissions = self.transmissions
        while (
            cursor < len(transmissions)
            and transmissions[cursor].end_s < prune_floor
        ):
            cursor += 1
        self._sense_cursor = cursor
        return CsmaState.from_heard(
            [
                (tx.start_s, tx.end_s, tx.kind.value)
                for tx in transmissions[cursor:]
                if tx.end_s >= floor and tx.reaches(x_m, hear_range_m)
            ]
        )

    def corrupted_responses(
        self, interference_range_m: float | None = None
    ) -> list[Transmission]:
        """Responses overlapped by some reader's query transmission.

        ``interference_range_m`` gates corruption by along-city distance
        between the query and the response (mesh worlds; positions or
        range missing fall back to "everything interferes"). The sweep
        is cached until the next record, so per-corridor result
        collection over one shared mesh log pays for it once (callers
        must not mutate the returned list).
        """
        key = (len(self.transmissions), interference_range_m)
        cache = self._corrupted_cache
        if cache is not None and cache[0] == key:
            return cache[1]
        queries = self.sorted_queries()
        starts = [q.start_s for q in queries]
        reach_s = self._longest_query_s + _SWEEP_MARGIN_S
        corrupted = []
        for response in self.responses():
            # Only queries starting before the response ends, and no more
            # than the longest query before it starts, can overlap.
            lo = bisect.bisect_left(starts, response.start_s - reach_s)
            hi = bisect.bisect_left(starts, response.end_s)
            if any(
                q.overlaps(response) and q.reaches(response.x_m, interference_range_m)
                for q in queries[lo:hi]
            ):
                corrupted.append(response)
        self._corrupted_cache = (key, corrupted)
        return corrupted


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
            if reader.use_csma and not reader.mac.can_transmit(now, self.air.heard_state(now)):
                reader.queries_deferred += 1
                if self.obs is not None:
                    self.obs.count("mac.deferral", station=reader.name)
                retry = reader.mac.next_opportunity(now, self.air.heard_state(now))
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
