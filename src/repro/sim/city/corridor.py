"""The city corridor engine: async stations, cell handoff, moving tags.

:class:`CityCorridor` runs many :class:`CorridorStation`\\ s on one shared
:class:`~repro.sim.events.EventScheduler` timeline and one
:class:`~repro.sim.medium.AirLog`:

* **Async station scheduling** — each station queries on its own cadence
  and listens before talking via the §9
  :class:`~repro.core.mac.ReaderMac` policy against what it actually
  hears on the air (query energy classified and ignored, response
  windows honored), so stations genuinely back off each other instead of
  taking synchronized turns. ``scheduling="rounds"`` runs the same world
  through the lock-step sequential baseline (stations take strict turns,
  each turn serializing its whole burst) for the ablation benchmark.
* **Cell handoff** — the corridor is carved into
  :class:`~repro.sim.city.cells.StationCell`\\ s; when a spike at pole
  *k+1* misses the local :class:`~repro.core.network.IdentityCache`, the
  neighbors' caches are consulted by measured CFO fingerprint and a hit
  is *forwarded* (copied) into the local cache — the downstream pole
  resolves the tag without spending a single decode query. Every
  resolution is recorded in the corridor's
  :class:`~repro.sim.city.handoff.HandoffLedger`.
* **Moving tags** — tag membership in cells follows
  :mod:`repro.sim.mobility` trajectories (entry/exit scheduled as
  events), and every capture re-samples channel geometry at the actual
  response time through :class:`~repro.sim.city.moving.MovingCollisionSource`.
* **Cross-pole overheard responses** — every query that triggered
  responses publishes its trigger window (responders + per-response
  oscillator phases) to one shared
  :class:`~repro.sim.city.pool.ResponsePool`; a station opening a
  decode burst harvests the windows *other* poles triggered since its
  last burst (same transmissions, re-synthesized over its own
  delay/attenuation/array geometry and receiver noise) and donates them
  to its :class:`~repro.core.decoding.DecodeSession`, which combines
  each for the targets whose spike it detectably contains — free
  evidence, excluded from own-air-time accounting. The corridor's one
  ``opportunistic="accept"|"ignore"`` policy gates harvesting at every
  pole; ``"ignore"`` reproduces the pool-less corridor bit for bit (the
  ablation). Windows overlapping the harvester's own capture slots are
  skipped (the receiver was busy, and coincident triggers already merge
  into its own capture), and windows a query stepped on are dropped at
  harvest. Not modeled: partial-overlap mixing into an own capture and
  capture-effect suppression between overheard responses.

Causality note: a station's decode burst is executed synchronously at
its processing event, recording its (future) query transmissions into
the air log; later events observe and defer to them. Measurement rounds
are processed at response *end* (so every query that could have stepped
on the response is already on the log); decode captures and harvested
windows check corruption against the log as known when they are
synthesized. Under the §9 MAC no query recorded later lands on a window
judged clean earlier: an event-mode query senses the log first,
announced burst queries included, every burst query does, and a rounds
turn is exclusive. The capture audit checks that invariant: it reads
every burst capture's and donated window's final verdict as the air log
settles its response (:meth:`AirLog.settle`), so
:attr:`CorridorResult.burst_corruption_undercount` and
:attr:`CorridorResult.overheard_corrupted_posthoc` stay at zero unless
it broke.

Run history is settled at the event clock: every record a round makes
starts at or after the clock, so each round first settles the air log,
the response pool and the waveform bank at its query time, keeping
running totals plus whatever a later event can still read. Memory then
grows with the traffic in flight, not with how long the run has gone on.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ...constants import (
    CSMA_LISTEN_S,
    QUERY_DURATION_S,
    QUERY_PERIOD_S,
    READER_RANGE_M,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from ...core.counting import BinClass
from ...core.mac import ReaderMac
from ...core.network import IdentityCache, resolve_cached_ids
from ...errors import ConfigurationError
from ...utils import as_rng
from ..events import EventScheduler
from ..medium import AirLog, TxKind
from .cells import StationCell, carve_cells
from .handoff import HANDOFF, OWN_HIT, PUSH, HandoffLedger
from .moving import (
    MovingCollisionSource,
    MovingTag,
    TagWaveformBank,
    in_range_mask,
)
from .pool import ResponsePool, TriggerWindow

__all__ = ["CorridorStation", "CityCorridor", "CorridorResult", "IdentificationStat"]

#: Valid overheard-response policies (see :class:`CityCorridor`).
OPPORTUNISTIC_POLICIES = ("accept", "ignore")

#: How long a station's receiver buffers overheard windows between
#: decode bursts; windows older than this at harvest time are lost, not
#: combined.
OVERHEARD_HORIZON_S = 0.25

#: How far back from the settle clock a later read can reach: a harvest
#: looks back :data:`OVERHEARD_HORIZON_S` from its round's query start,
#: which trails the clock by at most one measurement (632 µs), at
#: windows that start a response (512 µs) before they end. Two query
#: periods cover both.
HARVEST_LOOKBACK_S = OVERHEARD_HORIZON_S + 2 * QUERY_PERIOD_S

#: Spikes below this detection SNR are not worth a decode burst yet (the
#: tag is still far; a later, closer round decodes it in fewer queries).
DECODE_SNR_DB = 17.0

#: Bounds of every pole's identity cache built by
#: :meth:`CityCorridor.build` (see :class:`~repro.core.network.IdentityCache`).
CACHE_MAX_ENTRIES = 512
CACHE_MAX_AGE_S = 600.0

#: Last-fix hints older than this are neither used (a car returning
#: hours later should be re-localized from its measurement alone, not
#: pulled toward where it parked last time) nor kept (the table stays
#: bounded by the recently active population, like the red-light
#: detector's tracks).
HINT_HORIZON_S = 300.0


def validate_opportunistic(opportunistic: str) -> str:
    """Validate an ``opportunistic`` overheard-response policy:
    ``"accept"`` (harvest other poles' windows as free decode evidence)
    or ``"ignore"`` (ablation baseline, never harvests)."""
    if opportunistic not in OPPORTUNISTIC_POLICIES:
        raise ConfigurationError(
            f"unknown opportunistic policy {opportunistic!r}; "
            f"options: {OPPORTUNISTIC_POLICIES}"
        )
    return opportunistic


def _tag_observation():
    # Deferred: repro.apps imports repro.sim at package init, so a
    # module-scope import here would close that cycle.
    from ...apps.services import TagObservation

    return TagObservation


@dataclass
class CorridorStation:
    """One pole of the corridor: reader + front-end + cell + cache.

    Attributes:
        name: stable identifier.
        reader: the :class:`~repro.core.reader.CaraokeReader` chain.
        source: the pole's moving-scene front-end.
        cell: the coverage slice this pole owns.
        localizer: single-pole localizer confined to the cell.
        identities: the pole's CFO -> account-id cache.
        mac: the §9 listen-before-talk policy.
        query_interval_s / jitter_s: measurement cadence.

    A station decodes with maximum-ratio combining across every antenna
    and harvests overheard windows when its corridor's ``opportunistic``
    policy says so.

    The station keeps each tag's latest fix in ``_last_fixes`` (tag id
    -> ``(fix, time)``, oldest record first) and hints the tag's next
    localization with it. Fixes older than :data:`HINT_HORIZON_S` are
    neither used nor kept.
    """

    name: str
    reader: object
    source: MovingCollisionSource
    cell: StationCell
    localizer: object | None = None
    identities: IdentityCache = field(default_factory=IdentityCache)
    mac: ReaderMac = field(default_factory=ReaderMac)
    query_interval_s: float = 80e-3
    jitter_s: float = 5e-3
    upstream: "CorridorStation | None" = field(default=None, repr=False)
    downstream: "CorridorStation | None" = field(default=None, repr=False)
    #: Predictively pushed cache entries not yet consumed by a sighting:
    #: ``tag_id -> (pushing station, fingerprint, push time)``. Filled by
    #: :meth:`receive_push`; the first sighting resolved by a pushed
    #: entry pops it (and is ledgered as ``push`` rather than ``own``);
    #: entries still here at run end are recorded as push *misses*.
    pushed: dict = field(default_factory=dict, repr=False)
    # -- per-run statistics --
    queries_sent: int = 0
    queries_deferred: int = 0
    rounds: int = 0
    empty_rounds: int = 0
    corrupted_rounds: int = 0
    overheard_donated: int = 0
    #: Harvest cursor: pool windows ending at or before this were already
    #: offered to (or aged past) this station.
    last_harvest_s: float = 0.0
    #: This pole's own capture slots (the response window each own query
    #: opened) — overheard windows overlapping them are off limits: the
    #: receiver was busy, and coincident triggers already merged into the
    #: own capture.
    _own_windows: list[tuple[float, float]] = field(default_factory=list, repr=False)
    _last_fixes: OrderedDict[int, tuple[np.ndarray, float]] = field(
        default_factory=OrderedDict, repr=False
    )

    @property
    def pole_position_m(self) -> np.ndarray:
        return self.source.pole_position_m

    def observed_parts(self) -> list:
        """Components with a nullable ``obs`` hook: the MAC, the counter,
        the AoA estimator and the localizer (when there is one)."""
        parts = [self.mac, self.reader.counter, self.reader.estimator]
        if self.localizer is not None:
            parts.append(self.localizer)
        return parts

    def neighbors(self) -> list["CorridorStation"]:
        """Upstream first: traffic flows +x, so the usual donor is the
        pole the tag just left."""
        return [s for s in (self.upstream, self.downstream) if s is not None]

    def receive_push(
        self, cfo_hz: float, tag_id: int, from_station: str, now_s: float
    ) -> None:
        """Accept a predictively pushed identity-cache entry.

        The entry lands in :attr:`identities` exactly like a pull
        handoff would — same LRU/aging bounds — plus a note in
        :attr:`pushed` so the first sighting it resolves is audited as
        ``push``. A mis-push costs nothing here: the entry just ages
        out (or is LRU-evicted) like any other, and the note survives
        to be swept into the ledger's push-miss list.
        """
        self.identities.store(float(cfo_hz), tag_id, now_s=now_s)
        self.pushed[tag_id] = (from_station, float(cfo_hz), float(now_s))

    def recall_fix(self, tag_id: int, now_s: float) -> np.ndarray | None:
        """The tag's last fix, if recent enough to serve as a hint."""
        entry = self._last_fixes.get(tag_id)
        if entry is None or now_s - entry[1] > HINT_HORIZON_S:
            return None
        return entry[0]

    def record_fix(self, tag_id: int, fix: np.ndarray, now_s: float) -> None:
        """Remember a fix for hinting the tag's next localization."""
        self._last_fixes[tag_id] = (np.asarray(fix, dtype=np.float64), now_s)
        self._last_fixes.move_to_end(tag_id)

    def prune_fixes(self, now_s: float) -> int:
        """Forget fixes past the hint horizon; returns how many.

        A station records its rounds in time order, so the stale fixes
        are the oldest records: the scan stops at the first fresh one,
        and costs what it forgets, not what it keeps.
        """
        forgotten = 0
        while self._last_fixes:
            _, seen_s = next(iter(self._last_fixes.values()))
            if now_s - seen_s <= HINT_HORIZON_S:
                break
            self._last_fixes.popitem(last=False)
            forgotten += 1
        return forgotten


@dataclass(frozen=True)
class IdentificationStat:
    """When the corridor learned one tag's identity (Fig 16 style).

    ``n_queries`` is the station's own decode air time; ``n_overheard``
    counts overheard captures the decode combined on top for free.
    """

    tag_id: int
    first_seen_s: float
    identified_s: float
    n_queries: int
    n_overheard: int = 0

    @property
    def delay_s(self) -> float:
        return self.identified_s - self.first_seen_s


@dataclass
class CorridorResult:
    """Everything one :meth:`CityCorridor.run` produced.

    ``scheduling`` echoes the run's MAC mode — ``"event"`` (§9
    event-driven CSMA) or ``"rounds"`` (fixed round-robin baseline).
    ``opportunistic`` echoes the corridor's harvest policy —
    ``"accept"`` or ``"ignore"``.
    """

    scheduling: str
    duration_s: float
    queries_sent: int
    queries_deferred: int
    rounds: int
    empty_rounds: int
    corrupted_rounds: int
    responses: int
    corrupted_responses: int
    n_observations: int
    ledger: HandoffLedger
    identifications: list[IdentificationStat]
    tags_seen: int
    #: Decode-burst captures that carried responses, and how many of them
    #: were stepped on by another reader's query: as judged when the
    #: capture was synthesized (only transmissions known by then) versus
    #: the final verdict the air log settles. The post-hoc
    #: count is the CSMA invariant audit: the §9 MAC keeps every
    #: later-recorded query off earlier captures, so the two counts agree
    #: (the e2e corridor workload and ``bench_city_corridor`` check the
    #: difference at zero).
    burst_captures: int = 0
    burst_corrupted_at_synthesis: int = 0
    burst_corrupted_posthoc: int = 0
    #: Cross-pole response-pool accounting. ``opportunistic`` is the
    #: corridor's harvest policy. Published windows are every query that
    #: triggered responses; harvested ones passed a station's filters
    #: (another pole's trigger, inside its radio range, clear of its own
    #: capture slots); of those, windows judged corrupted against the air
    #: log as known at harvest time were skipped and the rest were
    #: donated to decode sessions. The post-hoc
    #: count reads every *donated* window's final verdict as the air log
    #: settles it — nonzero means a later-recorded query stepped on
    #: evidence a combiner already consumed, which CSMA rules out (the
    #: e2e corridor workload and ``bench_city_corridor`` check it at
    #: zero).
    opportunistic: str = "accept"
    overheard_windows: int = 0
    overheard_harvested: int = 0
    overheard_corrupted_at_harvest: int = 0
    overheard_donated: int = 0
    overheard_corrupted_posthoc: int = 0

    @property
    def burst_corruption_undercount(self) -> int:
        """Corrupted burst captures the synthesis-time check missed."""
        return self.burst_corrupted_posthoc - self.burst_corrupted_at_synthesis

    @property
    def overheard_per_identified(self) -> float:
        if not self.identifications:
            return float("nan")
        return float(np.mean([s.n_overheard for s in self.identifications]))

    @property
    def queries_per_s(self) -> float:
        return self.queries_sent / self.duration_s if self.duration_s else 0.0

    @property
    def identified(self) -> int:
        return len(self.identifications)

    @property
    def mean_identification_delay_s(self) -> float:
        if not self.identifications:
            return float("nan")
        return float(np.mean([s.delay_s for s in self.identifications]))

    @property
    def mean_identification_queries(self) -> float:
        if not self.identifications:
            return float("nan")
        return float(np.mean([s.n_queries for s in self.identifications]))

    def summary(self) -> dict:
        """Headline numbers, JSON-friendly."""
        return {
            "scheduling": self.scheduling,
            "duration_s": self.duration_s,
            "queries_sent": self.queries_sent,
            "queries_per_s": self.queries_per_s,
            "queries_deferred": self.queries_deferred,
            "rounds": self.rounds,
            "corrupted_rounds": self.corrupted_rounds,
            "responses": self.responses,
            "corrupted_responses": self.corrupted_responses,
            "observations": self.n_observations,
            "burst_captures": self.burst_captures,
            "burst_corrupted_at_synthesis": self.burst_corrupted_at_synthesis,
            "burst_corrupted_posthoc": self.burst_corrupted_posthoc,
            "opportunistic": self.opportunistic,
            "overheard": {
                "windows": self.overheard_windows,
                "harvested": self.overheard_harvested,
                "corrupted_at_harvest": self.overheard_corrupted_at_harvest,
                "donated": self.overheard_donated,
                "corrupted_posthoc": self.overheard_corrupted_posthoc,
                "per_identified": self.overheard_per_identified,
            },
            "tags_seen": self.tags_seen,
            "tags_identified": self.identified,
            "mean_identification_delay_s": self.mean_identification_delay_s,
            "mean_identification_queries": self.mean_identification_queries,
            "handoff": self.ledger.summary(),
        }


class CityCorridor:
    """A corridor of reader stations sharing one street and one time axis.

    One instance runs one world once: build (or :meth:`build`) a fresh
    corridor per run. Determinism: all randomness flows from the single
    ``rng``, and event ordering is the scheduler's (time, priority,
    insertion) order, so a fixed seed reproduces the run exactly.

    Attributes:
        road: the corridor road segment.
        stations: the poles, in along-road order.
        tags: every car that will traverse the corridor.
        scheduling: ``"event"`` (default) runs every station on its own
            anchored cadence through the §9 MAC on one discrete-event
            timeline; ``"rounds"`` is the lock-step sequential ablation
            (stations take strict turns, each turn serializing its
            whole burst), the baseline `bench_city_corridor` gates
            event-driven throughput against. A rounds corridor of
            parked cars (zero-velocity trajectories) is the batch
            reader network of §12.5: one round per cadence tick at
            every pole, observations fanned to the §1 services.
        opportunistic: the overheard-response policy of every station —
            ``"accept"`` (default) harvests other poles' trigger windows
            from the shared :class:`ResponsePool` and donates them to the
            harvesting station's decode sessions as free evidence;
            ``"ignore"`` never harvests (bit-for-bit the pool-less
            numerics, the ablation).
        max_queries: decode budget per identification burst.
        name: corridor label. When set, it scopes this corridor inside a
            larger deployment (a :class:`~repro.sim.city.mesh.CityMesh`
            names stations ``"<edge>/pole-k"`` through
            :meth:`build`) — pass it there; the corridor itself only
            stores it for reports.
        air / pool / ledger: the corridor's own air log, response pool
            and handoff ledger. They only ever hold this corridor's
            stations' traffic and sightings: everything on the air log
            is heard by every station, as on one street, and a mesh runs
            each corridor edge as its own shard on these three.
        on_sighting: ``hook(corridor, station, tag_id, cfo_hz, t_s,
            x_m, localized, kind, n_queries)`` called for every resolved
            sighting (own/push/handoff hits and fresh decodes); ``x_m``
            is the sighting's §6 localized fix when the round produced
            one (``localized=True``), else the pole position as a coarse
            stand-in (``localized=False`` — good for audit, not for
            speed ratios). ``kind`` is the resolution provenance (a
            :mod:`~repro.sim.city.handoff` kind: ``own``/``push``/
            ``handoff``/``decode``/``redecode``) and ``n_queries`` the
            decode queries that sighting itself put on the air (zero for
            cache hits) — what a billing plane needs to price a read.
            The mesh uses the hook to feed the
            :class:`~repro.sim.city.directory.IdentityDirectory` and
            trigger predictive pushes; None disables.
        obs: nullable observability hook (see :mod:`repro.obs`). When
            set, the corridor mirrors rounds, queries, deferrals,
            corruption verdicts, handoffs and overheard-window fates
            into the metrics registry (per-station labels) and — when
            the hook carries a tracer — emits sim-time spans for every
            measurement round and decode burst plus identification
            instants. Also threaded into privately built infrastructure
            (air log, pool, scheduler), every decode session and, as a
            station-labelled view, each station's MAC and §5 counter
            that has no hook of its own. Never
            affects simulation behavior: recordings derive only from
            sim time and seeded state.
    """

    def __init__(
        self,
        road,
        stations: list[CorridorStation],
        tags: list[MovingTag],
        *,
        rng=None,
        scheduling: str = "event",
        opportunistic: str = "accept",
        max_queries: int = 32,
        name: str = "",
        on_sighting=None,
        obs=None,
    ):
        if scheduling not in ("event", "rounds"):
            raise ConfigurationError(f"unknown scheduling {scheduling!r}")
        if not stations:
            raise ConfigurationError("need at least one station")
        self.road = road
        self.name = str(name)
        self.stations = list(stations)
        self.tags = list(tags)
        self.rng = as_rng(rng)
        self.scheduling = scheduling
        self.opportunistic = validate_opportunistic(opportunistic)
        self.max_queries = int(max_queries)
        self.on_sighting = on_sighting
        self.obs = obs
        # Per-station labeled views share the hook's registry/tracer, so
        # every count lands with a station= label and every span on the
        # station's own trace track; None when obs is off keeps the hot
        # paths to a single identity check.
        self._station_obs = {
            s.name: None if obs is None else obs.labeled(station=s.name)
            for s in self.stations
        }
        if obs is not None:
            for station in self.stations:
                sobs = self._station_obs[station.name]
                for part in station.observed_parts():
                    if part.obs is None:
                        part.obs = sobs
        # Sensing lookback must cover a whole synchronous decode burst:
        # burst queries sense up to max_queries periods past the event
        # clock, and later events still need everything in that window.
        slack_s = max(
            0.25, self.max_queries * QUERY_PERIOD_S + RESPONSE_DURATION_S + 0.05
        )
        self.air = AirLog(sense_slack_s=slack_s, obs=obs)
        #: Every trigger window on the street, shared by all poles; the
        #: scan-back slack mirrors the air log's (bursts publish their
        #: future windows when the burst executes).
        self.pool = ResponsePool(slack_s=slack_s, obs=obs)
        # Overheard captures take their receiver noise from a stream
        # spawned off the corridor seed: deterministic, but never a draw
        # from the main stream — so an "accept" run and its "ignore"
        # ablation synthesize bit-identical own captures and differ only
        # through the evidence actually donated.
        self.overhear_rng = self.rng.spawn(1)[0]
        self.ledger = HandoffLedger()
        #: Every observation is fanned to the subscribed services and
        #: counted; the corridor keeps none.
        self.services: list[object] = []
        self.n_observations = 0
        # Labels of the held-history gauges (see _report_held).
        self._held_labels = {"corridor": self.name} if self.name else {}
        # The stations' waveform banks (one, when built by build()).
        self._banks = list({id(s.source.bank): s.source.bank for s in stations}.values())
        self._x_max_m = max(s.cell.x_max_m for s in self.stations)
        #: (release time, tag id) of cars that left the corridor for
        #: good: their bank rows go once the settle clock passes it.
        self._departures: deque[tuple[float, int]] = deque()
        #: Accounts the mesh admits here more than once: their rows
        #: outlive their cars' departures (see expect_returns).
        self._returning: set[int] = set()
        self._cell_index = {s.cell.name: i for i, s in enumerate(self.stations)}
        self._roster: list[set[int]] = [set() for _ in self.stations]
        # Which cell rosters can hold a tag audible to each pole: every
        # cell intersecting the pole's radio reach (range plus slack for
        # the distance a car covers during one decode burst). Derived
        # from the geometry rather than assuming "one neighbor suffices"
        # so narrow cells with a wide radio range still hear everyone.
        reach = READER_RANGE_M + 5.0
        self._audible_cells: list[list[int]] = []
        for station in self.stations:
            x = float(station.pole_position_m[0])
            self._audible_cells.append(
                [
                    j
                    for j, other in enumerate(self.stations)
                    if other.cell.x_min_m < x + reach
                    and other.cell.x_max_m > x - reach
                ]
            )
        self._first_seen: dict[int, float] = {}
        #: tag id -> (identified at, own decode queries, overheard used).
        self._identified: dict[int, tuple[float, int, int]] = {}
        # Decode-burst captures that carried responses, and harvested
        # overheard windows, as running totals: captures, corrupted as
        # judged at synthesis/harvest time, and corrupted by the final
        # verdict of the response behind them.
        self._burst_captures = 0
        self._burst_corrupted_at_synthesis = 0
        self._overheard_harvested = 0
        self._overheard_corrupted_at_harvest = 0
        self._posthoc = {"burst": 0, "overheard": 0}
        # The capture audit: (response end, (triggered_by, start),
        # kind) of the burst captures and donated windows not classified
        # yet (every capture put a response on the log, triggered by its
        # querying reader at the window's start, so the key names it),
        # and the settled stepped-on responses' keys (-> end) within the
        # harvest lookback, which a window harvested after its response
        # settled is classified against.
        self._pending_audit: list[tuple[float, tuple[str, float], str]] = []
        self._stepped_on: dict[tuple[str, float], float] = {}
        self._ran = False
        self._primed = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        scene,
        trajectories,
        lane_ys_m: tuple[float, ...],
        *,
        rng=None,
        query_interval_s: float = 80e-3,
        jitter_s: float = 5e-3,
        name: str = "",
        **kwargs,
    ) -> "CityCorridor":
        """Assemble a corridor from a scene + one trajectory per tag.

        The scene supplies poles (one antenna array each), road, channel
        and tag transponders — e.g. from
        :func:`repro.sim.scenario.city_corridor_scene`. Cells are carved
        between the poles at the midpoints; stations are wired to their
        along-road neighbors for handoff. A non-empty ``name`` scopes
        the corridor inside a larger deployment: stations become
        ``"<name>/pole-k"`` and cells ``"<name>/cell-k"``, so ledgers
        and observations shared across a mesh stay unambiguous.
        """
        if len(scene.tags) != len(trajectories):
            raise ConfigurationError("one trajectory per scene tag required")
        rng = as_rng(rng)
        prefix = f"{name}/" if name else ""
        bank = TagWaveformBank(scene.lo_hz, scene.sample_rate_hz, rng=rng)
        pole_xs = [float(array.center_m[0]) for array in scene.arrays]
        cells = carve_cells(
            pole_xs,
            scene.road,
            tuple(lane_ys_m),
            names=[f"{prefix}cell-{k}" for k in range(len(pole_xs))],
        )
        stations: list[CorridorStation] = []
        for index, (array, cell) in enumerate(zip(scene.arrays, cells)):
            source = MovingCollisionSource(
                array.positions_m,
                scene.channel,
                bank,
                noise_power_w=scene.noise_power_w,
                rng=rng,
            )
            stations.append(
                CorridorStation(
                    name=f"{prefix}pole-{index}",
                    reader=scene.reader(index),
                    source=source,
                    cell=cell,
                    localizer=cell.localizer(),
                    identities=IdentityCache(
                        max_entries=CACHE_MAX_ENTRIES, max_age_s=CACHE_MAX_AGE_S
                    ),
                    query_interval_s=query_interval_s,
                    jitter_s=jitter_s,
                )
            )
        for left, right in zip(stations, stations[1:]):
            left.downstream = right
            right.upstream = left
        tags = [
            MovingTag(transponder=tag, trajectory=trajectory)
            for tag, trajectory in zip(scene.tags, trajectories)
        ]
        return cls(scene.road, stations, tags, rng=rng, name=name, **kwargs)

    def subscribe(self, service: object) -> object:
        """Fan every observation into ``service.observe``; returns it."""
        self.services.append(service)
        return service

    # -- the run ---------------------------------------------------------------

    def run(self, duration_s: float) -> CorridorResult:
        """Simulate the corridor for ``duration_s`` seconds."""
        if self.scheduling == "event":
            scheduler = EventScheduler(obs=self.obs)
            self.prime(scheduler, duration_s)
            scheduler.run_until(duration_s)
            return self.finish()
        self._mark_ran()
        self._end_s = float(duration_s)
        self._run_rounds(duration_s, self._cell_transitions(duration_s))
        return self._result(duration_s)

    def _mark_ran(self) -> None:
        if self._ran:
            raise ConfigurationError(
                "a CityCorridor instance runs once; build a fresh one"
            )
        self._ran = True

    def prime(self, scheduler: EventScheduler, duration_s: float) -> None:
        """Plant this corridor's events on an external scheduler.

        The mesh path: a mesh shard owns the
        :class:`~repro.sim.events.EventScheduler` and advances it one
        sync quantum at a time, so instead of :meth:`run` owning the
        loop, the corridor *primes* that scheduler — cell transitions
        for the tags it already holds, plus every station's first
        cadence attempt — and the caller drives ``scheduler.run_until``,
        then collects the result via :meth:`finish`. Cars may keep
        arriving after priming through :meth:`admit`.
        """
        if self.scheduling != "event":
            raise ConfigurationError("prime() requires scheduling='event'")
        self._mark_ran()
        self._primed = True
        self._end_s = float(duration_s)
        for t, kind, tag_index, cell_index in self._cell_transitions(duration_s):
            scheduler.schedule(
                t,
                self._make_transition(kind, tag_index, cell_index),
                priority=-1,
                label=f"{kind}-tag{tag_index}-cell{cell_index}",
            )
        # Every station starts its cadence at t=0: simultaneous queries
        # are benign (§9 rule 1), so there is nothing to stagger — the
        # MAC sorts out the response slots from the first tick on.
        start_s = scheduler.now_s
        for station in self.stations:
            scheduler.schedule(
                start_s,
                self._make_attempt(station, anchor=start_s),
                label=f"{station.name}-first",
            )

    def admit(self, tag: MovingTag, scheduler: EventScheduler, now_s: float) -> int:
        """Add a car to a primed corridor mid-run; returns its index.

        The mesh calls this when a routed car enters this corridor edge
        (its trajectory's ``t0_s`` is the entry time). The tag is
        rostered into whichever cell holds it right now and its future
        cell entry/exit crossings are scheduled, exactly as
        :meth:`prime` does for cars known up front.
        """
        if not self._primed:
            raise ConfigurationError("admit() needs a primed corridor")
        tag_index = len(self.tags)
        self.tags.append(tag)
        x_now = float(tag.position(now_s)[0])
        for cell_index, station in enumerate(self.stations):
            cell = station.cell
            if cell.contains_x(x_now):
                self._roster[cell_index].add(tag_index)
                self.ledger.record_cell_entry(now_s, cell.name, tag.tag_id)
            for x_edge, kind in ((cell.x_min_m, "enter"), (cell.x_max_m, "exit")):
                t_cross = tag.time_at_x(x_edge)
                if t_cross is not None and now_s < t_cross <= self._end_s:
                    scheduler.schedule(
                        t_cross,
                        self._make_transition(kind, tag_index, cell_index),
                        priority=-1,
                        label=f"{kind}-tag{tag_index}-cell{cell_index}",
                    )
        return tag_index

    def expect_returns(self, tag_ids) -> None:
        """Note accounts whose cars the mesh admits to this corridor
        more than once (a route that comes back). Their waveform rows
        are kept for the whole run: a row rebuilt after a car's first
        departure would draw a new phase."""
        self._returning.update(tag_ids)

    def finish(self) -> CorridorResult:
        """Collect this corridor's result after the primed run ended."""
        if not self._ran:
            raise ConfigurationError("finish() before run()/prime()")
        return self._result(self._end_s)

    def _run_rounds(self, duration_s: float, transitions) -> None:
        """The lock-step baseline: stations take strict sequential turns.

        Each turn serializes the station's entire burst (measurement
        plus any decode queries) before the next station may transmit,
        so a round is every pole's measurement, resolution and decode
        in pole order on one shared time axis. Rounds start on the
        common cadence when the previous round finished early, later
        otherwise.
        """
        pending = list(transitions)
        interval = min(s.query_interval_s for s in self.stations)
        round_start = 0.0
        while round_start < duration_s:
            cursor = round_start
            for station in self.stations:
                if cursor >= duration_s:
                    break
                while pending and pending[0][0] <= cursor:
                    t, kind, tag_index, cell_index = pending.pop(0)
                    self._apply_transition(t, kind, tag_index, cell_index)
                busy_end = self._transmit(station, cursor, sequential=True)
                cursor = busy_end + CSMA_LISTEN_S
            round_start = max(round_start + interval, cursor)

    # -- cell transitions --------------------------------------------------------

    def _cell_transitions(self, duration_s: float):
        """(t, kind, tag_index, cell_index) list, time-ordered.

        Crossing times come straight from the trajectories: cars enter a
        cell when they cross its lower edge and leave at its upper edge.
        Tags already inside the corridor at t=0 are rostered immediately.
        """
        events = []
        for tag_index, tag in enumerate(self.tags):
            x0 = float(tag.position(0.0)[0])
            for cell_index, station in enumerate(self.stations):
                cell = station.cell
                if cell.contains_x(x0):
                    self._roster[cell_index].add(tag_index)
                    self._first_cell_note(0.0, cell, tag)
                t_in = tag.time_at_x(cell.x_min_m)
                t_out = tag.time_at_x(cell.x_max_m)
                if t_in is not None and 0.0 < t_in <= duration_s:
                    events.append((t_in, "enter", tag_index, cell_index))
                if t_out is not None and 0.0 < t_out <= duration_s:
                    events.append((t_out, "exit", tag_index, cell_index))
        events.sort(key=lambda e: (e[0], e[1] != "exit", e[2], e[3]))
        return events

    def _first_cell_note(self, t_s: float, cell: StationCell, tag: MovingTag) -> None:
        self.ledger.record_cell_entry(t_s, cell.name, tag.tag_id)

    def _make_transition(self, kind: str, tag_index: int, cell_index: int):
        def apply(scheduler: EventScheduler) -> None:
            self._apply_transition(scheduler.now_s, kind, tag_index, cell_index)

        return apply

    def _apply_transition(
        self, t_s: float, kind: str, tag_index: int, cell_index: int
    ) -> None:
        tag = self.tags[tag_index]
        cell = self.stations[cell_index].cell
        if kind == "enter":
            self._roster[cell_index].add(tag_index)
            self.ledger.record_cell_entry(t_s, cell.name, tag.tag_id)
        else:
            self._roster[cell_index].discard(tag_index)
            self.ledger.record_cell_exit(t_s, cell.name, tag.tag_id)
            if (
                cell.x_max_m >= self._x_max_m
                and tag.trajectory.velocity_m_s[0] > 0.0
                and tag.tag_id not in self._returning
            ):
                # Past the far end at constant velocity: no measurement
                # lists the car again, a burst already under way lists it
                # for at most the pool's slack (the burst span), and once
                # those windows are past the harvest lookback no harvest
                # reaches its row.
                self._departures.append(
                    (t_s + self.pool.slack_s + HARVEST_LOOKBACK_S, tag.tag_id)
                )

    def _tags_near(self, station: CorridorStation, t_s: float) -> list[MovingTag]:
        """Tags that would hear this station's query at ``t_s``.

        Candidates come from the rosters of every cell within the pole's
        radio reach (precomputed from the geometry), then pass one range
        gate (:func:`~repro.sim.city.moving.in_range_mask`) on their
        trajectory positions at response time.
        """
        index = self._cell_index[station.cell.name]
        candidates: set[int] = set()
        for j in self._audible_cells[index]:
            candidates |= self._roster[j]
        if not candidates:
            return []
        tags = [self.tags[i] for i in sorted(candidates)]
        response_t = t_s + QUERY_DURATION_S + TURNAROUND_S
        near = in_range_mask(tags, station.pole_position_m, response_t, READER_RANGE_M)
        return [tag for tag, keep in zip(tags, near) if keep]

    # -- station events ----------------------------------------------------------

    def _make_attempt(self, station: CorridorStation, anchor: float):
        """One periodic attempt. ``anchor`` is the cadence tick the
        attempt belongs to: deferral retries keep it, so MAC back-off
        delays a query without letting the whole cadence drift."""

        def attempt(scheduler: EventScheduler) -> None:
            now = scheduler.now_s
            state = self.air.heard_state(now)
            if not station.mac.can_transmit(now, state):
                station.queries_deferred += 1
                sobs = self._station_obs[station.name]
                if sobs is not None:
                    sobs.count("mac.deferral", context="cadence")
                retry = station.mac.next_opportunity(now, state)
                retry += float(self.rng.uniform(0.0, 20e-6))
                scheduler.schedule(retry, attempt, label=f"{station.name}-retry")
                return
            self._transmit(
                station, now, sequential=False, scheduler=scheduler, anchor=anchor
            )

        return attempt

    def _schedule_next(
        self, station: CorridorStation, anchor: float, busy_end: float, scheduler
    ) -> None:
        next_anchor = anchor + station.query_interval_s
        jitter = float(self.rng.uniform(-station.jitter_s, station.jitter_s))
        nxt = max(next_anchor + jitter, busy_end + CSMA_LISTEN_S)
        if nxt <= self._end_s:
            scheduler.schedule(
                nxt,
                self._make_attempt(station, anchor=next_anchor),
                label=f"{station.name}-next",
            )

    def _transmit(
        self,
        station: CorridorStation,
        t_query: float,
        sequential: bool,
        scheduler: EventScheduler | None = None,
        anchor: float = 0.0,
    ) -> float:
        """Put one measurement query on the air; returns burst end time.

        In event mode processing happens at response end (every query
        that could corrupt the response is on the log by then) and the
        burst end is delivered to :meth:`_schedule_next` from there; the
        returned value is then only the measurement's own extent.
        """
        self._settle(t_query)
        if self.obs is not None:
            self._report_held()
        station.rounds += 1
        station.queries_sent += 1
        sobs = self._station_obs[station.name]
        if sobs is not None:
            sobs.count("corridor.query", kind="measurement")
        self.air.record_query(station.name, t_query)
        self._note_own_window(station, t_query)
        candidates = self._tags_near(station, t_query)
        if not candidates:
            station.empty_rounds += 1
            end = t_query + QUERY_DURATION_S
            if sobs is not None:
                sobs.count("corridor.round", outcome="empty")
                sobs.span("round", t_query, end, outcome="empty")
            if not sequential:
                self._schedule_next(station, anchor, end, scheduler)
            return end
        response_start = t_query + QUERY_DURATION_S + TURNAROUND_S
        response_end = response_start + RESPONSE_DURATION_S
        for tag in candidates:
            self.air.record_response(
                f"tag{tag.tag_id}", response_start, triggered_by=station.name
            )
        now = t_query
        for tag in candidates:
            if tag.tag_id not in self._first_seen:
                self._first_seen[tag.tag_id] = now
        if sequential:
            return self._process(station, t_query, candidates)

        def process(sched: EventScheduler) -> None:
            busy_end = self._process(station, t_query, candidates)
            self._schedule_next(station, anchor, busy_end, sched)

        scheduler.schedule(
            response_end + 1e-9, process, label=f"{station.name}-process"
        )
        return response_end

    # -- measurement processing ---------------------------------------------------

    def _process(
        self, station: CorridorStation, t_query: float, candidates: list[MovingTag]
    ) -> float:
        """Count, resolve, hand off, decode, localize; returns burst end."""
        response_start = t_query + QUERY_DURATION_S + TURNAROUND_S
        response_end = response_start + RESPONSE_DURATION_S
        corrupted = self.air.any_query_overlapping(
            response_start,
            response_end,
            exclude_source=station.name,
            exclude_start_s=t_query,
        )
        sobs = self._station_obs[station.name]
        if corrupted:
            station.corrupted_rounds += 1
            if sobs is not None:
                sobs.count("corridor.round", outcome="corrupted")
                sobs.span("round", t_query, response_end, outcome="corrupted")
            # Tags still transmitted (the corruption is at the receivers,
            # where query energy steps on the window): publish the window
            # marked corrupted so overhearing poles account for it too.
            self._publish_window(station, t_query, response_start, candidates, None)
            return response_end
        collision = station.source.query(candidates, t_query)
        self._publish_window(
            station, t_query, response_start, candidates, collision.truth
        )
        count = station.reader.count(collision)
        cfos = [float(c) for c in count.cfos_hz()]
        snr_by_cfo = {float(o.cfo_hz): float(o.snr) for o in count.observations}
        ids, unknown = resolve_cached_ids(station.identities, cfos, now_s=t_query)
        # How each resolved cfo was won this round: (resolution kind,
        # decode queries spent) — provenance the city layer (directory,
        # billing plane) consumes alongside the sighting itself.
        kinds: dict[float, tuple[str, int]] = {}
        for cfo, tag_id in sorted(ids.items()):
            pushed = station.pushed.pop(tag_id, None)
            if pushed is not None:
                # The entry was planted here ahead of arrival by an
                # upstream pole's prediction; its first consumption is a
                # push hit, not a plain own-cache hit.
                self.ledger.record_push_hit(
                    station.name, pushed[0], tag_id, t_query, cfo
                )
                kinds[cfo] = (PUSH, 0)
                if sobs is not None:
                    sobs.count("corridor.resolution", kind="push")
            else:
                self.ledger.record_own_hit(station.name, tag_id, t_query, cfo)
                kinds[cfo] = (OWN_HIT, 0)
                if sobs is not None:
                    sobs.count("corridor.resolution", kind="own")

        # Neighbor handoff: a fingerprint the local cache misses may be
        # sitting one pole upstream — forward it instead of re-decoding.
        still_unknown: list[float] = []
        claimed = set(ids.values())
        for cfo in unknown:
            donor_id, donor = None, None
            for neighbor in station.neighbors():
                tag_id = neighbor.identities.lookup(cfo, now_s=t_query)
                if tag_id is not None and tag_id not in claimed:
                    donor_id, donor = tag_id, neighbor
                    break
            if donor_id is None:
                still_unknown.append(cfo)
                continue
            station.identities.store(cfo, donor_id, now_s=t_query)
            ids[cfo] = donor_id
            kinds[cfo] = (HANDOFF, 0)
            claimed.add(donor_id)
            self._push_note_superseded(station, donor_id)
            self.ledger.record_handoff(
                station.name, donor.name, donor_id, t_query, cfo
            )
            if sobs is not None:
                sobs.count("corridor.resolution", kind="handoff")

        busy_end = response_end
        if still_unknown:
            busy_end = self._decode_burst(
                station,
                t_query,
                response_end,
                still_unknown,
                snr_by_cfo,
                ids,
                seed=collision,
                kinds=kinds,
            )

        if sobs is not None:
            sobs.count("corridor.round", outcome="clean")
            sobs.span(
                "round",
                t_query,
                busy_end,
                outcome="clean",
                spikes=len(cfos),
                resolved=len(ids),
            )
        self._emit_observations(station, collision, count, ids, t_query)
        if self.on_sighting is not None:
            # Every id resolved this round (cache hits, pushes, pulls,
            # fresh decodes) is a sighting the city layer may act on —
            # the mesh reports it to the identity directory and, under
            # predictive handoff, plants the entry at the next pole.
            # The sighting's coordinate is the §6 localized fix when
            # this round produced one (§7 speed runs on repeated
            # localization), the pole's own position otherwise.
            for cfo, tag_id in sorted(ids.items()):
                fix = station._last_fixes.get(tag_id)
                localized = fix is not None and fix[1] == t_query
                if localized:
                    x_m = float(fix[0][0])
                else:
                    x_m = float(station.pole_position_m[0])
                kind, n_queries = kinds.get(cfo, (OWN_HIT, 0))
                self.on_sighting(
                    self, station, tag_id, cfo, t_query, x_m, localized,
                    kind, n_queries,
                )
        return busy_end

    def _decode_burst(
        self,
        station: CorridorStation,
        t_query: float,
        response_end: float,
        targets: list[float],
        snr_by_cfo: dict[float, float],
        ids: dict[float, int],
        seed=None,
        kinds: dict[float, tuple[str, int]] | None = None,
    ) -> float:
        """Run one §12.4 batched decode over the shared capture stream."""
        sobs = self._station_obs[station.name]
        worth_it = []
        for cfo in targets:
            if snr_by_cfo.get(cfo, float("inf")) < DECODE_SNR_DB:
                self.ledger.record_decode_deferred(station.name, t_query, cfo)
            else:
                worth_it.append(cfo)
        if not worth_it:
            return response_end

        state = {"cursor": t_query + QUERY_PERIOD_S, "busy_end": response_end}

        def decode_query(t_rel: float):
            t_requested = t_query + float(t_rel)
            t_actual = max(t_requested, state["cursor"])
            heard = self.air.heard_state(t_actual)
            if not station.mac.can_transmit(t_actual, heard):
                station.queries_deferred += 1
                if sobs is not None:
                    sobs.count("mac.deferral", context="burst")
                t_actual = station.mac.next_opportunity(t_actual, heard)
            station.queries_sent += 1
            if sobs is not None:
                sobs.count("corridor.query", kind="decode")
            self.air.record_query(station.name, t_actual)
            self._note_own_window(station, t_actual)
            subset = self._tags_near(station, t_actual)
            start = t_actual + QUERY_DURATION_S + TURNAROUND_S
            corrupted = False
            if subset:
                response = self.air.record_response(
                    f"{station.name}-burst", start, triggered_by=station.name
                )
                corrupted = self.air.any_query_overlapping(
                    response.start_s,
                    response.end_s,
                    exclude_source=station.name,
                    exclude_start_s=t_actual,
                )
                # The synthesis-time verdict only sees transmissions
                # recorded so far; the audit reads the final one when
                # the response settles.
                self._burst_captures += 1
                self._burst_corrupted_at_synthesis += corrupted
                self._pending_audit.append(
                    (response.end_s, (station.name, response.start_s), "burst")
                )
            state["cursor"] = t_actual + QUERY_PERIOD_S
            state["busy_end"] = start + RESPONSE_DURATION_S
            collision = station.source.query(subset, t_actual, corrupted=corrupted)
            if subset:
                self._publish_window(
                    station, t_actual, start, subset,
                    None if corrupted else collision.truth,
                )
            return collision

        session = station.reader.decode_session(decode_query, obs=sobs)
        if seed is not None:
            # The measurement capture doubles as the burst's first decode
            # capture, so identification adds air time only beyond the
            # measurement query itself (§12.4).
            session.seed_capture(seed)
        if self.opportunistic == "accept":
            # Windows other poles triggered since the last burst are free
            # evidence: re-synthesized over this pole's geometry and
            # donated — the session combines each for the targets whose
            # spike it detectably contains.
            for collision in self._overhear(station, t_query):
                session.donate_capture(collision)
        results = session.decode_all(worth_it, max_queries=self.max_queries)
        for cfo, result in results.items():
            if result.success:
                tag_id = result.packet.tag_id
                ids[cfo] = tag_id
                station.identities.store(cfo, tag_id, now_s=t_query)
                self._push_note_superseded(station, tag_id)
                decode_kind = self.ledger.record_decode(
                    station.name,
                    tag_id,
                    t_query,
                    cfo,
                    n_queries=result.n_queries,
                    n_overheard=result.n_overheard,
                )
                if kinds is not None:
                    kinds[cfo] = (decode_kind, result.n_queries)
                if sobs is not None:
                    sobs.count("corridor.resolution", kind="decode")
                if tag_id not in self._identified:
                    self._identified[tag_id] = (
                        state["busy_end"],
                        result.n_queries,
                        result.n_overheard,
                    )
                    if sobs is not None:
                        sobs.instant(
                            "identified", state["busy_end"], tag=str(tag_id)
                        )
            else:
                self.ledger.record_decode_failure(
                    station.name,
                    t_query,
                    cfo,
                    n_queries=result.n_queries,
                    n_overheard=result.n_overheard,
                )
                if sobs is not None:
                    sobs.count("corridor.decode_failure")
        if sobs is not None and state["busy_end"] > response_end:
            sobs.span(
                "decode-burst",
                response_end,
                state["busy_end"],
                targets=len(worth_it),
            )
        return state["busy_end"]

    def _push_note_superseded(self, station: CorridorStation, tag_id: int) -> None:
        """A sighting resolved *around* a pushed entry: the push missed.

        The first sighting of a pushed tag can still end in a handoff
        or a re-decode — the pushed entry was LRU-evicted or aged out
        before arrival, or the spike drifted outside its tolerance. A
        note left behind would make the *next* round's plain own-cache
        hit masquerade as a push hit, so the miss is recorded (and the
        note cleared) the moment something else resolves the sighting.
        """
        note = station.pushed.pop(tag_id, None)
        if note is not None:
            from_station, cfo_hz, t_push = note
            self.ledger.record_push_miss(
                station.name, from_station, tag_id, t_push, cfo_hz
            )

    # -- the shared response pool -------------------------------------------------

    def _note_own_window(self, station: CorridorStation, t_query_s: float) -> None:
        """Remember the capture slot an own query opens, bounded.

        Harvesting needs recent own windows for the overlap exclusion;
        windows far past the receiver-buffer horizon can never matter
        again, so the list is trimmed as it grows — including under
        ``opportunistic="ignore"``, where no station harvests (and each
        would otherwise accumulate one entry per query for the whole
        run).
        """
        window = station.mac.response_window(t_query_s)
        station._own_windows.append(window)
        if len(station._own_windows) > 256:
            floor = window[1] - (OVERHEARD_HORIZON_S + 1.0)
            station._own_windows = [
                w for w in station._own_windows if w[1] > floor
            ]

    def _publish_window(
        self,
        station: CorridorStation,
        t_query_s: float,
        start_s: float,
        candidates: list[MovingTag],
        truth,
    ) -> None:
        """Publish one query's trigger window to the shared pool.

        ``truth`` is the synthesized collision's ground-truth list (its
        order matches ``candidates``), carrying each response's random
        oscillator phase — the transmission-side state an overhearing
        pole must reuse. None marks the window corrupted (a query stepped
        on it; its content is garbage at every receiver, so no phases
        exist to share).
        """
        end_s = start_s + RESPONSE_DURATION_S
        if truth is None:
            window = TriggerWindow(
                station.name,
                t_query_s,
                start_s,
                end_s,
                tags=tuple(candidates),
                corrupted=True,
            )
        else:
            window = TriggerWindow(
                station.name,
                t_query_s,
                start_s,
                end_s,
                tags=tuple(candidates),
                phases_rad=tuple(
                    float(entry.response.phase0_rad) for entry in truth
                ),
            )
        self.pool.publish(window)

    def _overhear(self, station: CorridorStation, now_s: float) -> list:
        """Harvest and synthesize the windows a station overheard.

        Windows ending since the station's last harvest (bounded by the
        receiver's buffer horizon) that another pole triggered, that
        stay clear of this pole's own capture slots, and that carry at
        least one responder in radio range are re-synthesized over this
        pole's geometry — same per-response phases, this pole's
        channel/noise. Each harvested window's corruption verdict against
        the air log as known *now* is counted; corrupted windows are
        dropped (their content is query-energy garbage), and the donated
        ones are audited against their response's final verdict.
        """
        lo = max(station.last_harvest_s, now_s - OVERHEARD_HORIZON_S)
        station.last_harvest_s = now_s
        station._own_windows = [
            w for w in station._own_windows if w[1] > lo - 1e-3
        ]
        harvested = self.pool.harvest(
            station.name,
            station.pole_position_m,
            lo,
            now_s,
            station._own_windows,
            READER_RANGE_M,
        )
        captures = []
        for window, audible in harvested:
            corrupted = window.corrupted or self.air.any_query_overlapping(
                window.start_s,
                window.end_s,
                exclude_source=window.origin,
                exclude_start_s=window.t_query_s,
            )
            self._overheard_harvested += 1
            sobs = self._station_obs[station.name]
            if corrupted:
                self._overheard_corrupted_at_harvest += 1
                if sobs is not None:
                    sobs.count("corridor.overheard", outcome="corrupted")
                continue
            self._pending_audit.append(
                (window.end_s, (window.origin, window.start_s), "overheard")
            )
            if sobs is not None:
                sobs.count("corridor.overheard", outcome="donated")
            captures.append(
                station.source.overhear(
                    audible,
                    window.start_s,
                    origin=window.origin,
                    rng=self.overhear_rng,
                )
            )
        station.overheard_donated += len(captures)
        return captures

    def _emit_observations(
        self,
        station: CorridorStation,
        collision,
        count,
        ids: dict[float, int],
        t_query: float,
    ) -> None:
        """Localize the spikes the round resolved and fan out the fixes.

        Only resolved spikes are read: their rows of the count's fit
        factors feed one batched AoA readout, and the usable angles one
        batched lane fix, each hinted by the tag's last fix.
        """
        station.prune_fixes(t_query)
        if station.localizer is None or not ids or collision.n_antennas < 3:
            return
        rows = {
            o.cfo_hz: k
            for k, o in enumerate(count.observations)
            if o.label is not BinClass.REJECTED
        }
        resolved = sorted(ids.items())
        estimator = station.reader.estimator
        estimates = estimator.estimate_for_cfos(
            collision,
            [cfo for cfo, _ in resolved],
            probe=tuple(factor[[rows[cfo] for cfo, _ in resolved]] for factor in count.basis),
        )
        usable = [
            (tag_id, estimate)
            for (_, tag_id), estimate in zip(resolved, estimates)
            if estimate.in_usable_band()
        ]
        # An account resolves at most one spike per round unless a decode
        # names an account the round already holds: that later spike is
        # hinted by the earlier spike's fix, so it is located on its own,
        # once that fix is recorded.
        firsts: dict[int, int] = {}
        for index, (tag_id, _) in enumerate(usable):
            firsts.setdefault(tag_id, index)
        batch = sorted(firsts.values())
        fixes = dict(
            zip(
                batch,
                station.localizer.locate_all(
                    [usable[i][1] for i in batch],
                    estimator,
                    [station.recall_fix(usable[i][0], t_query) for i in batch],
                ),
            )
        )
        observation_cls = _tag_observation()
        for index, (tag_id, estimate) in enumerate(usable):
            if index in fixes:
                fix = fixes[index]
            else:
                fix = station.localizer.locate_all(
                    [estimate], estimator, [station.recall_fix(tag_id, t_query)]
                )[0]
            if fix is None:
                continue
            station.record_fix(tag_id, fix, t_query)
            observation = observation_cls(
                tag_id=tag_id,
                position_m=fix,
                timestamp_s=t_query,
                station=station.name,
                cell=station.cell.name,
            )
            self.n_observations += 1
            for service in self.services:
                service.observe(observation)

    # -- settlement ----------------------------------------------------------------

    def _settle(self, now_s: float) -> None:
        """Settle the run's history at event time ``now_s``.

        Every record made from here on starts at or after ``now_s`` (a
        round's query at the clock, a burst's later), so the air log
        gives every ended response its final verdict and the capture
        audit classifies the captures those responses back. The pool
        drops windows no harvest can reach, and the banks drop the rows
        of departed cars whose release time has passed. ``math.inf``
        settles everything (the run's end).
        """
        stepped_on = self._stepped_on
        for response in self.air.settle(now_s, HARVEST_LOOKBACK_S):
            stepped_on[(response.triggered_by, response.start_s)] = response.end_s
        if self._pending_audit:
            pending = []
            for end_s, key, kind in self._pending_audit:
                if end_s > now_s:
                    pending.append((end_s, key, kind))
                elif key in stepped_on:
                    self._posthoc[kind] += 1
            self._pending_audit = pending
        if stepped_on:
            floor = now_s - HARVEST_LOOKBACK_S
            self._stepped_on = {k: end for k, end in stepped_on.items() if end >= floor}
        self.pool.settle(now_s, OVERHEARD_HORIZON_S)
        departures = self._departures
        while departures and departures[0][0] <= now_s:
            tag_id = departures.popleft()[1]
            for bank in self._banks:
                bank.evict(tag_id)

    def _report_held(self) -> None:
        """Gauge what the run holds after a round's settle: air records
        by kind, pool windows and bank rows (metrics only)."""
        obs, labels = self.obs, self._held_labels
        records = self.air.transmissions
        n_queries = sum(1 for tx in records if tx.kind is TxKind.QUERY)
        obs.gauge("air.held", n_queries, kind="query", **labels)
        obs.gauge("air.held", len(records) - n_queries, kind="response", **labels)
        obs.gauge("pool.held", len(self.pool), **labels)
        obs.gauge("bank.rows", sum(len(bank) for bank in self._banks), **labels)

    # -- results -----------------------------------------------------------------

    def _result(self, duration_s: float) -> CorridorResult:
        identifications = [
            IdentificationStat(
                tag_id=tag_id,
                first_seen_s=self._first_seen.get(tag_id, t_id),
                identified_s=t_id,
                n_queries=n_queries,
                n_overheard=n_overheard,
            )
            for tag_id, (t_id, n_queries, n_overheard) in sorted(
                self._identified.items()
            )
        ]
        self._settle(math.inf)
        return CorridorResult(
            scheduling=self.scheduling,
            duration_s=duration_s,
            queries_sent=sum(s.queries_sent for s in self.stations),
            queries_deferred=sum(s.queries_deferred for s in self.stations),
            rounds=sum(s.rounds for s in self.stations),
            empty_rounds=sum(s.empty_rounds for s in self.stations),
            corrupted_rounds=sum(s.corrupted_rounds for s in self.stations),
            responses=self.air.settled_responses,
            corrupted_responses=self.air.settled_corrupted,
            n_observations=self.n_observations,
            ledger=self.ledger,
            identifications=identifications,
            tags_seen=len(self._first_seen),
            burst_captures=self._burst_captures,
            burst_corrupted_at_synthesis=self._burst_corrupted_at_synthesis,
            burst_corrupted_posthoc=self._posthoc["burst"],
            opportunistic=self.opportunistic,
            overheard_windows=self.pool.published,
            overheard_harvested=self._overheard_harvested,
            overheard_corrupted_at_harvest=self._overheard_corrupted_at_harvest,
            overheard_donated=sum(s.overheard_donated for s in self.stations),
            overheard_corrupted_posthoc=self._posthoc["overheard"],
        )
