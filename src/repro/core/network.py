"""A network of Caraoke readers feeding the city backend (§12.5).

One reader observes one approach; a *city* deployment is many readers
streaming measurements into shared services (§1: red-light enforcement,
parking billing, find-my-car). This module is that batch layer:

* :class:`ReaderStation` — one pole: a :class:`~repro.core.reader.CaraokeReader`,
  the collision stream it listens to (``query_fn``), a localizer that turns
  AoA into road positions, and an :class:`IdentityCache` so a tag decoded
  once is not re-decoded every round (§7: tag CFOs are stable over minutes).
* :class:`ReaderNetwork` — drives every station through measurement
  rounds. Each round counts (§5), localizes (§6) and — for CFOs whose
  account id is not yet known — opens a batched
  :class:`~repro.core.decoding.DecodeSession` that identifies *all*
  unknown tags from one shared capture stream (§12.4). The resulting
  :class:`~repro.apps.services.TagObservation` records are fanned out to
  every subscribed service.

The network never reads simulation ground truth: stations consume
collisions through ``query_fn`` exactly like a live radio front-end.

The :class:`IdentityCache` defined here is the per-pole identity store
the whole city stack builds on: the corridor engine forwards its
entries between neighbor poles (pull handoff), the mesh pushes them
ahead of predicted arrivals, and the city-wide
:class:`~repro.sim.city.directory.IdentityDirectory` composes one as
its bounded fingerprint index.

Example::

    network = ReaderNetwork()
    network.add_station(ReaderStation("pole-1", reader, sim.query,
                                      localizer=lane_localizer))
    finder = network.subscribe(CarFinder())
    network.step(timestamp_s=0.0)
    finder.locate(account_id)
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..errors import CaraokeError
from .decoding import DecodeResult, validate_combining, validate_opportunistic
from .reader import ReaderReport

__all__ = [
    "FixHints",
    "IdentityCache",
    "ReaderStation",
    "StationReport",
    "ReaderNetwork",
    "resolve_cached_ids",
    "decode_aoa",
]

#: Last-fix hints older than this are neither used (a car returning
#: hours later should be re-localized from its measurement alone, not
#: pulled toward where it parked last time) nor kept (the table stays
#: bounded by the recently active population, like the red-light
#: detector's tracks).
HINT_HORIZON_S = 300.0


def _tag_observation():
    # Deferred: repro.apps pulls in repro.sim, whose medium module needs
    # repro.core (this package) for the MAC — importing apps here at
    # module scope would close that cycle during package init.
    from ..apps.services import TagObservation

    return TagObservation


@dataclass
class IdentityCache:
    """Resolves CFO spikes to account ids decoded earlier (§7).

    A tag's CFO is its short-term fingerprint: stable over minutes, far
    apart between tags relative to the FFT resolution. Once a spike has
    been decoded, later sightings within ``tolerance_hz`` reuse the id —
    and each hit refreshes the stored CFO so slow oscillator drift is
    tracked instead of aged out.

    The table is bounded two ways: ``max_entries`` caps its size with
    least-recently-seen eviction (a city-scale stream sees every passing
    car once; an unbounded table would grow forever), and ``max_age_s``
    ages out entries not sighted recently (a stale fingerprint is also a
    mis-attribution hazard, see below). Both are off by default so small
    deployments keep the decode-once behavior indefinitely.

    Limitation: the fingerprint is not cryptographic. If tag A leaves
    and an unrelated tag B with a CFO within ``tolerance_hz`` of A's
    arrives before A's entry ages out, B's first sighting is attributed
    to A. :meth:`ReaderNetwork.process_station` guards the in-round
    version of this (two simultaneous spikes can never share one cached
    id), but billing-grade pipelines should re-decode periodically.

    Attributes:
        tolerance_hz: maximum spike movement between sightings.
        max_entries: size bound; storing beyond it evicts the entry with
            the oldest last-seen time. None = unbounded.
        max_age_s: entries unseen for longer than this are dropped by
            :meth:`prune` (and by any ``lookup``/``store`` given a
            ``now_s``). None = no aging.
    """

    tolerance_hz: float = 3000.0
    max_entries: int | None = None
    max_age_s: float | None = None
    _cfos_by_id: dict[int, float] = field(default_factory=dict)
    _last_seen_s: dict[int, float] = field(default_factory=dict, repr=False)
    _sorted_cfos: list[float] = field(default_factory=list, repr=False)
    _sorted_ids: list[int] = field(default_factory=list, repr=False)
    _dirty: bool = field(default=False, repr=False)

    def _reindex(self) -> None:
        if self._dirty or len(self._sorted_cfos) != len(self._cfos_by_id):
            pairs = sorted((cfo, tag_id) for tag_id, cfo in self._cfos_by_id.items())
            self._sorted_cfos = [cfo for cfo, _ in pairs]
            self._sorted_ids = [tag_id for _, tag_id in pairs]
            self._dirty = False

    def lookup(
        self,
        cfo_hz: float,
        now_s: float | None = None,
        exclude=frozenset(),
    ) -> int | None:
        """The nearest cached account id not in ``exclude``, or None.

        Binary search over a lazily rebuilt sorted index, expanding
        outward from the insertion point in distance order — O(log n +
        skipped) per spike instead of a scan of every account the
        station ever decoded. Passing ``now_s`` first ages out stale
        entries (no-op unless ``max_age_s`` is set), so an expired
        fingerprint can never claim a fresh spike. ``exclude`` lets a
        caller resolving several simultaneous spikes skip accounts a
        nearer spike already claimed.
        """
        if now_s is not None:
            self.prune(now_s)
        if not self._cfos_by_id:
            return None
        self._reindex()
        cfos, ids = self._sorted_cfos, self._sorted_ids
        left = bisect.bisect_left(cfos, cfo_hz) - 1
        right = left + 1
        while left >= 0 or right < len(cfos):
            left_delta = cfo_hz - cfos[left] if left >= 0 else float("inf")
            right_delta = cfos[right] - cfo_hz if right < len(cfos) else float("inf")
            if right_delta <= left_delta:
                delta, candidate = right_delta, ids[right]
                right += 1
            else:
                delta, candidate = left_delta, ids[left]
                left -= 1
            if delta > self.tolerance_hz:
                return None
            if candidate not in exclude:
                return candidate
        return None

    def store(self, cfo_hz: float, tag_id: int, now_s: float = 0.0) -> list[int]:
        """Record (or refresh) a decoded spike at time ``now_s``.

        Exceeding ``max_entries`` evicts least-recently-seen entries
        (ties broken by id, for determinism) until the bound holds.
        Returns the evicted account ids (usually empty) so layered
        services keeping per-account state alongside the fingerprint
        index — e.g. the city mesh's
        :class:`~repro.sim.city.directory.IdentityDirectory` sighting
        trails — can drop theirs in the same step and stay consistent.
        """
        self._cfos_by_id[tag_id] = float(cfo_hz)
        self._last_seen_s[tag_id] = max(
            float(now_s), self._last_seen_s.get(tag_id, float("-inf"))
        )
        self._dirty = True
        evicted: list[int] = []
        if self.max_entries is not None:
            while len(self._cfos_by_id) > max(1, int(self.max_entries)):
                victim = min(
                    (t for t in self._cfos_by_id if t != tag_id),
                    key=lambda t: (self._last_seen_s.get(t, float("-inf")), t),
                )
                self.evict(victim)
                evicted.append(victim)
        return evicted

    def evict(self, tag_id: int) -> bool:
        """Forget one account's fingerprint; returns whether it existed."""
        if tag_id not in self._cfos_by_id:
            return False
        del self._cfos_by_id[tag_id]
        self._last_seen_s.pop(tag_id, None)
        self._dirty = True
        return True

    def prune(self, now_s: float) -> int:
        """Age out entries unseen since ``now_s - max_age_s``; returns count."""
        return len(self.prune_ids(now_s))

    def prune_ids(self, now_s: float) -> list[int]:
        """Like :meth:`prune`, but returns *which* accounts aged out
        (sorted), for callers keeping per-account state alongside."""
        if self.max_age_s is None:
            return []
        stale = sorted(
            tag_id
            for tag_id, seen_s in self._last_seen_s.items()
            if now_s - seen_s > self.max_age_s
        )
        for tag_id in stale:
            self.evict(tag_id)
        return stale

    def cached_cfo(self, tag_id: int) -> float | None:
        """The stored fingerprint for an account, if any."""
        return self._cfos_by_id.get(tag_id)

    def last_seen_s(self, tag_id: int) -> float | None:
        """When an account's fingerprint was last refreshed, if cached."""
        if tag_id not in self._cfos_by_id:
            return None
        return self._last_seen_s.get(tag_id)

    def ids(self) -> list[int]:
        """Every cached account id, sorted (a stable audit order)."""
        return sorted(self._cfos_by_id)

    def __contains__(self, tag_id: int) -> bool:
        return tag_id in self._cfos_by_id

    def __len__(self) -> int:
        return len(self._cfos_by_id)


def resolve_cached_ids(
    cache: IdentityCache, cfos: list[float], now_s: float | None = None
) -> tuple[dict[float, int], list[float]]:
    """Resolve spikes against an :class:`IdentityCache`, one-to-one.

    Each cached account may claim at most one spike per round (its
    nearest); a second spike within tolerance is a *different* tag and
    must be decoded, not silently attributed to the cached account. A
    spike that loses an account to a nearer rival is re-matched against
    the remaining accounts (its true owner may simply be second-nearest)
    before being declared unknown. Claimed spikes refresh the winning
    account's fingerprint.

    Returns:
        ``(ids, unknown)`` — resolved ``{cfo: tag_id}`` plus the spikes
        no cached account could claim, in first-seen order.
    """
    spikes = [float(cfo) for cfo in cfos]
    owner: dict[int, int] = {}  # tag_id -> index of its winning spike
    exclusions: dict[int, set[int]] = {}  # spike index -> lost accounts
    unresolved: set[int] = set()
    queue = list(range(len(spikes)))
    while queue:
        index = queue.pop(0)
        tag_id = cache.lookup(
            spikes[index],
            now_s=now_s,
            exclude=exclusions.get(index, frozenset()),
        )
        if tag_id is None:
            unresolved.add(index)
            continue
        rival = owner.get(tag_id)
        if rival is None:
            owner[tag_id] = index
            continue
        cached = cache.cached_cfo(tag_id)
        if abs(spikes[index] - cached) < abs(spikes[rival] - cached):
            owner[tag_id] = index
            loser = rival
        else:
            loser = index
        # The loser may still match another account; re-queue it with
        # this one struck off (the set growth bounds the loop).
        exclusions.setdefault(loser, set()).add(tag_id)
        queue.append(loser)
    ids: dict[float, int] = {}
    for tag_id, index in owner.items():
        ids[spikes[index]] = tag_id
        cache.store(spikes[index], tag_id, now_s=0.0 if now_s is None else now_s)
    return ids, [spikes[i] for i in sorted(unresolved)]


def decode_aoa(station, decode_results: dict | None, cfo: float):
    """AoA minted from decode-time channel evidence, if any.

    A CFO the measurement pass produced no AoA for (e.g. it was detected
    only once decoding sharpened it) can still be localized: the decode
    result's per-antenna channel evidence carries the Eq 10 phase
    differences for free. Returns None when the evidence is missing,
    single-antenna, or degenerate.
    """
    if not decode_results:
        return None
    result = decode_results.get(cfo)
    if result is None or result.n_antennas < 3:
        return None
    try:
        return station.reader.estimator.estimate_from_channels(
            result.cfo_hz, result.channels
        )
    except CaraokeError:
        return None


class FixHints:
    """The last-fix hint rule every station follows.

    A station keeps each tag's latest fix in ``_last_fixes`` (tag id ->
    ``(fix, time)``, oldest record first) and hints the tag's next
    localization with it. Fixes older than :data:`HINT_HORIZON_S` are
    neither used nor kept.
    """

    _last_fixes: OrderedDict[int, tuple[np.ndarray, float]]

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


@dataclass
class ReaderStation(FixHints):
    """One pole of the network: reader + collision stream + localizer.

    Attributes:
        name: stable identifier (used in reports and examples).
        reader: the processing chain for this pole.
        query_fn: ``query_fn(t_s) -> ReceivedCollision`` — the pole's
            radio front-end (e.g. ``StaticCollisionSimulator.query``).
        combining: decode policy — ``"mrc"`` (default: maximum-ratio
            across every antenna) or ``"single"`` (one-antenna ablation).
        opportunistic: overheard-capture policy for the station's decode
            sessions — ``"accept"`` (default) combines captures donated
            by a shared-medium layer (e.g. the city corridor's response
            pool) as free evidence; ``"ignore"`` drops them (ablation).
        localizer: object with ``locate(estimate, estimator, hint_xy=None)
            -> (x, y)`` — typically a
            :class:`~repro.core.localization.LaneProjectionLocalizer`;
            None disables positioning (and therefore observations).
        identities: per-station CFO -> account-id cache.

    Last-fix hints follow :class:`FixHints`.
    """

    name: str
    reader: object
    query_fn: object
    combining: str = "mrc"
    opportunistic: str = "accept"
    localizer: object | None = None
    identities: IdentityCache = field(default_factory=IdentityCache)
    _last_fixes: OrderedDict[int, tuple[np.ndarray, float]] = field(
        default_factory=OrderedDict, repr=False
    )

    def __post_init__(self) -> None:
        validate_combining(self.combining)
        validate_opportunistic(self.opportunistic)


@dataclass
class StationReport:
    """Everything one station produced in one measurement round.

    Attributes:
        station: the station's name.
        timestamp_s: round timestamp.
        report: the count/AoA upload (§12.5).
        decode_results: fresh decodes this round, keyed by CFO — empty
            when every spike's id came from the identity cache.
        observations: positioned, identified sightings handed to services.
    """

    station: str
    timestamp_s: float
    report: ReaderReport
    decode_results: dict[float, DecodeResult] = field(default_factory=dict)
    observations: list = field(default_factory=list)

    @property
    def n_tags(self) -> int:
        return self.report.n_tags


class ReaderNetwork:
    """Batch-processes collision streams from many reader stations.

    Attributes:
        stations: the poles in the network.
        services: subscribers receiving every
            :class:`~repro.apps.services.TagObservation` (any object with
            an ``observe(observation)`` method — the §1 services qualify).
        max_queries: decode budget per identification burst.
        decode: disable to run count/localize-only rounds (no air time
            spent on repeated queries).
    """

    def __init__(self, max_queries: int = 64, decode: bool = True):
        self.stations: list[ReaderStation] = []
        self.services: list[object] = []
        self.max_queries = int(max_queries)
        self.decode = bool(decode)

    def add_station(self, station: ReaderStation) -> ReaderStation:
        """Register a station; returns it for chaining."""
        self.stations.append(station)
        return station

    def subscribe(self, service: object) -> object:
        """Fan observations into ``service.observe``; returns the service."""
        self.services.append(service)
        return service

    # -- processing ---------------------------------------------------------------

    def step(self, timestamp_s: float) -> list[StationReport]:
        """Run one measurement round at every station and dispatch."""
        reports = [
            self.process_station(station, timestamp_s) for station in self.stations
        ]
        for report in reports:
            self.dispatch(report.observations)
        return reports

    def run(self, timestamps_s: list[float]) -> list[StationReport]:
        """Run a round per timestamp; returns all station reports."""
        reports: list[StationReport] = []
        for t in timestamps_s:
            reports.extend(self.step(float(t)))
        return reports

    def process_station(
        self, station: ReaderStation, timestamp_s: float
    ) -> StationReport:
        """One station, one round: count, identify, localize.

        The counting capture doubles as the decode session's first
        capture, so identification adds air time only beyond the
        measurement query itself (§12.4).
        """
        collision = station.query_fn(timestamp_s)
        station.prune_fixes(timestamp_s)
        report = station.reader.observe(collision, timestamp_s=timestamp_s)
        cfos = [float(c) for c in report.count.cfos_hz()]
        ids, unknown = resolve_cached_ids(station.identities, cfos, now_s=timestamp_s)

        decode_results: dict[float, DecodeResult] = {}
        if unknown and self.decode:
            session = station.reader.decode_session(
                lambda t: station.query_fn(timestamp_s + t),
                combining=station.combining,
                opportunistic=station.opportunistic,
            )
            # Reuse the measurement capture as the first decode capture
            # (the whole collision: MRC combines every antenna of it).
            session.seed_capture(collision)
            decode_results = session.decode_all(unknown, max_queries=self.max_queries)
            for cfo, result in decode_results.items():
                if result.success:
                    ids[cfo] = result.packet.tag_id
                    station.identities.store(cfo, result.packet.tag_id, now_s=timestamp_s)

        observations = self._positioned(
            station, report, ids, timestamp_s, decode_results
        )
        return StationReport(
            station=station.name,
            timestamp_s=timestamp_s,
            report=report,
            decode_results=decode_results,
            observations=observations,
        )

    def dispatch(self, observations: list) -> None:
        """Hand every observation to every subscribed service."""
        for observation in observations:
            for service in self.services:
                service.observe(observation)

    # -- internals ---------------------------------------------------------------

    def _positioned(
        self,
        station: ReaderStation,
        report: ReaderReport,
        ids: dict[float, int],
        timestamp_s: float,
        decode_results: dict[float, DecodeResult] | None = None,
    ) -> list:
        """Pair identified CFOs with their AoA and project to the road."""
        if station.localizer is None:
            return []
        observation_cls = _tag_observation()
        estimates = {estimate.cfo_hz: estimate for estimate in report.aoas}
        observations = []
        for cfo, tag_id in sorted(ids.items()):
            estimate = estimates.get(cfo)
            if estimate is None:
                estimate = decode_aoa(station, decode_results, cfo)
            if estimate is None:
                continue
            # End-fire measurements are unusable (§6: d(alpha)/d(phase)
            # blows up outside the 60-120 degree band); another station
            # with better geometry will cover the tag instead.
            if not estimate.in_usable_band():
                continue
            try:
                fix = station.localizer.locate(
                    estimate,
                    station.reader.estimator,
                    hint_xy=station.recall_fix(tag_id, timestamp_s),
                )
            except CaraokeError:
                continue
            station.record_fix(tag_id, fix, timestamp_s)
            observations.append(
                observation_cls(
                    tag_id=tag_id,
                    position_m=fix,
                    timestamp_s=timestamp_s,
                    station=station.name,
                )
            )
        return observations
