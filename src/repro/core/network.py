"""Per-pole identity resolution: CFO fingerprints to account ids (§7, §12.5).

A tag's CFO is stable over minutes, so a reader that decoded an account
id once can recognize the tag's spike later without spending decode air
time again. This module holds that resolution step. The station round
that uses it (count, resolve, decode, localize, fan out to the §1
services) runs in :class:`~repro.sim.city.CityCorridor`.

* :class:`IdentityCache` — one pole's bounded CFO -> account-id table.
  The corridor forwards its entries between neighbor poles (pull
  handoff), the mesh pushes them ahead of predicted arrivals, and the
  city-wide :class:`~repro.sim.city.directory.IdentityDirectory`
  composes one as its fingerprint index.
* :func:`resolve_cached_ids` — one round's spikes against a cache,
  one-to-one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = ["IdentityCache", "resolve_cached_ids"]


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
    to A. :func:`resolve_cached_ids` guards the in-round version of
    this (two simultaneous spikes can never share one cached id), but
    billing-grade pipelines should re-decode periodically.

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
    #: At or before every last-seen time (the exact minimum after each
    #: age scan): while it is within ``max_age_s`` nothing can be stale.
    _seen_floor_s: float = field(default=float("inf"), repr=False, compare=False)

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
        seen_s = max(float(now_s), self._last_seen_s.get(tag_id, float("-inf")))
        self._last_seen_s[tag_id] = seen_s
        if seen_s < self._seen_floor_s:
            self._seen_floor_s = seen_s
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
        if self.max_age_s is None or now_s - self._seen_floor_s <= self.max_age_s:
            return []
        stale = sorted(
            tag_id
            for tag_id, seen_s in self._last_seen_s.items()
            if now_s - seen_s > self.max_age_s
        )
        for tag_id in stale:
            self.evict(tag_id)
        self._seen_floor_s = min(self._last_seen_s.values(), default=float("inf"))
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
