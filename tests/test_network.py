"""Unit tests for repro.core.network (the per-pole identity cache), the
corridor scene and the single-pole lane localizer."""

import numpy as np
import pytest

from repro.core.localization import LaneProjectionLocalizer
from repro.core.network import IdentityCache
from repro.sim.scenario import corridor_scene

LANES = (-1.75, -5.25)


def build_corridor(car_positions, seed=11):
    """A one-pole corridor scene plus the pole's reader, lane localizer
    and collision simulator."""
    scene = corridor_scene(
        pole_xs_m=[0.0],
        lane_ys_m=list(LANES),
        cars=car_positions,
        rng=seed,
    )
    localizer = LaneProjectionLocalizer(road=scene.road, lane_ys_m=LANES)
    return scene, scene.reader(0), localizer, scene.simulator(0, rng=100 + seed)


class TestIdentityCache:
    def test_miss_then_hit(self):
        cache = IdentityCache(tolerance_hz=1000.0)
        assert cache.lookup(500e3) is None
        cache.store(500e3, 42)
        assert cache.lookup(500e3 + 800.0) == 42
        assert cache.lookup(500e3 + 1500.0) is None

    def test_drift_is_tracked(self):
        """Refreshing the stored CFO follows a slowly drifting oscillator."""
        cache = IdentityCache(tolerance_hz=1000.0)
        cache.store(500e3, 7)
        cache.store(500e3 + 900.0, 7)  # sighting refreshed the fingerprint
        assert cache.lookup(500e3 + 1700.0) == 7
        assert len(cache) == 1

    def test_nearest_entry_wins(self):
        cache = IdentityCache(tolerance_hz=5000.0)
        cache.store(500e3, 1)
        cache.store(504e3, 2)
        assert cache.lookup(503.5e3) == 2

    def test_max_entries_evicts_least_recently_seen(self):
        cache = IdentityCache(tolerance_hz=1000.0, max_entries=2)
        cache.store(100e3, 1, now_s=10.0)
        cache.store(200e3, 2, now_s=20.0)
        cache.store(300e3, 3, now_s=30.0)
        assert len(cache) == 2
        assert cache.lookup(100e3) is None  # oldest went
        assert cache.lookup(200e3) == 2
        assert cache.lookup(300e3) == 3

    def test_refresh_protects_from_eviction(self):
        cache = IdentityCache(tolerance_hz=1000.0, max_entries=2)
        cache.store(100e3, 1, now_s=10.0)
        cache.store(200e3, 2, now_s=20.0)
        cache.store(100e3, 1, now_s=25.0)  # sighting refreshes last-seen
        cache.store(300e3, 3, now_s=30.0)
        assert cache.lookup(100e3) == 1
        assert cache.lookup(200e3) is None

    def test_aging_prunes_and_lookup_never_returns_stale(self):
        cache = IdentityCache(tolerance_hz=1000.0, max_age_s=300.0)
        cache.store(100e3, 1, now_s=0.0)
        cache.store(200e3, 2, now_s=250.0)
        assert cache.lookup(100e3, now_s=100.0) == 1
        assert cache.lookup(100e3, now_s=301.0) is None  # aged out
        assert len(cache) == 1
        assert cache.lookup(200e3, now_s=301.0) == 2
        assert cache.prune(1000.0) == 1
        assert len(cache) == 0

    def test_bisect_index_consistent_after_eviction(self):
        """Eviction must rebuild the sorted CFO index, not leave a stale
        entry for binary search to find."""
        cache = IdentityCache(tolerance_hz=5000.0)
        cache.store(500e3, 1)
        cache.store(504e3, 2)
        assert cache.lookup(504e3) == 2  # index built
        assert cache.evict(2)
        assert not cache.evict(2)
        assert cache.lookup(504e3) == 1  # nearest survivor, not the ghost
        assert cache.last_seen_s(2) is None

    def test_lookup_exclusion_falls_back_to_next_nearest(self):
        cache = IdentityCache(tolerance_hz=5000.0)
        cache.store(500e3, 1)
        cache.store(503e3, 2)
        assert cache.lookup(500.2e3) == 1
        assert cache.lookup(500.2e3, exclude={1}) == 2
        assert cache.lookup(500.2e3, exclude={1, 2}) is None

    def test_demoted_spike_rematches_second_nearest_account(self):
        """A spike that loses the nearest account to a closer rival must
        try the next account within tolerance, not fall to a re-decode."""
        from repro.core.network import resolve_cached_ids

        cache = IdentityCache(tolerance_hz=3000.0)
        cache.store(500.0e3, 1)
        cache.store(503.0e3, 2)
        ids, unknown = resolve_cached_ids(cache, [500.1e3, 500.2e3])
        assert ids == {500.1e3: 1, 500.2e3: 2}
        assert unknown == []

    def test_store_without_time_still_works(self):
        cache = IdentityCache(tolerance_hz=1000.0, max_entries=1)
        cache.store(100e3, 1)
        cache.store(200e3, 2)
        assert len(cache) == 1
        assert cache.lookup(200e3) == 2


class _ScanningCache(IdentityCache):
    """Reference: every age check scans and sorts the whole last-seen
    table, as the cache did before it kept a floor on its times."""

    def prune_ids(self, now_s):
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


class TestIdentityCacheAgeFloor:
    """The cache skips its age scan while its last-seen floor is fresh;
    every result and the whole cache state must match the scanning form
    over random store / refresh / evict / prune / lookup sequences."""

    @staticmethod
    def _state(cache):
        return (
            dict(cache._cfos_by_id),
            dict(cache._last_seen_s),
            cache.ids(),
            len(cache),
        )

    @pytest.mark.parametrize("max_entries", [None, 12])
    def test_matches_scanning_form(self, max_entries):
        rng = np.random.default_rng(71 if max_entries is None else 72)
        aged = skipped = 0
        for trial in range(30):
            max_age_s = (None, 5.0, 60.0)[int(rng.integers(0, 3))] if trial % 5 else None
            kwargs = dict(tolerance_hz=2000.0, max_entries=max_entries, max_age_s=max_age_s)
            cache, reference = IdentityCache(**kwargs), _ScanningCache(**kwargs)
            now_s = 0.0
            for _ in range(300):
                now_s += float(rng.choice([0.0, rng.exponential(1.0), rng.exponential(40.0)]))
                op = int(rng.integers(0, 6))
                tag_id = int(rng.integers(0, 30))
                cfo = float(rng.uniform(0.0, 100e3))
                if op == 0:  # store
                    result = (cache.store(cfo, tag_id, now_s), reference.store(cfo, tag_id, now_s))
                elif op == 1:  # refresh an entry, possibly with an older time
                    seen_s = now_s - float(rng.choice([0.0, 10.0, 100.0]))
                    result = (
                        cache.store(cfo, tag_id, now_s=seen_s),
                        reference.store(cfo, tag_id, now_s=seen_s),
                    )
                elif op == 2:
                    result = (cache.evict(tag_id), reference.evict(tag_id))
                elif op == 3:
                    result = (cache.prune_ids(now_s), reference.prune_ids(now_s))
                    aged += bool(result[1])
                    skipped += max_age_s is not None and not result[1]
                else:
                    result = (
                        cache.lookup(cfo, now_s=now_s),
                        reference.lookup(cfo, now_s=now_s),
                    )
                assert result[0] == result[1]
                assert self._state(cache) == self._state(reference)
                assert all(cache._seen_floor_s <= seen for seen in cache._last_seen_s.values())
        assert aged > 20 and skipped > 100


class TestCorridorScene:
    def test_shapes(self):
        scene = corridor_scene(
            pole_xs_m=[0.0, 20.0],
            lane_ys_m=list(LANES),
            cars=[(2.0, 0), (9.0, 1)],
            rng=1,
        )
        assert len(scene.arrays) == 2
        assert len(scene.tags) == 2
        for tag in scene.tags:
            assert scene.road.contains(tag.position_m[:2])

    def test_invalid_lane_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            corridor_scene(
                pole_xs_m=[0.0], lane_ys_m=[-2.0], cars=[(0.0, 3)]
            )

    def test_empty_corridor(self):
        scene = corridor_scene(
            pole_xs_m=[0.0], lane_ys_m=list(LANES), cars=[]
        )
        assert scene.tags == []


class TestLaneProjectionLocalizer:
    def test_single_reader_fix_accuracy(self):
        """One pole + known lanes pins every car to ~decimeters."""
        cars = [(-8.0, 0), (0.0, 0), (6.0, 1), (12.0, 0)]
        scene, reader, localizer, sim = build_corridor(cars, seed=17)
        estimator = reader.estimator
        collision = sim.query(0.0)
        for tag in scene.tags:
            aoas = estimator.estimate_all(collision)
            estimate = min(
                aoas,
                key=lambda a: abs(
                    a.cfo_hz - (tag.oscillator.carrier_hz - scene.lo_hz)
                ),
            )
            fix = localizer.locate(estimate, estimator)
            assert np.linalg.norm(fix - tag.position_m[:2]) < 1.0

    def test_hint_breaks_ties(self):
        cars = [(-8.0, 0)]
        scene, reader, localizer, sim = build_corridor(cars, seed=18)
        estimator = reader.estimator
        collision = sim.query(0.0)
        estimate = estimator.estimate_all(collision)[0]
        truth = scene.tags[0].position_m[:2]
        fix = localizer.locate(estimate, estimator, hint_xy=truth)
        assert np.linalg.norm(fix - truth) < 0.5

    def test_near_endfire_phase_wrap_not_rejected(self):
        """A baseline whose true phase sits next to +-pi can measure on
        the other side of the wrap; the ghost gate must treat that as a
        tiny error, not ~2 pi."""
        import numpy as np

        from repro.core.localization import (
            AoAEstimate,
            LaneProjectionLocalizer,
            aoa_from_phase,
            phase_from_aoa,
        )
        from repro.channel.geometry import RoadSegment

        cars = [(0.0, 0)]
        _, reader, _, _ = build_corridor(cars, seed=21)
        estimator = reader.estimator
        pairs = estimator.array.pairs()
        road = RoadSegment(x_min_m=-10.0, x_max_m=200.0, y_center_m=-1.75, width_m=3.5)
        localizer = LaneProjectionLocalizer(road=road, lane_ys_m=(-1.75,))
        truth = np.array([120.0, -1.75, 1.0])
        alphas = []
        for pair in pairs:
            phase = phase_from_aoa(pair.true_spatial_angle_rad(truth), pair.spacing_m)
            # Nudge the near-end-fire baseline across the +-pi boundary.
            if abs(abs(phase) - np.pi) < 0.2:
                phase = -np.sign(phase) * (2.0 * np.pi - abs(phase) - 0.01)
            alphas.append(aoa_from_phase(phase, pair.spacing_m))
        best = int(np.argmin([abs(a - np.pi / 2.0) for a in alphas]))
        estimate = AoAEstimate(cfo_hz=500e3, alphas_rad=tuple(alphas), best_pair_index=best)
        fix = localizer.locate(estimate, estimator)
        assert np.linalg.norm(fix - truth[:2]) < 5.0

    def test_cone_missing_road_raises(self):
        from repro.core.localization import AoAEstimate
        from repro.errors import GeometryError

        cars = [(0.0, 0)]
        _, reader, localizer, _ = build_corridor(cars, seed=19)
        # An end-fire measurement points along the road axis, far outside
        # any lane segment near the pole.
        fake = AoAEstimate(cfo_hz=500e3, alphas_rad=(0.01, 0.01, 0.01), best_pair_index=0)
        with pytest.raises(GeometryError):
            localizer.locate(fake, reader.estimator)
