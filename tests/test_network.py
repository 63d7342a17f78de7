"""Unit tests for repro.core.network (multi-reader batch processing)."""

import numpy as np
import pytest

from repro.apps import CarFinder, ParkingBillingService
from repro.core.localization import LaneProjectionLocalizer
from repro.core.network import (
    HINT_HORIZON_S,
    IdentityCache,
    ReaderNetwork,
    ReaderStation,
    StationReport,
)
from repro.sim.scenario import corridor_scene

LANES = (-1.75, -5.25)


def build_corridor(car_positions, pole_xs=(0.0,), seed=11):
    """A corridor scene plus one ready-made station per pole."""
    scene = corridor_scene(
        pole_xs_m=list(pole_xs),
        lane_ys_m=list(LANES),
        cars=car_positions,
        rng=seed,
    )
    stations = []
    for index, x in enumerate(pole_xs):
        sim = scene.simulator(index, rng=100 + seed + index)
        stations.append(
            ReaderStation(
                name=f"pole-{index}",
                reader=scene.reader(index),
                query_fn=sim.query,
                localizer=LaneProjectionLocalizer(road=scene.road, lane_ys_m=LANES),
            )
        )
    return scene, stations


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


class TestReaderNetwork:
    def test_step_identifies_and_localizes(self):
        cars = [(-6.0, 0), (5.0, 1)]
        scene, stations = build_corridor(cars, seed=21)
        network = ReaderNetwork()
        network.add_station(stations[0])
        finder = network.subscribe(CarFinder())

        reports = network.step(0.0)
        assert len(reports) == 1
        report = reports[0]
        assert isinstance(report, StationReport)
        assert report.n_tags == len(cars)

        truth_ids = {tag.packet.tag_id for tag in scene.tags}
        seen_ids = {obs.tag_id for obs in report.observations}
        assert seen_ids == truth_ids
        by_id = {tag.packet.tag_id: tag for tag in scene.tags}
        for obs in report.observations:
            truth_xy = by_id[obs.tag_id].position_m[:2]
            assert np.linalg.norm(obs.position_m - truth_xy) < 1.0
        assert set(finder.known_tags()) == truth_ids

    def test_identity_cache_skips_redecode(self):
        cars = [(-4.0, 0), (4.0, 1)]
        _, stations = build_corridor(cars, seed=12)
        network = ReaderNetwork()
        station = network.add_station(stations[0])

        first = network.step(0.0)[0]
        assert first.decode_results  # fresh ids had to be decoded
        assert len(station.identities) == len(cars)

        second = network.step(60.0)[0]
        assert second.decode_results == {}  # cache hit: no decode air time
        assert {o.tag_id for o in second.observations} == {
            o.tag_id for o in first.observations
        }

    def test_cached_id_claimed_by_at_most_one_spike_per_round(self):
        """Two simultaneous spikes must never resolve to the same cached
        account: the nearer one keeps it, the other gets decoded."""
        cars = [(-6.0, 0), (5.0, 1)]
        scene, stations = build_corridor(cars, seed=21)
        station = stations[0]
        cfos = sorted(
            tag.oscillator.carrier_hz - scene.lo_hz for tag in scene.tags
        )
        # Poison the cache: one stale account whose tolerance swallows
        # BOTH of this round's spikes.
        station.identities.tolerance_hz = 1e6
        station.identities.store(cfos[0] + 1e3, 999)
        network = ReaderNetwork()
        network.add_station(station)
        report = network.step(0.0)[0]
        seen = {obs.tag_id for obs in report.observations}
        assert len(seen) == 2  # never both mapped onto account 999
        # The far spike was decoded to its true account.
        truth_far = next(
            tag.packet.tag_id
            for tag in scene.tags
            if abs(tag.oscillator.carrier_hz - scene.lo_hz - cfos[1]) < 1.0
        )
        assert truth_far in seen

    def test_fanout_reaches_every_service(self):
        cars = [(3.0, 0)]
        scene, stations = build_corridor(cars, seed=13)
        network = ReaderNetwork()
        network.add_station(stations[0])
        finder = network.subscribe(CarFinder())
        x, y = scene.tags[0].position_m[:2]
        parking = network.subscribe(
            ParkingBillingService(spot_positions_m={5: np.array([x, y])})
        )
        network.step(0.0)
        tag_id = scene.tags[0].packet.tag_id
        assert finder.known_tags() == [tag_id]
        assert parking.occupancy() == {5: [tag_id]}

    def test_decode_disabled_reports_counts_only(self):
        cars = [(-5.0, 0), (6.0, 1)]
        _, stations = build_corridor(cars, seed=14)
        network = ReaderNetwork(decode=False)
        network.add_station(stations[0])
        report = network.step(0.0)[0]
        assert report.n_tags == len(cars)
        assert report.decode_results == {}
        assert report.observations == []  # no ids -> nothing dispatched

    def test_station_without_localizer_emits_no_observations(self):
        cars = [(4.0, 0)]
        _, stations = build_corridor(cars, seed=15)
        stations[0].localizer = None
        network = ReaderNetwork()
        network.add_station(stations[0])
        report = network.step(0.0)[0]
        assert report.observations == []
        assert len(stations[0].identities) == 1  # ids still cached

    def test_stale_fix_hints_expire_and_are_pruned(self):
        cars = [(-6.0, 0), (5.0, 1)]
        _, stations = build_corridor(cars, seed=21)
        station = stations[0]
        network = ReaderNetwork()
        network.add_station(station)
        network.step(0.0)
        assert len(station._last_fixes) == 2
        assert station.recall_fix(next(iter(station._last_fixes)), 1.0) is not None
        # Past the horizon the hint is neither used nor retained.
        tag_id = next(iter(station._last_fixes))
        assert station.recall_fix(tag_id, HINT_HORIZON_S + 10.0) is None
        network.step(HINT_HORIZON_S + 100.0)
        alive = {seen for _, (_, seen) in station._last_fixes.items()}
        assert alive == {HINT_HORIZON_S + 100.0}  # only fresh fixes kept

    def test_multi_station_round(self):
        cars = [(-6.0, 0), (18.0, 1)]
        scene, stations = build_corridor(cars, pole_xs=(0.0, 14.0), seed=16)
        network = ReaderNetwork()
        for station in stations:
            network.add_station(station)
        finder = network.subscribe(CarFinder())
        reports = network.run([0.0, 1.0])
        assert len(reports) == 4  # 2 stations x 2 rounds
        assert {r.station for r in reports} == {"pole-0", "pole-1"}
        truth_ids = {tag.packet.tag_id for tag in scene.tags}
        assert set(finder.known_tags()) == truth_ids


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
        scene, stations = build_corridor(cars, seed=17)
        station = stations[0]
        estimator = station.reader.estimator
        localizer = station.localizer
        collision = station.query_fn(0.0)
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
        scene, stations = build_corridor(cars, seed=18)
        station = stations[0]
        estimator = station.reader.estimator
        collision = station.query_fn(0.0)
        estimate = estimator.estimate_all(collision)[0]
        truth = scene.tags[0].position_m[:2]
        fix = station.localizer.locate(estimate, estimator, hint_xy=truth)
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
        _, stations = build_corridor(cars, seed=21)
        station = stations[0]
        estimator = station.reader.estimator
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
        _, stations = build_corridor(cars, seed=19)
        station = stations[0]
        # An end-fire measurement points along the road axis, far outside
        # any lane segment near the pole.
        fake = AoAEstimate(cfo_hz=500e3, alphas_rad=(0.01, 0.01, 0.01), best_pair_index=0)
        with pytest.raises(GeometryError):
            station.localizer.locate(fake, station.reader.estimator)
