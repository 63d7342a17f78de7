"""Unit tests for repro.sim.city (the discrete-event corridor engine)."""

import math

import numpy as np
import pytest

from repro.apps import CarFinder, ParkingBillingService
from repro.channel.geometry import RoadSegment
from repro.constants import (
    QUERY_DURATION_S,
    QUERY_PERIOD_S,
    READER_RANGE_M,
    TURNAROUND_S,
)
from repro.errors import ConfigurationError, SimulationError
from repro.sim.city import (
    CityCorridor,
    HandoffLedger,
    MovingTag,
    StationCell,
    carve_cells,
)
from repro.sim.city.corridor import HARVEST_LOOKBACK_S
from repro.sim.city.handoff import DECODE, OWN_HIT
from repro.sim.city.moving import in_range_mask, positions_at
from repro.sim.medium import AirLog
from repro.sim.mobility import ConstantSpeedTrajectory
from repro.sim.scenario import city_corridor_scene, corridor_scene

LANES = (-1.75, -5.25)


class Collector:
    """A service keeping every observation a corridor fans out to it
    (the corridor itself keeps none)."""

    def __init__(self):
        self.observations = []

    def observe(self, observation):
        self.observations.append(observation)


class History:
    """A corridor run's whole history, which the corridor itself does
    not keep: every transmission its air log records (replayed into an
    unsettled :class:`AirLog`, whose sweep then covers the run), every
    window its pool publishes and every window a station harvests
    (``(station, origin, start_s, end_s)``), collected by wrapping the
    corridor's ``air.record``, ``pool.publish`` and ``pool.harvest``."""

    def __init__(self, corridor):
        self.air = AirLog()
        self.windows = []
        self.harvested = []
        record, publish, harvest = (
            corridor.air.record, corridor.pool.publish, corridor.pool.harvest
        )

        def record_copy(tx):
            self.air.record(record(tx))
            return tx

        def publish_copy(window):
            self.windows.append(publish(window))
            return window

        def harvest_copy(station, *args, **kwargs):
            out = harvest(station, *args, **kwargs)
            self.harvested.extend(
                (station, w.origin, w.start_s, w.end_s) for w, _ in out
            )
            return out

        corridor.air.record = record_copy
        corridor.pool.publish = publish_copy
        corridor.pool.harvest = harvest_copy

    def bursts(self):
        """``(station, start_s, end_s)`` of every decode-burst capture."""
        return [
            (r.triggered_by, r.start_s, r.end_s)
            for r in self.air.responses()
            if r.source.endswith("-burst")
        ]


def small_corridor(mode="event", seed=17, n_poles=3, n_cars=5, **kwargs):
    """A compact corridor that still exercises handoff across cells."""
    scene, trajectories = city_corridor_scene(
        n_poles=n_poles,
        pole_spacing_m=35.0,
        n_cars=n_cars,
        speed_range_m_s=(10.0, 16.0),
        entry_window_s=1.5,
        rng=seed,
    )
    kwargs.setdefault("max_queries", 16)
    return CityCorridor.build(
        scene,
        trajectories,
        lane_ys_m=LANES,
        rng=seed,
        scheduling=mode,
        **kwargs,
    )


class TestStationCell:
    def road(self):
        return RoadSegment(x_min_m=-20.0, x_max_m=100.0, y_center_m=-3.5, width_m=7.0)

    def test_carve_partitions_road(self):
        road = self.road()
        cells = carve_cells([0.0, 40.0, 80.0], road, LANES)
        assert len(cells) == 3
        assert cells[0].x_min_m == road.x_min_m
        assert cells[-1].x_max_m == road.x_max_m
        # Abutting, no gaps, no overlaps.
        for left, right in zip(cells, cells[1:]):
            assert left.x_max_m == right.x_min_m
        # Every road x belongs to exactly one cell.
        for x in np.linspace(road.x_min_m, road.x_max_m - 1e-9, 50):
            assert sum(c.contains_x(x) for c in cells) == 1

    def test_boundaries_are_pole_midpoints(self):
        cells = carve_cells([0.0, 40.0], self.road(), LANES)
        assert cells[0].x_max_m == pytest.approx(20.0)

    def test_localizer_confined_to_segment(self):
        cells = carve_cells([0.0, 40.0], self.road(), LANES)
        localizer = cells[0].localizer()
        assert localizer.road.x_min_m == cells[0].x_min_m
        assert localizer.road.x_max_m == cells[0].x_max_m
        assert localizer.lane_ys_m == LANES

    def test_degenerate_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            StationCell(
                name="bad", x_min_m=5.0, x_max_m=5.0, road=self.road(), lane_ys_m=LANES
            )

    def test_unsorted_poles_rejected(self):
        with pytest.raises(ConfigurationError):
            carve_cells([40.0, 0.0], self.road(), LANES)


class TestHandoffLedger:
    def test_decode_then_handoff_then_own(self):
        ledger = HandoffLedger()
        ledger.record_decode("pole-0", 7, 1.0, 500e3, n_queries=4)
        ledger.record_handoff("pole-1", "pole-0", 7, 2.0, 500e3)
        ledger.record_own_hit("pole-1", 7, 3.0, 500e3)
        counts = ledger.counts()
        assert counts == {"decode": 1, "handoff": 1, "own": 1}
        assert ledger.downstream_sightings == 1
        assert ledger.handoff_resolution_rate == 1.0

    def test_redecode_classified(self):
        """A decode of an id another pole already knows is a re-decode —
        the waste handoff exists to avoid."""
        ledger = HandoffLedger()
        ledger.record_decode("pole-0", 7, 1.0, 500e3, n_queries=4)
        ledger.record_decode("pole-1", 7, 2.0, 500e3, n_queries=8)
        assert ledger.redecodes == 1
        assert ledger.decodes == 1
        assert ledger.handoff_resolution_rate == 0.0
        assert ledger.decode_queries_spent() == 12

    def test_same_station_decode_is_not_redecode(self):
        ledger = HandoffLedger()
        ledger.record_decode("pole-0", 7, 1.0, 500e3)
        ledger.record_decode("pole-0", 7, 5.0, 500e3)
        assert ledger.redecodes == 0

    def test_summary_shape(self):
        ledger = HandoffLedger()
        ledger.record_cell_entry(0.0, "cell-0", 7)
        ledger.record_decode_failure("pole-0", 1.0, 400e3, n_queries=16)
        ledger.record_decode_deferred("pole-0", 1.0, 300e3)
        summary = ledger.summary()
        assert summary["cell_entries"] == 1
        assert summary["counts"]["decode-failed"] == 1
        assert summary["counts"]["decode-deferred"] == 1
        assert summary["tags_identified"] == 0


def reference_in_range(tag, pole_m, t_s, range_m=READER_RANGE_M):
    """The per-tag range check the array gate replaced."""
    return float(np.linalg.norm(tag.position(t_s) - pole_m)) <= range_m


def random_tags(scene, rng, n):
    """``n`` tags on random straight trajectories through the street."""
    return [
        MovingTag(
            scene.tags[0],
            ConstantSpeedTrajectory(
                start_m=np.array(
                    [rng.uniform(-150.0, 50.0), rng.uniform(-7.0, 0.0), rng.uniform(0.5, 1.6)]
                ),
                velocity_m_s=np.array([rng.uniform(0.0, 20.0), 0.0, 0.0]),
                t0_s=float(rng.uniform(0.0, 5.0)),
            ),
        )
        for _ in range(n)
    ]


class TestMovingTag:
    def trajectory(self):
        return ConstantSpeedTrajectory(
            start_m=np.array([-10.0, -1.75, 1.0]),
            velocity_m_s=np.array([10.0, 0.0, 0.0]),
            t0_s=2.0,
        )

    def test_time_at_x(self):
        scene, trajectories = city_corridor_scene(n_poles=2, n_cars=1, rng=1)
        tag = MovingTag(scene.tags[0], self.trajectory())
        assert tag.time_at_x(0.0) == pytest.approx(3.0)
        assert tag.time_at_x(-10.0) == pytest.approx(2.0)

    def test_in_range_gating(self):
        scene, _ = city_corridor_scene(n_poles=2, n_cars=1, rng=1)
        tag = MovingTag(scene.tags[0], self.trajectory())
        pole = np.array([0.0, 1.0, 4.0])
        assert tag.in_range(pole, 3.0)
        assert not tag.in_range(pole, 30.0)  # 280 m downstream by then

    def test_positions_at_equal_per_tag_positions(self):
        scene, _ = city_corridor_scene(n_poles=2, n_cars=1, rng=1)
        rng = np.random.default_rng(3)
        tags = random_tags(scene, rng, 50)
        for t_s in rng.uniform(0.0, 10.0, 20):
            expected = np.array([tag.position(t_s) for tag in tags])
            assert np.array_equal(positions_at(tags, t_s), expected)
        assert positions_at([], 1.0).shape == (0, 3)

    def test_range_gate_equals_per_tag_check(self):
        """One gate over a window's responders gives every tag the
        verdict the per-tag check gave, in order."""
        scene, _ = city_corridor_scene(n_poles=2, n_cars=1, rng=1)
        rng = np.random.default_rng(11)
        tags = random_tags(scene, rng, 300)
        verdicts = set()
        for _ in range(80):
            chosen = [tags[i] for i in rng.choice(300, int(rng.integers(0, 40)), replace=False)]
            pole = np.array([rng.uniform(-20.0, 20.0), 1.0, rng.uniform(3.0, 6.0)])
            t_s = float(rng.uniform(0.0, 10.0))
            range_m = float(rng.choice([READER_RANGE_M, rng.uniform(5.0, 60.0)]))
            expected = [reference_in_range(tag, pole, t_s, range_m) for tag in chosen]
            mask = in_range_mask(chosen, pole, t_s, range_m)
            assert mask.dtype == bool and mask.tolist() == expected
            assert [tag.in_range(pole, t_s, range_m) for tag in chosen] == expected
            verdicts.update(expected)
        assert verdicts == {True, False}

    def test_tag_exactly_at_range_is_in_range(self):
        scene, _ = city_corridor_scene(n_poles=2, n_cars=1, rng=1)
        pole = np.array([0.0, 1.0, 4.0])
        # At t = 2 s the tag sits at pole + (30, 40, 0): 50 m exactly.
        tag = MovingTag(
            scene.tags[0],
            ConstantSpeedTrajectory(
                start_m=np.array([10.0, 41.0, 4.0]),
                velocity_m_s=np.array([10.0, 0.0, 0.0]),
            ),
        )
        others = random_tags(scene, np.random.default_rng(5), 4)
        for range_m, inside in ((50.0, True), (float(np.nextafter(50.0, 0.0)), False)):
            assert reference_in_range(tag, pole, 2.0, range_m) is inside
            assert tag.in_range(pole, 2.0, range_m) is inside
            assert in_range_mask(others + [tag], pole, 2.0, range_m)[-1] == inside
        # Any tag, with the range set to its own per-tag distance: the
        # gate's distance must round exactly as the per-tag norm does.
        for tag in random_tags(scene, np.random.default_rng(6), 200):
            d_m = float(np.linalg.norm(tag.position(2.0) - pole))
            below_m = float(np.nextafter(d_m, 0.0))
            assert in_range_mask(others + [tag], pole, 2.0, d_m)[-1]
            assert not in_range_mask(others + [tag], pole, 2.0, below_m)[-1]


class TestRangeGateInTheCorridor:
    def test_tags_near_gates_the_roster_like_per_tag_checks(self):
        corridor = small_corridor(n_cars=8)
        corridor.run(2.0)
        heard = 0
        for station in corridor.stations:
            index = corridor._cell_index[station.cell.name]
            roster = sorted(
                set().union(*(corridor._roster[j] for j in corridor._audible_cells[index]))
            )
            for t_s in np.linspace(1.6, 2.4, 9):
                response_t = t_s + QUERY_DURATION_S + TURNAROUND_S
                expected = [
                    corridor.tags[i]
                    for i in roster
                    if reference_in_range(corridor.tags[i], station.pole_position_m, response_t)
                ]
                assert corridor._tags_near(station, t_s) == expected
                heard += len(expected)
        assert heard > 0


#: Cadence of the parked-car corridor: one lock-step round per pole.
ROUND_S = 60.0


def parked_corridor(cars, pole_xs=(0.0,), seed=21):
    """Parked cars on a lock-step corridor: ``cars`` are ``(x, lane
    index)`` pairs on zero-velocity trajectories, and every pole takes
    one round per :data:`ROUND_S`. Run ``n`` rounds with
    ``corridor.run((n - 0.5) * ROUND_S)``."""
    scene = corridor_scene(
        pole_xs_m=list(pole_xs), lane_ys_m=list(LANES), cars=cars, rng=seed
    )
    parked = [
        ConstantSpeedTrajectory(start_m=tag.position_m, velocity_m_s=np.zeros(3))
        for tag in scene.tags
    ]
    corridor = CityCorridor.build(
        scene, parked, LANES, rng=seed, scheduling="rounds", query_interval_s=ROUND_S
    )
    return scene, corridor


class TestParkedCarRounds:
    """The §12.5 reader network as a rounds corridor of parked cars:
    count, resolve against the identity caches, decode what nobody
    knows, localize in the pole's cell and fan out to the services."""

    def test_round_identifies_and_localizes(self):
        scene, corridor = parked_corridor([(-6.0, 0), (5.0, 1)], seed=21)
        finder = corridor.subscribe(CarFinder())
        collected = corridor.subscribe(Collector())
        result = corridor.run(0.5 * ROUND_S)
        assert result.rounds == 1
        truth = {tag.packet.tag_id: tag for tag in scene.tags}
        assert result.identified == len(truth)
        assert {obs.tag_id for obs in collected.observations} == set(truth)
        for obs in collected.observations:
            truth_xy = truth[obs.tag_id].position_m[:2]
            assert np.linalg.norm(obs.position_m - truth_xy) < 1.0
        assert set(finder.known_tags()) == set(truth)

    def test_identity_cache_skips_redecode(self):
        cars = [(-4.0, 0), (4.0, 1)]
        _, corridor = parked_corridor(cars, seed=12)
        collected = corridor.subscribe(Collector())
        corridor.run(1.5 * ROUND_S)
        station = corridor.stations[0]
        assert len(station.identities) == len(cars)
        records = corridor.ledger.records
        # Resolved sightings only: a low-SNR phantom spike is deferred,
        # not decoded, and names no account.
        first = [r for r in records if r.t_s < ROUND_S and r.tag_id is not None]
        second = [r for r in records if r.t_s >= ROUND_S]
        assert [r.kind for r in first] == [DECODE] * len(cars)
        # Cache hits: no decode air time in the second round.
        assert [r.kind for r in second] == [OWN_HIT] * len(cars)
        assert sum(r.n_queries for r in second) == 0
        assert {r.tag_id for r in second} == {r.tag_id for r in first}
        seen = {obs.tag_id for obs in collected.observations if obs.timestamp_s >= ROUND_S}
        assert seen == {r.tag_id for r in first}

    def test_cached_id_claimed_by_at_most_one_spike_per_round(self):
        """Two simultaneous spikes must never resolve to the same cached
        account: the nearer one keeps it, the other gets decoded."""
        scene, corridor = parked_corridor([(-6.0, 0), (5.0, 1)], seed=21)
        cfos = sorted(tag.oscillator.carrier_hz - scene.lo_hz for tag in scene.tags)
        # Poison the cache: one stale account whose tolerance swallows
        # BOTH of this round's spikes.
        identities = corridor.stations[0].identities
        identities.tolerance_hz = 1e6
        identities.store(cfos[0] + 1e3, 999)
        collected = corridor.subscribe(Collector())
        corridor.run(0.5 * ROUND_S)
        seen = {obs.tag_id for obs in collected.observations}
        assert len(seen) == 2  # never both mapped onto account 999
        # The far spike was decoded to its true account.
        truth_far = next(
            tag.packet.tag_id
            for tag in scene.tags
            if abs(tag.oscillator.carrier_hz - scene.lo_hz - cfos[1]) < 1.0
        )
        assert truth_far in seen

    def test_fanout_reaches_every_service(self):
        scene, corridor = parked_corridor([(3.0, 0)], seed=13)
        finder = corridor.subscribe(CarFinder())
        x, y = scene.tags[0].position_m[:2]
        parking = corridor.subscribe(
            ParkingBillingService(spot_positions_m={5: np.array([x, y])})
        )
        corridor.run(0.5 * ROUND_S)
        tag_id = scene.tags[0].packet.tag_id
        assert finder.known_tags() == [tag_id]
        assert parking.occupancy() == {5: [tag_id]}

    def test_station_without_localizer_emits_no_observations(self):
        _, corridor = parked_corridor([(4.0, 0)], seed=15)
        station = corridor.stations[0]
        station.localizer = None
        finder = corridor.subscribe(CarFinder())
        collected = corridor.subscribe(Collector())
        result = corridor.run(0.5 * ROUND_S)
        assert collected.observations == [] and result.n_observations == 0
        assert finder.known_tags() == []
        assert len(station.identities) == 1  # ids still cached

    def test_multi_station_round(self):
        scene, corridor = parked_corridor(
            [(-6.0, 0), (18.0, 1)], pole_xs=(0.0, 14.0), seed=16
        )
        finder = corridor.subscribe(CarFinder())
        collected = corridor.subscribe(Collector())
        result = corridor.run(0.5 * ROUND_S)
        assert result.rounds == 2  # 2 stations x 1 round
        # Each car is fixed by the pole whose cell holds it.
        assert {obs.station for obs in collected.observations} == {"pole-0", "pole-1"}
        truth_ids = {tag.packet.tag_id for tag in scene.tags}
        assert set(finder.known_tags()) == truth_ids


def tight_corridor(seed=17, **kwargs):
    """Three poles 10 m apart under a steady car stream: a car leaving
    the far end is still audible at the other poles, so their harvests
    reach windows that list it after it has left."""
    scene, trajectories = city_corridor_scene(
        n_poles=3,
        pole_spacing_m=10.0,
        n_cars=12,
        speed_range_m_s=(10.0, 16.0),
        entry_window_s=3.0,
        rng=seed,
    )
    return CityCorridor.build(
        scene, trajectories, lane_ys_m=LANES, rng=seed, max_queries=16, **kwargs
    )


class TestSettledHistory:
    """The corridor settles its history at the event clock and keeps
    only what a later event can still read."""

    def test_a_departed_cars_row_outlives_the_harvest_horizon(self):
        """A harvest reaching a window that lists a car which has since
        left the corridor synthesizes from the row the bank still holds,
        bit for bit as a bank that never evicts. Every window listing a
        departed car ends within the pool's slack of its exit, and the
        row is gone once that bound is past the harvest lookback."""
        reference = tight_corridor(seed=14)
        for station in reference.stations:
            station.source.bank.evict = lambda tag_id: None
        kept = reference.run(4.0)

        corridor = tight_corridor(seed=14)
        history = History(corridor)
        bank = corridor.stations[0].source.bank
        last = len(corridor.stations) - 1
        exits, late, rows = {}, [], []
        apply, harvest, settle = (
            corridor._apply_transition, corridor.pool.harvest, corridor._settle
        )

        def spy_transition(t_s, kind, tag_index, cell_index):
            apply(t_s, kind, tag_index, cell_index)
            if kind == "exit" and cell_index == last:
                exits[corridor.tags[tag_index].tag_id] = t_s

        def spy_harvest(station, pole_m, lo_s, hi_s, *args):
            out = harvest(station, pole_m, lo_s, hi_s, *args)
            late.extend(
                tag.tag_id
                for _, audible in out
                for tag, _ in audible
                if exits.get(tag.tag_id, hi_s) < hi_s
            )
            return out

        def spy_settle(now_s):
            settle(now_s)
            rows.append((now_s, set(bank._rows)))

        corridor._apply_transition = spy_transition
        corridor.pool.harvest = spy_harvest
        corridor._settle = spy_settle
        settled = corridor.run(4.0)

        assert late, "no harvest reached a departed car's window"
        assert settled.summary() == kept.summary()
        assert settled.ledger.records == kept.ledger.records
        last_end = {}
        for window in history.windows:
            for tag in window.tags:
                last_end[tag.tag_id] = max(last_end.get(tag.tag_id, 0.0), window.end_s)
        # A decode burst under way at the far pole as a car exits lists
        # it in windows ending well after the exit.
        assert max(last_end.get(t, -math.inf) - exits[t] for t in exits) > QUERY_PERIOD_S
        evicted_in_run = set()
        for tag_id, exit_s in exits.items():
            # A harvest reaches a window listing the car until the window
            # is a harvest lookback old; the row is held until a bound on
            # that, the exit plus the burst span plus the lookback.
            reachable_s = last_end.get(tag_id, -math.inf) + HARVEST_LOOKBACK_S
            release_s = exit_s + corridor.pool.slack_s + HARVEST_LOOKBACK_S
            assert reachable_s <= release_s
            for now_s, held in rows:
                if exit_s <= now_s < release_s and tag_id in last_end:
                    assert tag_id in held
                if now_s >= release_s:
                    assert tag_id not in held
                    if now_s < math.inf:
                        evicted_in_run.add(tag_id)
        assert evicted_in_run

    def test_harvest_verdicts_see_every_query_within_the_horizon(self):
        """A query planted on a burst capture's window right after its
        capture was synthesized is still on the log when another pole
        harvests the window, so every harvested window the whole
        history's sweep calls stepped on is judged so at harvest."""
        corridor = tight_corridor()
        history = History(corridor)
        publish = corridor.pool.publish

        def publish_then_intrude(window):
            publish(window)
            last = history.air.transmissions[-1]
            if last.source.endswith("-burst") and last.start_s == window.start_s:
                corridor.air.record_query("intruder", window.start_s + 100e-6)
            return window

        corridor.pool.publish = publish_then_intrude
        result = corridor.run(4.0)
        stepped_on = {
            (r.triggered_by, r.start_s) for r in history.air.corrupted_responses()
        }
        harvested_stepped_on = sum(
            (origin, start_s) in stepped_on
            for _, origin, start_s, _ in history.harvested
        )
        assert harvested_stepped_on > 0
        assert result.overheard_corrupted_at_harvest == harvested_stepped_on
        assert result.overheard_corrupted_posthoc == 0
        assert result.corrupted_responses == len(history.air.corrupted_responses())

    def test_the_corridor_holds_recent_traffic_only(self):
        """Through the run the air log, the pool and the banks hold only
        recent traffic; the run's end settles the log and the pool
        empty, and the result counts every record."""
        corridor = tight_corridor()
        history = History(corridor)
        held = []
        settle = corridor._settle

        def spy_settle(now_s):
            settle(now_s)
            held.append((len(corridor.air.transmissions), len(corridor.pool)))

        corridor._settle = spy_settle
        result = corridor.run(4.0)
        assert max(air for air, _ in held) < len(history.air.transmissions) / 4
        assert max(pool for _, pool in held) < len(history.windows) / 4
        assert corridor.air.transmissions == [] and len(corridor.pool) == 0
        assert result.responses == len(history.air.responses())
        assert result.overheard_windows == len(history.windows)
        with pytest.raises(SimulationError):
            corridor.air.record_query("late", 4.0)

    def test_held_history_gauges(self):
        from repro.obs import Obs

        obs = Obs()
        corridor = tight_corridor(obs=obs)
        corridor.run(2.0)
        gauges = obs.metrics.snapshot()["gauges"]
        assert set(gauges) == {
            "air.held{kind=query}",
            "air.held{kind=response}",
            "bank.rows",
            "pool.held",
        }
        assert 0 < gauges["air.held{kind=query}"] < corridor.air.settled_responses
        assert gauges["pool.held"] > 0 and gauges["bank.rows"] > 0


@pytest.mark.slow
class TestCityCorridorRun:
    def test_event_run_identifies_localizes_and_hands_off(self):
        corridor = small_corridor(seed=17)
        collected = corridor.subscribe(Collector())
        result = corridor.run(6.0)
        summary = result.summary()
        # Every car that showed a spike got identified.
        assert result.tags_seen == 5
        assert result.identified == 5
        # CSMA keeps the §9 guarantee on the shared street.
        assert result.corrupted_responses == 0
        # Cars crossed cell boundaries and were resolved by forwarded
        # cache entries, not re-decodes.
        assert result.ledger.downstream_sightings > 0
        assert result.ledger.handoff_resolution_rate > 0.5
        assert summary["handoff"]["cell_entries"] >= 5
        # Observations carry station/cell provenance and land inside
        # the claimed cell (up to the localizer's road margin — a fix
        # may sit just past the cell edge, footnote 10 style).
        assert collected.observations
        assert result.n_observations == len(collected.observations)
        cells = {s.cell.name: s.cell for s in corridor.stations}
        for obs in collected.observations:
            assert obs.station is not None
            cell = cells[obs.cell]
            x = float(obs.position_m[0])
            assert cell.x_min_m - 1.5 <= x <= cell.x_max_m + 1.5

    def test_fix_accuracy_against_trajectories(self):
        corridor = small_corridor(seed=17)
        collected = corridor.subscribe(Collector())
        corridor.run(6.0)
        by_id = {tag.tag_id: tag for tag in corridor.tags}
        errors = []
        for obs in collected.observations:
            truth = by_id[obs.tag_id].position(
                obs.timestamp_s + 120e-6  # fix refers to response time
            )
            errors.append(float(np.linalg.norm(obs.position_m - truth[:2])))
        assert np.median(errors) < 1.0

    @pytest.mark.parametrize("seed", [23, 41])
    @pytest.mark.parametrize("policy", ["accept", "ignore"])
    def test_deterministic_under_fixed_seed(self, seed, policy):
        """Two runs of one seed reproduce the event engine exactly —
        every ledger record in sequence and every result counter. This
        guards the scheduler/response-pool ordering under both harvest
        policies (the pool adds a second rng stream and out-of-order
        window publication, neither of which may leak nondeterminism)."""
        first = small_corridor(seed=seed, opportunistic=policy).run(4.0)
        second = small_corridor(seed=seed, opportunistic=policy).run(4.0)
        assert first.summary() == second.summary()
        assert first.ledger.records == second.ledger.records
        assert first.ledger.cell_entries == second.ledger.cell_entries
        assert first.ledger.cell_exits == second.ledger.cell_exits
        for field in (
            "queries_sent",
            "responses",
            "overheard_windows",
            "overheard_harvested",
            "overheard_donated",
            "burst_captures",
        ):
            assert getattr(first, field) == getattr(second, field), field

    def test_rounds_baseline_runs_clean(self):
        result = small_corridor(mode="rounds", seed=17).run(6.0)
        assert result.queries_sent > 0
        assert result.queries_deferred == 0  # turns are exclusive
        assert result.corrupted_responses == 0
        assert result.identified == result.tags_seen

    def test_audible_cells_cover_radio_range(self):
        """Cells narrower than the radio range must widen the roster
        window — a tag two cells away but in range still responds."""
        scene, trajectories = city_corridor_scene(
            n_poles=6, pole_spacing_m=15.0, n_cars=2, rng=3
        )
        corridor = CityCorridor.build(
            scene, trajectories, lane_ys_m=LANES, rng=3
        )
        # Interior pole: 30.48 m range over 15 m cells needs > 3 cells.
        assert len(corridor._audible_cells[3]) > 3
        for index, audible in enumerate(corridor._audible_cells):
            pole_x = float(corridor.stations[index].pole_position_m[0])
            for j, station in enumerate(corridor.stations):
                cell = station.cell
                near = (
                    cell.x_min_m < pole_x + READER_RANGE_M
                    and cell.x_max_m > pole_x - READER_RANGE_M
                )
                if near:
                    assert j in audible

    def test_single_use_guard(self):
        corridor = small_corridor(seed=17)
        corridor.run(1.0)
        with pytest.raises(ConfigurationError):
            corridor.run(1.0)

    def test_burst_corruption_accounting_exact_under_csma(self):
        """With CSMA on, bursts defer to each other: the synthesis-time
        verdict already matches the post-hoc re-check."""
        result = small_corridor(seed=17).run(6.0)
        assert result.burst_captures > 0
        assert result.burst_corrupted_posthoc == result.burst_corrupted_at_synthesis
        assert result.burst_corruption_undercount == 0
        summary = result.summary()
        assert summary["burst_captures"] == result.burst_captures
        assert summary["burst_corrupted_posthoc"] == result.burst_corrupted_posthoc

    def test_blind_bursts_undercount_fixed_posthoc(self):
        """A query recorded *after* a capture was synthesized can step on
        its response window, which the synthesis-time verdict cannot
        see. The audit reads each response's final verdict: after one
        such query is planted on a clean corridor's log, right after a
        clean burst capture is synthesized (when its window is
        published), the capture it lands on is counted, and the count
        equals the whole history's sweep over burst responses."""
        result = small_corridor(seed=17).run(6.0)
        assert result.burst_captures > 0
        assert result.burst_corrupted_posthoc == result.burst_corrupted_at_synthesis

        corridor = small_corridor(seed=17)
        history = History(corridor)
        publish = corridor.pool.publish
        planted = []

        def publish_then_intrude(window):
            publish(window)
            last = history.air.transmissions[-1]
            burst = last.source.endswith("-burst") and (
                (last.triggered_by, last.start_s) == (window.origin, window.start_s)
            )
            if burst and not window.corrupted and not planted:
                planted.append(corridor.air.record_query("intruder", last.start_s + 100e-6))
            return window

        corridor.pool.publish = publish_then_intrude
        audited = corridor.run(6.0)
        assert planted
        assert audited.burst_corrupted_posthoc > audited.burst_corrupted_at_synthesis
        stepped_on = [
            r
            for r in history.air.corrupted_responses()
            if r.source.endswith("-burst")
        ]
        assert audited.burst_corrupted_posthoc == len(stepped_on)

    def test_services_receive_provenanced_observations(self):
        corridor = small_corridor(seed=17)
        finder = corridor.subscribe(CarFinder())
        corridor.run(5.0)
        assert finder.known_tags()
        fix = finder.locate(finder.known_tags()[0])
        assert fix.station is not None and fix.cell is not None


class TestFixHints:
    """A corridor station's last-fix hint rule: a fix older than
    ``HINT_HORIZON_S`` is neither used nor kept."""

    class SpyLocalizer:
        """Records the hint each spike's fix gets; fixes every tag at
        the origin."""

        def __init__(self):
            self.hints = []

        def locate_all(self, estimates, estimator, hints):
            self.hints.extend(None if hint is None else tuple(hint) for hint in hints)
            return [np.array([0.0, -1.75]) for _ in estimates]

    def emit(self, hint_age_s, t_query=400.0, tag_id=7, cfo_hz=250e3):
        from types import SimpleNamespace

        from repro.core.counting import BinClass
        from repro.core.localization import AoAEstimate

        corridor = small_corridor(seed=17)
        station = corridor.stations[0]
        station.localizer = self.SpyLocalizer()
        station.record_fix(99, np.array([5.0, -5.25]), t_query - 400.0)
        station.record_fix(tag_id, np.array([12.0, -5.25]), t_query - hint_age_s)
        broadside = AoAEstimate(cfo_hz=cfo_hz, alphas_rad=(1.4, 1.6, 1.5), best_pair_index=2)
        station.reader.estimator = SimpleNamespace(
            estimate_for_cfos=lambda collision, cfos, probe: [broadside]
        )
        count = SimpleNamespace(
            observations=[SimpleNamespace(cfo_hz=cfo_hz, label=BinClass.SINGLE)],
            basis=(np.zeros((1, 8), complex), np.zeros((1, 256), complex)),
        )
        collision = SimpleNamespace(n_antennas=3)
        corridor.subscribe(Collector())
        corridor._emit_observations(station, collision, count, {cfo_hz: tag_id}, t_query)
        return corridor, station

    def test_hint_past_the_horizon_is_neither_used_nor_kept(self):
        from repro.sim.city.corridor import HINT_HORIZON_S

        assert HINT_HORIZON_S == 300.0
        corridor, station = self.emit(hint_age_s=301.0)
        assert station.localizer.hints == [None]
        # Both stale fixes are gone; the round's own fix replaced one.
        assert list(station._last_fixes) == [7]
        fix, seen_s = station._last_fixes[7]
        assert seen_s == 400.0 and fix.tolist() == [0.0, -1.75]
        (collected,) = corridor.services
        assert len(collected.observations) == 1

    def test_hint_within_the_horizon_is_used(self):
        _, station = self.emit(hint_age_s=299.0)
        assert station.localizer.hints == [(12.0, -5.25)]
        assert list(station._last_fixes) == [7]  # tag 99's 400 s fix pruned


class TestRoundFixes:
    """A round reads AoA for its resolved spikes only, on their rows of
    the count's fit factors, and locates them as one batch. Every
    observation and recorded fix must equal the per-spike round's (each
    resolved spike in CFO order, hinted by its tag's last fix at that
    moment) bit for bit — including an account that resolves two spikes,
    whose later spike is hinted by the earlier spike's fix."""

    class SpyLocalizer:
        def __init__(self, localizer):
            self.localizer = localizer
            self.calls = []

        def locate_all(self, estimates, estimator, hints):
            fixes = self.localizer.locate_all(estimates, estimator, hints)
            self.calls.append((list(estimates), list(hints), fixes))
            return fixes

    @staticmethod
    def _estimates(rng, station, n_spikes):
        from repro.core.localization import AoAEstimate, aoa_from_phase, phase_from_aoa

        pairs = station.reader.estimator.array.pairs()
        pole_x = float(station.pole_position_m[0])
        estimates = []
        for k in range(n_spikes):
            # Mostly cars in a lane near the pole; some far off the road.
            y = rng.choice(LANES) + rng.normal(0.0, 0.2) if k % 5 else rng.uniform(-30.0, 20.0)
            truth = np.array([pole_x + rng.uniform(-15.0, 15.0), y, 1.0])
            phases = [phase_from_aoa(p.true_spatial_angle_rad(truth), p.spacing_m) for p in pairs]
            alphas = tuple(
                aoa_from_phase(ph + rng.normal(0.0, 0.05), p.spacing_m)
                for ph, p in zip(phases, pairs)
            )
            best = int(np.argmin([abs(a - np.pi / 2.0) for a in alphas]))
            estimates.append(AoAEstimate(cfo_hz=0.0, alphas_rad=alphas, best_pair_index=best))
        return estimates

    def _round(self, seed, t_query=50.0):
        from types import SimpleNamespace

        from repro.core.counting import BinClass
        from tests.test_localization import _scalar_lane_locate

        rng = np.random.default_rng(seed)
        n_spikes = int(rng.integers(6, 16))
        cfos = np.sort(rng.uniform(20e3, 1.2e6, n_spikes)).tolist()
        tags = [100 + k for k in range(n_spikes)]
        tags[-1] = tags[1]  # one account resolves two spikes
        ids = {cfo: tag for cfo, tag in zip(cfos, tags) if rng.random() < 0.85 or tag == tags[1]}
        corridor, reference = small_corridor(seed=17), small_corridor(seed=17)
        station, ref_station = corridor.stations[1], reference.stations[1]
        estimates = self._estimates(rng, station, n_spikes)
        for cfo, estimate in zip(cfos, estimates):
            estimate.cfo_hz = cfo
        for tag in set(tags):
            age_s = rng.choice([None, 10.0, 400.0])
            if age_s is not None:
                fix = np.array([rng.uniform(-10.0, 80.0), rng.choice(LANES)])
                station.record_fix(tag, fix, t_query - age_s)
                ref_station.record_fix(tag, fix, t_query - age_s)
        # Observations in the counter's order, with rejected spikes and
        # accepted but unresolved ones; basis row k holds k.
        order = rng.permutation(n_spikes + 3)
        observations = [None] * (n_spikes + 3)
        for slot, k in enumerate(order):
            rejected = k >= n_spikes
            observations[slot] = SimpleNamespace(
                cfo_hz=cfos[k - n_spikes] + 500.0 if rejected else cfos[k],
                label=BinClass.REJECTED if rejected else BinClass.SINGLE,
            )
        basis = tuple(
            np.repeat(np.arange(n_spikes + 3, dtype=complex)[:, None], width, axis=1)
            for width in (8, 256)
        )
        count = SimpleNamespace(observations=observations, basis=basis)
        real = station.reader.estimator
        requests = []

        def estimate_for_cfos(collision, spikes, probe):
            requests.append((list(spikes), [row.real for row in probe[0][:, 0]]))
            return [estimates[cfos.index(cfo)] for cfo in spikes]

        station.reader.estimator = SimpleNamespace(
            array=real.array,
            best_pair=real.best_pair,
            estimate_for_cfos=estimate_for_cfos,
        )
        spy = self.SpyLocalizer(station.localizer)
        station.localizer = spy
        collected = corridor.subscribe(Collector())
        corridor._emit_observations(
            station, SimpleNamespace(n_antennas=3), count, ids, t_query
        )

        # The reference: one spike at a time, in CFO order.
        ref_station.prune_fixes(t_query)
        want = []
        for cfo, tag in sorted(ids.items()):
            estimate = estimates[cfos.index(cfo)]
            if not estimate.in_usable_band():
                continue
            hint = ref_station.recall_fix(tag, t_query)
            try:
                fix, _ = _scalar_lane_locate(ref_station.localizer, estimate, real, hint)
            except GeometryError:
                fix = None
            if fix is None:
                continue
            ref_station.record_fix(tag, fix, t_query)
            want.append((tag, fix.tobytes()))
        got = [(o.tag_id, np.asarray(o.position_m).tobytes()) for o in collected.observations]
        assert got == want
        assert all(
            o.timestamp_s == t_query and o.station == station.name
            for o in collected.observations
        )
        assert [
            (tag, fix.tobytes(), seen) for tag, (fix, seen) in station._last_fixes.items()
        ] == [(tag, fix.tobytes(), seen) for tag, (fix, seen) in ref_station._last_fixes.items()]
        # Only the resolved spikes were read, each on its own basis row.
        resolved = sorted(ids)
        rows = {o.cfo_hz: slot for slot, o in enumerate(observations)}
        assert requests == [(resolved, [float(rows[cfo]) for cfo in resolved])]
        return spy, cfos

    def test_round_equals_per_spike_round(self):
        repeated = missed = hinted = 0
        for seed in range(40):
            spy, cfos = self._round(seed)
            if not spy.calls:
                continue
            batch, hints, fixes = spy.calls[0]
            hinted += sum(hint is not None for hint in hints)
            missed += sum(fix is None for fix in fixes)
            # The repeated account's spikes are cfos[1] and cfos[-1].
            earlier = [fix for e, fix in zip(batch, fixes) if e.cfo_hz == cfos[1]]
            if len(spy.calls) > 1:
                # Its later spike is located on its own, hinted by the
                # earlier spike's fix when that one got one.
                assert len(spy.calls) == 2
                (later,), (hint,), _ = spy.calls[1]
                assert later.cfo_hz == cfos[-1]
                if earlier and earlier[0] is not None:
                    assert hint.tobytes() == earlier[0].tobytes()
                    repeated += 1
        assert repeated >= 20 and missed >= 40 and hinted >= 60
