"""Unit tests for repro.sim.city (the discrete-event corridor engine)."""

import numpy as np
import pytest

from repro.channel.geometry import RoadSegment
from repro.constants import READER_RANGE_M
from repro.errors import ConfigurationError
from repro.sim.city import (
    CityCorridor,
    HandoffLedger,
    MovingTag,
    StationCell,
    carve_cells,
)
from repro.sim.mobility import ConstantSpeedTrajectory
from repro.sim.scenario import city_corridor_scene

LANES = (-1.75, -5.25)


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


@pytest.mark.slow
class TestCityCorridorRun:
    def test_event_run_identifies_localizes_and_hands_off(self):
        corridor = small_corridor(seed=17)
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
        assert corridor.observations
        cells = {s.cell.name: s.cell for s in corridor.stations}
        for obs in corridor.observations:
            assert obs.station is not None
            cell = cells[obs.cell]
            x = float(obs.position_m[0])
            assert cell.x_min_m - 1.5 <= x <= cell.x_max_m + 1.5

    def test_fix_accuracy_against_trajectories(self):
        corridor = small_corridor(seed=17)
        corridor.run(6.0)
        by_id = {tag.tag_id: tag for tag in corridor.tags}
        errors = []
        for obs in corridor.observations:
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

    def test_handoff_disabled_forces_redecodes(self):
        result = small_corridor(seed=17, handoff=False).run(6.0)
        assert result.ledger.handoffs == 0
        assert result.ledger.redecodes > 0
        assert result.ledger.handoff_resolution_rate == 0.0

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
        """The no-CSMA ablation interleaves decode bursts blindly: a
        query recorded *after* a capture was synthesized can step on its
        response window. The synthesis-time count misses those; the
        post-hoc re-check against the final air log is exact (it matches
        an independent recount of stepped-on burst responses)."""
        corridor = small_corridor(seed=17, use_csma=False, handoff=False)
        result = corridor.run(6.0)
        assert result.burst_captures > 0
        # The under-count this accounting exists to fix actually occurs.
        assert result.burst_corrupted_posthoc > result.burst_corrupted_at_synthesis
        # Exactness: every burst capture put a "-burst" response on the
        # log, so the final log's own corruption sweep must agree.
        stepped_on = [
            r
            for r in corridor.air.corrupted_responses()
            if r.source.endswith("-burst")
        ]
        assert result.burst_corrupted_posthoc == len(stepped_on)

    def test_services_receive_provenanced_observations(self):
        from repro.apps import CarFinder

        corridor = small_corridor(seed=17)
        finder = corridor.subscribe(CarFinder())
        corridor.run(5.0)
        assert finder.known_tags()
        fix = finder.locate(finder.known_tags()[0])
        assert fix.station is not None and fix.cell is not None


class TestFixHints:
    """Corridor stations follow the one last-fix hint rule
    (``repro.core.network.FixHints``): a fix older than
    ``HINT_HORIZON_S`` is neither used nor kept."""

    class SpyLocalizer:
        """Records the hint each ``locate`` call gets; fixes every tag at
        the origin."""

        def __init__(self):
            self.hints = []

        def locate(self, estimate, estimator, hint_xy=None):
            self.hints.append(None if hint_xy is None else tuple(hint_xy))
            return np.array([0.0, -1.75])

    def emit(self, hint_age_s, t_query=400.0, tag_id=7, cfo_hz=250e3):
        from types import SimpleNamespace

        from repro.core.localization import AoAEstimate

        corridor = small_corridor(seed=17)
        station = corridor.stations[0]
        station.localizer = self.SpyLocalizer()
        station.record_fix(99, np.array([5.0, -5.25]), t_query - 400.0)
        station.record_fix(tag_id, np.array([12.0, -5.25]), t_query - hint_age_s)
        broadside = AoAEstimate(cfo_hz=cfo_hz, alphas_rad=(1.4, 1.6, 1.5), best_pair_index=2)
        report = SimpleNamespace(aoas=[broadside])
        corridor._emit_observations(station, report, {cfo_hz: tag_id}, t_query)
        return corridor, station

    def test_hint_past_the_horizon_is_neither_used_nor_kept(self):
        from repro.core.network import HINT_HORIZON_S

        assert HINT_HORIZON_S == 300.0
        corridor, station = self.emit(hint_age_s=301.0)
        assert station.localizer.hints == [None]
        # Both stale fixes are gone; the round's own fix replaced one.
        assert list(station._last_fixes) == [7]
        fix, seen_s = station._last_fixes[7]
        assert seen_s == 400.0 and fix.tolist() == [0.0, -1.75]
        assert len(corridor.observations) == 1

    def test_hint_within_the_horizon_is_used(self):
        _, station = self.emit(hint_age_s=299.0)
        assert station.localizer.hints == [(12.0, -5.25)]
        assert list(station._last_fixes) == [7]  # tag 99's 400 s fix pruned
