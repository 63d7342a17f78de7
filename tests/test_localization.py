"""Unit tests for repro.core.localization (§6)."""

import numpy as np
import pytest

from repro.constants import WAVELENGTH_M
from repro.core.localization import (
    AoAEstimate,
    AoAEstimator,
    ReaderGeometry,
    TwoReaderLocalizer,
    aoa_from_phase,
    phase_from_aoa,
)
from repro.core.cfo import estimate_channel
from repro.errors import GeometryError, LocalizationError
from repro.phy.waveform import Waveform
from repro.sim.scenario import Scene, make_tags, parking_scene, two_pole_speed_scene


class TestPhaseAoA:
    def test_broadside_is_zero_phase(self):
        d = WAVELENGTH_M / 2.0
        assert phase_from_aoa(np.pi / 2, d) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip(self):
        d = WAVELENGTH_M / 2.0
        for alpha_deg in (30.0, 60.0, 90.0, 120.0, 150.0):
            alpha = np.deg2rad(alpha_deg)
            assert aoa_from_phase(phase_from_aoa(alpha, d), d) == pytest.approx(alpha)

    def test_eq10_formula(self):
        """cos(alpha) = delta_phi * lambda / (2 pi d)."""
        d = 0.1
        alpha = aoa_from_phase(1.0, d)
        assert np.cos(alpha) == pytest.approx(1.0 * WAVELENGTH_M / (2 * np.pi * d))

    def test_clamps_noisy_cosine(self):
        d = WAVELENGTH_M / 2.0
        alpha = aoa_from_phase(np.pi * 1.1, d)  # implies cos > 1
        assert alpha == pytest.approx(0.0)

    def test_strict_mode_raises(self):
        with pytest.raises(LocalizationError):
            aoa_from_phase(np.pi * 1.1, WAVELENGTH_M / 2.0, strict=True)

    def test_bad_spacing(self):
        with pytest.raises(LocalizationError):
            aoa_from_phase(0.0, 0.0)


class TestAoAEstimator:
    def test_accuracy_on_parked_tags(self):
        """AoA errors on clean LoS collisions are well under the paper's
        4-degree average."""
        scene, _, _ = parking_scene(target_spots=[2, 5], n_background_cars=1, rng=3)
        sim = scene.simulator(0, rng=4)
        collision = sim.query(0.0)
        estimator = AoAEstimator(scene.arrays[0])
        estimates = estimator.estimate_all(collision)
        assert len(estimates) >= 2
        for estimate in estimates:
            diffs = [
                abs(t.oscillator.carrier_hz - collision.lo_hz - estimate.cfo_hz)
                for t in scene.tags
            ]
            tag = scene.tags[int(np.argmin(diffs))]
            pair = estimator.best_pair(estimate)
            truth = np.rad2deg(pair.true_spatial_angle_rad(tag.position_m))
            assert abs(estimate.alpha_deg - truth) < 3.0

    def test_best_pair_near_broadside(self):
        """§6: for any position one of the three pairs lands in 60-120."""
        scene, _, _ = parking_scene(target_spots=[1], n_background_cars=0, rng=5)
        sim = scene.simulator(0, rng=6)
        estimator = AoAEstimator(scene.arrays[0])
        estimates = estimator.estimate_all(sim.query(0.0))
        assert estimates[0].in_usable_band()

    def test_needs_three_antennas(self):
        scene, _, _ = parking_scene(target_spots=[1], n_background_cars=0, rng=7)
        sim = scene.simulator(0, rng=8)
        collision = sim.query(0.0)
        collision.antennas = collision.antennas[:2]
        estimator = AoAEstimator(scene.arrays[0])
        with pytest.raises(LocalizationError):
            estimator.estimate_for_cfo(collision, 500e3)

    def test_all_three_pairs_reported(self):
        scene, _, _ = parking_scene(target_spots=[3], n_background_cars=0, rng=9)
        sim = scene.simulator(0, rng=10)
        estimator = AoAEstimator(scene.arrays[0])
        estimates = estimator.estimate_all(sim.query(0.0))
        assert len(estimates[0].alphas_rad) == 3

    @staticmethod
    def _per_antenna_reference(estimator, collision, cfo_hz):
        """The readout with one ``estimate_channel`` per antenna."""
        channels = np.array(
            [estimate_channel(wave, cfo_hz) for wave in collision.antennas[:3]]
        )
        return estimator.estimate_from_channels(cfo_hz, channels)

    def test_estimate_for_cfo_equals_per_antenna_readout(self):
        """One shared probe reproduces the per-antenna Eq 5 readout bit
        for bit, at each tag's CFO and off any spike."""
        scene, _, _ = parking_scene(target_spots=[1, 4], n_background_cars=2, rng=13)
        sim = scene.simulator(0, rng=14)
        estimator = AoAEstimator(scene.arrays[0])
        for t_s in (0.0, 1.5e-3, 20.25):
            collision = sim.query(t_s)
            assert len({wave.t0_s for wave in collision.antennas}) == 1
            cfos = [float(c) for c in collision.true_cfos_hz()] + [333_333.3]
            for cfo_hz in cfos:
                got = estimator.estimate_for_cfo(collision, cfo_hz)
                want = self._per_antenna_reference(estimator, collision, cfo_hz)
                assert np.array_equal(got.channels, want.channels)
                assert got.alphas_rad == want.alphas_rad
                assert got.best_pair_index == want.best_pair_index

    def test_estimate_for_cfo_without_shared_time_base(self):
        """Antennas on different time bases fall back to one readout each."""
        scene, _, _ = parking_scene(target_spots=[2], n_background_cars=0, rng=15)
        collision = scene.simulator(0, rng=16).query(0.0)
        first, second, third = collision.antennas[:3]
        collision.antennas = [
            first,
            Waveform(second.samples, second.sample_rate_hz, second.t0_s + 1e-6),
            third,
        ]
        estimator = AoAEstimator(scene.arrays[0])
        cfo_hz = float(collision.true_cfos_hz()[0])
        got = estimator.estimate_for_cfo(collision, cfo_hz)
        want = self._per_antenna_reference(estimator, collision, cfo_hz)
        assert np.array_equal(got.channels, want.channels)
        assert got.alphas_rad == want.alphas_rad


class TestTwoReaderLocalizer:
    def _locate(self, tag_xy, rng_seed=1):
        arrays, road = two_pole_speed_scene(baseline_m=60.0)
        tags = make_tags(np.array([[tag_xy[0], tag_xy[1], 1.0]]), rng=rng_seed)
        scene = Scene(tags=tags, road=road, arrays=arrays)
        col_a = scene.simulator(0, rng=rng_seed + 1).query(0.0)
        col_b = scene.simulator(1, rng=rng_seed + 2).query(0.0)
        est_a = AoAEstimator(arrays[0])
        est_b = AoAEstimator(arrays[1])
        a = est_a.estimate_all(col_a)[0]
        b = est_b.estimate_all(col_b)[0]
        localizer = TwoReaderLocalizer(
            ReaderGeometry(arrays[0], road), ReaderGeometry(arrays[1], road)
        )
        return localizer.locate(a, b, est_a, est_b, hint_xy=np.asarray(tag_xy) + 3.0)

    def test_localizes_within_a_meter(self):
        position = self._locate((20.0, -2.0))
        assert np.linalg.norm(position - [20.0, -2.0]) < 1.0

    def test_other_lane(self):
        position = self._locate((15.0, 2.5), rng_seed=11)
        assert np.linalg.norm(position - [15.0, 2.5]) < 1.5

    def test_impossible_geometry_raises(self):
        arrays, road = two_pole_speed_scene(baseline_m=60.0)
        est_a = AoAEstimator(arrays[0])
        est_b = AoAEstimator(arrays[1])
        localizer = TwoReaderLocalizer(
            ReaderGeometry(arrays[0], road), ReaderGeometry(arrays[1], road)
        )
        from repro.core.localization import AoAEstimate

        # Both readers claim the tag is essentially along their baselines
        # in opposite directions - no on-road intersection exists.
        fake_a = AoAEstimate(cfo_hz=1e5, alphas_rad=(0.1, 0.1, 0.1), best_pair_index=0)
        fake_b = AoAEstimate(
            cfo_hz=1e5, alphas_rad=(np.pi - 0.1,) * 3, best_pair_index=0
        )
        with pytest.raises(GeometryError):
            localizer.locate(fake_a, fake_b, est_a, est_b)


class TestReaderGeometry:
    def test_pole_height(self):
        arrays, road = two_pole_speed_scene()
        geometry = ReaderGeometry(arrays[0], road)
        assert geometry.pole_height_m == pytest.approx(arrays[0].center_m[2])
        assert np.allclose(geometry.pole_position_m, arrays[0].center_m)


def _scalar_lane_locate(localizer, estimate, estimator, hint_xy=None):
    """Reference: ``LaneProjectionLocalizer.locate`` scoring one candidate
    and one baseline at a time, as the lane localizer first shipped."""
    from repro.channel.geometry import spatial_angle_rad
    from repro.utils import wrap_angle

    pair = estimator.best_pair(estimate)
    apex = pair.midpoint_m
    axis = pair.axis
    cos_a = float(np.cos(estimate.alpha_rad))
    z = localizer.road.z_m + localizer.tag_height_m
    candidates = []
    for lane_y in localizer.lane_ys_m:
        dy = lane_y - apex[1]
        dz = z - apex[2]
        c1 = axis[1] * dy + axis[2] * dz
        c2 = dy * dy + dz * dz
        a = axis[0] ** 2 - cos_a**2
        b = 2.0 * axis[0] * c1
        c = c1 * c1 - c2 * cos_a**2
        if abs(a) < 1e-12:
            if abs(b) < 1e-12:
                continue
            roots = [-c / b]
        else:
            disc = b * b - 4.0 * a * c
            if disc < 0:
                continue
            sq = float(np.sqrt(disc))
            roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
        for x_rel in roots:
            along = axis[0] * x_rel + c1
            if cos_a * along < -1e-9:
                continue
            point = np.array([apex[0] + x_rel, lane_y])
            if localizer.road.contains(point, margin_m=localizer.road_margin_m):
                candidates.append(point)
    pairs = estimator.array.pairs()
    wl = estimator.wavelength_m

    def phase_errors_rad(point_xy):
        p = np.array([point_xy[0], point_xy[1], z])
        return np.array(
            [
                abs(
                    float(
                        wrap_angle(
                            phase_from_aoa(alpha, pair_k.spacing_m, wl)
                            - phase_from_aoa(
                                spatial_angle_rad(p - pair_k.midpoint_m, pair_k.axis),
                                pair_k.spacing_m,
                                wl,
                            )
                        )
                    )
                )
                for alpha, pair_k in zip(estimate.alphas_rad, pairs)
            ]
        )

    ceiling = float(np.deg2rad(localizer.max_phase_error_deg))
    scored = [(p, phase_errors_rad(p)) for p in candidates]
    all_scored = list(scored)
    scored = [(p, errors) for p, errors in scored if errors.max() <= ceiling]
    if not scored:
        return None, all_scored
    if hint_xy is not None:
        hint = np.asarray(hint_xy, dtype=np.float64)
        return min((p for p, _ in scored), key=lambda p: float(np.linalg.norm(p - hint))), all_scored
    return min(scored, key=lambda item: float(np.sum(item[1] ** 2)))[0], all_scored


class TestLaneScoringArrayForm:
    """``LaneProjectionLocalizer.locate`` scores every lane root against
    all three baselines in one array expression; it must return the
    scalar scorer's fix bit for bit."""

    def _station(self):
        from repro.channel.geometry import RoadSegment
        from repro.core.localization import LaneProjectionLocalizer
        from repro.sim.scenario import corridor_scene

        scene = corridor_scene(pole_xs_m=[0.0], lane_ys_m=[-1.75, -5.25], cars=[(0.0, 0)], rng=3)
        estimator = AoAEstimator(scene.arrays[0])
        road = RoadSegment(x_min_m=-40.0, x_max_m=60.0, y_center_m=-3.5, width_m=7.0)
        localizer = LaneProjectionLocalizer(road=road, lane_ys_m=(-1.75, -5.25, -8.75))
        return estimator, localizer

    def test_array_form_equals_scalar_scorer(self):
        from repro.obs import Obs

        estimator, localizer = self._station()
        localizer.obs = Obs()
        pairs = estimator.array.pairs()
        rng = np.random.default_rng(8)
        fixes = ghosts = wraps = hinted = 0
        for trial in range(600):
            truth = np.array([rng.uniform(-45.0, 65.0), rng.uniform(-10.0, 0.0), 1.0])
            phases = [phase_from_aoa(p.true_spatial_angle_rad(truth), p.spacing_m) for p in pairs]
            noisy = [ph + rng.normal(0.0, rng.choice([0.02, 0.3])) for ph in phases]
            # Some end-fire phases cross the +-pi boundary.
            if trial % 5 == 0:
                k = int(np.argmax(np.abs(noisy)))
                noisy[k] = -np.sign(noisy[k]) * (2 * np.pi - abs(noisy[k]))
                wraps += 1
            alphas = tuple(aoa_from_phase(ph, p.spacing_m) for ph, p in zip(noisy, pairs))
            for best in range(3):
                estimate = AoAEstimate(cfo_hz=0.0, alphas_rad=alphas, best_pair_index=best)
                hint = None if trial % 3 else truth[:2] + rng.normal(0.0, 3.0, 2)
                want, scored = _scalar_lane_locate(localizer, estimate, estimator, hint)
                if scored:
                    # Every candidate's per-baseline errors, bit for bit.
                    errors = localizer._phase_errors_rad(
                        np.array([p for p, _ in scored]),
                        localizer.road.z_m + localizer.tag_height_m,
                        estimate,
                        estimator,
                    )
                    assert errors.tobytes() == np.array([e for _, e in scored]).tobytes()
                ceiling = np.deg2rad(localizer.max_phase_error_deg)
                ghosts += sum(1 for _, e in scored if e.max() > ceiling)
                if want is None:
                    with pytest.raises(GeometryError):
                        localizer.locate(estimate, estimator, hint_xy=hint)
                    continue
                got = localizer.locate(estimate, estimator, hint_xy=hint)
                assert got.tobytes() == want.tobytes()
                fixes += 1
                hinted += hint is not None
        assert fixes > 400 and ghosts > 1000 and hinted > 150 and wraps == 120
        assert localizer.obs.metrics.counter("locate.candidates", outcome="gated") == ghosts
