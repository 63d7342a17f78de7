"""Unit tests for repro.core.localization (§6)."""

import numpy as np
import pytest

from repro.constants import TAG_HEIGHT_M, WAVELENGTH_M
from repro.core.localization import (
    _MAX_PHASE_ERROR_DEG,
    _ROAD_MARGIN_M,
    AoAEstimate,
    AoAEstimator,
    ReaderGeometry,
    TwoReaderLocalizer,
    aoa_from_phase,
    phase_from_aoa,
)
from repro.channel.collision import ReceivedCollision
from repro.core.cfo import estimate_channel
from repro.dsp.spectrum import tone_block_sums, tone_factors
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
    z = localizer.road.z_m + TAG_HEIGHT_M
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
            if localizer.road.contains(point, margin_m=_ROAD_MARGIN_M):
                candidates.append(point)
    pairs = estimator.array.pairs()
    wl = WAVELENGTH_M

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

    ceiling = float(np.deg2rad(_MAX_PHASE_ERROR_DEG))
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
                    measured = [
                        phase_from_aoa(alpha, pair.spacing_m)
                        for alpha, pair in zip(estimate.alphas_rad, pairs)
                    ]
                    errors, _ = localizer._phase_errors_rad(
                        np.array([p for p, _ in scored]),
                        localizer.road.z_m + TAG_HEIGHT_M,
                        np.array([measured]),
                        estimator,
                    )
                    assert errors.tobytes() == np.array([e for _, e in scored]).tobytes()
                ceiling = np.deg2rad(_MAX_PHASE_ERROR_DEG)
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


def _reference_estimate_for_cfo(estimator, collision, cfo_hz, probe=None):
    """Reference: one spike's AoA, its three antennas read one at a time
    and Eq 10 taken pair by pair, as the estimator read spikes before the
    batched readout."""
    waves = collision.antennas[:3]
    first = waves[0]
    shared = all(
        (w.n_samples, w.sample_rate_hz, w.t0_s)
        == (first.n_samples, first.sample_rate_hz, first.t0_s)
        for w in waves[1:]
    )
    if shared:
        if probe is None:
            probe = tone_factors([cfo_hz], first.t0_s, first.sample_rate_hz, first.n_samples)
        channels = np.array(
            [
                2.0 * complex(tone_block_sums(*probe, w.samples).sum() / w.n_samples)
                for w in waves
            ]
        )
    else:
        channels = np.array([estimate_channel(w, cfo_hz) for w in waves])
    alphas = []
    for pair, (i, j) in zip(estimator.array.pairs(), estimator.array.pair_indices()):
        delta_phi = float(np.angle(channels[j] / channels[i]))
        alphas.append(aoa_from_phase(delta_phi, pair.spacing_m, WAVELENGTH_M))
    best = int(np.argmin([abs(a - np.pi / 2.0) for a in alphas]))
    return AoAEstimate(
        cfo_hz=float(cfo_hz), alphas_rad=tuple(alphas), best_pair_index=best, channels=channels
    )


def _same_estimate(got, want) -> bool:
    return (
        got.cfo_hz == want.cfo_hz
        and np.array(got.alphas_rad).tobytes() == np.array(want.alphas_rad).tobytes()
        and got.best_pair_index == want.best_pair_index
        and got.channels.tobytes() == want.channels.tobytes()
    )


class TestBatchedReadout:
    """``estimate_for_cfos`` reads a round's spikes with one single-row
    block-sum product per (spike, antenna) and takes Eq 10 over all of
    them at once; each estimate must equal the per-spike reference on the
    spike's own ``factor[k:k+1]`` rows bit for bit."""

    @staticmethod
    def _collision(rng, n_samples, t0_s=0.0, skew_s=0.0):
        """Three antennas of random tones in noise (a trailing partial
        probe block when 8 does not divide ``n_samples``)."""
        freqs = rng.uniform(10e3, 1.2e6, int(rng.integers(1, 12)))
        waves = []
        for a in range(3):
            t = t0_s + a * skew_s + np.arange(n_samples) / 4e6
            amps = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
            samples = (amps[:, None] * np.exp(2j * np.pi * freqs[:, None] * t)).sum(axis=0)
            samples = samples + 0.5 * (rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples))
            waves.append(Waveform(samples, 4e6, t0_s + a * skew_s))
        return ReceivedCollision(antennas=waves, lo_hz=0.0), freqs

    def test_equals_per_spike_reference_on_basis_rows(self):
        from repro.obs import Obs

        rng = np.random.default_rng(41)
        estimator = AoAEstimator(
            parking_scene(target_spots=[1], n_background_cars=0, rng=1)[0].arrays[0],
            obs=Obs(),
        )
        spikes = 0
        for trial in range(24):
            n_samples = int(rng.choice([2048, 2051, 1000, 64]))
            t0_s = float(rng.choice([0.0, 1.5e-3, 20.25]))
            collision, freqs = self._collision(rng, n_samples, t0_s)
            n_spikes = (0, 1, 25)[trial % 3]
            cfos = np.concatenate([freqs, rng.uniform(10e3, 1.2e6, 30)])[:n_spikes]
            basis = tone_factors(cfos, t0_s, 4e6, n_samples)
            got = estimator.estimate_for_cfos(collision, cfos, probe=basis)
            assert len(got) == n_spikes
            for k, (cfo, estimate) in enumerate(zip(cfos, got)):
                rows = tuple(factor[k : k + 1] for factor in basis)
                want = _reference_estimate_for_cfo(estimator, collision, cfo, rows)
                assert _same_estimate(estimate, want)
                # A readout that builds its own probe reads the same.
                assert _same_estimate(estimator.estimate_for_cfo(collision, cfo), want)
            spikes += n_spikes
        metrics = estimator.obs.metrics
        assert metrics.counter("aoa.readout", probe="basis") == spikes == 8 * 26
        assert metrics.counter("aoa.readout", probe="built") == spikes

    def test_equals_per_spike_reference_without_shared_time_base(self):
        rng = np.random.default_rng(43)
        estimator = AoAEstimator(
            parking_scene(target_spots=[1], n_background_cars=0, rng=1)[0].arrays[0]
        )
        collision, freqs = self._collision(rng, 2048, 0.5, skew_s=1e-6)
        cfos = np.concatenate([freqs, rng.uniform(10e3, 1.2e6, 20)])
        got = estimator.estimate_for_cfos(collision, cfos)
        for cfo, estimate in zip(cfos, got):
            assert _same_estimate(estimate, _reference_estimate_for_cfo(estimator, collision, cfo))

    def test_counted_collision_spikes(self):
        """A counted collision's accepted spikes on the counter's basis."""
        from repro.core.counting import BinClass, CollisionCounter

        scene, _, _ = parking_scene(target_spots=[1, 2, 3, 4, 5, 6], n_background_cars=6, rng=17)
        estimator = AoAEstimator(scene.arrays[0])
        sim = scene.simulator(0, rng=18)
        counter = CollisionCounter()
        for t_s in (0.0, 2.5e-3):
            collision = sim.query(t_s)
            count = counter.count(collision.antenna(0))
            rows = [k for k, o in enumerate(count.observations) if o.label is not BinClass.REJECTED]
            cfos = [count.observations[k].cfo_hz for k in rows]
            assert len(cfos) >= 6
            got = estimator.estimate_for_cfos(
                collision, cfos, probe=tuple(factor[rows] for factor in count.basis)
            )
            for k, cfo, estimate in zip(rows, cfos, got):
                probe = tuple(factor[k : k + 1] for factor in count.basis)
                assert _same_estimate(
                    estimate, _reference_estimate_for_cfo(estimator, collision, cfo, probe)
                )

    def test_estimate_from_channels_is_the_one_spike_case(self):
        rng = np.random.default_rng(47)
        estimator = AoAEstimator(
            parking_scene(target_spots=[1], n_background_cars=0, rng=1)[0].arrays[0]
        )
        for _ in range(200):
            channels = rng.normal(size=3) + 1j * rng.normal(size=3)
            estimate = estimator.estimate_from_channels(1e5, channels)
            assert estimate.channels.tobytes() == channels.tobytes()
            collision = ReceivedCollision(
                antennas=[Waveform(np.full(64, c), 4e6) for c in channels], lo_hz=0.0
            )
            want = _reference_estimate_for_cfo(estimator, collision, 0.0)
            got = estimator.estimate_from_channels(0.0, want.channels)
            assert _same_estimate(got, want)

    def test_no_spikes_read_nothing(self):
        from repro.obs import Obs

        estimator = AoAEstimator(
            parking_scene(target_spots=[1], n_background_cars=0, rng=1)[0].arrays[0],
            obs=Obs(),
        )
        collision, _ = self._collision(np.random.default_rng(1), 2048)
        assert estimator.estimate_for_cfos(collision, []) == []
        assert estimator.obs.metrics.snapshot()["counters"] == {}


def _reference_fix(localizer, estimate, estimator, hint_xy=None):
    """The per-spike reference fix (None where the spike gets none) and
    its candidates' gate outcomes (None where scoring raised)."""
    try:
        fix, scored = _scalar_lane_locate(localizer, estimate, estimator, hint_xy)
    except GeometryError:  # a candidate on a baseline's midpoint
        return None, None
    ceiling = np.deg2rad(_MAX_PHASE_ERROR_DEG)
    return fix, [bool(errors.max() <= ceiling) for _, errors in scored]


class TestLocateAll:
    """``LaneProjectionLocalizer.locate_all`` scores every lane root of a
    round in one array expression; each spike's fix (or lack of one)
    must equal the per-spike reference bit for bit, with or without
    hints, and a spike with no fix must not cost the others theirs."""

    _station = TestLaneScoringArrayForm._station

    @staticmethod
    def _estimates(rng, estimator, n, spread_y=(-10.0, 0.0)):
        pairs = estimator.array.pairs()
        estimates, truths = [], []
        for _ in range(n):
            truth = np.array([rng.uniform(-60.0, 80.0), rng.uniform(*spread_y), 1.0])
            phases = [phase_from_aoa(p.true_spatial_angle_rad(truth), p.spacing_m) for p in pairs]
            noisy = [ph + rng.normal(0.0, rng.choice([0.02, 0.3])) for ph in phases]
            alphas = tuple(aoa_from_phase(ph, p.spacing_m) for ph, p in zip(noisy, pairs))
            best = int(rng.integers(0, 3))
            estimates.append(AoAEstimate(cfo_hz=0.0, alphas_rad=alphas, best_pair_index=best))
            truths.append(truth)
        return estimates, truths

    def _check_batch(self, localizer, estimator, estimates, hints):
        from repro.obs import Obs

        localizer.obs = Obs()
        got = localizer.locate_all(estimates, estimator, hints)
        assert len(got) == len(estimates)
        kept = gated = 0
        outcomes = []
        for fix, estimate, hint in zip(got, estimates, hints):
            want, gates = _reference_fix(localizer, estimate, estimator, hint)
            if want is None:
                assert fix is None
            else:
                assert fix.tobytes() == want.tobytes()
            if gates is not None:
                kept += sum(gates)
                gated += len(gates) - sum(gates)
            outcomes.append(want is not None)
        metrics = localizer.obs.metrics
        assert metrics.counter("locate.candidates", outcome="kept") == kept
        assert metrics.counter("locate.candidates", outcome="gated") == gated
        return outcomes

    def test_batches_equal_per_spike_reference(self):
        estimator, localizer = self._station()
        rng = np.random.default_rng(53)
        located = missed = mixed = 0
        for trial in range(60):
            n = (1, 2, 7, 24)[trial % 4]
            estimates, truths = self._estimates(rng, estimator, n, spread_y=(-14.0, 4.0))
            hints = [
                None if rng.random() < 0.5 else truth[:2] + rng.normal(0.0, 3.0, 2)
                for truth in truths
            ]
            if trial % 3 == 0:
                hints = [None] * n
            outcomes = self._check_batch(localizer, estimator, estimates, hints)
            located += sum(outcomes)
            missed += len(outcomes) - sum(outcomes)
            mixed += 0 < sum(outcomes) < len(outcomes)
        assert located > 120 and missed > 100 and mixed > 20
        assert localizer.locate_all([], estimator, []) == []

    def test_locate_is_the_one_spike_case(self):
        estimator, localizer = self._station()
        rng = np.random.default_rng(59)
        estimates, _ = self._estimates(rng, estimator, 80, spread_y=(-14.0, 4.0))
        raised = 0
        for estimate in estimates:
            want, _ = _reference_fix(localizer, estimate, estimator)
            if want is None:
                with pytest.raises(GeometryError):
                    localizer.locate(estimate, estimator)
                raised += 1
            else:
                assert localizer.locate(estimate, estimator).tobytes() == want.tobytes()
        assert 0 < raised < len(estimates)

    def test_zero_length_direction_fails_only_its_spike(self):
        """A lane through a baseline's midpoint at the tag plane puts a
        candidate on it: that spike gets no fix, the rest still do. The
        road sits ``TAG_HEIGHT_M`` below the midpoint, so the tag plane
        runs through it."""
        from repro.channel.geometry import RoadSegment
        from repro.core.localization import LaneProjectionLocalizer

        estimator, _ = self._station()
        midpoint = estimator.array.pairs()[1].midpoint_m
        road = RoadSegment(
            x_min_m=-40.0,
            x_max_m=60.0,
            y_center_m=midpoint[1],
            width_m=14.0,
            z_m=float(midpoint[2]) - TAG_HEIGHT_M,
        )
        assert road.z_m + TAG_HEIGHT_M == midpoint[2]
        localizer = LaneProjectionLocalizer(
            road=road, lane_ys_m=(float(midpoint[1]) - 3.5, float(midpoint[1]))
        )
        rng = np.random.default_rng(61)
        estimates, truths = self._estimates(
            rng, estimator, 40, spread_y=(midpoint[1] - 6.0, midpoint[1] + 6.0)
        )
        for k, estimate in enumerate(estimates):
            estimate.best_pair_index = 1 if k % 4 == 0 else 2 * (k % 2)
        hints = [None if k % 2 else truth[:2] for k, truth in enumerate(truths)]
        outcomes = self._check_batch(localizer, estimator, estimates, hints)
        pointless = [
            _reference_fix(localizer, e, estimator, h)[1] is None
            for e, h in zip(estimates, hints)
        ]
        assert sum(pointless) >= 8 and sum(outcomes) > 10
