"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.geometry import aoa_cone_conic, spatial_angle_rad
from repro.constants import QUERY_PERIOD_S, WAVELENGTH_M
from repro.core.localization import aoa_from_phase, phase_from_aoa
from repro.core.theory import p_no_miss_exact, p_no_miss_naive, p_no_miss_paper_bound
from repro.dsp.spectrum import single_bin_dft
from repro.hw.adc import ADC
from repro.hw.power import DutyCycle, PowerModel
from repro.phy.crc import CRC16_CCITT
from repro.phy.manchester import manchester_decode, manchester_encode
from repro.phy.waveform import Waveform

FS = 4e6

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestWaveformProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=32),
    )
    def test_addition_commutes(self, n_a, n_b, offset_samples):
        rng = np.random.default_rng(n_a * 1000 + n_b * 10 + offset_samples)
        a = Waveform(rng.normal(size=n_a) + 1j * rng.normal(size=n_a), FS, 0.0)
        b = Waveform(
            rng.normal(size=n_b) + 1j * rng.normal(size=n_b), FS, offset_samples / FS
        )
        left = a + b
        right = b + a
        assert left.t0_s == right.t0_s
        assert np.allclose(left.samples, right.samples)

    @given(st.floats(min_value=1e3, max_value=1.9e6), finite_floats)
    def test_mixing_is_invertible(self, freq, phase):
        rng = np.random.default_rng(int(freq))
        wave = Waveform(rng.normal(size=256) + 1j * rng.normal(size=256), FS, 0.0)
        roundtrip = wave.mixed(freq, phase).mixed(-freq, -phase)
        assert np.allclose(roundtrip.samples, wave.samples, atol=1e-12)

    @given(st.floats(min_value=1e3, max_value=1.5e6))
    def test_tone_dft_recovers_amplitude(self, freq):
        wave = Waveform.tone(freq, 256e-6, FS, amplitude=1.0)
        assert abs(single_bin_dft(wave, freq)) == pytest.approx(1.0, rel=1e-6)


class TestCodingProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=512))
    def test_manchester_roundtrip(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        assert np.array_equal(manchester_decode(manchester_encode(bits)), bits)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=512))
    def test_manchester_dc_balance(self, bits):
        chips = manchester_encode(np.array(bits, dtype=np.uint8))
        assert chips.mean() == pytest.approx(0.5)

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=8, max_size=128),
        st.integers(min_value=0),
        st.integers(min_value=0),
    )
    def test_crc_detects_double_bit_errors(self, bits, p1, p2):
        framed = CRC16_CCITT.append(np.array(bits, dtype=np.uint8))
        a = p1 % framed.size
        b = p2 % framed.size
        corrupted = framed.copy()
        corrupted[a] ^= 1
        corrupted[b] ^= 1
        if a == b:
            assert CRC16_CCITT.check(corrupted)  # flips cancel
        else:
            assert not CRC16_CCITT.check(corrupted)


class TestGeometryProperties:
    @given(
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=-1.0),
        st.floats(min_value=2.0, max_value=10.0),
    )
    def test_cone_passes_through_generating_point(self, x, y, height):
        apex = np.array([0.0, 0.0, height])
        axis = np.array([1.0, 0.0, 0.0])
        tag = np.array([x, y, 0.5])
        alpha = spatial_angle_rad(tag - apex, axis)
        conic = aoa_cone_conic(apex, axis, alpha, road_z_m=0.5)
        # Scale tolerance with the coefficients' magnitude.
        scale = max(abs(conic.a), abs(conic.c), 1.0) * (x * x + y * y)
        assert abs(conic.evaluate(x, y)) < 1e-7 * scale

    @given(st.floats(min_value=0.05, max_value=np.pi - 0.05))
    def test_aoa_phase_roundtrip(self, alpha):
        d = WAVELENGTH_M / 2.0
        assert aoa_from_phase(phase_from_aoa(alpha, d), d) == pytest.approx(alpha)

    @given(
        st.floats(min_value=0.05, max_value=np.pi - 0.05),
        st.floats(min_value=0.05, max_value=0.45),
    )
    def test_aoa_monotone_in_phase(self, alpha, spacing):
        phase = phase_from_aoa(alpha, spacing)
        smaller = aoa_from_phase(phase + 0.05, spacing)
        larger = aoa_from_phase(phase - 0.05, spacing)
        # cos is decreasing: more phase = smaller angle.
        assert smaller <= alpha + 1e-9
        assert larger >= alpha - 1e-9


class TestTheoryProperties:
    @given(st.integers(min_value=0, max_value=80))
    def test_probability_ordering(self, m):
        naive = p_no_miss_naive(m)
        exact = p_no_miss_exact(m)
        bound = p_no_miss_paper_bound(m)
        assert 0.0 <= naive <= exact <= 1.0
        assert bound <= exact + 1e-12

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=100, max_value=2000))
    def test_more_bins_never_hurt(self, m, n_bins):
        assert p_no_miss_naive(m, n_bins) <= p_no_miss_naive(m, n_bins * 2) + 1e-12


class TestDecodeSessionProperties:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=32), min_size=1, max_size=5
        ),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_air_time_monotone_and_consistent(self, budgets, seed):
        """Air time only ever grows with further decode work, always
        equals queries-issued x period, and the reader's per-measurement
        report stays within its §12.5 payload budget."""
        from repro.channel.antenna import TriangleArray
        from repro.sim.city.moving import ParkedSource
        from repro.channel.noise import thermal_noise_power_w
        from repro.channel.propagation import LosChannel
        from repro.core.decoding import CoherentDecoder, DecodeSession
        from repro.core.counting import CollisionCounter
        from repro.core.reader import ReaderReport
        from tests.conftest import make_tag

        rng = np.random.default_rng(seed)
        cfos = rng.uniform(100e3, 1.1e6, size=2)
        tags = [
            make_tag(cfo, position_m=(rng.uniform(-6, 6), -8.0, 1.0), seed=seed + i)
            for i, cfo in enumerate(cfos)
        ]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource(
            tags,
            array.positions_m,
            LosChannel(),
            noise_power_w=thermal_noise_power_w(FS),
            rng=seed,
        )
        decoder = CoherentDecoder(FS)
        session = DecodeSession(query_fn=lambda t: sim.query(t), decoder=decoder)
        previous_air = 0.0
        for budget in budgets:
            target = float(cfos[budget % len(cfos)])
            session.decode_target(target, max_queries=budget)
            air = session.total_air_time_s
            assert air >= previous_air  # monotone: captures are never dropped
            assert air == pytest.approx(
                len(session.captures) * QUERY_PERIOD_S
            )
            previous_air = air
        # The queries the session spent decoding do not inflate the
        # measurement upload: a report over the same capture is still the
        # "few kbits" of §12.5 (64 header + 96 bits per accepted spike).
        estimate = CollisionCounter().count(session.readout_capture(0))
        report = ReaderReport(timestamp_s=0.0, count=estimate)
        assert report.payload_bits() == 64 + 96 * len(estimate.observations)
        assert report.payload_bits() < 4000


@pytest.mark.slow
class TestSharedAirProperties:
    """Conservation laws of the corridor's shared medium: every capture
    any station synthesizes — own round, decode burst, or overheard
    window — must be backed by response energy on the one shared
    :class:`~repro.sim.medium.AirLog`, and the response pool's
    corruption bookkeeping must agree with a post-hoc re-check."""

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=4, deadline=None)
    def test_air_time_conservation_and_pool_bookkeeping(self, seed):
        from tests.test_city_corridor import small_corridor

        corridor = small_corridor(
            seed=seed, n_poles=3, n_cars=4, opportunistic="accept"
        )
        result = corridor.run(4.0)

        # Index the shared log's response energy by (trigger, window).
        on_air = set()
        for response in corridor.air.responses():
            on_air.add(
                (response.triggered_by, response.start_s, response.end_s)
            )

        # No station's capture window contains response energy absent
        # from the shared log: published trigger windows, burst captures
        # and harvested overheard windows all map onto recorded
        # transmissions with matching provenance and extent.
        for window in corridor.pool.windows:
            assert (window.origin, window.start_s, window.end_s) in on_air
        for station, start_s, end_s, _ in corridor._burst_log:
            assert (station, start_s, end_s) in on_air
        for _, origin, start_s, end_s, _ in corridor._overheard_log:
            assert (origin, start_s, end_s) in on_air

        # Under CSMA the street stays clean, so the pool's harvest-time
        # corruption verdicts must agree with the exact post-hoc
        # re-check against the final log (and with the burst capture
        # accounting's synthesis-time verdicts).
        assert result.corrupted_responses == 0
        assert result.overheard_corrupted_at_harvest == 0
        assert result.overheard_corrupted_posthoc == 0
        assert result.burst_corruption_undercount == 0
        # Every donated capture is counted exactly once.
        assert result.overheard_donated == (
            result.overheard_harvested - result.overheard_corrupted_at_harvest
        )


class TestHardwareProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=64))
    def test_quantization_idempotent(self, values):
        adc = ADC(n_bits=10, full_scale=2000.0)
        samples = np.array(values, dtype=complex)
        once = adc.quantize(samples)
        twice = adc.quantize(once)
        assert np.allclose(once, twice)

    @given(
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=0.6, max_value=10.0),
    )
    def test_average_power_between_extremes(self, active_s, period_s):
        duty = DutyCycle(active_s=min(active_s, period_s), period_s=period_s)
        model = PowerModel()
        average = model.average_power_w(duty)
        assert model.sleep_power_w <= average <= model.active_power_w

    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=25)
    def test_energy_additivity(self, t1, t2):
        duty = DutyCycle(active_s=10e-3, period_s=1.0)
        model = PowerModel()
        # Closed-form average power implies additive energy.
        e_sum = model.average_power_w(duty) * (t1 + t2)
        e_parts = model.average_power_w(duty) * t1 + model.average_power_w(duty) * t2
        assert e_sum == pytest.approx(e_parts)
