"""Unit tests for repro.channel.propagation and multipath and noise."""

import numpy as np
import pytest

from repro.channel.multipath import GroundBounce, MultipathChannel, PointScatterer
from repro.channel.noise import NoiseModel, add_awgn, thermal_noise_power_w
from repro.channel.propagation import LosChannel, friis_amplitude, propagation_delay_s
from repro.constants import WAVELENGTH_M
from repro.errors import ConfigurationError


class TestFriis:
    def test_inverse_distance(self):
        assert friis_amplitude(20.0) == pytest.approx(friis_amplitude(10.0) / 2.0)

    def test_reference_value(self):
        # lambda/(4 pi d) at d = lambda is 1/(4 pi).
        assert friis_amplitude(WAVELENGTH_M) == pytest.approx(1.0 / (4 * np.pi))

    def test_zero_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            friis_amplitude(0.0)

    def test_delay(self):
        assert propagation_delay_s(299_792_458.0) == pytest.approx(1.0)


def reference_coefficient(channel, tx_m, rx_m):
    """The one-pair LoS arithmetic the vectorized kernel must reproduce:
    the per-pair loop every gain used to come from."""
    tx_m = np.asarray(tx_m, dtype=np.float64)
    rx_m = np.asarray(rx_m, dtype=np.float64)
    d = float(np.linalg.norm(rx_m - tx_m))
    amp = channel.gain * friis_amplitude(d, channel.wavelength_m)
    phase = -2.0 * np.pi * d / channel.wavelength_m
    return complex(amp * np.exp(1j * phase))


def same_bits(a, b):
    """Equal with ``==`` and in the sign of every zero part."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64)))
    )


def random_geometry(rng, m):
    """``m`` tag positions along a street and a 3-antenna array on a pole."""
    tags = np.column_stack(
        [
            rng.uniform(-60.0, 60.0, m),
            rng.uniform(-8.0, 0.0, m),
            rng.uniform(0.5, 1.6, m),
        ]
    )
    pole = np.array([rng.uniform(-5.0, 5.0), 1.0, rng.uniform(4.0, 7.0)])
    antennas = pole + rng.uniform(-0.2, 0.2, size=(3, 3))
    return tags, antennas


class TestLosChannel:
    def test_phase_encodes_path_length(self):
        channel = LosChannel()
        d = 10.0
        h = channel.coefficient(np.zeros(3), np.array([d, 0.0, 0.0]))
        expected_phase = (-2 * np.pi * d / WAVELENGTH_M) % (2 * np.pi)
        assert np.angle(h) % (2 * np.pi) == pytest.approx(expected_phase, abs=1e-9)

    def test_amplitude_is_friis(self):
        channel = LosChannel()
        h = channel.coefficient(np.zeros(3), np.array([15.0, 0.0, 0.0]))
        assert abs(h) == pytest.approx(friis_amplitude(15.0))

    def test_vectorized_matches_scalar(self):
        channel = LosChannel()
        rx = np.array([[10.0, 1.0, 2.0], [5.0, -2.0, 1.0]])
        vec = channel.coefficients(np.zeros(3), rx)
        for k in range(2):
            assert vec[k] == channel.coefficient(np.zeros(3), rx[k])

    @pytest.mark.parametrize("gain", [1.0, 0.37])
    def test_coefficients_equal_the_per_pair_loop(self, gain):
        """One transmitter ``(3,)`` gives ``(K,)``, many ``(m, 3)`` give
        ``(K, m)``; every element is the one-pair arithmetic bit for bit,
        and ``coefficient`` is its one-pair case."""
        channel = LosChannel(gain=gain)
        rng = np.random.default_rng(2025)
        pairs = 0
        for _ in range(60):
            tags, antennas = random_geometry(rng, int(rng.integers(1, 40)))
            reference = np.array(
                [[reference_coefficient(channel, t, rx) for t in tags] for rx in antennas]
            )
            many = channel.coefficients(tags, antennas)
            assert many.shape == (len(antennas), len(tags))
            assert same_bits(many, reference)
            for i, tag in enumerate(tags):
                assert same_bits(channel.coefficients(tag, antennas), reference[:, i])
                assert same_bits(channel.coefficient(tag, antennas[0]), reference[0, i])
            pairs += reference.size
        assert pairs > 3000

    def test_zero_distance_still_rejected(self):
        channel = LosChannel()
        point = np.array([1.0, 2.0, 3.0])
        others = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ConfigurationError):
            channel.coefficient(point, point)
        with pytest.raises(ConfigurationError):
            channel.coefficients(point, others)
        with pytest.raises(ConfigurationError):
            channel.coefficients(others, others)

    def test_phase_difference_encodes_aoa(self):
        """The core of Eq 10: across a lambda/2 baseline, the channel
        phase difference is pi*cos(alpha)."""
        channel = LosChannel()
        d = WAVELENGTH_M / 2.0
        ant1 = np.array([-d / 2, 0.0, 0.0])
        ant2 = np.array([+d / 2, 0.0, 0.0])
        tag = np.array([300.0, 400.0, 0.0])  # far field
        alpha = np.arccos(tag[0] / np.linalg.norm(tag))
        h1 = channel.coefficient(tag, ant1)
        h2 = channel.coefficient(tag, ant2)
        measured = np.angle(h2 / h1)
        assert measured == pytest.approx(np.pi * np.cos(alpha), abs=1e-3)


class TestMultipath:
    def test_los_only_matches_los_channel(self):
        multi = MultipathChannel()
        los = LosChannel()
        tx, rx = np.array([10.0, -5.0, 1.0]), np.array([0.0, 0.0, 4.0])
        assert multi.coefficient(tx, rx) == pytest.approx(los.coefficient(tx, rx))

    def test_ground_bounce_path_length(self):
        bounce = GroundBounce(road_z_m=0.0, reflection_coefficient=-0.3)
        tx = np.array([0.0, 0.0, 1.0])
        rx = np.array([3.0, 0.0, 2.0])
        result = bounce.resolve(tx, rx, WAVELENGTH_M)
        # Image of tx is at z=-1; distance to rx = sqrt(9 + 9) = sqrt(18).
        assert result.path_length_m == pytest.approx(np.sqrt(18.0))

    def test_bounce_weaker_than_los(self):
        channel = MultipathChannel(paths=(GroundBounce(reflection_coefficient=-0.25),))
        tx, rx = np.array([15.0, -5.0, 1.0]), np.array([0.0, 0.0, 4.0])
        paths = channel.resolve_paths(tx, rx)
        assert paths[0].label == "los"
        assert abs(paths[1].coefficient) < abs(paths[0].coefficient)

    def test_scatterer_total_path(self):
        scatterer = PointScatterer(np.array([5.0, 0.0, 0.0]), reflectivity=0.1)
        result = scatterer.resolve(np.zeros(3), np.array([10.0, 0.0, 0.0]), WAVELENGTH_M)
        assert result.path_length_m == pytest.approx(10.0)

    def test_composite_is_sum_of_paths(self):
        channel = MultipathChannel(
            paths=(GroundBounce(), PointScatterer(np.array([5.0, 5.0, 1.0])))
        )
        tx, rx = np.array([12.0, -3.0, 1.0]), np.array([0.0, 0.0, 4.0])
        total = channel.coefficient(tx, rx)
        parts = sum(p.coefficient for p in channel.resolve_paths(tx, rx))
        assert total == pytest.approx(parts)

    def test_coefficients_accept_one_or_many_transmitters(self):
        channel = MultipathChannel(
            paths=(GroundBounce(), PointScatterer(np.array([5.0, 5.0, 1.0])))
        )
        tags, antennas = random_geometry(np.random.default_rng(7), 6)
        many = channel.coefficients(tags, antennas)
        assert many.shape == (3, 6)
        for i, tag in enumerate(tags):
            one = channel.coefficients(tag, antennas)
            assert one.shape == (3,)
            for k, rx in enumerate(antennas):
                assert many[k, i] == one[k] == channel.coefficient(tag, rx)

    def test_bad_scatterer_position(self):
        with pytest.raises(ConfigurationError):
            PointScatterer(np.array([1.0, 2.0]))


class TestNoise:
    def test_thermal_floor_magnitude(self):
        """kTB at 4 MHz with NF 7 dB is about -101 dBm."""
        power = thermal_noise_power_w(4e6, noise_figure_db=7.0)
        dbm = 10 * np.log10(power) + 30
        assert dbm == pytest.approx(-101.0, abs=0.5)

    def test_awgn_power(self):
        rng = np.random.default_rng(0)
        noisy = add_awgn(np.zeros(200_000, dtype=complex), 2.0, rng)
        assert np.mean(np.abs(noisy) ** 2) == pytest.approx(2.0, rel=0.02)

    def test_zero_noise_is_identity(self):
        samples = np.ones(16, dtype=complex)
        assert np.array_equal(add_awgn(samples, 0.0), samples)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            add_awgn(np.zeros(4, dtype=complex), -1.0)

    def test_noise_model_power(self):
        assert NoiseModel(noise_figure_db=0.0).power_w(1e6) == pytest.approx(
            thermal_noise_power_w(1e6, 0.0)
        )

    def test_bandwidth_scaling(self):
        assert thermal_noise_power_w(2e6) == pytest.approx(2 * thermal_noise_power_w(1e6))
