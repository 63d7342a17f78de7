"""Unit tests for repro.baselines."""

import numpy as np
import pytest

from repro.baselines.bandpass_decoder import BandpassDecoder
from repro.baselines.camera import CameraConditions, CameraCounter
from repro.baselines.naive_counter import NaiveCounter
from repro.baselines.radar import RadarGun
from repro.channel.antenna import TriangleArray
from repro.channel.noise import thermal_noise_power_w
from repro.channel.propagation import LosChannel
from repro.constants import FFT_RESOLUTION_HZ
from repro.core.decoding import CoherentDecoder
from repro.errors import ConfigurationError
from repro.sim.city.moving import ParkedSource
from tests.conftest import make_tag


class TestNaiveCounter:
    def test_counts_separated_tags(self):
        tags = [make_tag(c, position_m=(3.0 * i + 2, -8.0, 1.0), seed=i) for i, c in enumerate((200e3, 600e3, 1000e3))]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource(
            tags, array.positions_m, LosChannel(), noise_power_w=thermal_noise_power_w(4e6), rng=1
        )
        assert NaiveCounter().count(sim.query(0.0).antenna(0)) == 3

    def test_same_bin_pair_counted_once(self):
        """The failure Caraoke's §5 upgrade fixes."""
        tags = [make_tag(c, position_m=(3.0 * i + 2, -8.0, 1.0), seed=i) for i, c in enumerate((500_000.0, 500_700.0))]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource(
            tags, array.positions_m, LosChannel(), noise_power_w=thermal_noise_power_w(4e6), rng=2
        )
        assert NaiveCounter().count(sim.query(0.0).antenna(0)) == 1

    def test_count_bins_idealized(self):
        counter = NaiveCounter()
        cfos = np.array([10e3, 11e3, 500e3])  # first two share a bin
        assert counter.count_bins(cfos, FFT_RESOLUTION_HZ) == 2

    def test_count_bins_empty(self):
        assert NaiveCounter().count_bins(np.array([]), FFT_RESOLUTION_HZ) == 0


class TestCameraCounter:
    def test_daylight_error_is_small(self):
        camera = CameraCounter(CameraConditions(illumination="day", occlusion=0.05))
        assert camera.expected_error_fraction() < 0.08

    def test_adverse_conditions_reach_tens_of_percent(self):
        """[43]: errors up to ~26 % in bad illumination/wind."""
        camera = CameraCounter(
            CameraConditions(illumination="night", wind=0.8, occlusion=0.3, dirty_lens=0.5)
        )
        assert camera.expected_error_fraction() > 0.15

    def test_count_is_noisy_but_unbiased_scale(self):
        camera = CameraCounter(
            CameraConditions(illumination="day", occlusion=0.1), rng=np.random.default_rng(0)
        )
        counts = [camera.count(100) for _ in range(300)]
        assert 80 < np.mean(counts) < 100

    def test_zero_cars(self):
        camera = CameraCounter(rng=np.random.default_rng(1))
        assert camera.count(0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CameraConditions(illumination="fog")
        with pytest.raises(ConfigurationError):
            CameraConditions(wind=2.0)


class TestRadarGun:
    def test_single_car_always_correct(self):
        gun = RadarGun(rng=np.random.default_rng(0))
        assert gun.wrong_ticket_rate(cars_in_beam=1, trials=200) == 0.0

    def test_multi_car_confusion_in_paper_range(self):
        """§4 [6]: 10-30 % of radar tickets hit the wrong car."""
        gun = RadarGun(rng=np.random.default_rng(1))
        rate_2 = gun.wrong_ticket_rate(cars_in_beam=2, trials=3000)
        rate_7 = gun.wrong_ticket_rate(cars_in_beam=7, trials=3000)
        assert 0.07 <= rate_2 <= 0.14
        assert 0.15 <= rate_7 <= 0.35

    def test_confusion_saturates(self):
        gun = RadarGun()
        assert gun.confusion_probability(50) == pytest.approx(gun.max_confusion)

    def test_speed_measurement_accurate(self):
        gun = RadarGun(rng=np.random.default_rng(2))
        speeds = np.array([20.0])
        outcomes = [gun.enforce(speeds, 0).measured_speed_m_s for _ in range(300)]
        assert np.mean(outcomes) == pytest.approx(20.0, abs=0.1)
        assert np.std(outcomes) < 1.0

    def test_validation(self):
        gun = RadarGun()
        with pytest.raises(ConfigurationError):
            gun.enforce(np.array([]), 0)
        with pytest.raises(ConfigurationError):
            gun.confusion_probability(0)


class TestBandpassDecoder:
    @pytest.fixture
    def lone_tag_capture(self):
        tag = make_tag(500e3, position_m=(8.0, -6.0, 1.0), seed=3)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource(
            [tag], array.positions_m, LosChannel(), noise_power_w=thermal_noise_power_w(4e6), rng=4
        )
        return sim.query(0.0).antenna(0), tag

    def test_narrow_filter_destroys_data(self, lone_tag_capture):
        """§8: the data is spread, not at the spike — a narrow filter
        yields garbage bits even with NO interferers."""
        capture, tag = lone_tag_capture
        decoder = BandpassDecoder(half_bandwidth_hz=25e3)
        ber = decoder.bit_error_rate(capture, 500e3, tag.packet.to_bits())
        assert ber > 0.2  # near-random

    def test_decode_fails(self, lone_tag_capture):
        capture, _ = lone_tag_capture
        assert BandpassDecoder().decode(capture, 500e3) is None

    def test_caraoke_decodes_where_bandpass_fails(self, lone_tag_capture):
        capture, tag = lone_tag_capture
        assert BandpassDecoder().decode(capture, 500e3) is None
        result = CoherentDecoder(4e6).decode([capture], 500e3)
        assert result.success and result.packet == tag.packet
