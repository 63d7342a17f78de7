"""Unit tests for repro.channel.collision."""

import numpy as np
import pytest

from repro.channel.antenna import TriangleArray
from repro.channel.collision import StaticCollisionSimulator, synthesize_collision
from repro.channel.propagation import LosChannel
from repro.constants import (
    QUERY_DURATION_S,
    READER_LO_HZ,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from repro.errors import ConfigurationError
from tests.conftest import make_tag
from tests.test_propagation import reference_coefficient, same_bits


@pytest.fixture
def array():
    return TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))


class TestSynthesizeCollision:
    def test_antenna_count(self, array):
        tag = make_tag(300e3)
        collision = synthesize_collision(
            [tag.respond(0.0)], array.positions_m, LosChannel()
        )
        assert collision.n_antennas == 3

    def test_capture_window(self, array):
        tag = make_tag(300e3)
        response = tag.respond(0.0)
        collision = synthesize_collision([response], array.positions_m, LosChannel())
        assert collision.t0_s == pytest.approx(response.t0_s)
        assert collision.antenna(0).duration_s == pytest.approx(RESPONSE_DURATION_S)

    def test_truth_channel_reproduces_signal(self, array):
        """antenna capture == truth_channel * pre-channel baseband."""
        tag = make_tag(250e3, seed=3)
        response = tag.respond(0.0)
        collision = synthesize_collision(
            [response], array.positions_m, LosChannel(), noise_power_w=0.0
        )
        expected = response.baseband_at_lo(READER_LO_HZ).samples * collision.truth[0].channels[0]
        assert np.allclose(collision.antenna(0).samples, expected)

    def test_superposition_is_linear(self, array):
        tag_a = make_tag(200e3, position_m=(5.0, -4.0, 1.0), seed=1)
        tag_b = make_tag(700e3, position_m=(-8.0, -6.0, 1.0), seed=2)
        ra, rb = tag_a.respond(0.0), tag_b.respond(0.0)
        together = synthesize_collision([ra, rb], array.positions_m, LosChannel())
        alone_a = synthesize_collision([ra], array.positions_m, LosChannel())
        alone_b = synthesize_collision([rb], array.positions_m, LosChannel())
        assert np.allclose(
            together.antenna(0).samples,
            alone_a.antenna(0).samples + alone_b.antenna(0).samples,
        )

    def test_empty_responses_is_noise_only(self, array):
        collision = synthesize_collision(
            [], array.positions_m, LosChannel(), noise_power_w=1e-12, rng=1
        )
        assert collision.antenna(0).power() == pytest.approx(1e-12, rel=0.3)

    def test_true_cfos_sorted(self, array):
        tags = [make_tag(c, seed=i) for i, c in enumerate((900e3, 100e3, 500e3))]
        collision = synthesize_collision(
            [t.respond(0.0) for t in tags], array.positions_m, LosChannel()
        )
        assert np.array_equal(collision.true_cfos_hz(), [100e3, 500e3, 900e3])

    def test_positionless_tag_rejected(self, array):
        tag = make_tag(100e3)
        tag.position_m = None
        with pytest.raises(ConfigurationError):
            synthesize_collision([tag.respond(0.0)], array.positions_m, LosChannel())


class TestStaticCollisionSimulator:
    def test_response_timing(self, array):
        sim = StaticCollisionSimulator([make_tag(300e3)], array.positions_m, LosChannel())
        collision = sim.query(query_start_s=1.0)
        assert collision.t0_s == pytest.approx(1.0 + QUERY_DURATION_S + TURNAROUND_S)

    def test_matches_general_path_statistics(self, array):
        """Fast path and general path must put the peak in the same bin
        with the same magnitude (phases differ by design)."""
        tag = make_tag(420e3, seed=9)
        sim = StaticCollisionSimulator([tag], array.positions_m, LosChannel(), rng=0)
        fast = sim.query(0.0)
        general = synthesize_collision([tag.respond(0.0)], array.positions_m, LosChannel())
        spectrum_fast = np.abs(np.fft.fft(fast.antenna(0).samples))
        spectrum_gen = np.abs(np.fft.fft(general.antenna(0).samples))
        assert np.argmax(spectrum_fast) == np.argmax(spectrum_gen)
        assert spectrum_fast.max() == pytest.approx(spectrum_gen.max(), rel=1e-6)

    def test_phases_rerandomize_per_query(self, array):
        sim = StaticCollisionSimulator([make_tag(300e3)], array.positions_m, LosChannel(), rng=4)
        a = sim.query(0.0)
        b = sim.query(1e-3)
        assert a.truth[0].response.phase0_rad != b.truth[0].response.phase0_rad

    def test_empty_scene(self, array):
        sim = StaticCollisionSimulator([], array.positions_m, LosChannel(), noise_power_w=0.0)
        collision = sim.query(0.0)
        assert collision.antenna(0).power() == 0.0
        assert collision.truth == []

    def test_truth_channels_consistent_with_signal(self, array):
        tag = make_tag(640e3, seed=5)
        sim = StaticCollisionSimulator([tag], array.positions_m, LosChannel(), rng=1)
        collision = sim.query(0.0)
        # Demodulate at the CFO: mean = h * mean(s) = h / 2 (Eq 5).
        wave = collision.antenna(1)
        t = np.arange(wave.n_samples) / wave.sample_rate_hz
        demod = wave.samples * np.exp(-2j * np.pi * 640e3 * t)
        assert demod.mean() == pytest.approx(collision.truth[0].channels[1] / 2.0, rel=1e-6)

    def test_gains_and_truth_equal_the_per_tag_loop(self, array):
        """One gain call and one truth build give what the per-tag,
        per-antenna loop gave, bit for bit."""
        rng = np.random.default_rng(17)
        tags = [
            make_tag(
                float(rng.uniform(-400e3, 400e3)),
                position_m=(rng.uniform(-30.0, 30.0), rng.uniform(-8.0, 0.0), 1.0),
                seed=i,
            )
            for i in range(12)
        ]
        channel = LosChannel()
        sim = StaticCollisionSimulator(tags, array.positions_m, channel, rng=3)
        gains = np.array(
            [
                [reference_coefficient(channel, tag.position_m, rx) * tag.tx_amplitude for tag in tags]
                for rx in array.positions_m
            ]
        )
        assert same_bits(sim._gains, gains)
        collision = sim.query(0.0, rng=8)
        phases = np.exp(1j * np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, size=12))
        weights = gains * phases[None, :]
        assert len(collision.truth) == len(tags)
        for i, (tag, entry) in enumerate(zip(tags, collision.truth)):
            assert entry.response.transponder is tag
            assert entry.response.phase0_rad == float(np.angle(phases[i]))
            assert same_bits(entry.channels, weights[:, i])

    def test_rejects_positionless_tags(self, array):
        tag = make_tag(100e3)
        tag.position_m = None
        with pytest.raises(ConfigurationError):
            StaticCollisionSimulator([tag], array.positions_m, LosChannel())


class TestReceivedCollisionValidation:
    def waves(self, n=2, n_samples=64, rate=4e6):
        from repro.phy.waveform import Waveform

        return [
            Waveform(np.zeros(n_samples, dtype=np.complex128), rate)
            for _ in range(n)
        ]

    def test_empty_antenna_list_rejected(self):
        """An empty collision used to surface as a bare IndexError from
        sample_rate_hz/t0_s; construction must reject it instead."""
        from repro.channel.collision import ReceivedCollision

        with pytest.raises(ConfigurationError):
            ReceivedCollision(antennas=[], lo_hz=READER_LO_HZ)

    def test_mismatched_lengths_rejected(self):
        from repro.channel.collision import ReceivedCollision
        from repro.phy.waveform import Waveform

        waves = self.waves(1) + [Waveform(np.zeros(32, dtype=np.complex128), 4e6)]
        with pytest.raises(ConfigurationError):
            ReceivedCollision(antennas=waves, lo_hz=READER_LO_HZ)

    def test_mismatched_rates_rejected(self):
        from repro.channel.collision import ReceivedCollision
        from repro.phy.waveform import Waveform

        waves = self.waves(1) + [Waveform(np.zeros(64, dtype=np.complex128), 2e6)]
        with pytest.raises(ConfigurationError):
            ReceivedCollision(antennas=waves, lo_hz=READER_LO_HZ)

    def test_valid_collision_accepted(self):
        from repro.channel.collision import ReceivedCollision

        collision = ReceivedCollision(antennas=self.waves(3), lo_hz=READER_LO_HZ)
        assert collision.n_antennas == 3
        assert collision.sample_rate_hz == pytest.approx(4e6)
