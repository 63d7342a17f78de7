"""Unit tests for repro.core.cfo."""

import numpy as np
import pytest

from repro.channel.antenna import TriangleArray
from repro.channel.propagation import LosChannel
from repro.core.cfo import estimate_channel, extract_cfo_peaks, refine_frequency
from repro.errors import SpectrumError
from repro.phy.waveform import Waveform
from repro.sim.city.moving import ParkedSource
from tests.conftest import make_tag

FS = 4e6


class TestRefineFrequency:
    def test_on_grid_tone(self):
        wave = Waveform.tone(400e3, 512e-6, FS)
        assert refine_frequency(wave, 400e3 + 500, span_hz=977.0) == pytest.approx(
            400e3, abs=20.0
        )

    def test_off_grid_tone(self):
        freq = 517_321.0
        wave = Waveform.tone(freq, 512e-6, FS)
        start = freq + 800.0
        assert refine_frequency(wave, start, span_hz=977.0) == pytest.approx(freq, abs=20.0)

    def test_with_noise(self):
        rng = np.random.default_rng(0)
        freq = 612_345.0
        wave = Waveform.tone(freq, 512e-6, FS, amplitude=1.0)
        noisy = Waveform(wave.samples + 0.05 * rng.normal(size=2048), FS)
        assert refine_frequency(noisy, freq + 700, span_hz=977.0) == pytest.approx(
            freq, abs=100.0
        )

    def test_bad_span_rejected(self):
        with pytest.raises(SpectrumError):
            refine_frequency(Waveform.silence(1e-4, FS), 1e3, span_hz=0.0)


class TestEstimateChannel:
    def test_recovers_applied_channel(self):
        """2 * R(cfo) = h exactly, per Eq 5."""
        tag = make_tag(444e3, seed=4)
        response = tag.respond(0.0)
        h = 2.2e-4 * np.exp(1j * 0.7)
        wave = response.baseband_at_lo(response.carrier_hz - 444e3).scaled(h)
        estimate = estimate_channel(wave, 444e3)
        # The estimate includes the response's own random phase.
        expected = h * np.exp(1j * response.phase0_rad)
        assert estimate == pytest.approx(expected, rel=0.02)

    def test_phase_consistency_across_antennas(self):
        """The AoA primitive: channel ratio across antennas must match the
        true channel ratio (random tag phase cancels)."""
        tag = make_tag(350e3, position_m=(12.0, -6.0, 1.0), seed=5)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource([tag], array.positions_m, LosChannel(), rng=1)
        collision = sim.query(0.0)
        h0 = estimate_channel(collision.antenna(0), 350e3)
        h1 = estimate_channel(collision.antenna(1), 350e3)
        truth = collision.truth[0].channels
        assert h1 / h0 == pytest.approx(truth[1] / truth[0], rel=1e-3)


class TestExtractCfoPeaks:
    def test_five_tags(self):
        cfos = [150e3, 390e3, 610e3, 840e3, 1080e3]
        tags = [make_tag(c, position_m=(3.0 + 3 * i, -6.0, 1.0), seed=i) for i, c in enumerate(cfos)]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource(tags, array.positions_m, LosChannel(), noise_power_w=1e-13, rng=2)
        peaks = extract_cfo_peaks(sim.query(0.0).antenna(0), min_snr_db=15)
        assert len(peaks) == 5
        for peak, cfo in zip(peaks, cfos):
            assert peak.cfo_hz == pytest.approx(cfo, abs=300.0)

    def test_channels_match_truth(self):
        """Magnitude matches truth exactly; the synthesizer's relative
        time base adds one constant phase per tag, so phases are compared
        through the antenna *ratio* (which every algorithm uses)."""
        tag = make_tag(777e3, seed=7)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource([tag], array.positions_m, LosChannel(), rng=3)
        collision = sim.query(0.0)
        peaks = extract_cfo_peaks(collision.antenna(0), min_snr_db=15)
        assert len(peaks) == 1
        assert abs(peaks[0].channel) == pytest.approx(
            abs(collision.truth[0].channels[0]), rel=0.05
        )
        h1 = estimate_channel(collision.antenna(1), peaks[0].cfo_hz)
        ratio = h1 / peaks[0].channel
        truth_ratio = collision.truth[0].channels[1] / collision.truth[0].channels[0]
        assert ratio == pytest.approx(truth_ratio, rel=0.02)

    def test_sorted_by_frequency(self):
        tags = [make_tag(c, seed=i) for i, c in enumerate((900e3, 100e3))]
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource(tags, array.positions_m, LosChannel(), rng=4)
        peaks = extract_cfo_peaks(sim.query(0.0).antenna(0), min_snr_db=15)
        cfos = [p.cfo_hz for p in peaks]
        assert cfos == sorted(cfos)

    def test_refine_can_be_disabled(self):
        tag = make_tag(502e3, seed=8)
        array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
        sim = ParkedSource([tag], array.positions_m, LosChannel(), rng=5)
        peaks = extract_cfo_peaks(sim.query(0.0).antenna(0), min_snr_db=15, refine=False)
        assert len(peaks) == 1
