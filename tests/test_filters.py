"""Unit tests for repro.dsp.filters and repro.dsp.beamforming and sar."""

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, PointScatterer
from repro.channel.propagation import LosChannel
from repro.constants import WAVELENGTH_M
from repro.dsp.beamforming import bartlett_spectrum, music_spectrum, steering_matrix
from repro.dsp.filters import apply_fir, design_complex_bandpass
from repro.dsp.sar import ArrayMeasurement, CircularSAR, angular_peak_ratio
from repro.errors import ConfigurationError
from repro.phy.waveform import Waveform

FS = 4e6


class TestBandpass:
    def test_passband_gain_unity(self):
        taps = design_complex_bandpass(FS, 400e3, 50e3, n_taps=257)
        tone = Waveform.tone(400e3, 512e-6, FS)
        out = apply_fir(tone, taps)
        mid = slice(300, 1700)  # avoid edge transients
        assert np.mean(np.abs(out.samples[mid])) == pytest.approx(1.0, rel=0.02)

    def test_stopband_rejection(self):
        taps = design_complex_bandpass(FS, 400e3, 30e3, n_taps=257)
        tone = Waveform.tone(800e3, 512e-6, FS)
        out = apply_fir(tone, taps)
        assert np.mean(np.abs(out.samples[300:1700])) < 0.01

    def test_even_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            design_complex_bandpass(FS, 400e3, 50e3, n_taps=128)

    def test_bandwidth_validation(self):
        with pytest.raises(ConfigurationError):
            design_complex_bandpass(FS, 400e3, 3e6)

    def test_apply_preserves_timebase(self):
        taps = design_complex_bandpass(FS, 100e3, 50e3)
        wave = Waveform.tone(100e3, 1e-4, FS, t0_s=0.5)
        assert apply_fir(wave, taps).t0_s == 0.5

    @pytest.mark.parametrize("n_samples", [2048, 400, 100])
    def test_matches_scipy_same_mode(self, n_samples):
        """The direct convolution keeps SciPy's 'same' output (within
        1e-12 relative), its length, and ``t0``, also when the taps are
        longer than the waveform."""
        fftconvolve = pytest.importorskip("scipy.signal").fftconvolve
        rng = np.random.default_rng(8)
        samples = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
        wave = Waveform(samples, FS, t0_s=0.25)
        taps = design_complex_bandpass(FS, 400e3, 25e3, n_taps=257)
        out = apply_fir(wave, taps)
        expected = fftconvolve(samples, taps, mode="same")
        assert out.samples.shape == expected.shape
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out.samples - expected)) <= 1e-12 * scale
        assert out.t0_s == 0.25


class TestBeamforming:
    @pytest.fixture
    def circle(self):
        psi = 2 * np.pi * np.arange(64) / 64
        return 0.7 * np.stack([np.cos(psi), np.sin(psi), np.zeros_like(psi)], axis=1)

    def test_steering_shape(self, circle):
        grid = np.linspace(-np.pi, np.pi, 181)
        assert steering_matrix(circle, WAVELENGTH_M, grid).shape == (64, 181)

    def test_bartlett_peaks_at_source(self, circle):
        azimuth = np.deg2rad(40.0)
        direction = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
        x = np.exp(2j * np.pi / WAVELENGTH_M * (circle @ direction))
        grid = np.linspace(-np.pi, np.pi, 721)
        profile = bartlett_spectrum(x, circle, WAVELENGTH_M, grid)
        assert np.rad2deg(grid[np.argmax(profile)]) == pytest.approx(40.0, abs=1.0)

    def test_bartlett_normalized(self, circle):
        x = np.ones(64, dtype=complex)
        profile = bartlett_spectrum(x, circle, WAVELENGTH_M, np.linspace(-np.pi, np.pi, 91))
        assert profile.max() == pytest.approx(1.0)

    def test_music_resolves_two_incoherent_sources(self, circle):
        rng = np.random.default_rng(0)
        az = [np.deg2rad(-30.0), np.deg2rad(55.0)]
        steer = steering_matrix(circle, WAVELENGTH_M, np.array(az))
        snapshots = []
        for _ in range(200):
            gains = rng.normal(size=2) + 1j * rng.normal(size=2)
            snapshots.append(steer @ gains + 0.01 * (rng.normal(size=64) + 1j * rng.normal(size=64)))
        x = np.stack(snapshots, axis=1)
        grid = np.linspace(-np.pi, np.pi, 721)
        profile = music_spectrum(x, circle, WAVELENGTH_M, grid, n_sources=2)
        found = np.sort(grid[_top_two(profile)])
        assert np.rad2deg(found[0]) == pytest.approx(-30.0, abs=1.5)
        assert np.rad2deg(found[1]) == pytest.approx(55.0, abs=1.5)

    def test_music_source_count_validated(self, circle):
        with pytest.raises(ConfigurationError):
            music_spectrum(np.ones(64, complex), circle, WAVELENGTH_M, np.zeros(3), n_sources=64)


def _top_two(profile):
    order = np.argsort(profile)[::-1]
    first = order[0]
    for idx in order[1:]:
        if abs(idx - first) > 20:
            return sorted([first, idx])
    return sorted(order[:2])


class TestCircularSar:
    def test_positions_on_circle(self):
        sar = CircularSAR(center_m=np.array([0.0, 0.0, 3.8]), n_positions=90)
        positions = sar.positions()
        radii = np.linalg.norm(positions[:, :2], axis=1)
        assert np.allclose(radii, 0.70)
        assert np.allclose(positions[:, 2], 3.8)

    def test_profile_peaks_toward_tag(self):
        sar = CircularSAR(center_m=np.array([0.0, 0.0, 3.8]), n_positions=180)
        tag = np.array([20.0, -15.0, 1.0])
        measurement = sar.measure(tag, LosChannel())
        grid = np.linspace(-np.pi, np.pi, 721)
        profile = measurement.bartlett_profile(grid)
        found = np.rad2deg(grid[np.argmax(profile)])
        expected = np.rad2deg(np.arctan2(-15.0, 20.0))
        assert found == pytest.approx(expected, abs=2.0)

    def test_peak_ratio_with_scatterer(self):
        """A weak scatterer produces a secondary lobe; the ratio metric
        must report LoS dominance (Fig 14's 27x regime)."""
        sar = CircularSAR(center_m=np.array([0.0, 0.0, 3.8]), n_positions=180)
        tag = np.array([20.0, 0.0, 1.0])
        channel = MultipathChannel(
            paths=(PointScatterer(np.array([-5.0, 18.0, 1.0]), reflectivity=0.35),)
        )
        measurement = sar.measure(tag, channel)
        grid = np.linspace(-np.pi, np.pi, 721)
        profile = measurement.bartlett_profile(grid)
        ratio = angular_peak_ratio(profile, grid)
        assert 1.0 < ratio < np.inf

    def test_measurement_validates_shapes(self):
        with pytest.raises(ConfigurationError):
            ArrayMeasurement(np.zeros((4, 3)), np.zeros(3), WAVELENGTH_M)

    def test_too_few_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            CircularSAR(center_m=np.zeros(3), n_positions=4)

    def test_peak_ratio_single_peak_is_inf(self):
        grid = np.linspace(-np.pi, np.pi, 361)
        profile = np.exp(-((grid - 0.5) ** 2) / 0.001)
        assert angular_peak_ratio(profile, grid) == np.inf
