"""Unit tests for repro.dsp.sfft."""

import numpy as np
import pytest

from repro.dsp import sfft
from repro.dsp.sfft import _bucketize, sparse_fft_peaks
from repro.errors import ConfigurationError, SpectrumError
from tests.test_counting import build_simulator


def make_sparse_signal(n, tones, rng=None):
    """tones: list of (bin, amplitude)."""
    t = np.arange(n)
    x = np.zeros(n, dtype=complex)
    for k, a in tones:
        x += a * np.exp(2j * np.pi * k * t / n)
    if rng is not None:
        x += rng.normal(0, 1e-3, n) + 1j * rng.normal(0, 1e-3, n)
    return x


class TestExactlySparse:
    def test_single_tone_on_grid(self):
        x = make_sparse_signal(2048, [(300, 1.0)])
        tones = sparse_fft_peaks(x, max_tones=1, rng=0)
        assert len(tones) == 1
        assert tones[0].freq_bin == pytest.approx(300.0, abs=0.01)
        assert abs(tones[0].amplitude) == pytest.approx(1.0, rel=0.05)

    def test_single_tone_off_grid(self):
        """Phase-based location recovers *fractional* bins directly."""
        x = make_sparse_signal(2048, [(300.4, 1.0)])
        tones = sparse_fft_peaks(x, max_tones=1, rng=0)
        assert tones[0].freq_bin == pytest.approx(300.4, abs=0.2)

    def test_five_separated_tones(self):
        rng = np.random.default_rng(1)
        bins = [100, 400, 700, 1200, 1800]
        x = make_sparse_signal(2048, [(b, 1.0) for b in bins], rng)
        tones = sparse_fft_peaks(x, max_tones=5, rng=2)
        found = sorted(t.freq_bin for t in tones)
        assert len(found) == 5
        for f, b in zip(found, bins):
            assert f == pytest.approx(b, abs=0.5)

    def test_amplitude_ordering(self):
        x = make_sparse_signal(2048, [(100, 0.3), (900, 1.0)])
        tones = sparse_fft_peaks(x, max_tones=2, rng=0)
        assert abs(tones[0].amplitude) > abs(tones[1].amplitude)
        assert tones[0].freq_bin == pytest.approx(900, abs=0.5)

    def test_matches_full_fft(self):
        rng = np.random.default_rng(3)
        bins = [250, 800, 1500]
        x = make_sparse_signal(4096, [(b, rng.uniform(0.5, 2.0)) for b in bins], rng)
        tones = sparse_fft_peaks(x, max_tones=3, rng=4)
        full = np.fft.fft(x) / x.size
        for tone in tones:
            k = int(round(tone.freq_bin))
            assert abs(tone.amplitude) == pytest.approx(abs(full[k]), rel=0.05)

    def test_five_tag_collision(self):
        """§10 on a real collision: the five tags' CFO spikes sit on the
        wideband OOK data floor, and the sparse recovery still finds at
        least four of them within one FFT bin."""
        rng = np.random.default_rng(3)
        cfos = rng.uniform(20e3, 1.19e6, size=5)
        wave = build_simulator(cfos, seed=3).query(0.0).antenna(0)
        tones = sparse_fft_peaks(wave.samples, max_tones=5, rng=0)
        found = np.array([t.freq_hz(wave.sample_rate_hz, wave.n_samples) for t in tones])
        bin_hz = wave.sample_rate_hz / wave.n_samples
        matched = sum(1 for cfo in cfos if np.min(np.abs(found - cfo)) < bin_hz)
        assert matched >= 4

    def test_widening_recovers_tones_the_first_buckets_lose(self, monkeypatch):
        """Eight tones folded onto eight buckets collide, so the first
        bucketization returns fewer than ``max_tones`` tones; the
        fallback doubles the bucket count until every tone is back."""
        bins = [53, 102, 171, 560, 637, 1043, 1295, 1722]
        x = make_sparse_signal(2048, [(b, 1.0) for b in bins])
        widened = []

        def spy(x, max_tones, n_buckets=None, rng=None):
            widened.append(n_buckets)
            return sparse_fft_peaks(x, max_tones, n_buckets=n_buckets, rng=rng)

        monkeypatch.setattr(sfft, "sparse_fft_peaks", spy)
        tones = sparse_fft_peaks(x, max_tones=8, n_buckets=8, rng=0)
        assert widened[:1] == [16]
        found = sorted(t.freq_bin for t in tones)
        assert found == pytest.approx(bins, abs=0.5)

    def test_freq_hz_conversion(self):
        x = make_sparse_signal(2048, [(512, 1.0)])
        tone = sparse_fft_peaks(x, max_tones=1, rng=0)[0]
        assert tone.freq_hz(4e6, 2048) == pytest.approx(512 * 4e6 / 2048)


class TestValidation:
    def test_indivisible_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            sparse_fft_peaks(np.zeros(1000, dtype=complex), max_tones=2, n_buckets=64)

    def test_empty_input_rejected(self):
        with pytest.raises(SpectrumError):
            sparse_fft_peaks(np.zeros(0, dtype=complex), max_tones=1)

    def test_bucketize_short_capture_rejected(self):
        """Regression: a stride/shift combination that cannot fill every
        bucket used to return a short FFT whose buckets were misindexed;
        it must fail loudly instead."""
        x = np.ones(64, dtype=complex)
        with pytest.raises(SpectrumError, match="bucketization needs"):
            _bucketize(x, stride=8, n_buckets=16, shift=0)  # only 8 fit
        with pytest.raises(SpectrumError, match="bucketization needs"):
            _bucketize(x, stride=4, n_buckets=16, shift=4)  # shift eats one

    def test_bucketize_exact_fit_ok(self):
        x = np.exp(2j * np.pi * 5 * np.arange(64) / 64)
        buckets = _bucketize(x, stride=4, n_buckets=16, shift=0)
        assert buckets.shape == (16,)
        # A tone at bin 5 of 64 folds to bucket 5 of 16 under stride 4.
        assert int(np.argmax(np.abs(buckets))) == 5

    def test_short_captures_still_recover_tones(self):
        """The public pipeline never hands _bucketize an unfillable
        window, even for captures barely longer than the bucket count."""
        for n in (32, 48, 64):
            x = make_sparse_signal(n, [(7, 1.0)])
            tones = sparse_fft_peaks(x, max_tones=1, n_buckets=8, rng=0)
            assert len(tones) == 1
            assert tones[0].freq_bin == pytest.approx(7.0, abs=0.2)

    def test_noise_only_returns_few_or_none(self):
        rng = np.random.default_rng(5)
        x = (rng.normal(0, 1e-6, 2048) + 1j * rng.normal(0, 1e-6, 2048))
        tones = sparse_fft_peaks(x, max_tones=3, rng=6)
        # Nothing coherent to find; whatever comes back must be tiny.
        for tone in tones:
            assert abs(tone.amplitude) < 1e-6
