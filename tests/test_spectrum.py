"""Unit tests for repro.dsp.spectrum and repro.dsp.peaks."""

import numpy as np
import pytest

from repro.constants import CFO_BIN_COUNT, FFT_RESOLUTION_HZ, READER_LO_HZ
from repro.dsp.peaks import (
    BandScan,
    SpectralPeak,
    band_floors,
    detected_bins,
    estimate_noise_floor,
    find_peaks_in_magnitudes,
    find_spectral_peaks,
    local_noise_floor,
    parabolic_offset,
)
from repro.dsp.spectrum import (
    PROBE_BLOCKS,
    dirichlet_kernel,
    fft_spectrum,
    single_bin_dft,
    tone_block_sums,
    tone_factors,
)
from repro.errors import SpectrumError
from repro.phy.waveform import Waveform
from repro.utils import db_to_amplitude
from tests.conftest import make_tag

FS = 4e6


class TestSpectrum:
    def test_resolution_is_1_over_T(self):
        """Eq 6: the full 512 us window gives 1.953 kHz bins."""
        wave = Waveform.silence(512e-6, FS)
        spectrum = fft_spectrum(wave)
        assert spectrum.resolution_hz == pytest.approx(FFT_RESOLUTION_HZ)
        assert spectrum.resolution_hz == pytest.approx(1953.125)

    def test_bin_count_615(self):
        """§5: the 1.2 MHz CFO span covers N = 615 bins."""
        assert CFO_BIN_COUNT == 615

    def test_tone_lands_in_right_bin(self):
        wave = Waveform.tone(400e3, 512e-6, FS)
        spectrum = fft_spectrum(wave)
        assert np.argmax(spectrum.magnitude()) == spectrum.bin_of(400e3)

    def test_bin_freq_roundtrip(self):
        spectrum = fft_spectrum(Waveform.silence(512e-6, FS))
        assert spectrum.freq_of(spectrum.bin_of(250e3)) == pytest.approx(250e3, abs=spectrum.bin_hz)

    def test_zero_padding_keeps_resolution(self):
        wave = Waveform.tone(100e3, 512e-6, FS)
        spectrum = fft_spectrum(wave, n_fft=4096)
        assert spectrum.n_bins == 4096
        assert spectrum.resolution_hz == pytest.approx(FFT_RESOLUTION_HZ)

    def test_window_offset_shifts_start(self):
        wave = Waveform.tone(100e3, 512e-6, FS)
        spectrum = fft_spectrum(wave, offset_samples=256, length_samples=1024)
        assert spectrum.window_start_s == pytest.approx(256 / FS)
        assert spectrum.n_input == 1024

    def test_full_rect_window_transforms_the_samples_as_they_are(self):
        """The whole capture under the rectangular window is transformed
        without a copy or a unit taper, equal bit for bit to the tapered
        copy (a shortcut that tapered, or cut the window, fails)."""
        rng = np.random.default_rng(5)
        samples = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        wave = Waveform(samples, FS, 1.5e-3)
        spectrum = fft_spectrum(wave)
        taper = np.ones(wave.n_samples)
        assert spectrum.values.tobytes() == np.fft.fft(samples.copy() * taper).tobytes()
        assert (spectrum.window_start_s, spectrum.n_input) == (1.5e-3, 2048)
        padded = fft_spectrum(wave, n_fft=4096)
        assert padded.values.tobytes() == np.fft.fft(samples * taper, n=4096).tobytes()

    def test_unknown_window_rejected(self):
        with pytest.raises(SpectrumError):
            fft_spectrum(Waveform.silence(1e-4, FS), window="kaiser")

    def test_bin_of_out_of_range(self):
        spectrum = fft_spectrum(Waveform.silence(1e-4, FS))
        with pytest.raises(SpectrumError):
            spectrum.bin_of(5e6)


class TestSingleBinDft:
    def test_tone_amplitude_recovered(self):
        wave = Waveform.tone(313e3, 512e-6, FS, amplitude=2.5)
        assert abs(single_bin_dft(wave, 313e3)) == pytest.approx(2.5, rel=1e-3)

    def test_off_grid_tone_exact(self):
        """Works at arbitrary (non-bin-centered) frequencies."""
        freq = 313_777.7
        wave = Waveform.tone(freq, 512e-6, FS, amplitude=1.0)
        assert abs(single_bin_dft(wave, freq)) == pytest.approx(1.0, rel=1e-9)

    def test_absolute_time_reference(self):
        """Two windows of the same tone yield the same complex value when
        referenced to absolute time — the §5/§6 cross-window invariant."""
        wave = Waveform.tone(400e3, 512e-6, FS)
        a = single_bin_dft(wave, 400e3, offset_samples=0, length_samples=1024)
        b = single_bin_dft(wave, 400e3, offset_samples=512, length_samples=1024)
        assert a == pytest.approx(b, rel=1e-9)

    def test_eq5_channel_readout(self):
        """On a real OOK response: 2 * R(cfo) == h (Eq 5)."""
        tag = make_tag(500e3, seed=2)
        h = 0.003 * np.exp(1j * 1.1)
        wave = tag.respond(0.0).baseband_at_lo(READER_LO_HZ).scaled(h)
        estimate = 2.0 * single_bin_dft(wave, 500e3)
        # Tag applies its own random phase0; compare magnitudes and the
        # phase difference against that known phase.
        assert abs(estimate) == pytest.approx(abs(h), rel=0.02)


class TestDirichletKernel:
    """``dirichlet_kernel(phi, L)`` is the sum ``sum_{n<L} exp(j phi n)``."""

    def test_matches_the_series(self):
        rng = np.random.default_rng(4)
        for length in (1, 2, 7, 256, 2048):
            phis = np.concatenate(
                [
                    rng.uniform(-7.0, 7.0, 40),
                    [0.0, 2 * np.pi, -4 * np.pi, np.pi, -np.pi, 1e-12, -3e-9, 2 * np.pi + 1e-9],
                ]
            )
            series = np.exp(1j * phis[:, None] * np.arange(length)[None, :]).sum(axis=1)
            got = dirichlet_kernel(phis, length)
            assert np.abs(got - series).max() < 1e-11 * length

    def test_lengths_broadcast_as_separate_calls(self):
        """One call over an array of lengths equals one call per length,
        bit for bit (the §5 fit reads the Gram's and the sub-window
        kernels off one call); a zero phase gives each its own length."""
        rng = np.random.default_rng(12)
        phis = rng.uniform(-4.0, 4.0, (9, 9))
        np.fill_diagonal(phis, 0.0)
        lengths = np.array([2048, 256])
        got = dirichlet_kernel(phis, lengths[:, None, None])
        for row, length in zip(got, lengths.tolist()):
            assert row.tobytes() == dirichlet_kernel(phis, length).tobytes()

    def test_zero_frequency_is_the_length_without_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dirichlet_kernel(np.array([[0.0, 2 * np.pi]]), 64)
        assert got.shape == (1, 2)
        assert got[0, 0] == 64.0


def _materialized(outer, inner, n):
    """Reference: the m x N probe rows rebuilt block by block from their
    factors; block ``b`` covers samples ``b L .. min(N, (b + 1) L)``."""
    length = inner.shape[1]
    rows = np.empty((len(outer), n), dtype=complex)
    for b in range(outer.shape[1]):
        stop = min(n, (b + 1) * length)
        rows[:, b * length : stop] = outer[:, b : b + 1] * inner[:, : stop - b * length]
    return rows


def _direct_probes(freqs, t0_s, n):
    """Reference: ``exp(-j 2 pi f t)`` on the capture's own sample clock."""
    t = t0_s + np.arange(n) / FS
    return np.exp(-2j * np.pi * np.asarray(freqs)[:, None] * t[None, :])


class TestToneFactors:
    """``tone_factors`` splits every probe ``exp(-j 2 pi f t)`` into block
    starts and in-block taps; ``tone_block_sums`` reads a capture with
    them. Lengths cover whole blocks (2048, 64), a trailing partial block
    (2047, 1001, 15) and fewer samples than blocks (5)."""

    LENGTHS = (2048, 2047, 1001, 64, 15, 5)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("t0_s", [0.0, 1.5e-3, 0.5])
    def test_rows_match_the_direct_probe(self, n, t0_s):
        rng = np.random.default_rng(n)
        freqs = rng.uniform(-1.2e6, 1.2e6, 16)
        outer, inner = tone_factors(freqs, t0_s, FS, n)
        length = max(1, n // PROBE_BLOCKS)
        assert inner.shape == (16, length)
        assert outer.shape == (16, -(-n // length))
        # Both sides round w t to a few ulps of the largest phase
        # (~8e-10 rad at a 0.5 s clock); a wrong block start, tap or
        # sign is off by order one.
        phase = 2.0 * np.pi * np.abs(freqs).max() * (t0_s + n / FS)
        bound = 1e-12 + 4.0 * np.finfo(float).eps * phase
        got = _materialized(outer, inner, n)
        assert np.abs(got - _direct_probes(freqs, t0_s, n)).max() <= bound

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble"
    )
    def test_phase_error_on_a_long_clock_no_worse_than_direct(self):
        """At an 89.9 s world clock both probes carry up to ~1e-7 rad of
        phase rounding (about one ulp of ``w t``) against an
        extended-precision product of the same tones; the factored one
        carries no more than the direct one."""
        rng = np.random.default_rng(5)
        t0_s, n = 89.9, 2048
        freqs = rng.uniform(2e3, 1.2e6, 12)
        omega = (2.0 * np.pi * freqs).astype(np.longdouble)
        t = np.longdouble(t0_s) + np.arange(n, dtype=np.longdouble) / np.longdouble(FS)
        exact = np.exp(-1j * omega[:, None] * t[None, :])

        def phase_error(rows):
            return np.abs(np.angle(rows.astype(np.clongdouble) * exact.conj())).max()

        factored = phase_error(_materialized(*tone_factors(freqs, t0_s, FS, n), n))
        direct = phase_error(_direct_probes(freqs, t0_s, n))
        assert 0.0 < factored <= direct < 2e-7

    @pytest.mark.parametrize("n", LENGTHS)
    def test_block_sums_match_brute_force(self, n):
        rng = np.random.default_rng(n + 1)
        freqs = rng.uniform(2e3, 1.2e6, 5)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        outer, inner = tone_factors(freqs, 0.0, FS, n)
        probes = _direct_probes(freqs, 0.0, n)
        length = max(1, n // PROBE_BLOCKS)
        want = np.stack(
            [
                (probes[:, s : s + length] * samples[s : s + length]).sum(axis=1)
                for s in range(0, n, length)
            ],
            axis=1,
        )
        got = tone_block_sums(outer, inner, samples)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize(
        "n, t0_s, offset, length, absolute",
        [
            (2048, 0.0, 0, None, True),
            (2047, 1.5e-3, 0, None, True),
            (2048, 0.5, 300, 1001, True),
            (2048, 0.5, 300, 1001, False),
            (5, 0.25, 0, None, True),
        ],
    )
    def test_single_bin_dft_is_the_mean_over_the_probe(self, n, t0_s, offset, length, absolute):
        rng = np.random.default_rng(n + offset)
        wave = Waveform(rng.normal(size=n) + 1j * rng.normal(size=n), FS, t0_s)
        segment = wave.window(offset, n - offset if length is None else length)
        start = segment.t0_s if absolute else 0.0
        for freq in rng.uniform(2e3, 1.2e6, 5):
            probe = _materialized(*tone_factors([freq], start, FS, segment.n_samples), segment.n_samples)
            want = np.mean(segment.samples * probe[0])
            got = single_bin_dft(wave, freq, offset, length, absolute_time=absolute)
            assert abs(got - want) < 1e-12


class TestFloorEstimation:
    def test_rayleigh_floor_scale(self):
        rng = np.random.default_rng(0)
        mags = np.abs(rng.normal(0, 1, 100_000) + 1j * rng.normal(0, 1, 100_000))
        # Rayleigh scale parameter (per-quadrature sigma) is 1 here; the
        # median/sqrt(ln 4) estimator must recover it.
        assert estimate_noise_floor(mags) == pytest.approx(1.0, rel=0.02)

    def test_local_floor_tracks_color(self):
        """A stepped floor must be tracked locally, not globally."""
        rng = np.random.default_rng(1)
        low = np.abs(rng.normal(0, 1, 300) + 1j * rng.normal(0, 1, 300))
        high = 10 * np.abs(rng.normal(0, 1, 300) + 1j * rng.normal(0, 1, 300))
        floors = local_noise_floor(np.concatenate([low, high]), window_bins=65)
        assert floors[:200].mean() < 3.0
        assert floors[-200:].mean() > 8.0

    def test_local_floor_excludes_guard(self):
        mags = np.ones(101)
        mags[50] = 100.0  # a spike must not raise its own floor
        floors = local_noise_floor(mags, window_bins=41, guard_bins=3)
        assert floors[50] == pytest.approx(1.0 / np.sqrt(np.log(4.0)))

    def test_empty_rejected(self):
        with pytest.raises(SpectrumError):
            estimate_noise_floor(np.zeros(0))


class TestParabolicOffset:
    def test_exact_for_parabola(self):
        # Parabola with vertex at +0.3: y = 1 - (x - 0.3)^2.
        y = lambda x: 1 - (x - 0.3) ** 2
        assert parabolic_offset(y(-1), y(0), y(1)) == pytest.approx(0.3)

    def test_symmetric_peak_centered(self):
        assert parabolic_offset(0.5, 1.0, 0.5) == 0.0

    def test_clipped_to_half_bin(self):
        assert abs(parabolic_offset(0.0, 0.1, 0.2)) <= 0.5

    def test_flat_input(self):
        assert parabolic_offset(1.0, 1.0, 1.0) == 0.0


class TestFindPeaks:
    def test_five_tones_detected(self):
        wave = Waveform.silence(512e-6, FS)
        freqs = [100e3, 320e3, 540e3, 800e3, 1100e3]
        for f in freqs:
            wave = wave + Waveform.tone(f, 512e-6, FS, amplitude=1.0)
        rng = np.random.default_rng(0)
        noisy = Waveform(wave.samples + rng.normal(0, 0.05, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6, min_snr_db=15)
        assert len(peaks) == 5
        for peak, f in zip(peaks, freqs):
            assert peak.freq_hz == pytest.approx(f, abs=FFT_RESOLUTION_HZ)

    def test_sub_bin_refinement(self):
        freq = 400e3 + 700.0  # deliberately off-grid
        wave = Waveform.tone(freq, 512e-6, FS)
        rng = np.random.default_rng(1)
        noisy = Waveform(wave.samples + rng.normal(0, 0.01, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6)
        assert len(peaks) == 1
        assert peaks[0].freq_hz == pytest.approx(freq, abs=FFT_RESOLUTION_HZ / 3)

    def test_max_peaks_keeps_strongest(self):
        wave = Waveform.tone(200e3, 512e-6, FS, amplitude=1.0) + Waveform.tone(
            800e3, 512e-6, FS, amplitude=0.2
        )
        rng = np.random.default_rng(2)
        noisy = Waveform(wave.samples + rng.normal(0, 0.005, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6, max_peaks=1)
        assert len(peaks) == 1
        assert peaks[0].freq_hz == pytest.approx(200e3, abs=FFT_RESOLUTION_HZ)

    def test_min_separation_suppresses_shoulder(self):
        mags = np.full(300, 1.0)
        mags[100] = 50.0
        mags[101] = 40.0  # shoulder of the same peak
        peaks = find_peaks_in_magnitudes(mags, 1e3, 0.0, 299e3, min_snr_db=10)
        assert len(peaks) == 1

    def test_empty_band_rejected(self):
        with pytest.raises(SpectrumError):
            find_peaks_in_magnitudes(np.ones(100), 1e3, 50e3, 50e3)

    def test_snr_reported(self):
        wave = Waveform.tone(400e3, 512e-6, FS, amplitude=1.0)
        rng = np.random.default_rng(3)
        noisy = Waveform(wave.samples + rng.normal(0, 0.02, wave.n_samples), FS)
        peaks = find_spectral_peaks(fft_spectrum(noisy), 10e3, 1.25e6)
        assert peaks[0].snr > 10.0


# -- bit-exactness against the per-bin reference ------------------------------


def _reference_median(values: np.ndarray) -> float:
    """The scalar median the per-bin floor loop used."""
    n = values.size
    mid = n // 2
    if n % 2:
        return float(np.partition(values, mid)[mid])
    part = np.partition(values, [mid - 1, mid])
    return float((part[mid - 1] + part[mid]) / 2.0)


def _reference_floor(magnitudes, window_bins=65, guard_bins=3) -> np.ndarray:
    """The CFAR floor as one median per bin over its guarded window."""
    n = magnitudes.size
    half = window_bins // 2
    floors = np.empty(n)
    for k in range(n):
        lo = max(0, k - half)
        hi = min(n, k + half + 1)
        neighbourhood = np.concatenate(
            [
                magnitudes[lo : max(lo, k - guard_bins)],
                magnitudes[min(hi, k + guard_bins + 1) : hi],
            ]
        )
        if neighbourhood.size == 0:
            neighbourhood = magnitudes[lo:hi]
        floors[k] = _reference_median(neighbourhood) / np.sqrt(np.log(4.0))
    return floors


def _reference_find_peaks(magnitudes, bin_hz, lo_hz, hi_hz, min_snr_db=12.0,
                          max_peaks=None, values=None):
    """The per-bin local-maximum scan with Python greedy suppression."""
    lo_bin = max(0, int(np.floor(lo_hz / bin_hz)))
    hi_bin = min(magnitudes.size - 1, int(np.ceil(hi_hz / bin_hz)))
    band = magnitudes[lo_bin : hi_bin + 1]
    floors = _reference_floor(band)
    thresholds = floors * db_to_amplitude(min_snr_db)
    candidates = [
        k
        for k in range(1, band.size - 1)
        if band[k] >= thresholds[k] and band[k] >= band[k - 1] and band[k] > band[k + 1]
    ]
    if band[0] >= thresholds[0] and band[0] > band[1]:
        candidates.insert(0, 0)
    if band[-1] >= thresholds[-1] and band[-1] > band[-2]:
        candidates.append(band.size - 1)
    candidates.sort(key=lambda k: -band[k])
    kept: list[int] = []
    for k in candidates:
        if all(abs(k - other) >= 2 for other in kept):
            kept.append(k)
        if max_peaks is not None and len(kept) >= max_peaks:
            break
    peaks = []
    for k in sorted(kept):
        b = lo_bin + k
        left = magnitudes[b - 1] if b > 0 else magnitudes[b]
        right = magnitudes[b + 1] if b < magnitudes.size - 1 else magnitudes[b]
        peaks.append(
            SpectralPeak(
                bin_index=b,
                freq_hz=(b + parabolic_offset(left, magnitudes[b], right)) * bin_hz,
                value=complex(values[b]) if values is not None else 0j,
                magnitude=float(magnitudes[b]),
                floor=float(floors[k]),
            )
        )
    return peaks


def _random_magnitudes(rng, size: int, ties: bool) -> np.ndarray:
    if ties:
        # Small integers: many equal neighbours and equal window values.
        return rng.integers(0, 4, size).astype(np.float64)
    mags = np.abs(rng.normal(size=size) + 1j * rng.normal(size=size))
    spikes = rng.integers(0, size, max(1, size // 40))
    mags[spikes] *= rng.uniform(3.0, 30.0, spikes.size)
    return mags


WINDOW_SHAPES = [(65, 3), (41, 3)]


class TestFloorBitExact:
    """The candidate-only floor and the vectorized scan reproduce the
    per-bin median loop exactly (``==``, not approximately)."""

    @pytest.mark.parametrize("window_bins, guard_bins", WINDOW_SHAPES)
    @pytest.mark.parametrize("ties", [False, True])
    def test_full_floor_equals_per_bin_loop(self, window_bins, guard_bins, ties):
        rng = np.random.default_rng(window_bins + 2 * ties)
        half = window_bins // 2
        sizes = [1, 2, 3, guard_bins + 1, half, window_bins - 1, window_bins,
                 window_bins + 1, 2 * window_bins, 615]
        for size in sizes:
            mags = _random_magnitudes(rng, size, ties)
            assert np.array_equal(
                local_noise_floor(mags, window_bins, guard_bins),
                _reference_floor(mags, window_bins, guard_bins),
            ), size

    @pytest.mark.parametrize("ties", [False, True])
    def test_band_floor_at_every_computed_bin(self, ties):
        rng = np.random.default_rng(11 + ties)
        for size in (2, 3, 40, 64, 65, 66, 130, 615):
            mags = _random_magnitudes(rng, size + 6, ties)
            floors = band_floors(mags, 1.0, 3.0, size + 2.0)
            band = mags[3 : size + 3]
            computed = ~np.isnan(floors)
            assert np.array_equal(floors[computed], _reference_floor(band)[computed])
            # Every bin a spike can be declared at has its floor.
            inner = np.flatnonzero(
                (band[1:-1] >= band[:-2]) & (band[1:-1] > band[2:])
            ) + 1
            assert computed[inner].all()
            assert computed[0] == (band[0] > band[1])
            assert computed[-1] == (band[-1] > band[-2])

    # The screened scan: the §5 counter's thresholds, applied in either
    # order, over every band of 2-130 bins (one and two blocks, clipped
    # edges throughout) and the full 615-bin band.
    SCREEN_SNRS_DB = (7.5, 10.0, 13.0, 15.0)
    SCREEN_SIZES = tuple(range(2, 131)) + (615,)

    def screened_scans(self, ties, seed):
        """``(band, scan)`` pairs with each scan run over the thresholds
        in ascending or descending order, yielded after every detection
        with the threshold just applied."""
        rng = np.random.default_rng(seed + ties)
        for size in self.SCREEN_SIZES:
            mags = _random_magnitudes(rng, size + 6, ties)
            band = mags[3 : size + 3]
            for snrs in (self.SCREEN_SNRS_DB, self.SCREEN_SNRS_DB[::-1]):
                scan = BandScan(mags, 1.0, 3.0, size + 2.0)
                for snr_db in snrs:
                    yield band, scan, snr_db, scan.detect(snr_db)

    @pytest.mark.parametrize("ties", [False, True])
    def test_screened_floors_are_the_per_bin_floors(self, ties):
        """Wherever the screened scan computes a floor, it is the per-bin
        median's, and ``n_floors`` counts exactly those floors."""
        references = {}
        for band, scan, _, _ in self.screened_scans(ties, seed=51):
            key = band.tobytes()
            if key not in references:
                references[key] = _reference_floor(band)
            computed = ~np.isnan(scan.floors)
            want = references[key][scan.bins - 3]
            assert scan.floors[computed].tobytes() == want[computed].tobytes()
            assert scan.n_floors == np.count_nonzero(computed)

    @pytest.mark.parametrize("ties", [False, True])
    def test_every_maximum_that_clears_has_its_floor(self, ties):
        """A local maximum at or above its floor times the threshold (the
        per-bin floor) always has its floor computed: the screen's lower
        bound never exceeds the floor. A bound taken from the window's
        first block alone, instead of the two blocks that hold it, fails
        here."""
        cleared = 0
        for band, scan, snr_db, _ in self.screened_scans(ties, seed=61):
            floors = _reference_floor(band)[scan.bins - 3]
            clears = scan.magnitudes >= floors * db_to_amplitude(snr_db)
            assert not np.isnan(scan.floors[clears]).any()
            cleared += np.count_nonzero(clears)
        assert cleared > 1000

    @pytest.mark.parametrize("ties", [False, True])
    def test_screened_detections_equal_the_unscreened_ones(self, ties):
        """The screened scan detects exactly the unscreened scan's bins,
        against the same floors, at every threshold and in either order,
        while computing fewer floors overall."""
        screened = unscreened = 0
        for band, scan, snr_db, hits in self.screened_scans(ties, seed=71):
            mags = np.concatenate([np.zeros(3), band, np.zeros(3)])
            full = BandScan(mags, 1.0, 3.0, band.size + 2.0, screened=False)
            want = full.detect(snr_db)
            assert scan.bins[hits].tolist() == full.bins[want].tolist()
            assert scan.floors[hits].tobytes() == full.floors[want].tobytes()
            if snr_db == self.SCREEN_SNRS_DB[0]:
                screened += scan.n_floors
                unscreened += full.n_floors
        assert screened < unscreened

    @pytest.mark.parametrize("ties", [False, True])
    def test_find_peaks_equals_per_bin_scan(self, ties):
        rng = np.random.default_rng(21 + ties)
        for trial in range(40):
            size = int(rng.integers(8, 700))
            mags = _random_magnitudes(rng, size, ties)
            values = mags * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size))
            lo_hz = float(rng.uniform(0.0, size / 3))
            hi_hz = float(rng.uniform(lo_hz + 2.0, size + 5.0))
            for snr_db in (3.0, 10.0, 13.0):
                for max_peaks in (None, 2):
                    expected = _reference_find_peaks(
                        mags, 1.0, lo_hz, hi_hz, snr_db, max_peaks, values
                    )
                    kwargs = dict(min_snr_db=snr_db, max_peaks=max_peaks, values=values)
                    assert find_peaks_in_magnitudes(
                        mags, 1.0, lo_hz, hi_hz, **kwargs
                    ) == expected
                    shared = band_floors(mags, 1.0, lo_hz, hi_hz)
                    assert find_peaks_in_magnitudes(
                        mags, 1.0, lo_hz, hi_hz, floors=shared, **kwargs
                    ) == expected

    @pytest.mark.parametrize("ties", [False, True])
    def test_detected_bins_are_the_peak_records_bins(self, ties):
        """The detection core returns exactly the bins and floors the
        peak records carry, so its size is the peak count."""
        rng = np.random.default_rng(41 + ties)
        for trial in range(40):
            size = int(rng.integers(8, 700))
            mags = _random_magnitudes(rng, size, ties)
            lo_hz = float(rng.uniform(0.0, size / 3))
            hi_hz = float(rng.uniform(lo_hz + 2.0, size + 5.0))
            shared = band_floors(mags, 1.0, lo_hz, hi_hz)
            for snr_db in (3.0, 10.0, 13.0):
                peaks = find_peaks_in_magnitudes(mags, 1.0, lo_hz, hi_hz, snr_db)
                for floors in (None, shared):
                    bins, kept = detected_bins(mags, 1.0, lo_hz, hi_hz, snr_db, floors)
                    assert bins.size == len(peaks)
                    assert bins.tolist() == [p.bin_index for p in peaks]
                    assert kept.tolist() == [p.floor for p in peaks]
