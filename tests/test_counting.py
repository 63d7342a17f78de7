"""Unit tests for repro.core.counting (§5)."""

import warnings

import numpy as np
import pytest

from repro.channel.antenna import TriangleArray
from repro.channel.noise import thermal_noise_power_w
from repro.channel.propagation import LosChannel
from repro.core.counting import BinClass, CollisionCounter, CountEstimate
from repro.dsp.peaks import find_peaks_in_magnitudes, quinn_offset
from repro.dsp.spectrum import PROBE_BLOCKS, fft_spectrum
from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.phy.waveform import Waveform
from repro.sim.city.moving import ParkedSource
from tests.conftest import make_tag

FS = 4e6
NOISE_W = thermal_noise_power_w(FS)


def build_simulator(cfos, seed=0, positions=None):
    tags = []
    rng = np.random.default_rng(seed)
    for i, cfo in enumerate(cfos):
        if positions is not None:
            pos = positions[i]
        else:
            pos = (rng.uniform(-8, 8), rng.uniform(-11, -7), 1.0)
        tags.append(make_tag(cfo, position_m=pos, seed=100 + i))
    array = TriangleArray.street_pole(np.array([0.0, 0.0, 3.8]))
    return ParkedSource(
        tags, array.positions_m, LosChannel(), noise_power_w=NOISE_W, rng=seed
    )


class TestBasicCounting:
    def test_empty_scene_counts_zero(self):
        sim = build_simulator([])
        counter = CollisionCounter()
        assert counter.count(sim.query(0.0).antenna(0)).count == 0

    def test_single_tag(self):
        sim = build_simulator([500e3])
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count == 1
        assert estimate.observations[0].label is BinClass.SINGLE

    def test_five_separated_tags(self):
        sim = build_simulator([100e3, 350e3, 600e3, 850e3, 1100e3])
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count == 5
        assert estimate.n_single == 5

    def test_cfos_reported(self):
        sim = build_simulator([200e3, 900e3])
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        cfos = estimate.cfos_hz()
        assert cfos.size == 2
        assert cfos[0] == pytest.approx(200e3, abs=500)
        assert cfos[1] == pytest.approx(900e3, abs=500)


class TestMultiTagBin:
    def test_same_bin_pair_counted_as_two(self):
        """Two tags 800 Hz apart share a 1.95 kHz bin; the §5 test must
        upgrade the single spike to a count of 2."""
        hits = 0
        for seed in range(10):
            sim = build_simulator([500_000.0, 500_800.0], seed=seed)
            estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
            hits += estimate.count == 2
        assert hits >= 7  # blind spots (delta_f ~ 0) are physical

    def test_near_zero_separation_is_blind(self):
        """Two tags 5 Hz apart are indistinguishable inside 512 us — the
        inherent blind spot both tests share."""
        sim = build_simulator([500_000.0, 500_005.0], seed=1)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count in (1, 2)  # typically 1; never more

    def test_adjacent_bins_counted_separately(self):
        """Tags 2 bins apart are resolved peaks, one each."""
        sim = build_simulator([500_000.0, 503_906.0], seed=2)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.count == 2


class TestMultiCapture:
    def test_count_multi_matches_single_on_sparse(self):
        sim = build_simulator([300e3, 700e3], seed=3)
        waves = [sim.query(i * 1e-3).antenna(0) for i in range(4)]
        counter = CollisionCounter()
        assert counter.count_multi(waves).count == 2

    def test_multi_capture_improves_dense(self):
        rng = np.random.default_rng(11)
        cfos = rng.uniform(20e3, 1.19e6, size=40)
        sim = build_simulator(cfos, seed=4)
        counter = CollisionCounter()
        single = counter.count(sim.query(0.0).antenna(0)).count
        waves = [sim.query(i * 1e-3).antenna(0) for i in range(4)]
        multi = counter.count_multi(waves).count
        assert abs(multi - 40) <= abs(single - 40) + 2

    def test_empty_capture_list_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter().count_multi([])


class TestRegimes:
    def test_dense_mode_triggers_on_crowded_band(self):
        rng = np.random.default_rng(12)
        cfos = rng.uniform(20e3, 1.19e6, size=35)
        sim = build_simulator(cfos, seed=5)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert estimate.dense_mode

    def test_sparse_mode_for_few_tags(self):
        sim = build_simulator([300e3, 900e3], seed=6)
        estimate = CollisionCounter().count(sim.query(0.0).antenna(0))
        assert not estimate.dense_mode

    def test_dense_threshold_order_validated(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter(min_snr_db=10.0, dense_snr_db=12.0)


class TestShiftMethod:
    def test_shift_method_counts_separated_tags(self):
        sim = build_simulator([150e3, 450e3, 800e3], seed=7)
        counter = CollisionCounter(method="shift")
        assert counter.count(sim.query(0.0).antenna(0)).count == 3

    def test_shift_method_detects_cobinned_pair(self):
        hits = 0
        for seed in range(10):
            sim = build_simulator([600_000.0, 600_900.0], seed=20 + seed)
            counter = CollisionCounter(method="shift")
            estimate = counter.count(sim.query(0.0).antenna(0))
            hits += estimate.count == 2
        assert hits >= 6

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter(method="wavelet")


class TestEstimateAccounting:
    def test_contribution_rules(self):
        estimate = CountEstimate(count=0)
        assert estimate.n_single == estimate.n_multiple == estimate.n_rejected == 0

    def test_accuracy_over_random_scenes(self):
        """Average accuracy within a few percent at moderate density."""
        counts = []
        for seed in range(8):
            rng = np.random.default_rng(400 + seed)
            cfos = rng.uniform(20e3, 1.19e6, size=10)
            sim = build_simulator(cfos, seed=500 + seed)
            counts.append(CollisionCounter().count(sim.query(0.0).antenna(0)).count)
        assert np.mean(counts) == pytest.approx(10.0, abs=1.0)


class TestSfftProbeParity:
    """The sparse-probe ablation must be a pure regime-picker swap.

    ``probe="sfft"`` replaces only the density probe's candidate scan
    (sub-linear bucketized recovery instead of the dense spectrum
    sweep); refinement, classification and the joint tone fit run the
    identical full-precision code after it — so on the paper's Fig-5
    style workloads the two probes must agree on the count, the CFOs,
    and the dense-regime flag.
    """

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("m", [2, 10])
    def test_sparse_scenes_bit_equal(self, m, seed):
        rng = np.random.default_rng(seed)
        cfos = rng.uniform(20e3, 1.19e6, size=m)
        capture = build_simulator(cfos, seed=seed).query(0.0).antenna(0)
        dense = CollisionCounter(probe="dense").count(capture)
        sfft = CollisionCounter(probe="sfft").count(capture)
        assert sfft.count == dense.count
        assert sfft.dense_mode == dense.dense_mode
        assert np.array_equal(sfft.cfos_hz(), dense.cfos_hz())

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [5, 6])
    def test_dense_scene_bit_equal(self, seed):
        """35 tags crowd the band past the dense trigger: both probes
        must hand the same regime decision to the same dense-detection
        pass."""
        rng = np.random.default_rng(seed + 7)
        cfos = rng.uniform(20e3, 1.19e6, size=35)
        capture = build_simulator(cfos, seed=seed).query(0.0).antenna(0)
        dense = CollisionCounter(probe="dense").count(capture)
        sfft = CollisionCounter(probe="sfft").count(capture)
        assert sfft.dense_mode == dense.dense_mode
        assert sfft.count == dense.count
        assert np.array_equal(sfft.cfos_hz(), dense.cfos_hz())

    def test_unknown_probe_rejected(self):
        with pytest.raises(ConfigurationError):
            CollisionCounter(probe="fancy")


class TestBatchedToneFit:
    def test_burst_stacked_fit_bit_exact(self):
        """``count_multi`` solves the per-burst joint tone fit as one
        stacked least-squares; it must reproduce the per-capture loop
        (the private ``stacked_fit=False`` oracle) observation-for-
        observation."""
        rng = np.random.default_rng(7)
        cfos = rng.uniform(20e3, 1.19e6, size=6)
        sim = build_simulator(cfos, seed=7)
        burst = [sim.query(0.0).antenna(0) for _ in range(4)]
        counter = CollisionCounter()
        batched = counter.count_multi(burst)
        looped = counter._count_burst(burst, stacked_fit=False)
        assert batched.count == looped.count
        assert len(batched.observations) == len(looped.observations)
        for b, l in zip(batched.observations, looped.observations):
            assert str(b) == str(l)

    @pytest.mark.parametrize("n_tags, seed", [(6, 3), (30, 4)])
    def test_shared_spectra_bit_exact(self, n_tags, seed):
        """The probe and the decision pass share one spectral state; the
        private ``share_spectra=False`` oracle recomputes it per pass and
        must give the same estimate, sparse and dense regime alike."""
        rng = np.random.default_rng(seed)
        cfos = rng.uniform(20e3, 1.19e6, size=n_tags)
        sim = build_simulator(cfos, seed=seed)
        counter = CollisionCounter()
        single = [sim.query(0.0).antenna(0)]
        triple = [sim.query(0.0).antenna(0) for _ in range(3)]
        for burst in (single, triple):
            shared = counter.count_multi(burst)
            recomputed = counter._count_burst(burst, share_spectra=False)
            assert shared.dense_mode == recomputed.dense_mode
            assert [str(o) for o in shared.observations] == [
                str(o) for o in recomputed.observations
            ]


class TestDensityProbe:
    """The dense probe counts the bins a permissive threshold admits and
    builds no peak records: its count is the peak count."""

    @pytest.mark.parametrize("n_tags, seed", [(3, 11), (14, 12), (40, 13)])
    def test_probe_count_equals_the_peak_count(self, n_tags, seed):
        rng = np.random.default_rng(seed)
        sim = build_simulator(rng.uniform(20e3, 1.19e6, size=n_tags), seed=seed)
        counter = CollisionCounter()
        for n_captures in (1, 3):
            waves = [sim.query(1e-3 * k).antenna(0) for k in range(n_captures)]
            spectra, avg_mag, floors = counter._spectral_state(waves)
            peaks = find_peaks_in_magnitudes(
                avg_mag,
                spectra[0].bin_hz,
                counter.search_lo_hz,
                counter.search_hi_hz,
                min_snr_db=counter.probe_snr_db,
            )
            assert counter._probe_candidates(waves) == len(peaks)
            shared = (spectra, avg_mag, floors)
            assert counter._probe_candidates(waves, shared) == len(peaks)


class TestThreeBinEstimator:
    """Refinement reads each spike's sub-bin frequency off FFT bins
    k-1, k and k+1 (Quinn's second estimator, ``quinn_offset``)."""

    N = 2048
    BIN_HZ = FS / N
    #: A clean tone's closed-form estimate is exact to well under this.
    CLEAN_TONE_BOUND_HZ = 0.05

    def _tone(self, freq_hz, phase=0.0):
        n = np.arange(self.N)
        return np.exp(2j * np.pi * freq_hz * n / FS + 1j * phase)

    def _estimate(self, spectra, centre):
        spectra = np.atleast_2d(spectra)
        offset = quinn_offset(
            spectra[:, centre - 1], spectra[:, centre], spectra[:, centre + 1]
        )
        return (centre + float(offset)) * self.BIN_HZ

    @pytest.mark.parametrize("centre", [11, 256, 611])
    def test_clean_tone_swept_across_the_bin(self, centre):
        for delta in np.linspace(-0.5, 0.5, 41):
            freq = (centre + delta) * self.BIN_HZ
            spectrum = np.fft.fft(self._tone(freq, phase=0.3 + delta))
            estimate = self._estimate(spectrum, centre)
            assert estimate == pytest.approx(freq, abs=self.CLEAN_TONE_BOUND_HZ)

    def test_per_capture_phases_do_not_move_the_estimate(self):
        rng = np.random.default_rng(3)
        freq = 300.37 * self.BIN_HZ
        noise = 0.3 * (rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N))
        capture = self._tone(freq) + 0.5 * self._tone(freq + 4.6 * self.BIN_HZ) + noise
        single = self._estimate(np.fft.fft(capture), 300)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=5))
        burst = np.fft.fft(capture[None, :] * phases[:, None], axis=1)
        assert self._estimate(burst, 300) == pytest.approx(single, abs=1e-6)

    def test_counter_burst_of_rephased_captures_matches_single(self):
        sim = build_simulator([210e3, 640e3, 641.2e3, 1020e3], seed=9)
        wave = sim.query(0.0).antenna(0)
        rng = np.random.default_rng(9)
        burst = [
            Waveform(wave.samples * np.exp(1j * phi), wave.sample_rate_hz, wave.t0_s)
            for phi in rng.uniform(0.0, 2.0 * np.pi, size=4)
        ]
        counter = CollisionCounter()
        single = [o.cfo_hz for o in counter.count(wave).observations]
        multi = [o.cfo_hz for o in counter.count_multi(burst).observations]
        assert multi == pytest.approx(single, abs=1e-6)

    def test_zero_centre_bin_is_finite_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero = quinn_offset(1.0 + 2.0j, 0j, -0.5 + 1.0j)
            all_zero = quinn_offset(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 4)))
            spectrum = np.zeros(self.N, dtype=complex)
            spectrum[[299, 301]] = [1.0, -2.0j]
            freq = self._estimate(spectrum, 300)
        assert np.isfinite(zero) and abs(float(zero)) <= 1.0
        assert np.array_equal(all_zero, np.zeros(3))
        assert np.isfinite(freq)


class TestBurstGrid:
    def _wave(self, n, fs=FS, t0=0.0):
        rng = np.random.default_rng(n)
        return Waveform(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), fs, t0
        )

    def test_mismatched_lengths_rejected_naming_both(self):
        with pytest.raises(ConfigurationError, match="2048.*1024"):
            CollisionCounter().count_multi([self._wave(2048), self._wave(1024)])

    def test_mismatched_rates_rejected_naming_both(self):
        with pytest.raises(ConfigurationError, match="4000000.0.*2000000.0"):
            CollisionCounter().count_multi(
                [self._wave(2048), self._wave(2048, fs=FS / 2)]
            )

    def test_start_times_may_differ(self):
        sim = build_simulator([300e3, 700e3], seed=3)
        waves = [sim.query(i * 1e-3).antenna(0) for i in range(3)]
        assert len({w.t0_s for w in waves}) == 3
        assert CollisionCounter().count_multi(waves).count == 2


class TestWorkCounters:
    def test_one_capture_pass_reports_its_work(self):
        sim = build_simulator([200e3, 203.5e3, 900e3], seed=4)
        obs = Obs()
        estimate = CollisionCounter(obs=obs).count(sim.query(0.0).antenna(0))
        m = len(estimate.observations)
        work = obs.metrics
        assert work.counter("count.work", kind="fft_points", stage="detect") == 2048
        # The close pair re-refines: three cancelled bins per tone of it,
        # each the other m - 1 tones' closed-form leakage; no residual FFT.
        assert work.counter("count.work", kind="fft_points", stage="refine") == 0
        assert work.counter("count.work", kind="kernel_terms", stage="refine") == 2 * 3 * (m - 1)
        # Refinement itself builds no complex exponentials.
        assert work.counter("count.work", kind="exp_samples", stage="refine") == 0
        # Cancellation fit for the joint pass, then the final fit: one
        # set of probe factors (8 block starts + 256 in-block taps per
        # tone), one m x m Gram and one m x m solve each.
        assert work.counter("count.work", kind="exp_samples", stage="fit") == 2 * m * (8 + 256)
        assert work.counter("count.work", kind="kernel_terms", stage="fit") == 2 * m * m
        assert work.counter("count.work", kind="solve", stage="fit") == 2
        assert work.counter("count.work", kind="lstsq", stage="fit") == 0
        assert work.counter("count.work", kind="kernel_terms", stage="align") == m * m * 8
        assert work.counter("count.work", kind="exp_samples", stage="align") == m

    def test_stacked_burst_fits_once(self):
        sim = build_simulator([150e3, 500e3, 900e3], seed=6)
        burst = [sim.query(0.0).antenna(0) for _ in range(3)]
        obs = Obs()
        estimate = CollisionCounter(obs=obs).count_multi(burst)
        m = len(estimate.observations)
        work = obs.metrics
        assert work.counter("count.work", kind="fft_points", stage="detect") == 3 * 2048
        assert work.counter("count.work", kind="fft_points", stage="refine") == 0
        # One shared set of factors, Gram and leakage; one solve per capture.
        assert work.counter("count.work", kind="exp_samples", stage="fit") == m * (8 + 256)
        assert work.counter("count.work", kind="kernel_terms", stage="fit") == m * m
        assert work.counter("count.work", kind="solve", stage="fit") == 3
        assert work.counter("count.work", kind="kernel_terms", stage="align") == m * m * 8
        assert work.counter("count.work", kind="exp_samples", stage="align") == 3 * m


def _tone_scene(rng, m, t0_s, n_captures=1):
    """``m`` random tones — one pair 0.6-3 bins apart — in complex noise,
    on ``n_captures`` 2048-sample captures sharing one time base, with
    fresh amplitudes per capture (a burst re-randomizes phases)."""
    bin_hz = FS / 2048
    freqs = np.sort(rng.uniform(2e3, 1.2e6, m))
    if m >= 2:
        freqs[1] = freqs[0] + rng.uniform(0.6, 3.0) * bin_hz
    freqs = np.sort(freqs)
    t = t0_s + np.arange(2048) / FS
    waves = []
    for _ in range(n_captures):
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        samples = (amps[:, None] * np.exp(2j * np.pi * freqs[:, None] * t)).sum(axis=0)
        samples = samples + 0.3 * (rng.normal(size=2048) + 1j * rng.normal(size=2048))
        waves.append(Waveform(samples, FS, t0_s))
    return freqs, waves


def _rel_err(got, want):
    return float(np.abs(np.asarray(got) - np.asarray(want)).max() / np.abs(want).max())


def _probes(factors, n):
    """The m x N probe rows ``exp(-j w_k t)`` rebuilt from their block
    factors: sample ``b L + l`` is ``outer[k, b] * inner[k, l]``."""
    outer, inner = factors
    return (outer[:, :, None] * inner[:, None, :]).reshape(len(outer), -1)[:, :n]


def _einsum_aligned_values(waves, freqs, per_capture):
    """Reference: the sub-window leakage as an m^2 N ``einsum`` over the
    probe rows, as the counter computed it before the closed form."""
    q = PROBE_BLOCKS
    chunks = []
    for wave, (amplitudes, _, factors) in zip(waves, per_capture):
        probes = _probes(factors, wave.n_samples)
        length = wave.n_samples // q
        usable = length * q
        reshaped = probes[:, :usable].reshape(freqs.size, q, length)
        demod = (wave.samples[:usable] * probes[:, :usable]).reshape(freqs.size, q, length)
        x = demod.mean(axis=2)
        leak = np.einsum("kqn,jqn->kjq", reshaped, reshaped.conj()) / length
        x_cancelled = x - np.einsum("kjq,j->kq", leak, amplitudes) + amplitudes[:, None]
        chunks.append(x_cancelled * np.exp(-1j * np.angle(amplitudes))[:, None])
    return np.concatenate(chunks, axis=1)


class TestClosedFormToneAlgebra:
    """Every tone-pair product the counter needs is a Dirichlet kernel;
    each closed form must match the brute-force product it replaces
    within 1e-8 relative. Clocks up to 0.5 s keep the brute force's own
    per-sample phase rounding (~ulp of ``2 pi f t``) below that."""

    TOL = 1e-8
    CLOCKS_S = (0.0, 1.5e-3, 0.5)

    def scenes(self, n=30, n_captures=1, seed=11):
        rng = np.random.default_rng(seed)
        for i in range(n):
            m = int(rng.integers(2, 36))
            yield _tone_scene(rng, m, self.CLOCKS_S[i % 3], n_captures)

    def test_gram_matches_probe_products(self):
        counter = CollisionCounter()
        for freqs, (wave,) in self.scenes():
            factors, gram = counter._tone_basis(wave, freqs)
            probes = _probes(factors, wave.n_samples)
            assert _rel_err(gram, probes @ probes.conj().T) < self.TOL

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble"
    )
    def test_gram_exact_on_a_long_clock(self):
        """At a 90 s world clock the basis's own phases carry ~1e-8 rad
        of rounding, so the brute-force Gram drifts; the closed form
        tracks an extended-precision product of the same tones."""
        counter = CollisionCounter()
        rng = np.random.default_rng(5)
        for _ in range(5):
            freqs, (wave,) = _tone_scene(rng, 12, 89.9)
            _, gram = counter._tone_basis(wave, freqs)
            omega = (2.0 * np.pi * freqs).astype(np.longdouble)
            t = np.longdouble(89.9) + np.arange(2048, dtype=np.longdouble) / np.longdouble(FS)
            exact = np.exp(-1j * omega[:, None] * t[None, :])
            assert _rel_err(gram, exact @ exact.conj().T) < 1e-9

    def test_leakage_matches_einsum(self):
        counter = CollisionCounter()
        for freqs, waves in self.scenes(n=12, n_captures=2):
            per_capture = counter._fit_tones_burst(waves, freqs)
            got = counter._aligned_subwindow_values(waves, freqs, per_capture)
            want = _einsum_aligned_values(waves, freqs, per_capture)
            assert _rel_err(got, want) < self.TOL

    def test_residual_bins_match_fft_of_built_residual(self, monkeypatch):
        import repro.core.counting as counting

        seen = []

        def recording_quinn(left, centre, right):
            # One call, one row of (c-1, c, c+1) bins per re-refined tone.
            seen.extend(np.concatenate([left, centre, right], axis=-1))
            return quinn_offset(left, centre, right)

        monkeypatch.setattr(counting, "quinn_offset", recording_quinn)
        counter = CollisionCounter()
        n, bin_hz = 2048, FS / 2048
        checked = 0
        for freqs, (wave,) in self.scenes():
            seen.clear()
            counter._joint_refine(wave, fft_spectrum(wave), freqs, bin_hz)
            amplitudes, _, factors = counter._fit_tones(wave, freqs)
            probes = _probes(factors, n)
            close = [
                k for k in range(freqs.size)
                if np.abs(np.delete(freqs, k) - freqs[k]).min() <= 6.0 * bin_hz
            ]
            assert len(seen) == len(close) >= 2
            for bins, k in zip(seen, close):
                others = np.delete(np.arange(freqs.size), k)
                residual = wave.samples - (amplitudes[others][:, None] * probes[others].conj()).sum(axis=0)
                centre = int(round(freqs[k] / bin_hz)) % n
                want = np.fft.fft(residual)[np.array([centre - 1, centre, centre + 1]) % n]
                assert _rel_err(bins, want) < self.TOL
                checked += 1
        assert checked >= 60

    def test_fit_matches_lstsq_one_capture(self):
        counter = CollisionCounter()
        for freqs, (wave,) in self.scenes():
            amplitudes, _, factors = counter._fit_tones(wave, freqs)
            probes = _probes(factors, wave.n_samples)
            want, *_ = np.linalg.lstsq(probes.conj().T, wave.samples, rcond=None)
            assert _rel_err(amplitudes, want) < self.TOL

    def test_fit_matches_lstsq_shared_clock_burst(self):
        counter = CollisionCounter()
        for freqs, waves in self.scenes(n=12, n_captures=3):
            fits = counter._fit_tones_burst(waves, freqs)
            assert all(factors is fits[0][2] for _, _, factors in fits)
            for wave, (amplitudes, _, factors) in zip(waves, fits):
                probes = _probes(factors, wave.n_samples)
                want, *_ = np.linalg.lstsq(probes.conj().T, wave.samples, rcond=None)
                assert _rel_err(amplitudes, want) < self.TOL

    def test_coincident_tones_get_the_min_norm_answer(self):
        """Two tones refined onto one frequency leave the Gram singular:
        the fit splits their amplitude evenly, as least squares on the
        basis does, with no exception and no numpy warning."""
        counter = CollisionCounter()
        rng = np.random.default_rng(9)
        for t0_s in self.CLOCKS_S:
            freqs, (wave,) = _tone_scene(rng, 6, t0_s)
            freqs = np.sort(np.append(freqs, freqs[3]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                amplitudes, _, factors = counter._fit_tones(wave, freqs)
            probes = _probes(factors, wave.n_samples)
            want, *_ = np.linalg.lstsq(probes.conj().T, wave.samples, rcond=None)
            assert np.all(np.isfinite(amplitudes))
            assert _rel_err(amplitudes, want) < self.TOL
            twins = np.flatnonzero(freqs == freqs[3])
            assert twins.size == 2
            assert abs(amplitudes[twins[0]] - amplitudes[twins[1]]) < 1e-9 * abs(amplitudes[twins[0]])


def _reference_classify_coherence(counter, values, floor_norm, n_captures, dense_mode):
    """Reference: one spike's coherence verdict from its own row, as the
    counter classified spikes one at a time before the row reductions."""
    mags = np.abs(values)
    mean_mag = float(mags.mean())
    sigma_q = max(floor_norm * np.sqrt(PROBE_BLOCKS), 1e-300)
    gamma = mean_mag / sigma_q
    if mean_mag == 0.0:
        return BinClass.REJECTED, (0.0, 0.0, 0.0, 0.0)
    coherence = float(np.abs(values.mean()) / mean_mag)
    dispersion = float(mags.std() / mean_mag)
    g2 = gamma * gamma
    expected = float(np.sqrt((g2 + 1.0 / (PROBE_BLOCKS * n_captures)) / (g2 + 1.0)))
    stats = (float(gamma), coherence, expected, dispersion)
    if dense_mode and coherence < counter.reality_coherence and gamma < counter.reality_gamma:
        return BinClass.REJECTED, stats
    slack = counter.slack_base + counter.slack_gamma / max(gamma, 0.3)
    slack = min(counter.max_slack, max(counter.min_slack, slack))
    dispersion_ceiling = counter.dispersion_base + counter.dispersion_gamma / max(gamma, 0.3)
    if coherence >= expected * (1.0 - slack) and dispersion <= dispersion_ceiling:
        return BinClass.SINGLE, stats
    return BinClass.MULTIPLE, stats


def _verdict_bytes(label, stats) -> tuple:
    """A verdict as comparable bytes (``==`` on floats would equate -0.0
    and 0.0)."""
    if isinstance(stats, dict):
        stats = (
            stats["gamma"],
            stats["coherence"],
            stats["expected_single_coherence"],
            stats["magnitude_dispersion"],
        )
    return label, np.array(stats, dtype=np.float64).tobytes()


class _PerSpikeCoherenceCounter(CollisionCounter):
    """The counter with its verdicts taken one row at a time (the
    reference), recording every aligned matrix it classifies."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.matrices = []

    def _coherence_verdicts(self, values, floors_norm, n_captures, dense_mode):
        self.matrices.append((values.shape, dense_mode))
        verdicts = []
        for row, floor in zip(values, floors_norm):
            label, stats = _reference_classify_coherence(
                self, row, floor, n_captures, dense_mode
            )
            verdicts.append((label, dict(zip(
                ("gamma", "coherence", "expected_single_coherence", "magnitude_dispersion"),
                stats,
            ))))
        return verdicts


class TestCoherenceVerdictRows:
    """Every spike's coherence verdict is a row reduction over the
    (m, Q K) aligned sub-window matrix; each must equal the per-spike
    classifier's label and statistics bit for bit."""

    @staticmethod
    def _matrix(rng, m, n_captures):
        """Rows of every kind: lone tones (coherent), beating pairs,
        floor flukes (incoherent, weak) and one silent row."""
        n = PROBE_BLOCKS * n_captures
        noise = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        kind = rng.integers(0, 3, m)
        amplitude = rng.uniform(0.05, 6.0, m)[:, None]
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (m, 1)))
        beat = np.exp(1j * np.outer(rng.uniform(0.5, 3.0, m), np.arange(n)))
        values = np.where(
            (kind == 0)[:, None],
            amplitude * phase + 0.3 * noise,
            np.where((kind == 1)[:, None], amplitude * phase * (1 + beat), 0.4 * noise),
        )
        values[int(rng.integers(0, m))] = 0.0
        floors = rng.uniform(0.02, 0.6, m)
        return values, floors

    def test_rows_equal_per_spike_classifier(self):
        counter = CollisionCounter()
        rng = np.random.default_rng(31)
        labels = {True: set(), False: set()}
        flukes = rows = 0
        for trial in range(240):
            m = int(rng.choice([1, 2, 3, 7, 8, 20, 41]))
            n_captures = int(rng.integers(1, 4))
            dense = bool(trial % 2)
            values, floors = self._matrix(rng, m, n_captures)
            got = counter._coherence_verdicts(values, floors, n_captures, dense)
            assert len(got) == m
            for row, floor, (label, stats) in zip(values, floors, got):
                want = _reference_classify_coherence(counter, row, floor, n_captures, dense)
                assert _verdict_bytes(label, stats) == _verdict_bytes(*want)
                labels[dense].add(label)
                flukes += dense and label is BinClass.REJECTED and want[1][0] > 0.0
                rows += 1
        assert labels[False] == labels[True] == set(BinClass)
        assert flukes > 50 and rows > 2000

    @pytest.mark.parametrize("n_tags, n_captures", [(3, 1), (5, 2), (6, 3), (30, 1), (30, 2)])
    def test_count_equals_per_spike_classifier(self, n_tags, n_captures):
        """Whole counts, sparse and dense, over one to three captures."""
        rng = np.random.default_rng(n_tags + 10 * n_captures)
        cfos = rng.uniform(20e3, 1.19e6, size=n_tags)
        sim = build_simulator(cfos, seed=n_tags + n_captures)
        reference = _PerSpikeCoherenceCounter()
        counter = CollisionCounter()
        for t_s in (0.0, 3e-3):
            burst = [sim.query(t_s).antenna(0) for _ in range(n_captures)]
            got = counter.count_multi(burst)
            want = reference.count_multi(burst)
            assert [str(o) for o in got.observations] == [str(o) for o in want.observations]
            assert got.count == want.count and got.dense_mode == want.dense_mode
        assert reference.matrices
        assert {dense for _, dense in reference.matrices} == {n_tags >= 30}
