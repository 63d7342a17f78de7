"""Counting transponders from collisions (§5).

The estimator: FFT the collision, find the CFO spikes, and — because two
tags occasionally land in the same 1.95 kHz bin — classify every spike as
holding one tag or more than one. A spike holding one tag counts as 1, a
spike holding several counts as 2 (the paper's rule: only
triples-or-more in one bin are miscounted, Eq 9).

Classification is harder than it looks on real collisions, because every
spike is surrounded by (a) the wideband OOK data of *all* tags and (b)
the leakage of *neighbouring resolved spikes*, which can sit only a few
bins away. The counter therefore:

1. detects spikes against a local (CFAR) floor,
2. refines each spike frequency to a fraction of a bin, in closed form
   from the detected bin and its two neighbours in the FFT it already
   took (:func:`~repro.dsp.peaks.quinn_offset`) — the joint pass below
   re-reads a close pair's bins with the neighbours' fitted
   contributions taken out,
3. jointly least-squares fits the complex amplitudes of all detected
   tones over the full window,
4. **cancels the other tones** before applying the per-spike test, and
5. adapts its detection threshold to tag density: in sparse collisions
   the data floor is structured (a couple of chip streams) and only a
   high threshold rejects its excursions; in dense collisions the floor
   Gaussianizes (CLT over many tags) and a lower threshold plus a
   coherence-reality filter recovers the weak tags that matter there.

The reader's duty-cycled burst issues up to 10 queries per wake-up (§10),
so :meth:`CollisionCounter.count_multi` can also combine several captures:
the detection statistic becomes the *average* magnitude spectrum
(incoherent averaging suppresses data-floor variance; spikes persist),
and per-spike statistics concatenate across captures after aligning each
capture's random response phase. A single capture (``count``) reproduces
the paper's one-shot estimator.

Two per-spike tests are provided:

* ``method="coherence"`` (default) — cut the capture into Q disjoint
  sub-windows (the probe blocks, :data:`~repro.dsp.spectrum.PROBE_BLOCKS`);
  a lone tag yields Q identical complex DFT values (coherence ~1);
  co-binned tags beat against each other (coherence drops, magnitudes
  disperse); a data-floor fluke decorrelates. The single/multiple
  decision compares the measured coherence against the value a lone
  tone at the same sub-window SNR would show.
* ``method="shift"`` — the paper's literal Eq 8 test: |FFT| over
  ``[0, W)`` versus ``[tau, tau+W)``; a lone tag's magnitude is
  shift-invariant, co-binned tags beat. Several shifts dodge the
  ``delta_f * tau ~ integer`` blind spot. (Tone cancellation is applied
  here too, otherwise resolved neighbours trip the test.)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ..dsp.peaks import band_floors, detected_bins, find_peaks_in_magnitudes, quinn_offset
from ..dsp.sfft import sparse_fft_peaks
from ..dsp.spectrum import (
    PROBE_BLOCKS,
    Spectrum,
    dirichlet_kernel,
    fft_spectrum,
    tone_block_sums,
    tone_factors,
)
from ..errors import ConfigurationError
from ..phy.waveform import Waveform
from ..utils import as_rng
from .cfo import DEFAULT_SEARCH_HI_HZ, DEFAULT_SEARCH_LO_HZ

__all__ = ["BinClass", "BinObservation", "CountEstimate", "CollisionCounter"]

# In-band sFFT tones weaker than this fraction of the strongest one are
# treated as data sidelobes, not carriers (see _sfft_probe_candidates).
_SFFT_STRONG_RATIO = 0.3

# Two tones whose Gram coherence |G_jk| / N is within this of 1 (closer
# than ~2.5e-5 bin) are one tone to working precision: the fit drops the
# Gram's singular values below this fraction of the largest and returns
# the minimum-norm amplitudes (see CollisionCounter._solve_tones).
_GRAM_RCOND = 1e-9


class BinClass(enum.Enum):
    """Classification of one detected spectral spike."""

    SINGLE = "single"
    MULTIPLE = "multiple"
    REJECTED = "rejected"


@dataclass(frozen=True)
class BinObservation:
    """Diagnostics for one candidate spike.

    Attributes:
        cfo_hz: refined spike frequency.
        amplitude: jointly fitted complex tone amplitude (h/2 scale, from
            the first capture).
        snr: detection magnitude over the local floor.
        gamma: post-cancellation sub-window amplitude-to-noise ratio.
        coherence: |mean| / mean|.| of the cancelled sub-window values.
        expected_single_coherence: what a lone tone at this gamma shows.
        magnitude_dispersion: std/mean of the sub-window magnitudes.
        label: the verdict.
    """

    cfo_hz: float
    amplitude: complex
    snr: float
    gamma: float
    coherence: float
    expected_single_coherence: float
    magnitude_dispersion: float
    label: BinClass

    @property
    def contributes(self) -> int:
        """How many tags this spike adds to the count estimate."""
        if self.label is BinClass.SINGLE:
            return 1
        if self.label is BinClass.MULTIPLE:
            return 2
        return 0


@dataclass
class CountEstimate:
    """The counter's output for one collision (or burst of collisions)."""

    count: int
    observations: list[BinObservation] = field(default_factory=list)
    dense_mode: bool = False
    n_captures: int = 1
    #: The final fit's probe factors on the first capture's time base,
    #: ``(outer, inner)`` from :func:`~repro.dsp.spectrum.tone_factors`:
    #: rows ``outer[k]`` and ``inner[k]`` factor ``exp(-j 2 pi f_k t)``,
    #: which demodulates ``observations[k]`` — the same factors an Eq 5
    #: readout at that CFO builds. A consumer that reads the spikes at
    #: the other antennas takes them
    #: (:meth:`~repro.core.reader.CaraokeReader.observe` does, then drops
    #: them so its report keeps no per-tone arrays). None when nothing
    #: was fit.
    basis: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_single(self) -> int:
        return sum(1 for o in self.observations if o.label is BinClass.SINGLE)

    @property
    def n_multiple(self) -> int:
        return sum(1 for o in self.observations if o.label is BinClass.MULTIPLE)

    @property
    def n_rejected(self) -> int:
        return sum(1 for o in self.observations if o.label is BinClass.REJECTED)

    def cfos_hz(self) -> np.ndarray:
        """CFOs of the accepted spikes (ascending)."""
        return np.array(
            sorted(o.cfo_hz for o in self.observations if o.label is not BinClass.REJECTED)
        )


@dataclass
class CollisionCounter:
    """The §5 estimator.

    Attributes:
        min_snr_db: sparse-regime spike detection threshold over the local
            (CFAR) floor for a single capture. 13 dB holds the false-alarm
            rate of a ~615-bin Rayleigh search to a few percent per
            collision, and the structured low-density data floor demands
            no less.
        dense_snr_db / probe_snr_db / dense_trigger: a cheap probe
            detection at ``probe_snr_db`` measures band crowding; at or
            above ``dense_trigger`` candidates the scene is dense and the
            real pass runs at ``dense_snr_db`` with the coherence-reality
            filter enabled — in dense collisions the floor is Gaussian
            (CLT over many chip streams) so the filter is reliable, and
            the weak tags it recovers dominate the error budget.
        multi_capture_relief_db: detection thresholds drop by this much
            per doubling of averaged captures (incoherent averaging
            tightens the floor tail), floored at ``min_multi_snr_db``.
        method: "coherence" (default) or "shift" (the paper's literal test).
        slack_base / slack_gamma / min_slack: the single/multiple coherence
            threshold is ``C_expected(gamma)`` minus a slack that widens
            for noisy spikes and never shrinks below ``min_slack``.
        dispersion_base / dispersion_gamma: the companion magnitude test —
            a lone tone disperses ~``1/(sqrt(2) gamma)``; beyond
            ``dispersion_base + dispersion_gamma / gamma`` the spike is
            beating (two tags whose phases start aligned modulate the
            magnitude while keeping the composite phase — invisible to
            coherence alone).
        accept_gamma: candidates whose jointly-fitted amplitude is below
            this multiple of the local floor are rejected as artifacts
            (sidelobe skirts of strong tones, data-floor flukes).
        reality_coherence / reality_gamma: dense-mode-only rejection: a
            spike below both is a floor fluke, not a tag.
        merge_bins: candidates refined to within this many bins of each
            other are merged before fitting (keeps the basis conditioned).
        shift_samples: window offsets for the "shift" method.
        shift_tolerance: noise-independent floor of the shift test's
            relative-magnitude-change threshold.
        probe: how the density probe counts band crowding —
            ``"dense"`` (default: CFAR peak detection on the averaged
            magnitude spectrum at ``probe_snr_db``, the bit-exact
            baseline) or ``"sfft"`` (the paper's §10 sparse-FFT
            recovery on the first capture: aliasing bucketization +
            phase-offset location, sub-linear in the capture length).
            The probe only picks the regime (sparse vs dense detection
            threshold); the decision pass itself is identical under
            both, so the two probes disagree only when their candidate
            counts straddle ``dense_trigger``.
        sfft_max_tones / sfft_seed: the sparse probe's recovery budget
            and its dedicated shift-randomness seed (a fresh seeded
            stream per probe call keeps ``count_multi`` deterministic
            and stateless).
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            passes by regime (``count.pass``), spike verdicts by label
            (``count.spike``) and the pass's work (``count.work``):
            complex-exponential samples, FFT points, closed-form kernel
            terms and m x m solves, labelled by ``kind`` and by ``stage``
            (detect, refine, fit, align). The sparse probe's own recovery
            work is not counted. Never affects the estimate.
    """

    min_snr_db: float = 15.0
    dense_snr_db: float = 10.0
    probe_snr_db: float = 13.0
    dense_trigger: int = 16
    multi_capture_relief_db: float = 1.5
    min_multi_snr_db: float = 7.5
    fingerprint_corr: float = 0.85
    fingerprint_parent_ratio: float = 3.0
    fingerprint_max_gamma: float = 8.0
    method: str = "coherence"
    slack_base: float = 0.03
    slack_gamma: float = 0.30
    min_slack: float = 0.055
    max_slack: float = 0.35
    dispersion_base: float = 0.04
    dispersion_gamma: float = 2.2
    accept_gamma: float = 2.5
    reality_coherence: float = 0.75
    reality_gamma: float = 2.3
    merge_bins: float = 1.2
    shift_samples: tuple[int, ...] = (128, 320, 512)
    shift_tolerance: float = 0.18
    search_lo_hz: float = DEFAULT_SEARCH_LO_HZ
    search_hi_hz: float = DEFAULT_SEARCH_HI_HZ
    probe: str = "dense"
    sfft_max_tones: int = 24
    sfft_seed: int = 2015
    obs: object = None

    def __post_init__(self) -> None:
        if self.method not in ("coherence", "shift"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.probe not in ("dense", "sfft"):
            raise ConfigurationError(f"unknown probe {self.probe!r}")
        if self.dense_snr_db > self.min_snr_db:
            raise ConfigurationError("dense threshold must not exceed the sparse one")

    def _work(self, kind: str, stage: str, n: int) -> None:
        if self.obs is not None:
            self.obs.count("count.work", n, kind=kind, stage=stage)

    # -- public API -------------------------------------------------------------

    def count(self, wave: Waveform) -> CountEstimate:
        """Estimate how many tags collided inside one capture."""
        return self.count_multi([wave])

    def count_multi(self, waves: list[Waveform]) -> CountEstimate:
        """Estimate the tag count from one burst of repeated queries.

        All captures must view the same (static over the ~10 ms burst)
        scene; tags keep their CFOs but re-randomize their phases, which
        the per-spike statistics align out.
        """
        return self._count_burst(waves)

    def _count_burst(
        self,
        waves: list[Waveform],
        share_spectra: bool = True,
        stacked_fit: bool = True,
    ) -> CountEstimate:
        """:meth:`count_multi`, with its two private oracles.

        ``share_spectra=False`` recomputes the spectra, averaged
        magnitudes and CFAR floors for the probe and again for the
        decision pass; ``stacked_fit=False`` fits every capture's tones
        on its own basis. Both reproduce the default estimate
        bit-for-bit; the tests and the corridor bench's counting gates
        compare against them.
        """
        if not waves:
            raise ConfigurationError("need at least one capture")
        # Detection averages magnitudes bin for bin and refinement reads
        # one bin grid, so a burst's captures must share length and rate
        # (their start times may differ).
        first = waves[0]
        for wave in waves[1:]:
            if (wave.n_samples, wave.sample_rate_hz) != (first.n_samples, first.sample_rate_hz):
                raise ConfigurationError(
                    f"burst captures must share one bin grid: {first.n_samples} samples "
                    f"at {first.sample_rate_hz} Hz vs {wave.n_samples} at {wave.sample_rate_hz} Hz"
                )
        # Multi-capture averaging only suppresses *cross-tag* interference
        # (phases re-randomize per response); each tag's own data spectrum
        # repeats identically (same bits every response). The sparse-regime
        # floor is dominated by the latter, so relief applies only to the
        # dense pass, where cross terms dominate.
        relief = self.multi_capture_relief_db * np.log2(len(waves))
        dense_thr = max(self.min_multi_snr_db, self.dense_snr_db - relief)
        # The probe and the decision pass scan the same burst: spectra,
        # averaged magnitudes and the CFAR floor depend only on the
        # captures, so they are computed once and shared (the per-round
        # hot path of the city event engine runs through here).
        shared = self._spectral_state(waves) if share_spectra else None
        # Regime probe: the raw candidate count at a permissive threshold
        # cleanly separates sparse scenes (few tags + structured-floor
        # flukes) from dense ones (many tags, Gaussianized floor).
        dense = self._probe_candidates(waves, shared) >= self.dense_trigger
        if self.obs is not None:
            self.obs.count("count.pass", regime="dense" if dense else "sparse")
        return self._count_pass(
            waves,
            dense_thr if dense else self.min_snr_db,
            dense_mode=dense,
            shared=shared,
            stacked_fit=stacked_fit,
        )

    def _spectral_state(self, waves: list[Waveform]):
        """(spectra, averaged magnitudes, band CFAR floors) of one burst.

        The floors are computed only at the band's local maxima (see
        :func:`~repro.dsp.peaks.band_floors`): those are the only bins
        either detection pass compares against a threshold.
        """
        spectra = [fft_spectrum(w) for w in waves]
        self._work("fft_points", "detect", sum(s.n_bins for s in spectra))
        avg_mag = np.mean([s.magnitude() for s in spectra], axis=0)
        floors = band_floors(
            avg_mag, spectra[0].bin_hz, self.search_lo_hz, self.search_hi_hz
        )
        return spectra, avg_mag, floors

    def _probe_candidates(self, waves: list[Waveform], shared=None) -> int:
        """Candidate spike count at the permissive probe threshold."""
        if self.probe == "sfft":
            return self._sfft_probe_candidates(waves)
        spectra, avg_mag, floors = (
            shared if shared is not None else self._spectral_state(waves)
        )
        bins, _ = detected_bins(
            avg_mag,
            spectra[0].bin_hz,
            self.search_lo_hz,
            self.search_hi_hz,
            min_snr_db=self.probe_snr_db,
            floors=floors,
        )
        return int(bins.size)

    def _sfft_probe_candidates(self, waves: list[Waveform]) -> int:
        """Band crowding via §10 sparse-FFT recovery on the first capture.

        The probe only has to rank the scene against ``dense_trigger``,
        so it runs the exactly-sparse recovery with a bounded tone
        budget and counts how many recovered tones land inside the CFO
        search band. Shift randomness comes from a stream seeded fresh
        per call (``sfft_seed``): deterministic, and no draw ever leaks
        into the burst's main rng stream.
        """
        wave = waves[0]
        n = wave.n_samples
        n_buckets = 8
        while n_buckets < 8 * self.sfft_max_tones:
            n_buckets *= 2
        n_buckets = min(n_buckets, n)
        usable = (n // n_buckets) * n_buckets
        if usable == 0:
            return 0
        tones = sparse_fft_peaks(
            wave.samples[:usable],
            max_tones=self.sfft_max_tones,
            n_buckets=n_buckets,
            rng=as_rng(self.sfft_seed),
            # A density probe only ranks the scene against dense_trigger:
            # no full-FFT widening fallback, and a raised bucket floor
            # (tones this weak cannot clear _SFFT_STRONG_RATIO anyway)
            # keeps the candidate set — and so the verification cost —
            # proportional to the real carrier population.
            widen=False,
            magnitude_floor_ratio=0.15,
            probe_samples=None,
        )
        in_band = []
        for tone in tones:
            freq_hz = tone.freq_hz(wave.sample_rate_hz, usable)
            if freq_hz > wave.sample_rate_hz / 2.0:
                freq_hz -= wave.sample_rate_hz
            if self.search_lo_hz <= freq_hz <= self.search_hi_hz:
                in_band.append(abs(tone.amplitude))
        if not in_band:
            return 0
        # Each tag's OOK data spectrum puts sinc sidelobes around its
        # carrier; the recovered tone list includes the strongest of
        # them. Carriers are mutually comparable while sidelobes sit
        # well below, so only tones within _SFFT_STRONG_RATIO of the
        # strongest in-band tone count toward the density estimate.
        top = max(in_band)
        return sum(1 for a in in_band if a >= _SFFT_STRONG_RATIO * top)

    # -- one detection/classification pass ----------------------------------------

    def _count_pass(
        self,
        waves: list[Waveform],
        snr_db: float,
        dense_mode: bool,
        shared=None,
        stacked_fit: bool = True,
    ) -> CountEstimate:
        spectra, avg_mag, floors = (
            shared if shared is not None else self._spectral_state(waves)
        )
        bin_hz = spectra[0].bin_hz
        raw_peaks = find_peaks_in_magnitudes(
            avg_mag,
            bin_hz,
            self.search_lo_hz,
            self.search_hi_hz,
            min_snr_db=snr_db,
            floors=floors,
        )
        if not raw_peaks:
            return CountEstimate(
                count=0, observations=[], dense_mode=dense_mode, n_captures=len(waves)
            )

        # Every capture's FFT already brackets each spike: read its
        # sub-bin frequency off bins k-1, k, k+1 of the spectra in hand.
        n_bins = spectra[0].n_bins
        bins = np.array([p.bin_index for p in raw_peaks])
        taps = (bins[:, None] + np.array([-1, 0, 1])) % n_bins
        values = np.stack([s.values[taps] for s in spectra], axis=-1)  # (P, 3, K)
        offsets = quinn_offset(values[:, 0], values[:, 1], values[:, 2])
        refined_freqs = (bins + offsets) * bin_hz
        refined = [
            (float(freq), p.snr, p.floor)
            for freq, p in zip(refined_freqs, raw_peaks)
        ]
        refined = self._merge_candidates(refined, bin_hz)
        freqs = np.array([r[0] for r in refined])
        snrs = np.array([r[1] for r in refined])
        # Normalized local floors: detection floor is in raw-FFT units over
        # n_input samples; single-frequency probes below are 1/n normalized.
        floors_norm = np.array([r[2] for r in refined]) / spectra[0].n_input

        # Joint refinement: a close neighbour's skirt biases the initial
        # per-peak frequency estimate by hundreds of Hz, which then leaks
        # a beating residue through the cancellation. Re-refining each
        # tone on the neighbour-cancelled residual removes the bias.
        freqs = self._joint_refine(waves[0], spectra[0], freqs, bin_hz)

        per_capture = self._fit_tones_burst(waves, freqs, stacked=stacked_fit)
        # Sub-window values per capture, other tones cancelled, phases
        # aligned on each capture's own fitted amplitude.
        aligned_values = self._aligned_subwindow_values(waves, freqs, per_capture)
        amplitudes, _, factors = per_capture[0]
        mean_abs_amplitude = np.mean(
            [np.abs(amps) for amps, _, _ in per_capture], axis=0
        )
        # Fingerprinting is a sparse-regime tool: dense collisions have a
        # Gaussianized floor (the reality filter handles it) and many
        # candidates, which would inflate random-correlation rejections.
        fingerprinted = (
            {} if dense_mode else self._phase_fingerprints(per_capture, mean_abs_amplitude)
        )

        if self.method == "coherence":
            verdicts = self._coherence_verdicts(
                aligned_values, floors_norm, len(waves), dense_mode
            )
            probes = None
        else:
            probes = _probe_rows(factors, waves[0].n_samples)
        observations = []
        for k in range(freqs.size):
            # A candidate whose jointly-fitted amplitude collapses was a
            # sidelobe / floor artifact: its spectrum energy is already
            # explained by the other tones. Reject it before classifying.
            if mean_abs_amplitude[k] < self.accept_gamma * floors_norm[k]:
                label = BinClass.REJECTED
                stats = _stats(mean_abs_amplitude[k] / floors_norm[k], 0.0, 0.0, 0.0)
            elif k in fingerprinted:
                label = BinClass.REJECTED
                stats = _stats(
                    mean_abs_amplitude[k] / floors_norm[k], fingerprinted[k], 0.0, 0.0
                )
            elif self.method == "coherence":
                label, stats = verdicts[k]
            else:
                label, stats = self._classify_shift(waves[0], k, freqs, amplitudes, probes)
            observations.append(
                BinObservation(
                    cfo_hz=float(freqs[k]),
                    amplitude=complex(amplitudes[k]),
                    snr=float(snrs[k]),
                    label=label,
                    **stats,
                )
            )
        count = sum(o.contributes for o in observations)
        if self.obs is not None:
            for obs_record in observations:
                self.obs.count("count.spike", label=obs_record.label.value)
        return CountEstimate(
            count=count,
            observations=observations,
            dense_mode=dense_mode,
            n_captures=len(waves),
            basis=factors,
        )

    def _phase_fingerprints(
        self,
        per_capture: list[tuple],
        mean_abs_amplitude: np.ndarray,
    ) -> dict[int, float]:
        """Identify candidates that are data artifacts of a stronger tag.

        A tag transmits the same bits in every response, so a narrowband
        excursion of *its own data spectrum* inherits its per-response
        random phase: across K captures the excursion's fitted phase
        trajectory tracks the parent tag's trajectory. A real tag's
        trajectory is independent of every other tag's. With K >= 3
        captures, a weak candidate whose trajectory correlates strongly
        with a candidate ``fingerprint_parent_ratio`` times stronger is
        rejected. Returns {candidate index: correlation}.
        """
        k_captures = len(per_capture)
        if k_captures < 3:
            return {}
        amp_matrix = np.stack([amps for amps, _, _ in per_capture])  # (K, m)
        with np.errstate(invalid="ignore", divide="ignore"):
            phasors = amp_matrix / np.abs(amp_matrix)
        phasors = np.nan_to_num(phasors)
        rejected: dict[int, float] = {}
        m = amp_matrix.shape[1]
        for k in range(m):
            if mean_abs_amplitude[k] <= 0:
                continue
            for c in range(m):
                if c == k:
                    continue
                if mean_abs_amplitude[c] < self.fingerprint_parent_ratio * mean_abs_amplitude[k]:
                    continue
                corr = float(np.abs(np.mean(phasors[:, k] * phasors[:, c].conj())))
                if corr >= self.fingerprint_corr:
                    rejected[k] = corr
                    break
        return rejected

    def _joint_refine(
        self, wave: Waveform, spectrum: Spectrum, freqs: np.ndarray, bin_hz: float
    ) -> np.ndarray:
        """One pass of neighbour-cancelled refinement.

        Every tone with a close neighbour re-reads bins c-1, c, c+1 of
        the capture's spectrum with the other fitted tones taken out:
        tone ``j`` puts ``a_j exp(j w_j t0) D(w_j/fs - 2 pi c/N, N)`` into
        bin ``c`` (:func:`~repro.dsp.spectrum.dirichlet_kernel`), so the
        cancelled residual is never built or transformed.
        """
        if freqs.size < 2:
            return freqs
        # Only peaks with a close neighbour re-refine, so well-separated
        # scenes (most occupied rounds) skip the tone fit entirely.
        gaps = np.abs(freqs[:, None] - freqs[None, :])
        np.fill_diagonal(gaps, np.inf)
        close = np.flatnonzero(gaps.min(axis=1) <= 6.0 * bin_hz)
        if close.size == 0:
            return freqs
        amplitudes = self._fit_tones(wave, freqs)[0]
        omega = 2.0 * np.pi * freqs
        weights = np.tile(amplitudes * np.exp(1j * omega * wave.t0_s), (close.size, 1))
        weights[np.arange(close.size), close] = 0.0  # a tone is not its own leakage
        n = wave.n_samples
        centres = np.array([int(round(f / bin_hz)) % n for f in freqs[close]])
        taps = (centres[:, None] + np.array([-1, 0, 1])) % n  # (K, 3)
        kernel = dirichlet_kernel(
            omega[None, :, None] / wave.sample_rate_hz - 2.0 * np.pi * taps[:, None, :] / n, n
        )  # (K, m, 3)
        self._work("kernel_terms", "refine", 3 * (freqs.size - 1) * close.size)
        residual = spectrum.values[taps] - (weights[:, None, :] @ kernel)[:, 0, :]
        offsets = quinn_offset(residual[:, :1], residual[:, 1:2], residual[:, 2:])
        refined = freqs.copy()
        refined[close] = (centres + offsets) * bin_hz
        return refined

    def _merge_candidates(
        self, refined: list[tuple[float, float, float]], resolution_hz: float
    ) -> list[tuple[float, float, float]]:
        """Merge candidates whose refined frequencies nearly coincide.

        Refinement can walk two adjacent local maxima onto the same tone;
        fitting both would make the least-squares basis singular. Keep the
        higher-SNR member of any group closer than ``merge_bins`` bins.
        """
        kept: list[tuple[float, float, float]] = []
        for freq, snr, floor in sorted(refined, key=lambda r: -r[1]):
            if all(abs(freq - other[0]) > self.merge_bins * resolution_hz for other in kept):
                kept.append((freq, snr, floor))
        return sorted(kept)

    # -- tone model --------------------------------------------------------------

    def _tone_basis(self, wave: Waveform, freqs: np.ndarray) -> tuple[tuple, np.ndarray]:
        """``(factors, gram)`` of the tone model on one capture's time base.

        ``factors = (outer, inner)`` factor the probes ``exp(-j w_k t)``
        with ``w_k = 2 pi f_k`` by block
        (:func:`~repro.dsp.spectrum.tone_factors`; a probe demodulates
        tone k) and the model is ``samples ~= sum_k amplitudes[k] *
        conj(probe_k)``. The Gram ``probes @ probes.conj().T`` is a
        Dirichlet kernel per tone pair, ``exp(-j (w_j - w_k) t0)
        D(-(w_j - w_k)/fs, N)``: m^2 closed-form terms instead of an
        m^2 N product.
        """
        factors = tone_factors(freqs, wave.t0_s, wave.sample_rate_hz, wave.n_samples)
        d_omega = _omega_differences(freqs)
        gram = np.exp(-1j * d_omega * wave.t0_s) * dirichlet_kernel(
            -d_omega / wave.sample_rate_hz, wave.n_samples
        )
        self._work("exp_samples", "fit", factors[0].size + factors[1].size)
        self._work("kernel_terms", "fit", gram.size)
        return factors, gram

    def _solve_tones(self, gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Tone amplitudes from the m x m normal equations ``gram a = rhs``.

        Candidates are merged when closer than ``merge_bins``, so the
        Gram of resolved tones is well conditioned and ``np.linalg.solve``
        gives what least squares on the N x m basis gives. Joint
        refinement can still pull two tones onto one frequency, which
        makes the Gram singular: they get the minimum-norm answer, an
        equal share of the fitted amplitude each — what least squares on
        the basis itself returns.
        """
        self._work("solve", "fit", 1)
        coherence = np.abs(gram) / gram[0, 0].real
        if np.count_nonzero(coherence > 1.0 - _GRAM_RCOND) > len(gram):
            return np.linalg.lstsq(gram, rhs, rcond=_GRAM_RCOND)[0]
        return np.linalg.solve(gram, rhs)

    def _fit_tones(self, wave: Waveform, freqs: np.ndarray) -> tuple:
        """Jointly fit complex amplitudes of all detected tones.

        Returns ``(amplitudes, sums, factors)``: ``sums`` are the block
        sums of the capture under each probe
        (:func:`~repro.dsp.spectrum.tone_block_sums`), whose row sums
        are the normal equations' right-hand side; ``factors`` as in
        :meth:`_tone_basis`.
        """
        return self._fit_on_basis(wave, *self._tone_basis(wave, freqs))

    def _fit_on_basis(self, wave: Waveform, factors: tuple, gram: np.ndarray) -> tuple:
        """:meth:`_fit_tones` on a basis already built for ``wave``'s time base."""
        sums = tone_block_sums(*factors, wave.samples)
        return self._solve_tones(gram, sums.sum(axis=1)), sums, factors

    def _fit_tones_burst(
        self, waves: list[Waveform], freqs: np.ndarray, stacked: bool = True
    ) -> list[tuple]:
        """:meth:`_fit_tones` for a whole burst, one basis per time base.

        Captures of one burst re-query the same static scene, so when
        they share the time base (length, rate, start offset) they share
        the probe factors and the Gram, and only their own block sums
        and solve remain per capture. Each capture's amplitudes are
        those of its own per-capture fit bit for bit (a multi-RHS
        product or solve would block its columns differently). Bursts
        whose captures start at different times, or ``stacked=False``
        (the oracle), fit each capture on its own basis. (Length and
        rate agree across every burst :meth:`count_multi` accepts.)
        """
        first = waves[0]
        if not stacked or any(w.t0_s != first.t0_s for w in waves[1:]):
            return [self._fit_tones(w, freqs) for w in waves]
        factors, gram = self._tone_basis(first, freqs)
        return [self._fit_on_basis(w, factors, gram) for w in waves]

    def _aligned_subwindow_values(
        self,
        waves: list[Waveform],
        freqs: np.ndarray,
        per_capture: list[tuple],
    ) -> np.ndarray:
        """(m, Q * n_captures) cancelled, phase-aligned sub-window DFTs.

        The sub-windows are the first Q = ``PROBE_BLOCKS`` probe blocks of
        ``L`` samples each. Per capture: ``X[k, q] = mean_q(samples *
        probes[k])``, the fit's block sum over ``L``, minus every
        other tone's exactly-known leakage ``A_j * mean_q(conj(probes[j]) *
        probes[k])``, which over a sub-window of ``L = N/Q`` samples
        starting at ``t_q`` is ``exp(-j (w_k - w_j) t_q) D(-(w_k - w_j)/fs,
        L) / L``. Each capture's values are then rotated by the conjugate
        phase of its own fitted amplitude so that a lone tag lines up
        across captures despite its per-response random phase.
        """
        q = PROBE_BLOCKS
        d_omega = _omega_differences(freqs)
        chunks = []
        leak = leak_t0 = None
        for wave, (amplitudes, sums, (_, inner)) in zip(waves, per_capture):
            length = inner.shape[1]
            x = sums[:, :q] / length  # (m, Q)
            if leak is None or wave.t0_s != leak_t0:
                # leak[k, q, j]: tone j's mean over sub-window q of tone k's
                # demodulation; a tone's own term (j == k) is not leakage.
                kernel = dirichlet_kernel(-d_omega / wave.sample_rate_hz, length) / length
                np.fill_diagonal(kernel, 0.0)
                starts = wave.t0_s + np.arange(q) * length / wave.sample_rate_hz
                leak = np.exp(-1j * d_omega[:, None, :] * starts[None, :, None]) * kernel[:, None, :]
                leak_t0 = wave.t0_s
                self._work("kernel_terms", "align", leak.size)
            x_cancelled = x - leak @ amplitudes
            phases = np.exp(-1j * np.angle(amplitudes))
            self._work("exp_samples", "align", phases.size)
            chunks.append(x_cancelled * phases[:, None])
        return np.concatenate(chunks, axis=1)

    # -- classifiers -------------------------------------------------------------

    def _coherence_verdicts(
        self,
        values: np.ndarray,
        floors_norm: np.ndarray,
        n_captures: int,
        dense_mode: bool,
    ) -> list[tuple[BinClass, dict]]:
        """Every spike's ``(label, stats)`` from its row of ``values``.

        ``values`` is the (m, Q * n_captures) aligned sub-window matrix.
        Its row reductions (the mean magnitude, the magnitudes' spread and
        the mean value, each summed and divided as ``np.mean`` and
        ``np.std`` reduce a single row, so every verdict is the one-spike
        verdict bit for bit) give each spike:

        * ``gamma``: mean sub-window magnitude over the per-window floor;
        * ``coherence``: ``|mean| / mean|.|``, which a lone tone at
          sub-window SNR gamma (per-window noise of unit scale) puts at
          ``sqrt((gamma^2 + 1/W) / (gamma^2 + 1))`` over W windows
          (``expected_single_coherence``);
        * ``magnitude_dispersion``: std/mean of the magnitudes. A lone
          tone's are ``|A + n_q|`` with ``std/mean ~ 1/(sqrt(2) gamma)``;
          co-binned tags *beat*, and the beat shows in the magnitudes
          even when the composite phase stays put (tones that start
          aligned rotate the magnitude, not the phase — coherence alone
          is blind to them).

        A spike is SINGLE when its coherence clears the expected value
        less a slack, which widens as the spike weakens (the statistic
        gets noisier) and never falls below ``min_slack`` (residual
        imperfection of neighbour-tone cancellation), and its dispersion
        stays under ``dispersion_base + dispersion_gamma / gamma``;
        otherwise MULTIPLE. In dense mode a spike below both reality
        bounds is a floor fluke (REJECTED), and so is a silent row.
        """
        n_values = values.shape[1]
        mags = np.abs(values)
        mean_mags = mags.sum(axis=1) / n_values
        deviations = mags - mean_mags[:, None]
        spreads = np.sqrt((deviations * deviations).sum(axis=1) / n_values)
        centres = np.abs(values.sum(axis=1) / n_values)
        sqrt_blocks = float(np.sqrt(PROBE_BLOCKS))
        n_windows = PROBE_BLOCKS * n_captures
        verdicts = []
        for mean_mag, spread, centre, floor_norm in zip(
            mean_mags.tolist(), spreads.tolist(), centres.tolist(), floors_norm.tolist()
        ):
            if mean_mag == 0.0:
                verdicts.append((BinClass.REJECTED, _stats(0.0, 0.0, 0.0, 0.0)))
                continue
            gamma = mean_mag / max(floor_norm * sqrt_blocks, 1e-300)
            coherence = centre / mean_mag
            dispersion = spread / mean_mag
            g2 = gamma * gamma
            expected = math.sqrt((g2 + 1.0 / n_windows) / (g2 + 1.0))
            stats = _stats(gamma, coherence, expected, dispersion)
            weak = max(gamma, 0.3)
            slack = self.slack_base + self.slack_gamma / weak
            slack = min(self.max_slack, max(self.min_slack, slack))
            if dense_mode and coherence < self.reality_coherence and gamma < self.reality_gamma:
                label = BinClass.REJECTED
            elif coherence >= expected * (1.0 - slack) and dispersion <= (
                self.dispersion_base + self.dispersion_gamma / weak
            ):
                label = BinClass.SINGLE
            else:
                label = BinClass.MULTIPLE
            verdicts.append((label, stats))
        return verdicts

    def _classify_shift(
        self,
        wave: Waveform,
        k: int,
        freqs: np.ndarray,
        amplitudes: np.ndarray,
        probes: np.ndarray,
    ) -> tuple[BinClass, dict]:
        """The paper's Eq 8 test (with neighbour-tone cancellation)."""
        max_shift = max(self.shift_samples)
        window = wave.n_samples - max_shift
        if window <= 0:
            raise ConfigurationError("waveform shorter than the largest shift")

        def cancelled_window_mag(offset: int) -> float:
            demod = wave.samples[offset : offset + window] * probes[k, offset : offset + window]
            value = demod.mean()
            for j in range(freqs.size):
                if j == k:
                    continue
                cross = (
                    probes[k, offset : offset + window]
                    * probes[j, offset : offset + window].conj()
                )
                value -= amplitudes[j] * cross.mean()
            return abs(value)

        reference = cancelled_window_mag(0)
        if reference == 0.0:
            return BinClass.REJECTED, _stats(0.0, 0.0, 0.0, 0.0)
        worst = 0.0
        for shift in self.shift_samples:
            shifted = cancelled_window_mag(shift)
            worst = max(worst, abs(shifted - reference) / reference)
        if worst <= self.shift_tolerance:
            return BinClass.SINGLE, _stats(np.nan, 1.0, 1.0, worst)
        return BinClass.MULTIPLE, _stats(np.nan, 0.0, 1.0, worst)


def _stats(gamma: float, coherence: float, expected: float, dispersion: float) -> dict:
    return {
        "gamma": float(gamma),
        "coherence": float(coherence),
        "expected_single_coherence": float(expected),
        "magnitude_dispersion": float(dispersion),
    }


def _probe_rows(factors: tuple, n_samples: int) -> np.ndarray:
    """The m x N probes ``exp(-j w_k t)`` materialized from their factors."""
    outer, inner = factors
    return (outer[:, :, None] * inner[:, None, :]).reshape(len(outer), -1)[:, :n_samples]


def _omega_differences(freqs: np.ndarray) -> np.ndarray:
    """``w_j - w_k`` for every tone pair, with ``w = 2 pi f`` rounded as
    the probe basis rounds it (so a pair's Gram and leakage phases are
    the basis's own)."""
    omega = 2.0 * np.pi * freqs
    return omega[:, None] - omega[None, :]

