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
from typing import NamedTuple

import numpy as np

from ..dsp.peaks import BandScan, quinn_offset
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
from .cfo import DEFAULT_SEARCH_HI_HZ, DEFAULT_SEARCH_LO_HZ

__all__ = ["BinClass", "BinObservation", "CountEstimate", "CollisionCounter"]

# Two tones whose Gram coherence |G_jk| / N is within this of 1 (closer
# than ~2.5e-5 bin) are one tone to working precision: the fit drops the
# Gram's singular values below this fraction of the largest and returns
# the minimum-norm amplitudes (see CollisionCounter._solve_tones).
_GRAM_RCOND = 1e-9

# Detection thresholds over the local (CFAR) floor. The sparse pass
# detects at _MIN_SNR_DB (13 dB holds the false-alarm rate of a
# ~615-bin Rayleigh search to a few percent per collision, and the
# structured low-density data floor demands no less). A probe at
# _PROBE_SNR_DB measures band crowding; at _DENSE_TRIGGER candidates or
# more the scene is dense, and the decision pass runs at _DENSE_SNR_DB
# with the coherence-reality filter on: in dense collisions the floor is
# Gaussian (CLT over many chip streams), so the filter is reliable, and
# the weak tags it recovers dominate the error budget. Averaging K
# captures lowers the dense threshold by _MULTI_CAPTURE_RELIEF_DB per
# doubling (the floor's tail tightens), floored at _MIN_MULTI_SNR_DB.
# Order: _MIN_MULTI_SNR_DB <= _DENSE_SNR_DB <= _MIN_SNR_DB.
_MIN_SNR_DB = 15.0
_DENSE_SNR_DB = 10.0
_PROBE_SNR_DB = 13.0
_DENSE_TRIGGER = 16
_MULTI_CAPTURE_RELIEF_DB = 1.5
_MIN_MULTI_SNR_DB = 7.5

# A sparse-regime candidate whose per-capture phase trajectory
# correlates at _FINGERPRINT_CORR or more with one of a candidate
# _FINGERPRINT_PARENT_RATIO times stronger is that tag's data artifact
# (see CollisionCounter._phase_fingerprints).
_FINGERPRINT_CORR = 0.85
_FINGERPRINT_PARENT_RATIO = 3.0

# The coherence test: a spike is single when its coherence clears the
# lone-tone value C_expected(gamma) less a slack of
# _SLACK_BASE + _SLACK_GAMMA / gamma, held within
# [_MIN_SLACK, _MAX_SLACK], and its magnitude dispersion (a lone tone's
# is ~1/(sqrt(2) gamma)) stays under _DISPERSION_BASE +
# _DISPERSION_GAMMA / gamma: co-binned tags whose phases start aligned
# beat in magnitude while keeping the composite phase, which coherence
# alone cannot see.
_SLACK_BASE = 0.03
_SLACK_GAMMA = 0.30
_MIN_SLACK = 0.055
_MAX_SLACK = 0.35
_DISPERSION_BASE = 0.04
_DISPERSION_GAMMA = 2.2

# Candidates whose jointly fitted amplitude is under _ACCEPT_GAMMA times
# the local floor are artifacts (sidelobe skirts of strong tones,
# data-floor flukes). In dense mode a spike below both
# _REALITY_COHERENCE and _REALITY_GAMMA is a floor fluke, not a tag.
_ACCEPT_GAMMA = 2.5
_REALITY_COHERENCE = 0.75
_REALITY_GAMMA = 2.3

# Candidates refined to within this many bins of each other are merged
# before fitting (keeps the basis conditioned).
_MERGE_BINS = 1.2

# A spike's bins k-1, k, k+1, which its sub-bin frequency is read from.
_TAPS = np.array([-1, 0, 1])

# The "shift" method's window offsets, and the noise-independent floor
# of its relative-magnitude-change threshold.
_SHIFT_SAMPLES = (128, 320, 512)
_SHIFT_TOLERANCE = 0.18


class _ToneBasis(NamedTuple):
    """The tone model of one fit on one capture time base
    (:meth:`CollisionCounter._tone_basis`).

    Attributes:
        factors: ``(outer, inner)``, the probes' block factors.
        gram: the m x m Gram of the probes over the capture.
        d_omega: ``w_j - w_k`` for every tone pair.
        block_kernel: ``D(-(w_j - w_k)/fs, L)`` over one probe block, or
            None for a fit that reads no sub-windows.
        t0_s / sample_rate_hz: the time base.
    """

    factors: tuple[np.ndarray, np.ndarray]
    gram: np.ndarray
    d_omega: np.ndarray
    block_kernel: np.ndarray
    t0_s: float
    sample_rate_hz: float


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

    Its thresholds and test bounds are the module's constants; the CFO
    band it searches is :mod:`repro.core.cfo`'s.

    Attributes:
        method: "coherence" (default) or "shift" (the paper's literal test).
        obs: nullable observability hook (see :mod:`repro.obs`): counts
            passes by regime (``count.pass``), spike verdicts by label
            (``count.spike``) and the pass's work (``count.work``):
            complex-exponential samples, FFT points, CFAR floors
            computed, closed-form kernel terms and m x m solves, labelled
            by ``kind`` and by ``stage`` (detect, refine, fit, align).
            Never affects the estimate.
    """

    method: str = "coherence"
    obs: object = None

    def __post_init__(self) -> None:
        if self.method not in ("coherence", "shift"):
            raise ConfigurationError(f"unknown method {self.method!r}")

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
        magnitudes and band scan for the probe and again for the decision
        pass, each scan computing the CFAR floor at every local maximum;
        ``stacked_fit=False`` fits every capture's tones on its own basis.
        Both reproduce the default estimate bit-for-bit; the tests and the
        corridor bench's counting gates compare against them.
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
        relief = _MULTI_CAPTURE_RELIEF_DB * np.log2(len(waves))
        dense_thr = max(_MIN_MULTI_SNR_DB, _DENSE_SNR_DB - relief)
        # The probe and the decision pass scan the same burst: spectra,
        # averaged magnitudes and the band's local maxima depend only on
        # the captures, so they are found once and shared, and each pass
        # adds only the CFAR floors its threshold can need (the per-round
        # hot path of the city event engine runs through here).
        state = self._spectral_state(waves, screened=share_spectra)
        # Regime probe: the raw candidate count at a permissive threshold
        # cleanly separates sparse scenes (few tags + structured-floor
        # flukes) from dense ones (many tags, Gaussianized floor).
        dense = self._probe_candidates(waves, state) >= _DENSE_TRIGGER
        if self.obs is not None:
            self.obs.count("count.pass", regime="dense" if dense else "sparse")
        if not share_spectra:
            self._work("floor_bins", "detect", state[2].n_floors)
            state = self._spectral_state(waves, screened=False)
        return self._count_pass(
            waves, state, dense_thr if dense else _MIN_SNR_DB, dense, stacked_fit
        )

    def _spectral_state(self, waves: list[Waveform], screened: bool = True):
        """(spectra, averaged magnitudes, band scan) of one burst.

        The scan (:class:`~repro.dsp.peaks.BandScan`) holds the band's
        local maxima, the only bins either detection pass compares
        against a threshold, and computes a maximum's CFAR floor only
        when a pass's threshold can need it (``screened=False``: every
        maximum's, up front).
        """
        spectra = [fft_spectrum(w) for w in waves]
        self._work("fft_points", "detect", sum(s.n_bins for s in spectra))
        if len(spectra) == 1:
            avg_mag = spectra[0].magnitude()
        else:
            avg_mag = np.mean([s.magnitude() for s in spectra], axis=0)
        scan = BandScan(
            avg_mag,
            spectra[0].bin_hz,
            DEFAULT_SEARCH_LO_HZ,
            DEFAULT_SEARCH_HI_HZ,
            screened=screened,
        )
        return spectra, avg_mag, scan

    def _probe_candidates(self, waves: list[Waveform], shared=None) -> int:
        """Candidate spike count at the permissive probe threshold."""
        scan = (shared if shared is not None else self._spectral_state(waves))[2]
        return int(scan.detect(_PROBE_SNR_DB).size)

    # -- one detection/classification pass ----------------------------------------

    def _count_pass(
        self,
        waves: list[Waveform],
        state: tuple,
        snr_db: float,
        dense_mode: bool,
        stacked_fit: bool = True,
    ) -> CountEstimate:
        spectra, _, scan = state
        hits = scan.detect(snr_db)
        self._work("floor_bins", "detect", scan.n_floors)
        n_captures = len(waves)
        if not hits.size:
            return CountEstimate(
                count=0, observations=[], dense_mode=dense_mode, n_captures=n_captures
            )

        # Every capture's FFT already brackets each spike: read its
        # sub-bin frequency off bins k-1, k, k+1 of the spectra in hand.
        first = spectra[0]
        bin_hz = first.bin_hz
        bins = scan.bins[hits]
        taps = (bins[:, None] + _TAPS) % first.n_bins
        if len(spectra) == 1:
            values = first.values[taps][..., None]  # (P, 3, 1)
        else:
            values = np.stack([s.values[taps] for s in spectra], axis=-1)  # (P, 3, K)
        freqs = (bins + quinn_offset(values[:, 0], values[:, 1], values[:, 2])) * bin_hz
        snrs = scan.snrs(hits)
        keep = _merge_candidates(freqs, snrs, bin_hz)
        freqs, snrs = freqs[keep], snrs[keep]
        # Normalized local floors: detection floor is in raw-FFT units over
        # n_input samples; single-frequency probes below are 1/n normalized.
        floors_norm = scan.floors[hits[keep]] / first.n_input

        # Joint refinement: a close neighbour's skirt biases the initial
        # per-peak frequency estimate by hundreds of Hz, which then leaks
        # a beating residue through the cancellation. Re-refining each
        # tone on the neighbour-cancelled residual removes the bias.
        freqs = self._joint_refine(waves[0], first, freqs, bin_hz)

        per_capture = self._fit_tones_burst(waves, freqs, stacked=stacked_fit)
        # Sub-window values per capture, other tones cancelled, phases
        # aligned on each capture's own fitted amplitude.
        aligned_values = self._aligned_subwindow_values(per_capture)
        amplitudes, _, basis = per_capture[0]
        if n_captures == 1:
            mean_abs_amplitude = np.abs(amplitudes)
        else:
            mean_abs_amplitude = np.mean(
                [np.abs(amps) for amps, _, _ in per_capture], axis=0
            )
        # A candidate whose jointly-fitted amplitude collapses was a
        # sidelobe / floor artifact: its spectrum energy is already
        # explained by the other tones. Reject it before classifying.
        collapsed = (mean_abs_amplitude < _ACCEPT_GAMMA * floors_norm).tolist()
        # Fingerprinting is a sparse-regime tool: dense collisions have a
        # Gaussianized floor (the reality filter handles it) and many
        # candidates, which would inflate random-correlation rejections.
        fingerprinted = (
            {} if dense_mode else self._phase_fingerprints(per_capture, mean_abs_amplitude)
        )

        if self.method == "coherence":
            verdicts = self._coherence_verdicts(
                aligned_values, floors_norm, n_captures, dense_mode
            )
        else:
            probes = _probe_rows(basis.factors, waves[0].n_samples)
        observations = []
        for k, (freq, amplitude, snr) in enumerate(
            zip(freqs.tolist(), amplitudes.tolist(), snrs.tolist())
        ):
            if collapsed[k]:
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
                BinObservation(cfo_hz=freq, amplitude=amplitude, snr=snr, label=label, **stats)
            )
        if self.obs is not None:
            for obs_record in observations:
                self.obs.count("count.spike", label=obs_record.label.value)
        return CountEstimate(
            count=sum(o.contributes for o in observations),
            observations=observations,
            dense_mode=dense_mode,
            n_captures=n_captures,
            basis=basis.factors,
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
        with a candidate ``_FINGERPRINT_PARENT_RATIO`` times stronger is
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
                if mean_abs_amplitude[c] < _FINGERPRINT_PARENT_RATIO * mean_abs_amplitude[k]:
                    continue
                corr = float(np.abs(np.mean(phasors[:, k] * phasors[:, c].conj())))
                if corr >= _FINGERPRINT_CORR:
                    rejected[k] = corr
                    break
        return rejected

    def _joint_refine(
        self, wave: Waveform, spectrum: Spectrum, freqs: np.ndarray, bin_hz: float
    ) -> np.ndarray:
        """One pass of neighbour-cancelled refinement of ascending ``freqs``.

        Every tone with a close neighbour re-reads bins c-1, c, c+1 of
        the capture's spectrum with the other fitted tones taken out:
        tone ``j`` puts ``a_j exp(j w_j t0) D(w_j/fs - 2 pi c/N, N)`` into
        bin ``c`` (:func:`~repro.dsp.spectrum.dirichlet_kernel`), so the
        cancelled residual is never built or transformed.
        """
        # Only peaks with a close neighbour re-refine, so well-separated
        # scenes (most occupied rounds) skip the tone fit entirely. The
        # frequencies ascend, so a tone's nearest neighbour is adjacent.
        near = np.diff(freqs) <= 6.0 * bin_hz
        if not near.any():
            return freqs
        has_close = np.zeros(freqs.size, dtype=bool)
        has_close[:-1] = near
        has_close[1:] |= near
        close = np.flatnonzero(has_close)
        # The cancellation fit reads no sub-windows.
        amplitudes = self._fit_tones(wave, freqs, block_kernel=False)[0]
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

    # -- tone model --------------------------------------------------------------

    def _tone_basis(
        self, wave: Waveform, freqs: np.ndarray, block_kernel: bool = True
    ) -> _ToneBasis:
        """The tone model of ``freqs`` on one capture's time base.

        ``factors = (outer, inner)`` factor the probes ``exp(-j w_k t)``
        with ``w_k = 2 pi f_k`` by block
        (:func:`~repro.dsp.spectrum.tone_factors`; a probe demodulates
        tone k) and the model is ``samples ~= sum_k amplitudes[k] *
        conj(probe_k)``. The Gram ``probes @ probes.conj().T`` is a
        Dirichlet kernel per tone pair, ``exp(-j (w_j - w_k) t0)
        D(-(w_j - w_k)/fs, N)``: m^2 closed-form terms instead of an
        m^2 N product. With ``block_kernel``, the same pairs' kernel
        over one probe block of ``L`` samples, which the sub-window
        leakage reads (:meth:`_aligned_subwindow_values`), comes from the
        same evaluation; a fit that reads no sub-windows goes without.
        """
        fs = wave.sample_rate_hz
        factors = tone_factors(freqs, wave.t0_s, fs, wave.n_samples)
        d_omega = _omega_differences(freqs)
        phi = -d_omega / fs
        if block_kernel:
            lengths = np.array([wave.n_samples, factors[1].shape[1]])[:, None, None]
            kernel, block = dirichlet_kernel(phi, lengths)
        else:
            kernel, block = dirichlet_kernel(phi, wave.n_samples), None
        gram = np.exp(-1j * d_omega * wave.t0_s) * kernel
        self._work("exp_samples", "fit", factors[0].size + factors[1].size)
        self._work("kernel_terms", "fit", gram.size)
        return _ToneBasis(factors, gram, d_omega, block, wave.t0_s, fs)

    def _solve_tones(self, gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Tone amplitudes from the m x m normal equations ``gram a = rhs``.

        Candidates are merged when closer than ``_MERGE_BINS``, so the
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

    def _fit_tones(
        self, wave: Waveform, freqs: np.ndarray, block_kernel: bool = True
    ) -> tuple:
        """Jointly fit complex amplitudes of all detected tones.

        Returns ``(amplitudes, sums, basis)``: ``sums`` are the block
        sums of the capture under each probe
        (:func:`~repro.dsp.spectrum.tone_block_sums`), whose row sums
        are the normal equations' right-hand side; ``basis`` as
        :meth:`_tone_basis` returns it.
        """
        return self._fit_on_basis(wave, self._tone_basis(wave, freqs, block_kernel))

    def _fit_on_basis(self, wave: Waveform, basis: _ToneBasis) -> tuple:
        """:meth:`_fit_tones` on a basis already built for ``wave``'s time base."""
        sums = tone_block_sums(*basis.factors, wave.samples)
        return self._solve_tones(basis.gram, sums.sum(axis=1)), sums, basis

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
        basis = self._tone_basis(first, freqs)
        return [self._fit_on_basis(w, basis) for w in waves]

    def _aligned_subwindow_values(self, per_capture: list[tuple]) -> np.ndarray:
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
        chunks = []
        leak = leak_basis = None
        for amplitudes, sums, basis in per_capture:
            length = basis.factors[1].shape[1]
            x = sums[:, :q] / length  # (m, Q)
            if basis is not leak_basis:
                # leak[k, q, j]: tone j's mean over sub-window q of tone k's
                # demodulation; a tone's own term (j == k) is not leakage.
                kernel = basis.block_kernel / length
                np.fill_diagonal(kernel, 0.0)
                d_omega = basis.d_omega
                starts = basis.t0_s + np.arange(q) * length / basis.sample_rate_hz
                leak = np.exp(-1j * d_omega[:, None, :] * starts[None, :, None]) * kernel[:, None, :]
                leak_basis = basis
                self._work("kernel_terms", "align", leak.size)
            x_cancelled = x - leak @ amplitudes
            phases = np.exp(-1j * np.angle(amplitudes))
            self._work("exp_samples", "align", phases.size)
            chunks.append(x_cancelled * phases[:, None])
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)

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
        gets noisier) and never falls below ``_MIN_SLACK`` (residual
        imperfection of neighbour-tone cancellation), and its dispersion
        stays under ``_DISPERSION_BASE + _DISPERSION_GAMMA / gamma``;
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
            slack = _SLACK_BASE + _SLACK_GAMMA / weak
            slack = min(_MAX_SLACK, max(_MIN_SLACK, slack))
            if dense_mode and coherence < _REALITY_COHERENCE and gamma < _REALITY_GAMMA:
                label = BinClass.REJECTED
            elif coherence >= expected * (1.0 - slack) and dispersion <= (
                _DISPERSION_BASE + _DISPERSION_GAMMA / weak
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
        max_shift = max(_SHIFT_SAMPLES)
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
        for shift in _SHIFT_SAMPLES:
            shifted = cancelled_window_mag(shift)
            worst = max(worst, abs(shifted - reference) / reference)
        if worst <= _SHIFT_TOLERANCE:
            return BinClass.SINGLE, _stats(np.nan, 1.0, 1.0, worst)
        return BinClass.MULTIPLE, _stats(np.nan, 0.0, 1.0, worst)


def _merge_candidates(freqs: np.ndarray, snrs: np.ndarray, resolution_hz: float) -> np.ndarray:
    """Which candidates survive merging, as indices by ascending frequency.

    Refinement can walk two adjacent local maxima onto the same tone;
    fitting both would make the least-squares basis singular. Keep the
    higher-SNR member (the earlier on a tie) of any group closer than
    ``_MERGE_BINS`` bins, strongest first. A candidate with no other
    that close (in ascending order, no adjacent gap within the limit)
    is kept and blocks no other, so only the contested ones run the
    greedy pass; most counts have none.
    """
    order = np.argsort(freqs)
    limit = _MERGE_BINS * resolution_hz
    near = np.diff(freqs[order]) <= limit
    if not near.any():
        return order
    contested = np.zeros(freqs.size, dtype=bool)
    contested[order[:-1][near]] = True
    contested[order[1:][near]] = True
    rivals = np.flatnonzero(contested)
    values = freqs.tolist()
    kept: list[int] = []
    for k in rivals[np.argsort(-snrs[rivals], kind="stable")].tolist():
        if all(abs(values[k] - values[j]) > limit for j in kept):
            kept.append(k)
    keep = np.concatenate([np.flatnonzero(~contested), kept])
    return keep[np.argsort(freqs[keep])]


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

