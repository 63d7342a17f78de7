"""Windowed FFTs and single-frequency DFT probes.

Caraoke works in the frequency domain: the FFT of a 512 µs collision has
one spike per colliding tag (Fig 4), at the tag's CFO, whose complex value
is half the tag's channel (Eq 5). Resolution is set by the window length
(Eq 6): the full response gives 1/512 µs = 1.953 kHz bins.

Two access patterns are provided: a full :class:`Spectrum` (peak *search*)
and :func:`single_bin_dft`, an exact DFT at one arbitrary — not necessarily
bin-centered — frequency (channel readout, the §5 fit and sub-window
test, and the §6 phase differences all probe single known frequencies).
Every such probe ``exp(-j 2 pi f t)`` is built once, in block-factored
form (:func:`tone_factors`), and read with :func:`tone_block_sums`: one
product gives the window's DFT (the sum of the block sums) and the §5
sub-window values (the block sums themselves). :func:`dirichlet_kernel`
is the closed form of every product of two such probes: the sum of one
tone demodulated at another's frequency over a window is a geometric
series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpectrumError
from ..phy.waveform import Waveform

__all__ = [
    "PROBE_BLOCKS",
    "Spectrum",
    "dirichlet_kernel",
    "fft_spectrum",
    "single_bin_dft",
    "tone_block_sums",
    "tone_factors",
]

#: Blocks a tone probe is factored into (:func:`tone_factors`). The §5
#: coherence test's sub-windows are these blocks.
PROBE_BLOCKS = 8

_WINDOWS = {
    "rect": lambda n: np.ones(n),
    "hann": lambda n: np.hanning(n),
    "hamming": lambda n: np.hamming(n),
}


@dataclass
class Spectrum:
    """FFT of a waveform window, with frequency bookkeeping.

    Attributes:
        values: complex FFT output, ``values[k]`` at frequency ``k * bin_hz``
            (frequencies at or above ``sample_rate/2`` alias to negative).
        sample_rate_hz: the input sample rate.
        window_start_s: absolute time of the first input sample.
        n_input: number of time samples transformed (before zero padding).
    """

    values: np.ndarray
    sample_rate_hz: float
    window_start_s: float
    n_input: int

    @property
    def n_bins(self) -> int:
        return int(self.values.size)

    @property
    def bin_hz(self) -> float:
        """Bin spacing. Equals 1/T for an unpadded window (Eq 6)."""
        return self.sample_rate_hz / self.n_bins

    @property
    def resolution_hz(self) -> float:
        """True spectral resolution 1/T, independent of zero padding."""
        return self.sample_rate_hz / self.n_input

    def freqs_hz(self) -> np.ndarray:
        """Frequency of each bin in [0, sample_rate)."""
        return np.arange(self.n_bins) * self.bin_hz

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def power(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def bin_of(self, freq_hz: float) -> int:
        """Nearest bin index for a frequency in [0, sample_rate)."""
        if not 0 <= freq_hz < self.sample_rate_hz:
            raise SpectrumError(
                f"frequency {freq_hz} outside [0, {self.sample_rate_hz})"
            )
        return int(round(freq_hz / self.bin_hz)) % self.n_bins

    def freq_of(self, bin_index: int) -> float:
        return (bin_index % self.n_bins) * self.bin_hz


def fft_spectrum(
    wave: Waveform,
    window: str = "rect",
    n_fft: int | None = None,
    offset_samples: int = 0,
    length_samples: int | None = None,
) -> Spectrum:
    """FFT of (a window of) a waveform.

    Args:
        wave: input waveform.
        window: "rect", "hann" or "hamming". The tag peaks are narrowband
            tones riding on wideband OOK data; the rectangular window keeps
            the paper's 1/T resolution and is the default.
        n_fft: zero-padded FFT size (>= window length).
        offset_samples: start of the analysis window within the waveform —
            this is the time shift tau of the §5 multi-tag bin test.
        length_samples: analysis window length (defaults to the rest).

    Returns:
        A :class:`Spectrum`.
    """
    if length_samples is None:
        length_samples = wave.n_samples - offset_samples
    segment = wave.window(offset_samples, length_samples)
    try:
        taper = _WINDOWS[window](segment.n_samples)
    except KeyError:
        raise SpectrumError(f"unknown window {window!r}; options: {sorted(_WINDOWS)}")
    n_fft = n_fft or segment.n_samples
    if n_fft < segment.n_samples:
        raise SpectrumError(f"n_fft={n_fft} shorter than window {segment.n_samples}")
    values = np.fft.fft(segment.samples * taper, n=n_fft)
    return Spectrum(
        values=values,
        sample_rate_hz=wave.sample_rate_hz,
        window_start_s=segment.t0_s,
        n_input=segment.n_samples,
    )


def single_bin_dft(
    wave: Waveform,
    freq_hz: float,
    offset_samples: int = 0,
    length_samples: int | None = None,
    absolute_time: bool = True,
) -> complex:
    """Exact normalized DFT of a waveform window at one frequency.

    Computes ``mean(x[n] * exp(-j 2 pi f t_n))`` over the window. With
    ``absolute_time`` the phase reference is the world clock, which makes
    values comparable across antennas and across windows — exactly what the
    channel readout (Eq 5), the AoA phase difference (§6), and the
    time-shift magnitude test (§5) need. The probe is the block-factored
    one (:func:`tone_factors`), summed with :func:`tone_block_sums` — the
    readout :meth:`~repro.core.localization.AoAEstimator.estimate_for_cfo`
    takes per antenna, so the two agree bit for bit.

    The normalization is ``1/n``, so a pure tone ``A*exp(j 2 pi f t)``
    returns ``A`` and the tag's OOK signal returns ``h/2`` (Eq 5): callers
    recover the channel as ``2 * single_bin_dft(...)``.
    """
    if length_samples is None:
        length_samples = wave.n_samples - offset_samples
    segment = wave.window(offset_samples, length_samples)
    t0_s = segment.t0_s if absolute_time else 0.0
    outer, inner = tone_factors([freq_hz], t0_s, wave.sample_rate_hz, segment.n_samples)
    return complex(tone_block_sums(outer, inner, segment.samples).sum() / segment.n_samples)


def tone_factors(
    freqs_hz, t0_s: float, sample_rate_hz: float, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block factors of the probes ``exp(-j w_k t_n)``, ``t_n = t0 + n/fs``.

    The window is cut into blocks of ``L = max(1, N // PROBE_BLOCKS)``
    samples, the last one partial when ``L`` does not divide ``N``. Block
    ``b`` starts at ``t_b = t0 + b L / fs``, and
    ``exp(-j w t_{bL+l}) = exp(-j w t_b) exp(-j w l / fs)``, so the m
    probes take ``m (B + L)`` exponentials instead of ``m N``.

    Returns:
        ``(outer, inner)``: ``outer[k, b] = exp(-j w_k t_b)`` (m x B, B
        blocks counting the partial one) and ``inner[k, l] =
        exp(-j w_k l / fs)`` (m x L).
    """
    freqs = np.asarray(freqs_hz, dtype=np.float64).reshape(-1, 1)
    length = max(1, n_samples // PROBE_BLOCKS)
    n_blocks = -(-n_samples // length)
    # b L / fs rounds as Waveform.times() rounds sample b L.
    starts = t0_s + np.arange(n_blocks) * length / sample_rate_hz
    outer = np.exp(-2j * np.pi * freqs * starts)
    inner = np.exp(-2j * np.pi * freqs * (np.arange(length) / sample_rate_hz))
    return outer, inner


def tone_block_sums(
    outer: np.ndarray, inner: np.ndarray, samples: np.ndarray
) -> np.ndarray:
    """``sums[k, b]``: the sum of ``samples * probe_k`` over block ``b``.

    One ``inner @ y.reshape(B, L).T`` product, scaled per block by
    ``outer`` (see :func:`tone_factors`); a trailing partial block reads
    the first ``N mod L`` inner taps. A row's sum is that probe's
    unnormalized DFT of the whole window, and a full block's sum over
    ``L`` is its sub-window mean.
    """
    length = inner.shape[1]
    n_full = samples.size // length
    head = samples[: n_full * length].reshape(n_full, length)
    sums = inner @ head.T
    tail = samples.size - n_full * length
    if tail:
        sums = np.column_stack([sums, inner[:, :tail] @ samples[n_full * length :]])
    return outer * sums


def dirichlet_kernel(phi_rad, length: int) -> np.ndarray:
    """``D(phi, L) = sum_{n<L} exp(j phi n)`` in closed form, elementwise.

    The geometric series is ``exp(j phi (L-1)/2) sin(phi L/2) / sin(phi/2)``,
    and ``L`` where ``phi`` is a multiple of 2 pi. With sample times
    ``t_n = t0 + n/fs``, two unit tones at ``f_j`` and ``f_k`` correlate
    over ``L`` samples as ``exp(j 2 pi (f_j - f_k) t0) D(2 pi (f_j - f_k)/fs,
    L)`` — the Gram of a tone basis, the leakage between tones in a
    sub-window, or a tone's value in one FFT bin, without touching a
    sample.
    """
    phi = np.asarray(phi_rad, dtype=np.float64)
    # D is 2 pi-periodic in phi: reduce to [-pi, pi] so the ratio's
    # removable singularity sits at phi == 0 alone.
    half = (phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(half == 0.0, float(length), np.sin(half * length) / np.sin(half))
    return np.exp(1j * half * (length - 1)) * ratio
