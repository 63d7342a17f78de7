"""Spectral peak detection for collision spectra (Fig 4).

A collision spectrum is a set of narrow CFO spikes standing on a wideband
floor made of every tag's OOK data sidelobes plus thermal noise. The
detector therefore estimates the floor *robustly* (median — the spikes are
sparse outliers) and keeps local maxima that clear the floor by a margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpectrumError
from ..utils import db_to_amplitude
from .spectrum import Spectrum

__all__ = [
    "SpectralPeak",
    "estimate_noise_floor",
    "local_noise_floor",
    "band_floors",
    "parabolic_offset",
    "quinn_offset",
    "detected_bins",
    "find_peaks_in_magnitudes",
    "find_spectral_peaks",
]


@dataclass(frozen=True)
class SpectralPeak:
    """One detected spectral spike.

    Attributes:
        bin_index: FFT bin of the local maximum.
        freq_hz: refined (sub-bin) frequency estimate.
        value: complex FFT value at the maximum bin.
        magnitude: |value|.
        floor: the floor estimate the detection was made against.
    """

    bin_index: int
    freq_hz: float
    value: complex
    magnitude: float
    floor: float

    @property
    def snr(self) -> float:
        """Peak magnitude over the floor (amplitude ratio)."""
        return self.magnitude / self.floor if self.floor > 0 else np.inf


def estimate_noise_floor(magnitudes: np.ndarray) -> float:
    """Robust floor: scaled median of the magnitude spectrum.

    For Rayleigh-distributed noise-bin magnitudes the median is
    ``sigma * sqrt(ln 4)``; dividing it out returns the Rayleigh scale, a
    stable reference even when a few percent of bins hold signal spikes.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    if magnitudes.size == 0:
        raise SpectrumError("cannot estimate a floor from zero bins")
    return float(np.median(magnitudes) / np.sqrt(np.log(4.0)))


def parabolic_offset(left, center, right):
    """Sub-bin offset of a peak from three magnitude samples, in bins.

    Fits a parabola through (-1, left), (0, center), (1, right); the vertex
    abscissa refines the tone frequency to a fraction of a bin, which the
    decoder needs (a CFO error of half a bin rotates the target by pi over
    the 512 us response and breaks coherent combining, §8). A flat triple
    gives 0. Elementwise over arrays; a float for scalar samples.
    """
    left, center, right = (np.asarray(v, dtype=np.float64) for v in (left, center, right))
    denom = left - 2.0 * center + right
    flat = denom == 0.0
    offset = 0.5 * (left - right) / np.where(flat, 1.0, denom)
    offset = np.where(flat, 0.0, np.minimum(np.maximum(offset, -0.5), 0.5))
    return float(offset) if offset.ndim == 0 else offset


_QUINN_ROOT = np.sqrt(2.0 / 3.0)


def _quinn_tau(x: np.ndarray) -> np.ndarray:
    return 0.25 * np.log(3.0 * x * x + 6.0 * x + 1.0) - np.sqrt(6.0) / 24.0 * np.log(
        (x + 1.0 - _QUINN_ROOT) / (x + 1.0 + _QUINN_ROOT)
    )


def quinn_offset(left, center, right) -> np.ndarray:
    """Sub-bin offset of a tone from its complex DFT bins k-1, k, k+1.

    Quinn's second estimator (IEEE Trans. Signal Processing 45(3),
    1997): the ratios ``X[k+-1] / X[k]`` of an unwindowed DFT give two
    estimates of the offset, and a closed-form correction combines them
    with near-minimal variance. A clean tone lands within a millionth of
    a bin at N = 2048, with no probe exponentials at all.

    The last axis indexes captures of the same tone (any others index
    tones). Each capture's ratio is free of that capture's phase, so the
    captures combine as a ``|X[k]|^2``-weighted mean of the ratios. The
    result is clipped to +-1 bin; a tone whose centre bin is zero in
    every capture gets offset 0.
    """
    left, center, right = (
        np.atleast_1d(np.asarray(v, dtype=np.complex128)) for v in (left, center, right)
    )
    power = (center.real**2 + center.imag**2).sum(axis=-1)
    norm = np.where(power > 0.0, power, 1.0)
    ap = (right * center.conj()).real.sum(axis=-1) / norm
    am = (left * center.conj()).real.sum(axis=-1) / norm
    # A ratio near 1 is no tone's (a lone tone's ratios stay below 1/2
    # within a bin of the centre): such an estimate overflows and either
    # saturates at the clip or, undefined, falls back to the centre bin.
    with np.errstate(all="ignore"):
        dp = -ap / (1.0 - ap)
        dm = am / (1.0 - am)
        offset = (dp + dm) / 2.0 + _quinn_tau(dp * dp) - _quinn_tau(dm * dm)
    return np.where(np.isnan(offset), 0.0, np.minimum(np.maximum(offset, -1.0), 1.0))


def local_noise_floor(
    magnitudes: np.ndarray, window_bins: int = 65, guard_bins: int = 3
) -> np.ndarray:
    """Per-bin floor: median of surrounding bins, excluding a guard band.

    The collision floor is *colored* — each tag's OOK data spectrum has
    sinc-shaped lobes around its own carrier — so a global floor
    under-estimates near strong tags and sprays false peaks there. This is
    an ordered-statistic CFAR: for every bin, the floor is the median of
    ``window_bins`` neighbours with the closest ``guard_bins`` (which may
    contain the peak itself) excluded. Windows clipped by the array ends
    keep what they have; a clipped window with nothing outside the guard
    falls back to all of its bins.

    This is the full-array form of the floor detection uses; detection
    itself only needs it where a spike can be declared (see
    :func:`band_floors`).
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    return _floors_at(
        magnitudes, np.arange(magnitudes.size), window_bins, guard_bins
    )


def _floors_at(
    magnitudes: np.ndarray,
    bins: np.ndarray,
    window_bins: int = 65,
    guard_bins: int = 3,
) -> np.ndarray:
    """The :func:`local_noise_floor` of ``magnitudes`` at ``bins`` only.

    Both branches produce the two order statistics ``np.median`` averages
    (or its one middle value), so every floor is bit-identical to the
    per-bin median.
    """
    n = magnitudes.size
    if window_bins % 2 == 0 or window_bins < 2 * guard_bins + 3:
        raise SpectrumError(
            f"window_bins must be odd and > 2*guard_bins+2, got {window_bins}"
        )
    half = window_bins // 2
    scale = np.sqrt(np.log(4.0))
    floors = np.empty(bins.size)
    interior = (bins >= half) & (bins < n - half)
    if interior.any():
        # A full window minus the guard keeps window_bins - 2*guard_bins - 1
        # bins, an even count: the median averages the two middle order
        # statistics. One partition at the upper middle places it, and the
        # lower middle is the largest value left of it.
        offsets = np.concatenate(
            [np.arange(-half, -guard_bins), np.arange(guard_bins + 1, half + 1)]
        )
        mid = offsets.size // 2
        part = np.partition(
            magnitudes[bins[interior][:, None] + offsets[None, :]], mid, axis=1
        )
        floors[interior] = (part[:, :mid].max(axis=1) + part[:, mid]) / 2.0 / scale
    edge = ~interior
    if edge.any():
        # Clipped windows have irregular sizes: pad each to the full window
        # with +inf, sort the rows once, and read each row's median off
        # its own count of real values.
        centers = bins[edge]
        window = centers[:, None] + np.arange(-half, half + 1)[None, :]
        inside = (window >= 0) & (window < n)
        kept = inside & (np.abs(window - centers[:, None]) > guard_bins)
        empty = ~kept.any(axis=1)
        kept[empty] = inside[empty]
        values = np.where(kept, magnitudes[np.clip(window, 0, n - 1)], np.inf)
        values.sort(axis=1)
        count = kept.sum(axis=1)
        rows = np.arange(centers.size)
        upper = values[rows, count // 2]
        lower = values[rows, (count - 1) // 2]
        floors[edge] = np.where(count % 2 == 1, upper, (lower + upper) / 2.0) / scale
    return floors


def _peak_bins(band: np.ndarray) -> np.ndarray:
    """Ascending indices of ``band`` where a spike can be declared.

    Interior local maxima (at least the left neighbour, above the right
    one) and an end bin above its one neighbour; ``band`` has 2+ bins.
    """
    mask = np.empty(band.size, dtype=bool)
    mask[1:-1] = (band[1:-1] >= band[:-2]) & (band[1:-1] > band[2:])
    mask[0] = band[0] > band[1]
    mask[-1] = band[-1] > band[-2]
    return np.flatnonzero(mask)


def _candidate_floors(band: np.ndarray) -> np.ndarray:
    """The band's CFAR floor at its :func:`_peak_bins`, NaN elsewhere."""
    floors = np.full(band.size, np.nan)
    bins = _peak_bins(band)
    floors[bins] = _floors_at(band, bins)
    return floors


def _band_bounds(
    n_bins: int, bin_hz: float, search_lo_hz: float, search_hi_hz: float
) -> tuple[int, int]:
    """The inclusive FFT-bin bounds of a search band."""
    if search_hi_hz <= search_lo_hz:
        raise SpectrumError(f"empty search band [{search_lo_hz}, {search_hi_hz}]")
    lo_bin = max(0, int(np.floor(search_lo_hz / bin_hz)))
    hi_bin = min(n_bins - 1, int(np.ceil(search_hi_hz / bin_hz)))
    if hi_bin <= lo_bin:
        raise SpectrumError("search band narrower than one bin")
    return lo_bin, hi_bin


def band_floors(
    magnitudes: np.ndarray,
    bin_hz: float,
    search_lo_hz: float,
    search_hi_hz: float,
) -> np.ndarray:
    """The CFAR floor of a search band, reusable across detection passes.

    A spike can only be declared at a local maximum of the band (or an
    end bin above its neighbour), so the floor is computed at those bins
    only and every other entry is NaN; the computed entries equal
    :func:`local_noise_floor` of the band. A caller that probes the
    *same* magnitudes at several thresholds (the §5 counter's density
    probe followed by its decision pass) computes the floor once here
    and hands it back to :func:`detected_bins` or
    :func:`find_peaks_in_magnitudes` via ``floors``.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    lo_bin, hi_bin = _band_bounds(magnitudes.size, bin_hz, search_lo_hz, search_hi_hz)
    return _candidate_floors(magnitudes[lo_bin : hi_bin + 1])


def detected_bins(
    magnitudes: np.ndarray,
    bin_hz: float,
    search_lo_hz: float,
    search_hi_hz: float,
    min_snr_db: float,
    floors: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The FFT bins where a spike clears its local floor, and those floors.

    The detection core of :func:`find_peaks_in_magnitudes`, with its
    arguments (``floors`` may be None): local maxima of the search band
    at least ``min_snr_db`` above their CFAR floor. A caller that only needs how many spikes a
    threshold admits (the §5 counter's density probe) takes the size of
    the bins and builds no peak records.

    Returns:
        ``(bins, floors)``: ascending absolute bin indices, and the
        floor each was detected against.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    lo_bin, hi_bin = _band_bounds(magnitudes.size, bin_hz, search_lo_hz, search_hi_hz)

    band = magnitudes[lo_bin : hi_bin + 1]
    if floors is None:
        floors = _candidate_floors(band)
    elif floors.size != band.size:
        raise SpectrumError(
            f"precomputed floors cover {floors.size} bins, band has {band.size}"
        )

    # Local maxima above their local threshold. No two are adjacent (a
    # local maximum is above its right neighbour and at least its left
    # one), so tags two bins apart stay distinct peaks with no suppression.
    bins = _peak_bins(band)
    bins = bins[band[bins] >= floors[bins] * db_to_amplitude(min_snr_db)]
    return lo_bin + bins, floors[bins]


def find_peaks_in_magnitudes(
    magnitudes: np.ndarray,
    bin_hz: float,
    search_lo_hz: float,
    search_hi_hz: float,
    min_snr_db: float = 12.0,
    max_peaks: int | None = None,
    values: np.ndarray | None = None,
    floors: np.ndarray | None = None,
) -> list[SpectralPeak]:
    """Detect spikes in a magnitude spectrum against a local (CFAR) floor.

    This is the magnitude-domain core of :func:`find_spectral_peaks`; it
    also serves multi-query counting, where the detection statistic is the
    *average* magnitude spectrum over several captures (incoherent
    averaging suppresses the data-floor variance while tag spikes persist).
    The bins come from :func:`detected_bins`.

    Args:
        magnitudes: magnitude per FFT bin (frequencies ``k * bin_hz``).
        bin_hz: FFT bin spacing.
        search_lo_hz / search_hi_hz: band to search (the 1.2 MHz CFO span).
        min_snr_db: required peak amplitude margin over the local floor.
        max_peaks: optional cap (strongest first).
        values: optional complex spectrum aligned with ``magnitudes``.
        floors: optional precomputed CFAR floor for the search band (from
            :func:`band_floors` over the same magnitudes/band) — skips
            the per-call floor estimate when one caller scans the same
            spectrum at several thresholds. Only its entries at local
            maxima are read.

    Returns:
        Peaks sorted by ascending frequency.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    absolute, floors = detected_bins(
        magnitudes, bin_hz, search_lo_hz, search_hi_hz, min_snr_db, floors
    )
    if max_peaks is not None:
        # The strongest; the stable sort keeps equal magnitudes in
        # ascending-bin order.
        strongest = np.sort(np.argsort(-magnitudes[absolute], kind="stable")[:max_peaks])
        absolute, floors = absolute[strongest], floors[strongest]

    center = magnitudes[absolute]
    offsets = parabolic_offset(
        magnitudes[np.maximum(absolute - 1, 0)],
        center,
        magnitudes[np.minimum(absolute + 1, magnitudes.size - 1)],
    )
    return [
        SpectralPeak(
            bin_index=index,
            freq_hz=freq_hz,
            value=complex(values[index]) if values is not None else 0j,
            magnitude=magnitude,
            floor=floor,
        )
        for index, freq_hz, magnitude, floor in zip(
            absolute.tolist(),
            ((absolute + offsets) * bin_hz).tolist(),
            center.tolist(),
            floors.tolist(),
        )
    ]


def find_spectral_peaks(
    spectrum: Spectrum,
    search_lo_hz: float,
    search_hi_hz: float,
    min_snr_db: float = 12.0,
    max_peaks: int | None = None,
) -> list[SpectralPeak]:
    """Detect CFO spikes within a frequency band of one spectrum (Fig 4)."""
    return find_peaks_in_magnitudes(
        spectrum.magnitude(),
        spectrum.bin_hz,
        search_lo_hz,
        search_hi_hz,
        min_snr_db=min_snr_db,
        max_peaks=max_peaks,
        values=spectrum.values,
    )
