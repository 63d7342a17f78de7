"""Spectral peak detection for collision spectra (Fig 4).

A collision spectrum is a set of narrow CFO spikes standing on a wideband
floor made of every tag's OOK data sidelobes plus thermal noise. The
detector therefore estimates the floor *robustly* (median — the spikes are
sparse outliers) and keeps local maxima that clear the floor by a margin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import SpectrumError
from ..utils import db_to_amplitude
from .spectrum import Spectrum

__all__ = [
    "SpectralPeak",
    "estimate_noise_floor",
    "local_noise_floor",
    "band_floors",
    "BandScan",
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
_QUINN_LOG_WEIGHT = np.sqrt(6.0) / 24.0


def _quinn_tau(x: np.ndarray) -> np.ndarray:
    shifted = x + 1.0
    return 0.25 * np.log(3.0 * x * x + 6.0 * x + 1.0) - _QUINN_LOG_WEIGHT * np.log(
        (shifted - _QUINN_ROOT) / (shifted + _QUINN_ROOT)
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
    # The ratios to the right and left bins, a[0] and a[1], in one pass.
    ratios = (np.stack([right, left]) * center.conj()).real.sum(axis=-1) / norm
    # A ratio near 1 is no tone's (a lone tone's ratios stay below 1/2
    # within a bin of the centre): such an estimate overflows and either
    # saturates at the clip or, undefined, falls back to the centre bin.
    with np.errstate(all="ignore"):
        # d[0] = -a[0] / (1 - a[0]) (negation is exact), d[1] = a[1] / (1 - a[1]).
        d = ratios / (1.0 - ratios)
        d[0] = -d[0]
        tau = _quinn_tau(d * d)
        offset = (d[0] + d[1]) / 2.0 + tau[0] - tau[1]
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
    :func:`band_floors` and :class:`BandScan`).
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    return _floors_at(
        magnitudes, np.arange(magnitudes.size), window_bins, guard_bins
    )


#: The Rayleigh median over its scale: a floor is a window median over it.
_RAYLEIGH_MEDIAN = np.sqrt(np.log(4.0))


class _WindowGeometry(NamedTuple):
    """Where each bin's floor window lies in an ``n``-bin array.

    Attributes:
        counts: how many values each bin's window keeps: its bins inside
            the array and outside the guard, or all of its inside bins
            when none is outside the guard (then it is not ``guarded``).
        guarded: whether each bin's window leaves out its guard.
        rank: each window's lower-middle rank, ``(counts - 1) // 2``.
        pair: the block pair of :func:`_floor_bounds` holding each window.
        columns: the window offsets outside the guard, counted from the
            window's first bin.
    """

    counts: np.ndarray
    guarded: np.ndarray
    rank: np.ndarray
    pair: np.ndarray
    columns: np.ndarray


@functools.lru_cache(maxsize=16)
def _window_geometry(n: int, window_bins: int, guard_bins: int) -> _WindowGeometry:
    """The :class:`_WindowGeometry` of an ``n``-bin array, computed once
    per array length and window shape (its arrays are read-only)."""
    bins = np.arange(n)
    half = window_bins // 2
    left = np.minimum(bins, half)
    right = np.minimum(n - 1 - bins, half)
    kept = np.maximum(left - guard_bins, 0) + np.maximum(right - guard_bins, 0)
    guarded = kept > 0
    counts = np.where(guarded, kept, left + right + 1)
    n_pairs = max(1, -(-n // window_bins) - 1)
    geometry = _WindowGeometry(
        counts=counts,
        guarded=guarded,
        rank=(counts - 1) // 2,
        pair=np.minimum((bins - left) // window_bins, n_pairs - 1),
        columns=np.concatenate(
            [np.arange(half - guard_bins), np.arange(half + guard_bins + 1, window_bins)]
        ),
    )
    for values in geometry:
        values.flags.writeable = False
    return geometry


def _floors_at(
    magnitudes: np.ndarray,
    bins: np.ndarray,
    window_bins: int = 65,
    guard_bins: int = 3,
) -> np.ndarray:
    """The :func:`local_noise_floor` of ``magnitudes`` at ``bins`` only.

    Interior and clipped windows alike are one gather from the array
    padded with ``+inf`` on both sides, leaving out the guard; one sort
    of the rows then puts each row's real values first, and its median
    is read off its own count of them. These are the two order
    statistics ``np.median`` averages (or its one middle value), so
    every floor is bit-identical to the per-bin median.
    """
    n = magnitudes.size
    if window_bins % 2 == 0 or window_bins < 2 * guard_bins + 3:
        raise SpectrumError(
            f"window_bins must be odd and > 2*guard_bins+2, got {window_bins}"
        )
    half = window_bins // 2
    geometry = _window_geometry(n, window_bins, guard_bins)
    padding = np.full(half, np.inf)
    padded = np.concatenate([padding, magnitudes, padding])
    # Column c of row r is bin bins[r] - half + c.
    if n > 2 * guard_bins + 1:  # then every window keeps a bin outside its guard
        values = padded[bins[:, None] + geometry.columns]
    else:
        values = padded[bins[:, None] + np.arange(window_bins)]
        values[geometry.guarded[bins], half - guard_bins : half + guard_bins + 1] = np.inf
    values.sort(axis=1)
    counts = geometry.counts[bins]
    rows = np.arange(bins.size)
    upper = values[rows, counts // 2]
    lower = values[rows, (counts - 1) // 2]
    return np.where(counts % 2 == 1, upper, (lower + upper) / 2.0) / _RAYLEIGH_MEDIAN


def _floor_bounds(
    band: np.ndarray, bins: np.ndarray, window_bins: int = 65, guard_bins: int = 3
) -> np.ndarray:
    """A lower bound on the CFAR floor of ``band`` at each of ``bins``.

    Cut the band into blocks of ``window_bins`` bins (the last one
    short). A floor window is at most ``window_bins`` consecutive bins,
    so it lies inside two adjacent blocks: the block holding its first
    bin and the next (or, in a band shorter than two blocks, inside the
    band). The values a window keeps are a subset of that block pair's,
    and the r-th smallest of a subset is at least the r-th smallest of
    the whole (its r smallest values are r values of the whole, none
    above it). A floor is ``fl(fl(a + b) / 2) / s`` with ``a <= b`` the
    window's lower and upper middle values, or ``b / s`` with ``a == b``
    for an odd count; ``fl(a + b) >= fl(a + a) = 2a`` and halving is
    exact, so it is at least ``fl(a / s)``. Rounding is monotone, so the
    block pair's order statistic at the window's lower-middle rank,
    divided by ``s``, bounds the floor from below; times a threshold it
    bounds ``floor * threshold`` from below.
    """
    n = band.size
    n_blocks = -(-n // window_bins)
    blocks = np.full(n_blocks * window_bins, np.inf)
    blocks[:n] = band
    blocks = blocks.reshape(n_blocks, window_bins)
    pairs = np.concatenate([blocks[:-1], blocks[1:]], axis=1) if n_blocks > 1 else blocks
    pairs.sort(axis=1)
    geometry = _window_geometry(n, window_bins, guard_bins)
    return pairs[geometry.pair[bins], geometry.rank[bins]] / _RAYLEIGH_MEDIAN


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


class BandScan:
    """A search band's local maxima, scanned once, and their CFAR floors.

    A spike can only be declared at a local maximum of the band (or an
    end bin above its neighbour), so one scan finds those bins and every
    detection pass over the same magnitudes reads them:
    :meth:`detect` at one threshold, then at another (the §5 counter's
    density probe, then its decision pass). The floor of a maximum is
    computed only where the maximum can clear it: a maximum below a
    lower bound on its floor (:func:`_floor_bounds`) times the threshold
    is never detected at that threshold or any higher one, so its floor
    is left uncomputed (NaN) until a lower threshold needs it.
    ``screened=False`` computes every maximum's floor up front, as
    :func:`band_floors` does. Either way, every computed floor is
    :func:`local_noise_floor`'s of the band, and the detections are the
    same.

    Attributes:
        bins: ascending absolute bin indices of the band's local maxima.
        magnitudes: the magnitude at each of ``bins``.
        floors: the floor of each maximum, NaN where not computed.
        n_floors: how many floors the scan has computed.
    """

    def __init__(
        self,
        magnitudes: np.ndarray,
        bin_hz: float,
        search_lo_hz: float,
        search_hi_hz: float,
        screened: bool = True,
    ) -> None:
        magnitudes = np.asarray(magnitudes, dtype=np.float64)
        lo_bin, hi_bin = _band_bounds(magnitudes.size, bin_hz, search_lo_hz, search_hi_hz)
        self._band = magnitudes[lo_bin : hi_bin + 1]
        self._peaks = _peak_bins(self._band)
        self.bins = lo_bin + self._peaks
        self.magnitudes = self._band[self._peaks]
        self._bounds = None
        if screened:
            self.floors = np.full(self._peaks.size, np.nan)
            self.n_floors = 0
            # The lowest threshold screened so far: every maximum that
            # can clear it has its floor.
            self._screened = np.inf
        else:
            self.floors = _floors_at(self._band, self._peaks)
            self.n_floors = self._peaks.size
            self._screened = 0.0

    def detect(self, min_snr_db: float) -> np.ndarray:
        """Indices into :attr:`bins` of the maxima at least ``min_snr_db``
        above their floor, ascending. No two are adjacent bins (a local
        maximum is above its right neighbour and at least its left one),
        so tags two bins apart stay distinct detections."""
        threshold = db_to_amplitude(min_snr_db)
        if threshold < self._screened:
            if self._bounds is None:
                self._bounds = _floor_bounds(self._band, self._peaks)
            need = np.isnan(self.floors) & (self.magnitudes >= self._bounds * threshold)
            needed = self._peaks[need]
            if needed.size:
                self.floors[need] = _floors_at(self._band, needed)
                self.n_floors += needed.size
            self._screened = threshold
        # An uncomputed (NaN) floor compares False.
        return np.flatnonzero(self.magnitudes >= self.floors * threshold)

    def snrs(self, hits: np.ndarray) -> np.ndarray:
        """Magnitude over floor at ``hits`` (:attr:`SpectralPeak.snr`)."""
        floors = self.floors[hits]
        positive = floors > 0.0
        return np.divide(
            self.magnitudes[hits], floors, out=np.full(floors.size, np.inf), where=positive
        )


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
    *same* magnitudes at several thresholds computes the floor once here
    and hands it back to :func:`detected_bins` or
    :func:`find_peaks_in_magnitudes` via ``floors`` (a :class:`BandScan`
    computes fewer floors for the same detections).
    """
    scan = BandScan(magnitudes, bin_hz, search_lo_hz, search_hi_hz, screened=False)
    floors = np.full(scan._band.size, np.nan)
    floors[scan._peaks] = scan.floors
    return floors


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
    arguments: local maxima of the search band at least ``min_snr_db``
    above their CFAR floor. Without ``floors`` it scans the band once
    (:class:`BandScan`, which computes a floor only where a maximum can
    clear it); with ``floors`` (from :func:`band_floors`) it reads them.

    Returns:
        ``(bins, floors)``: ascending absolute bin indices, and the
        floor each was detected against.
    """
    if floors is None:
        scan = BandScan(magnitudes, bin_hz, search_lo_hz, search_hi_hz)
        hits = scan.detect(min_snr_db)
        return scan.bins[hits], scan.floors[hits]
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    lo_bin, hi_bin = _band_bounds(magnitudes.size, bin_hz, search_lo_hz, search_hi_hz)
    band = magnitudes[lo_bin : hi_bin + 1]
    if floors.size != band.size:
        raise SpectrumError(
            f"precomputed floors cover {floors.size} bins, band has {band.size}"
        )
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
