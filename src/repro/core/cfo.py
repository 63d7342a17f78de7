"""CFO estimation and channel readout from collision spectra (§3, Eq 5).

Every downstream Caraoke function starts the same way: FFT the collision,
find a tag's spike, refine its frequency to a fraction of a bin, and read
the complex value there — which equals ``h/2``, half the tag's channel
(Eq 5, using the Manchester DC null). This module packages those steps.

Sub-bin refinement matters most to the decoder: a residual CFO error of
``delta`` rotates the target by ``2*pi*delta*T`` across the 512 µs
response; at half a bin (977 Hz) that is a full pi rotation — fatal for
coherent combining — whereas the ~10 Hz residual after refinement is
negligible (§8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import CFO_SPAN_HZ
from ..dsp.peaks import find_peaks_in_magnitudes, find_spectral_peaks
from ..dsp.spectrum import fft_spectrum, single_bin_dft
from ..errors import SpectrumError
from ..phy.waveform import Waveform

__all__ = [
    "CfoPeak",
    "CollisionPeak",
    "refine_frequency",
    "estimate_channel",
    "extract_cfo_peaks",
    "extract_collision_peaks",
]

#: The CFO search band: the 1.2 MHz CFO span plus a small margin.
DEFAULT_SEARCH_LO_HZ = 2e3
DEFAULT_SEARCH_HI_HZ = CFO_SPAN_HZ + 50e3


@dataclass(frozen=True)
class CfoPeak:
    """One tag's refined spike: frequency plus channel readout.

    Attributes:
        cfo_hz: refined carrier frequency offset.
        channel: complex channel estimate ``h`` (2x the spectral value,
            Eq 5); includes the tag's random response phase.
        magnitude: spectral magnitude at the peak bin (detection units).
        snr: peak amplitude over the local noise floor.
    """

    cfo_hz: float
    channel: complex
    magnitude: float
    snr: float


def refine_frequency(
    wave: Waveform,
    freq_hz: float,
    span_hz: float,
    n_iterations: int = 3,
) -> float:
    """Refine a tone frequency by iterated parabolic search on |DFT(f)|.

    Evaluates the exact single-frequency DFT at ``f - span, f, f + span``,
    fits a parabola to the magnitudes, jumps to its vertex, and repeats
    with half the span. Three iterations from a half-bin span land within
    a few Hz on clean tones. The three probes of each iteration are
    evaluated in one broadcast pass.
    """
    if span_hz <= 0:
        raise SpectrumError(f"span must be positive, got {span_hz}")
    f = float(freq_hz)
    span = float(span_hz)
    t = wave.times()
    scale = 1.0 / max(wave.n_samples, 1)
    for _ in range(n_iterations):
        # probe(f +- span) = probe(f) * probe(+-span): two exps serve all
        # three probe frequencies of this iteration.
        y = wave.samples * np.exp(-2j * np.pi * f * t)
        shift = np.exp(-2j * np.pi * span * t)
        mags = (
            abs(np.sum(y * np.conj(shift))) * scale,
            abs(np.sum(y)) * scale,
            abs(np.sum(y * shift)) * scale,
        )
        denom = mags[0] - 2.0 * mags[1] + mags[2]
        if denom == 0.0:
            break
        offset = 0.5 * (mags[0] - mags[2]) / denom
        f += float(np.clip(offset, -1.0, 1.0)) * span
        span /= 2.0
    return f


def estimate_channel(wave: Waveform, cfo_hz: float) -> complex:
    """Read the tag's channel off the spectrum: ``h = 2 * R(cfo)`` (Eq 5).

    The factor 2 undoes the OOK DC term (``s(t)`` has mean 1/2). The phase
    reference is absolute time, so estimates from different antennas of the
    same capture are directly comparable — their ratio is the AoA phase
    difference of §6.
    """
    return 2.0 * single_bin_dft(wave, cfo_hz)


@dataclass(frozen=True)
class CollisionPeak:
    """One tag's spike read across *every* antenna of a collision.

    The shared Eq 5 readout: detection happens on the average magnitude
    spectrum over all antennas (incoherent averaging suppresses the data
    floor while the spike persists at every element), and the channel is
    read per antenna at the one refined frequency — the same numbers the
    decoder compensates with and localization turns into Eq 10 phase
    differences.

    Attributes:
        cfo_hz: refined carrier frequency offset.
        channels: complex channel estimate ``h`` per antenna (Eq 5, 2x
            the spectral value); includes the response's random phase,
            which is common across antennas and cancels in ratios.
        magnitude: average spectral magnitude at the peak bin.
        snr: peak amplitude over the local floor of the average spectrum.
    """

    cfo_hz: float
    channels: np.ndarray
    magnitude: float
    snr: float

    @property
    def n_antennas(self) -> int:
        return int(self.channels.size)


def extract_collision_peaks(
    collision,
    min_snr_db: float = 10.0,
    max_peaks: int | None = None,
    refine: bool = True,
) -> list[CollisionPeak]:
    """Detect spikes across a collision's antennas and read every channel.

    The multi-antenna counterpart of :func:`extract_cfo_peaks`: instead of
    privileging one element, the detection statistic is the average
    magnitude spectrum over all antennas, each spike's frequency is
    refined on the antenna where it is strongest, and the Eq 5 channel is
    read from *every* antenna at that one frequency.

    Args:
        collision: a :class:`~repro.channel.collision.ReceivedCollision`.
        min_snr_db: detection threshold over the local (CFAR) floor.
        max_peaks: optional cap on returned peaks (strongest kept).
        refine: skip sub-bin refinement when only occupancy matters.

    Returns:
        Peaks sorted by ascending CFO.
    """
    spectra = [fft_spectrum(wave) for wave in collision.antennas]
    n_bins = min(spectrum.n_bins for spectrum in spectra)
    magnitudes = np.stack([spectrum.magnitude()[:n_bins] for spectrum in spectra])
    avg_mag = magnitudes.mean(axis=0)
    raw = find_peaks_in_magnitudes(
        avg_mag,
        spectra[0].bin_hz,
        DEFAULT_SEARCH_LO_HZ,
        DEFAULT_SEARCH_HI_HZ,
        min_snr_db=min_snr_db,
        max_peaks=max_peaks,
    )
    peaks = []
    for peak in raw:
        freq = peak.freq_hz
        if refine:
            strongest = int(np.argmax(magnitudes[:, peak.bin_index]))
            freq = refine_frequency(
                collision.antennas[strongest],
                freq,
                span_hz=spectra[strongest].resolution_hz / 2.0,
            )
        channels = np.array(
            [estimate_channel(wave, freq) for wave in collision.antennas]
        )
        peaks.append(
            CollisionPeak(
                cfo_hz=freq,
                channels=channels,
                magnitude=peak.magnitude,
                snr=peak.snr,
            )
        )
    return sorted(peaks, key=lambda p: p.cfo_hz)


def extract_cfo_peaks(
    wave: Waveform,
    min_snr_db: float = 10.0,
    max_peaks: int | None = None,
    refine: bool = True,
) -> list[CfoPeak]:
    """Full pipeline: FFT -> detect spikes -> refine -> read channels.

    Args:
        wave: one antenna's collision capture.
        min_snr_db: detection threshold over the local (CFAR) floor.
        max_peaks: optional cap on returned peaks (strongest kept).
        refine: skip sub-bin refinement when only occupancy matters.

    Returns:
        Peaks sorted by ascending CFO.
    """
    spectrum = fft_spectrum(wave)
    raw = find_spectral_peaks(
        spectrum,
        DEFAULT_SEARCH_LO_HZ,
        DEFAULT_SEARCH_HI_HZ,
        min_snr_db=min_snr_db,
        max_peaks=max_peaks,
    )
    peaks = []
    for peak in raw:
        freq = peak.freq_hz
        if refine:
            freq = refine_frequency(wave, freq, span_hz=spectrum.resolution_hz / 2.0)
        peaks.append(
            CfoPeak(
                cfo_hz=freq,
                channel=estimate_channel(wave, freq),
                magnitude=peak.magnitude,
                snr=peak.snr,
            )
        )
    return sorted(peaks, key=lambda p: p.cfo_hz)
