"""FIR band-pass filtering.

§8 opens by dismissing the obvious decoder — "band-pass filter centered
around the transponder's CFO peak" — because OOK data is spread over the
whole band rather than concentrated at the peak. We implement that filter
anyway (windowed-sinc lowpass modulated to the CFO) so the baseline
decoder in :mod:`repro.baselines.bandpass_decoder` can demonstrate the
failure quantitatively.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..phy.waveform import Waveform

__all__ = ["design_complex_bandpass", "apply_fir"]


def design_complex_bandpass(
    sample_rate_hz: float,
    center_hz: float,
    half_bandwidth_hz: float,
    n_taps: int = 129,
) -> np.ndarray:
    """Complex band-pass FIR: Hamming-windowed sinc shifted to ``center_hz``.

    Args:
        sample_rate_hz: sample rate of the target signal.
        center_hz: passband center (the target tag's CFO).
        half_bandwidth_hz: one-sided passband width.
        n_taps: odd filter length.

    Returns:
        Complex tap array of length ``n_taps`` with unit passband gain.
    """
    if n_taps < 3 or n_taps % 2 == 0:
        raise ConfigurationError(f"n_taps must be odd and >= 3, got {n_taps}")
    if not 0 < half_bandwidth_hz < sample_rate_hz / 2:
        raise ConfigurationError(
            f"half bandwidth {half_bandwidth_hz} outside (0, fs/2)"
        )
    m = np.arange(n_taps) - (n_taps - 1) / 2.0
    fc = half_bandwidth_hz / sample_rate_hz
    lowpass = 2.0 * fc * np.sinc(2.0 * fc * m) * np.hamming(n_taps)
    lowpass /= lowpass.sum()
    return lowpass * np.exp(2j * np.pi * center_hz / sample_rate_hz * m)


def apply_fir(wave: Waveform, taps: np.ndarray) -> Waveform:
    """Filter a waveform, compensating the FIR group delay.

    Keeps the centered ``len(samples)`` outputs of the full convolution
    ('same' mode, also for a waveform shorter than the taps) and ``t0``
    aligned, so chip timing downstream is unchanged (the taps must be
    symmetric-length, i.e. odd).
    """
    taps = np.asarray(taps)
    if taps.size % 2 == 0:
        raise ConfigurationError("taps must have odd length for delay compensation")
    delay = taps.size // 2
    filtered = np.convolve(wave.samples, taps)[delay : delay + wave.samples.size]
    return Waveform(filtered, wave.sample_rate_hz, wave.t0_s)
