"""Line-of-sight propagation (Eq 2).

A pole-mounted outdoor reader has a dominant line-of-sight path to the
windshield tag (§6 footnote 8), so the base channel model is a single
complex coefficient: Friis amplitude decay and the carrier phase of the
path length. Multipath extensions live in :mod:`repro.channel.multipath`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import SPEED_OF_LIGHT_M_S, WAVELENGTH_M
from ..errors import ConfigurationError

__all__ = ["friis_amplitude", "propagation_delay_s", "LosChannel"]


def friis_amplitude(distance_m: float, wavelength_m: float = WAVELENGTH_M) -> float:
    """Free-space amplitude gain ``lambda / (4 pi d)`` for unit-gain antennas."""
    if distance_m <= 0:
        raise ConfigurationError(f"distance must be positive, got {distance_m}")
    return wavelength_m / (4.0 * np.pi * distance_m)


def propagation_delay_s(distance_m: float) -> float:
    """One-way propagation delay."""
    return distance_m / SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class LosChannel:
    """Pure line-of-sight channel.

    ``coefficient`` returns the complex h of Eq 2: Friis amplitude times
    ``exp(-j 2 pi d / lambda)``. The phase term is the quantity AoA
    estimation consumes — the *difference* of path phases across a
    lambda/2 baseline encodes cos(alpha) (Eq 10).

    Attributes:
        wavelength_m: carrier wavelength.
        gain: scalar antenna/system amplitude gain product.
    """

    wavelength_m: float = WAVELENGTH_M
    gain: float = 1.0

    def coefficient(self, tx_m: np.ndarray, rx_m: np.ndarray) -> complex:
        """Complex channel from a transmit point to a receive point."""
        return complex(self.coefficients(tx_m, rx_m)[0])

    def coefficients(self, tx_m: np.ndarray, rx_positions_m: np.ndarray) -> np.ndarray:
        """Channels from one transmitter ``(3,)`` or many ``(m, 3)`` to
        ``(K, 3)`` receive positions: ``(K,)`` or ``(K, m)``.

        Each element is computed as one pair alone would be: the path
        length is a stacked ``1×3 @ 3×1`` product (the BLAS dot
        ``np.linalg.norm`` takes), the amplitude ``gain * (λ / (4π d))``
        and the phase ``-2π d / λ`` under ``np.exp(1j * phase)``. A
        capture's whole (antennas × tags) gain matrix therefore comes
        from one call and equals a per-pair loop bit for bit;
        :meth:`coefficient` is the one-pair case.
        """
        tx = np.asarray(tx_m, dtype=np.float64)
        rx = np.asarray(rx_positions_m, dtype=np.float64).reshape(-1, 3)
        delta = rx[:, None, :] - tx.reshape(-1, 3)[None, :, :]
        d = np.sqrt((delta[..., None, :] @ delta[..., :, None])[..., 0, 0])
        if (d <= 0).any():
            raise ConfigurationError("receive position coincides with transmitter")
        amp = self.gain * (self.wavelength_m / (4.0 * np.pi * d))
        phase = -2.0 * np.pi * d / self.wavelength_m
        h = amp * np.exp(1j * phase)
        return h.reshape(-1) if tx.ndim == 1 else h
