"""Multipath extensions: ground bounce and discrete scatterers (Fig 14).

The paper argues (and measures, §12.2) that a pole-mounted outdoor reader
is strongly line-of-sight: the SAR-measured profile shows the LoS peak
roughly 27x stronger than the next path. This module provides the ray
model used to synthesize that experiment: a specular ground reflection via
the image method and optional point scatterers (parked cars, walls).

The channel is narrowband relative to the delay spread (512 us symbol vs
tens of ns of excess delay), so each path contributes one complex term
``a * exp(-j 2 pi d / lambda)`` and the composite channel is their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import WAVELENGTH_M
from ..errors import ConfigurationError
from .geometry import unit
from .propagation import friis_amplitude

__all__ = ["PropagationPathResult", "GroundBounce", "PointScatterer", "MultipathChannel"]


@dataclass(frozen=True)
class PropagationPathResult:
    """One resolved ray: complex gain plus its arrival direction at the rx."""

    coefficient: complex
    arrival_direction: np.ndarray
    path_length_m: float
    label: str


@dataclass(frozen=True)
class GroundBounce:
    """Specular reflection off the road surface via the image method.

    Attributes:
        road_z_m: z of the reflecting plane in world coordinates.
        reflection_coefficient: complex Fresnel coefficient; asphalt at
            grazing incidence with mismatched polarization is weak, the
            default -0.25 yields an LoS/bounce power ratio in the regime
            the paper measured.
    """

    road_z_m: float = 0.0
    reflection_coefficient: complex = -0.25

    def resolve(
        self, tx_m: np.ndarray, rx_m: np.ndarray, wavelength_m: float
    ) -> PropagationPathResult | None:
        tx_m = np.asarray(tx_m, dtype=np.float64)
        rx_m = np.asarray(rx_m, dtype=np.float64)
        image = tx_m.copy()
        image[2] = 2.0 * self.road_z_m - image[2]
        d = float(np.linalg.norm(rx_m - image))
        if d <= 0:
            return None
        amp = friis_amplitude(d, wavelength_m) * self.reflection_coefficient
        coeff = amp * np.exp(-2j * np.pi * d / wavelength_m)
        return PropagationPathResult(
            coefficient=complex(coeff),
            arrival_direction=unit(rx_m - image),
            path_length_m=d,
            label="ground-bounce",
        )


@dataclass(frozen=True)
class PointScatterer:
    """A discrete reflector (parked car, signpost, wall corner).

    ``reflectivity`` scales the Friis amplitude of the *total* tx->scatterer
    ->rx path length, so it directly sets the path's strength relative to a
    LoS path of equal length.
    """

    position_m: np.ndarray
    reflectivity: complex = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "position_m", np.asarray(self.position_m, dtype=np.float64))
        if self.position_m.shape != (3,):
            raise ConfigurationError("scatterer position must be a 3-vector")

    def resolve(
        self, tx_m: np.ndarray, rx_m: np.ndarray, wavelength_m: float
    ) -> PropagationPathResult | None:
        tx_m = np.asarray(tx_m, dtype=np.float64)
        rx_m = np.asarray(rx_m, dtype=np.float64)
        d1 = float(np.linalg.norm(self.position_m - tx_m))
        d2 = float(np.linalg.norm(rx_m - self.position_m))
        if d1 <= 0 or d2 <= 0:
            return None
        total = d1 + d2
        amp = friis_amplitude(total, wavelength_m) * self.reflectivity
        coeff = amp * np.exp(-2j * np.pi * total / wavelength_m)
        return PropagationPathResult(
            coefficient=complex(coeff),
            arrival_direction=unit(rx_m - self.position_m),
            path_length_m=total,
            label="scatterer",
        )


@dataclass(frozen=True)
class MultipathChannel:
    """LoS plus a set of secondary rays.

    Drop-in replacement for :class:`LosChannel`: exposes the same
    ``coefficient``/``coefficients`` interface, plus ``resolve_paths`` for
    ground-truth inspection (used to validate the Fig 14 SAR profile).
    """

    wavelength_m: float = WAVELENGTH_M
    gain: float = 1.0
    paths: tuple = field(default_factory=tuple)

    def resolve_paths(self, tx_m: np.ndarray, rx_m: np.ndarray) -> list[PropagationPathResult]:
        """All rays from tx to rx, LoS first."""
        tx_m = np.asarray(tx_m, dtype=np.float64)
        rx_m = np.asarray(rx_m, dtype=np.float64)
        d = float(np.linalg.norm(rx_m - tx_m))
        los_amp = self.gain * friis_amplitude(d, self.wavelength_m)
        results = [
            PropagationPathResult(
                coefficient=complex(los_amp * np.exp(-2j * np.pi * d / self.wavelength_m)),
                arrival_direction=unit(rx_m - tx_m),
                path_length_m=d,
                label="los",
            )
        ]
        for path in self.paths:
            resolved = path.resolve(tx_m, rx_m, self.wavelength_m)
            if resolved is not None:
                results.append(
                    PropagationPathResult(
                        coefficient=resolved.coefficient * self.gain,
                        arrival_direction=resolved.arrival_direction,
                        path_length_m=resolved.path_length_m,
                        label=resolved.label,
                    )
                )
        return results

    def coefficient(self, tx_m: np.ndarray, rx_m: np.ndarray) -> complex:
        """Composite narrowband channel: the coherent sum over rays."""
        return complex(sum(p.coefficient for p in self.resolve_paths(tx_m, rx_m)))

    def coefficients(self, tx_m: np.ndarray, rx_positions_m: np.ndarray) -> np.ndarray:
        """Composite channels from one transmitter ``(3,)`` or many
        ``(m, 3)`` to ``(K, 3)`` receive positions: ``(K,)`` or ``(K, m)``,
        the shapes :meth:`LosChannel.coefficients` returns."""
        tx = np.asarray(tx_m, dtype=np.float64)
        rx_positions_m = np.atleast_2d(np.asarray(rx_positions_m, dtype=np.float64))
        pairs = [[self.coefficient(t, rx) for t in np.atleast_2d(tx)] for rx in rx_positions_m]
        h = np.array(pairs, dtype=np.complex128).reshape(len(rx_positions_m), -1)
        return h.reshape(-1) if tx.ndim == 1 else h
