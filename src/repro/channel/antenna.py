"""Reader antenna geometry: lambda/2 pairs and the equilateral triangle (Fig 6).

AoA accuracy is best near broadside (alpha ~ 90 deg) and collapses toward
the baseline ends because ``d(alpha)/d(phase) ~ 1/sin(alpha)`` (§6). The
Caraoke reader therefore carries **three** antennas in an equilateral
triangle and, per tag, uses the pair whose measured angle lands closest to
90 deg — for any tag position one of the three baselines is within
[60 deg, 120 deg].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..constants import ANTENNA_SPACING_M, ANTENNA_TILT_DEG
from ..errors import ConfigurationError
from .geometry import spatial_angle_rad, unit

__all__ = ["AntennaPair", "TriangleArray"]


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values`` with writes disabled, for geometry shared by reference."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class AntennaPair:
    """Two antenna elements used for one phase-difference measurement.

    The pair is immutable: its positions are read-only copies, and the
    derived baseline (spacing, axis, midpoint) is computed once, on first
    use, as read-only values.

    Attributes:
        first_m: (3,) world position of the reference element.
        second_m: (3,) world position of the other element.
    """

    first_m: np.ndarray
    second_m: np.ndarray

    def __post_init__(self) -> None:
        for name in ("first_m", "second_m"):
            position = np.array(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _read_only(position))
        if self.first_m.shape != (3,) or self.second_m.shape != (3,):
            raise ConfigurationError("antenna positions must be 3-vectors")
        # Absolute tolerance only: the default relative tolerance would
        # scale with the world coordinate, declaring a genuinely spaced
        # pair "coincident" on a pole kilometers down the avenue.
        if np.allclose(self.first_m, self.second_m, rtol=0.0, atol=1e-9):
            raise ConfigurationError("antenna elements must not coincide")

    @cached_property
    def spacing_m(self) -> float:
        """Baseline length d of Eq 10."""
        return float(np.linalg.norm(self.second_m - self.first_m))

    @cached_property
    def axis(self) -> np.ndarray:
        """Unit vector from the first to the second element."""
        return _read_only(unit(self.second_m - self.first_m))

    @cached_property
    def midpoint_m(self) -> np.ndarray:
        """Cone apex used for localization."""
        return _read_only((self.first_m + self.second_m) / 2.0)

    def true_spatial_angle_rad(self, point_m: np.ndarray) -> float:
        """Ground-truth alpha between this baseline and a world point."""
        return spatial_angle_rad(np.asarray(point_m) - self.midpoint_m, self.axis)


@dataclass(frozen=True)
class TriangleArray:
    """Three elements at the vertices of an equilateral triangle (Fig 6).

    The triangle lies in the plane spanned by two orthonormal vectors
    ``e1`` and ``e2`` centred on ``center_m``. Vertices sit at in-plane
    angles 90, 210 and 330 degrees so the three baselines are mutually
    rotated by 60 degrees.

    The array is immutable, so its element positions and baselines are
    computed once, on first use, and handed out read-only.

    Attributes:
        center_m: (3,) world position of the triangle centroid.
        e1: first in-plane unit vector.
        e2: second in-plane unit vector (orthogonal to e1).
        side_m: triangle side length (the pair spacing, default lambda/2).
    """

    center_m: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    side_m: float = ANTENNA_SPACING_M

    def __post_init__(self) -> None:
        object.__setattr__(self, "center_m", np.asarray(self.center_m, dtype=np.float64))
        object.__setattr__(self, "e1", unit(self.e1))
        object.__setattr__(self, "e2", unit(self.e2))
        if abs(float(np.dot(self.e1, self.e2))) > 1e-9:
            raise ConfigurationError("triangle basis vectors must be orthogonal")
        if self.side_m <= 0:
            raise ConfigurationError("triangle side must be positive")

    @classmethod
    def street_pole(
        cls,
        center_m: np.ndarray,
        tilt_deg: float = ANTENNA_TILT_DEG,
        side_m: float = ANTENNA_SPACING_M,
        toward_road: float = -1.0,
    ) -> "TriangleArray":
        """The deployment of §12.2: triangle tilted toward the road.

        ``e1`` runs along the road (x); ``e2`` is the vertical tilted by
        ``90 - tilt_deg`` about the road axis so baselines make at most
        ``tilt_deg`` with the road plane. ``toward_road`` selects which side
        of the pole the panel faces (-y by default).
        """
        tilt = np.deg2rad(tilt_deg)
        e2 = np.array([0.0, toward_road * np.cos(tilt), np.sin(tilt)])
        return cls(center_m=np.asarray(center_m, dtype=np.float64), e1=np.array([1.0, 0.0, 0.0]), e2=e2, side_m=side_m)

    @property
    def circumradius_m(self) -> float:
        return self.side_m / np.sqrt(3.0)

    @cached_property
    def positions_m(self) -> np.ndarray:
        """(3, 3) array of element positions (rows are elements)."""
        angles = np.deg2rad([90.0, 210.0, 330.0])
        offsets = self.circumradius_m * (
            np.outer(np.cos(angles), self.e1) + np.outer(np.sin(angles), self.e2)
        )
        return _read_only(self.center_m + offsets)

    def element(self, index: int) -> np.ndarray:
        """World position of one element (0, 1 or 2)."""
        return self.positions_m[index]

    def pairs(self) -> list[AntennaPair]:
        """The three switchable baselines, as (element, element) index pairs
        (0,1), (1,2), (2,0)."""
        return list(self._pairs)

    @cached_property
    def _pairs(self) -> tuple[AntennaPair, ...]:
        positions = self.positions_m
        return tuple(
            AntennaPair(positions[i], positions[j]) for i, j in self.pair_indices()
        )

    def pair_indices(self) -> list[tuple[int, int]]:
        """Element index pairs matching :meth:`pairs` order."""
        return [(0, 1), (1, 2), (2, 0)]
