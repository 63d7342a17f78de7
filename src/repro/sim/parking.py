"""Street parking geometry (§12.2, Fig 13).

Streets A and B carry 36 curbside spots; the localization experiment
parks tagged cars in spots 1..6 counted from the pole and measures AoA
error per spot. :class:`ParkingStreet` lays the spots out along the curb
and tracks occupancy, so scenarios can place target cars in chosen spots
with colliding parked cars around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import TAG_HEIGHT_M
from ..errors import ConfigurationError

__all__ = ["ParkingSpot", "ParkingStreet"]

#: A standard parallel-parking spot length (about 20 feet).
DEFAULT_SPOT_LENGTH_M = 6.1


@dataclass(frozen=True)
class ParkingSpot:
    """One curbside spot.

    Attributes:
        index: 1-based spot number counted from the pole (paper's x-axis
            in Fig 13).
        center_m: (3,) spot center on the road surface.
    """

    index: int
    center_m: np.ndarray

    def transponder_position(self) -> np.ndarray:
        """Where a parked car's windshield tag sits: ``TAG_HEIGHT_M``
        above the spot center."""
        position = np.asarray(self.center_m, dtype=np.float64).copy()
        position[2] += TAG_HEIGHT_M
        return position


@dataclass
class ParkingStreet:
    """A row of curbside parking spots along +x from a reference point.

    Attributes:
        origin_m: (3,) road-surface point next to the pole (spot row start).
        n_spots: number of spots.
        spot_length_m: per-spot curb length.
        curb_offset_m: signed y offset of the parked cars' centerline from
            the origin (negative = across from the pole, per our frame).
    """

    origin_m: np.ndarray
    n_spots: int = 6
    spot_length_m: float = DEFAULT_SPOT_LENGTH_M
    curb_offset_m: float = 0.0
    occupied: dict[int, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.origin_m = np.asarray(self.origin_m, dtype=np.float64)
        if self.origin_m.shape != (3,):
            raise ConfigurationError("origin must be a 3-vector")
        if self.n_spots < 1 or self.spot_length_m <= 0:
            raise ConfigurationError("need at least one positive-length spot")

    def spot(self, index: int) -> ParkingSpot:
        """The ``index``-th spot (1-based, growing away from the pole)."""
        if not 1 <= index <= self.n_spots:
            raise ConfigurationError(f"spot index {index} outside 1..{self.n_spots}")
        center = self.origin_m + np.array(
            [(index - 0.5) * self.spot_length_m, self.curb_offset_m, 0.0]
        )
        return ParkingSpot(index=index, center_m=center)

    def spots(self) -> list[ParkingSpot]:
        return [self.spot(i) for i in range(1, self.n_spots + 1)]

    # -- occupancy ---------------------------------------------------------------

    def park(self, index: int) -> ParkingSpot:
        """Mark a spot occupied, returning it."""
        spot = self.spot(index)
        if self.occupied.get(index):
            raise ConfigurationError(f"spot {index} already occupied")
        self.occupied[index] = True
        return spot

    def leave(self, index: int) -> None:
        """Vacate a spot."""
        if not self.occupied.get(index):
            raise ConfigurationError(f"spot {index} is not occupied")
        del self.occupied[index]

    def is_occupied(self, index: int) -> bool:
        return bool(self.occupied.get(index))

    def free_spots(self) -> list[int]:
        return [i for i in range(1, self.n_spots + 1) if not self.is_occupied(i)]
