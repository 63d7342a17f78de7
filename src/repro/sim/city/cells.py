"""Station coverage cells: each pole owns a slice of the corridor.

``examples/reader_network.py`` carved the road into per-station segments
by hand so each pole only reports fixes where its AoA geometry is good
(error grows toward end-fire, i.e. far along the road axis). This module
promotes that pattern into the library: a :class:`StationCell` is a
named, contiguous along-road interval; :func:`carve_cells` partitions a
corridor between its poles at the midpoints, so every road point belongs
to exactly one cell and each pole's cell is centred on it.

Cells are also the handoff topology: a tag leaving cell *k* enters cell
*k+1*, so cell neighbor order is the order identity-cache entries flow
through the corridor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...channel.geometry import RoadSegment
from ...core.localization import LaneProjectionLocalizer
from ...errors import ConfigurationError

__all__ = ["StationCell", "carve_cells"]


@dataclass(frozen=True)
class StationCell:
    """One pole's slice of the corridor.

    Attributes:
        name: stable identifier (used in ledgers and observations).
        x_min_m / x_max_m: along-road extent of the cell.
        road: the *full* corridor road the cell is part of (cross-road
            geometry — lanes, width, surface height — is corridor-wide).
        lane_ys_m: cross-road lane centers, for single-pole localization.
    """

    name: str
    x_min_m: float
    x_max_m: float
    road: RoadSegment
    lane_ys_m: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.x_max_m <= self.x_min_m:
            raise ConfigurationError(
                f"degenerate cell [{self.x_min_m}, {self.x_max_m}]"
            )

    @property
    def span_m(self) -> float:
        return self.x_max_m - self.x_min_m

    def contains_x(self, x_m: float) -> bool:
        """Whether an along-road coordinate falls in this cell.

        The lower edge is inclusive, the upper exclusive, so abutting
        cells partition the road without double-claiming boundary points.
        """
        return self.x_min_m <= x_m < self.x_max_m

    def segment(self) -> RoadSegment:
        """The cell's road slice (full cross-road extent)."""
        return RoadSegment(
            x_min_m=self.x_min_m,
            x_max_m=self.x_max_m,
            y_center_m=self.road.y_center_m,
            width_m=self.road.width_m,
            z_m=self.road.z_m,
        )

    def localizer(self, **kwargs) -> LaneProjectionLocalizer:
        """A single-pole localizer confined to this cell's segment.

        Fixes outside the cell are rejected by the segment bounds and
        left to the neighbor with better geometry — exactly the division
        of labor the example encoded by hand.
        """
        return LaneProjectionLocalizer(
            road=self.segment(), lane_ys_m=tuple(self.lane_ys_m), **kwargs
        )


def carve_cells(
    pole_xs_m: list[float],
    road: RoadSegment,
    lane_ys_m: tuple[float, ...],
    names: list[str] | None = None,
) -> list[StationCell]:
    """Partition a corridor between its poles at the midpoints.

    Cell *k* runs from the midpoint with pole *k-1* to the midpoint with
    pole *k+1*; the first and last cells absorb the road ends. Poles must
    be strictly increasing along the road.
    """
    if not pole_xs_m:
        raise ConfigurationError("need at least one pole")
    if any(b <= a for a, b in zip(pole_xs_m, pole_xs_m[1:])):
        raise ConfigurationError("pole positions must be strictly increasing")
    if names is None:
        names = [f"cell-{k}" for k in range(len(pole_xs_m))]
    if len(names) != len(pole_xs_m):
        raise ConfigurationError("one name per pole required")
    edges = (
        [road.x_min_m]
        + [(a + b) / 2.0 for a, b in zip(pole_xs_m, pole_xs_m[1:])]
        + [road.x_max_m]
    )
    cells = []
    for name, lo, hi in zip(names, edges, edges[1:]):
        cells.append(
            StationCell(
                name=name, x_min_m=lo, x_max_m=hi, road=road, lane_ys_m=tuple(lane_ys_m)
            )
        )
    return cells
