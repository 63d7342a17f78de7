"""Propagation, antennas and geometry: how tag signals reach the reader.

Implements the wireless substrate the paper's testbed provided physically:
line-of-sight channels from windshield tags to pole-mounted antennas
(Eq 2), the 3-antenna equilateral triangle (Fig 6), the AoA cone / road
plane geometry (Fig 7), weak outdoor multipath (Fig 14), thermal noise,
and the capture record of simultaneous tag responses, a collision
(Eq 11).
"""

from .geometry import (
    Conic,
    RoadSegment,
    aoa_cone_conic,
    hyperbola_y,
    intersect_conics,
    spatial_angle_rad,
    unit,
)
from .antenna import AntennaPair, TriangleArray
from .propagation import LosChannel, friis_amplitude, propagation_delay_s
from .multipath import GroundBounce, MultipathChannel, PointScatterer
from .noise import NoiseModel, add_awgn, thermal_noise_power_w
from .collision import ReceivedCollision

__all__ = [
    "Conic",
    "RoadSegment",
    "aoa_cone_conic",
    "hyperbola_y",
    "intersect_conics",
    "spatial_angle_rad",
    "unit",
    "AntennaPair",
    "TriangleArray",
    "LosChannel",
    "friis_amplitude",
    "propagation_delay_s",
    "GroundBounce",
    "MultipathChannel",
    "PointScatterer",
    "NoiseModel",
    "add_awgn",
    "thermal_noise_power_w",
    "ReceivedCollision",
]
