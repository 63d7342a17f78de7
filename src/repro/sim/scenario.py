"""Scene builders: deployable worlds for examples, tests and benchmarks.

A :class:`Scene` bundles tags, road geometry, reader arrays and the
channel into one object that can mint a repeated-query front end per
reader: the scene's tags parked on the one collision synthesizer
(:class:`~repro.sim.city.moving.ParkedSource`). The builders mirror
the paper's deployments (Fig 10): curbside parking under a pole
(§12.2), two pole stations for speed runs (§12.3), and a queue of cars
at a signalized intersection (Fig 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.antenna import TriangleArray
from ..channel.geometry import RoadSegment
from ..channel.propagation import LosChannel
from ..channel.noise import NoiseModel
from ..constants import (
    DEFAULT_SAMPLE_RATE_HZ,
    EXPERIMENT_POLE_HEIGHT_M,
    LANE_WIDTH_M,
    READER_LO_HZ,
    SPEED_EXPERIMENT_BASELINE_M,
    TAG_HEIGHT_M,
)
from ..datasets import empirical_cfo_dataset
from ..errors import ConfigurationError
from ..phy.oscillator import CfoModel
from ..phy.transponder import Transponder
from ..phy.packet import TransponderPacket
from ..utils import as_rng
from .parking import ParkingStreet

__all__ = [
    "Scene",
    "parking_scene",
    "two_pole_speed_scene",
    "intersection_scene",
    "corridor_scene",
    "city_corridor_scene",
    "make_tags",
]


def make_tags(
    positions_m: np.ndarray,
    cfo_model: CfoModel | None = None,
    rng=None,
) -> list[Transponder]:
    """Tags at given positions with carriers drawn from a CFO model."""
    rng = as_rng(rng)
    positions_m = np.atleast_2d(np.asarray(positions_m, dtype=np.float64))
    model = cfo_model or empirical_cfo_dataset()
    oscillators = model.sample_oscillators(positions_m.shape[0], rng)
    return [
        Transponder(
            packet=TransponderPacket.random(rng),
            oscillator=osc,
            position_m=pos,
            rng=rng,
        )
        for osc, pos in zip(oscillators, positions_m)
    ]


@dataclass
class Scene:
    """A deployable world: tags + road + reader arrays + channel.

    Attributes:
        tags: the transponders present.
        road: the road segment (for localization constraints).
        arrays: one antenna triangle per reader pole.
        channel: propagation model shared by all links.
        lo_hz / sample_rate_hz / noise_power_w: receiver parameters.
    """

    tags: list[Transponder]
    road: RoadSegment
    arrays: list[TriangleArray]
    channel: object = field(default_factory=LosChannel)
    lo_hz: float = READER_LO_HZ
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    noise_power_w: float = field(
        default_factory=lambda: NoiseModel().power_w(DEFAULT_SAMPLE_RATE_HZ)
    )

    def simulator(self, array_index: int = 0, rng=None):
        """A repeated-query :class:`~repro.sim.city.moving.ParkedSource`
        as seen from one reader."""
        # Imported here: repro.sim.city.mesh imports this module at load.
        from .city.moving import ParkedSource

        if not 0 <= array_index < len(self.arrays):
            raise ConfigurationError(f"no array {array_index}")
        return ParkedSource(
            tags=self.tags,
            antenna_positions_m=self.arrays[array_index].positions_m,
            channel=self.channel,
            lo_hz=self.lo_hz,
            sample_rate_hz=self.sample_rate_hz,
            noise_power_w=self.noise_power_w,
            rng=rng,
        )

    def reader(self, array_index: int = 0):
        """A :class:`~repro.core.reader.CaraokeReader` for one pole."""
        from ..core.localization import ReaderGeometry
        from ..core.reader import CaraokeReader

        if not 0 <= array_index < len(self.arrays):
            raise ConfigurationError(f"no array {array_index}")
        geometry = ReaderGeometry(self.arrays[array_index], self.road)
        return CaraokeReader(geometry=geometry, sample_rate_hz=self.sample_rate_hz)


def parking_scene(
    target_spots: list[int],
    n_background_cars: int = 3,
    pole_height_m: float = EXPERIMENT_POLE_HEIGHT_M,
    n_spots: int = 6,
    rng=None,
    cfo_model: CfoModel | None = None,
) -> tuple[Scene, ParkingStreet, list[np.ndarray]]:
    """The §12.2 layout: a pole watching a row of curbside spots.

    The pole stands at the origin; the road runs along +x; parked cars sit
    across the road at y = -(lane + parking offset). Background cars are
    parked in other random spots (their tags collide with the targets').

    Returns:
        (scene, street, target tag positions).
    """
    rng = as_rng(rng)
    curb_y = -(LANE_WIDTH_M * 1.5)
    street = ParkingStreet(
        origin_m=np.array([2.0, curb_y, 0.0]), n_spots=n_spots, curb_offset_m=0.0
    )
    positions = []
    for spot_index in target_spots:
        positions.append(street.park(spot_index).transponder_position())
    free = street.free_spots()
    rng.shuffle(free)
    for spot_index in free[:n_background_cars]:
        positions.append(street.park(spot_index).transponder_position())

    tags = make_tags(np.array(positions), cfo_model=cfo_model, rng=rng)
    array = TriangleArray.street_pole(np.array([0.0, 0.0, pole_height_m]))
    road = RoadSegment(
        x_min_m=-10.0,
        x_max_m=street.origin_m[0] + n_spots * street.spot_length_m + 10.0,
        y_center_m=curb_y / 2.0,
        width_m=abs(curb_y) + LANE_WIDTH_M,
    )
    scene = Scene(tags=tags, road=road, arrays=[array])
    return scene, street, positions[: len(target_spots)]


def two_pole_speed_scene(
    baseline_m: float = SPEED_EXPERIMENT_BASELINE_M,
    pole_height_m: float = EXPERIMENT_POLE_HEIGHT_M,
    road_width_m: float = 2.0 * LANE_WIDTH_M,
    stagger_m: float = 5.0,
) -> tuple[list[TriangleArray], RoadSegment]:
    """The §12.3 layout: two measurement stations along a straight road.

    Each station is a pair of readers on opposite sides of the road
    (localization needs two AoA conics, §6), staggered slightly along x so
    the conic intersection is unambiguous. Station 1 sits near x = 0,
    station 2 at x = baseline.

    Returns:
        (four arrays: [station1-north, station1-south, station2-north,
        station2-south], road).
    """
    road = RoadSegment(
        x_min_m=-30.0,
        x_max_m=baseline_m + 30.0,
        y_center_m=0.0,
        width_m=road_width_m,
    )
    half = road_width_m / 2.0 + 1.0  # poles a meter behind the curb
    arrays = [
        TriangleArray.street_pole(
            np.array([0.0, half, pole_height_m]), toward_road=-1.0
        ),
        TriangleArray.street_pole(
            np.array([stagger_m, -half, pole_height_m]), toward_road=1.0
        ),
        TriangleArray.street_pole(
            np.array([baseline_m, half, pole_height_m]), toward_road=-1.0
        ),
        TriangleArray.street_pole(
            np.array([baseline_m + stagger_m, -half, pole_height_m]), toward_road=1.0
        ),
    ]
    return arrays, road


def corridor_scene(
    pole_xs_m: list[float],
    lane_ys_m: list[float],
    cars: list[tuple[float, int]],
    pole_height_m: float = EXPERIMENT_POLE_HEIGHT_M,
    pole_setback_m: float = 1.0,
    rng=None,
    cfo_model: CfoModel | None = None,
) -> Scene:
    """A multi-lane road corridor watched by several reader poles.

    A multi-reader, multi-lane snapshot: poles stand along the +y curb
    at the given x positions, lanes run along x at the given y offsets
    (negative = into the road as seen from the poles), and each car is
    placed at an ``(x, lane index)`` pair. Give each car a
    zero-velocity trajectory and :meth:`repro.sim.city.CityCorridor.build`
    runs the scene as parked cars.

    Args:
        pole_xs_m: along-road x of each reader pole.
        lane_ys_m: cross-road y of each lane center.
        cars: one ``(x_m, lane_index)`` per car — an along-road position
            in meters and an integer index into ``lane_ys_m``.
        pole_height_m / pole_setback_m: pole geometry; poles stand
            ``setback`` meters behind the curb.
        rng / cfo_model: tag randomness, as in :func:`make_tags`.

    Returns:
        A scene with one antenna array per pole and one tag per car.
    """
    rng = as_rng(rng)
    if not lane_ys_m:
        raise ConfigurationError("need at least one lane")
    if not pole_xs_m:
        raise ConfigurationError("need at least one pole")
    positions = []
    for x, lane_index in cars:
        if lane_index != int(lane_index):
            raise ConfigurationError(
                f"lane index must be an integer, got {lane_index} "
                "(lane_ys_m holds the cross-road meters)"
            )
        if not 0 <= int(lane_index) < len(lane_ys_m):
            raise ConfigurationError(f"no lane {lane_index}")
        positions.append([float(x), float(lane_ys_m[int(lane_index)]), TAG_HEIGHT_M])
    tags = (
        make_tags(np.array(positions), cfo_model=cfo_model, rng=rng)
        if positions
        else []
    )
    arrays = [
        TriangleArray.street_pole(np.array([float(x), pole_setback_m, pole_height_m]))
        for x in pole_xs_m
    ]
    y_lo = min(lane_ys_m) - LANE_WIDTH_M / 2.0
    y_hi = max(lane_ys_m) + LANE_WIDTH_M / 2.0
    xs = [x for x, _ in cars] + list(pole_xs_m)
    road = RoadSegment(
        x_min_m=min(xs) - 20.0,
        x_max_m=max(xs) + 20.0,
        y_center_m=(y_lo + y_hi) / 2.0,
        width_m=y_hi - y_lo,
    )
    return Scene(tags=tags, road=road, arrays=arrays)


def city_corridor_scene(
    n_poles: int = 8,
    pole_spacing_m: float = 40.0,
    lane_ys_m: tuple[float, ...] = (-1.75, -5.25),
    n_cars: int = 100,
    speed_range_m_s: tuple[float, float] = (8.0, 18.0),
    entry_window_s: float = 20.0,
    entry: str = "stream",
    pole_height_m: float = EXPERIMENT_POLE_HEIGHT_M,
    pole_setback_m: float = 1.0,
    origin_x_m: float = 0.0,
    rng=None,
    cfo_model: CfoModel | None = None,
):
    """A full city corridor: a row of poles and a stream of moving cars.

    The deployment the :class:`~repro.sim.city.CityCorridor` engine
    drives: ``n_poles`` reader poles every ``pole_spacing_m`` meters
    along the +y curb, and ``n_cars`` cars that pick a lane and drive
    through at a constant speed drawn from ``speed_range_m_s``. With
    ``entry="stream"`` cars enter at the corridor's upstream end,
    staggered uniformly over ``entry_window_s``; with ``entry="spread"``
    they start at t=0 at uniform positions along the corridor, so every
    pole has traffic from the first query (useful for short saturation
    runs).

    ``origin_x_m`` shifts the whole deployment (poles, road, cars) along
    the city axis: a :class:`~repro.sim.city.mesh.CityMesh` lays its
    corridor edges out in one global frame, far enough apart that
    different streets share the clock but not the ether.

    Returns:
        ``(scene, trajectories)`` — a :class:`Scene` whose tags sit at
        their entry positions, plus one
        :class:`~repro.sim.mobility.ConstantSpeedTrajectory` per tag
        (``trajectories[i]`` moves ``scene.tags[i]``).
    """
    rng = as_rng(rng)
    if n_poles < 1:
        raise ConfigurationError("need at least one pole")
    if n_cars < 0:
        raise ConfigurationError("car count must be non-negative")
    from .mobility import ConstantSpeedTrajectory

    pole_xs = [origin_x_m + k * pole_spacing_m for k in range(n_poles)]
    x_min = origin_x_m - pole_spacing_m / 2.0
    x_max = pole_xs[-1] + pole_spacing_m / 2.0
    y_lo = min(lane_ys_m) - LANE_WIDTH_M / 2.0
    y_hi = max(lane_ys_m) + LANE_WIDTH_M / 2.0
    road = RoadSegment(
        x_min_m=x_min,
        x_max_m=x_max,
        y_center_m=(y_lo + y_hi) / 2.0,
        width_m=y_hi - y_lo,
    )
    if entry not in ("stream", "spread"):
        raise ConfigurationError(f"unknown entry mode {entry!r}")
    positions = []
    trajectories = []
    for _ in range(n_cars):
        lane_y = float(lane_ys_m[int(rng.integers(0, len(lane_ys_m)))])
        speed = float(rng.uniform(*speed_range_m_s))
        if entry == "stream":
            entry_s = float(rng.uniform(0.0, entry_window_s))
            start_x = x_min
        else:
            entry_s = 0.0
            start_x = float(rng.uniform(x_min, x_max))
        start = np.array([start_x, lane_y, TAG_HEIGHT_M])
        positions.append(start)
        trajectories.append(
            ConstantSpeedTrajectory(
                start_m=start,
                velocity_m_s=np.array([speed, 0.0, 0.0]),
                t0_s=entry_s,
            )
        )
    tags = (
        make_tags(np.array(positions), cfo_model=cfo_model, rng=rng)
        if positions
        else []
    )
    arrays = [
        TriangleArray.street_pole(
            np.array([float(x), pole_setback_m, pole_height_m])
        )
        for x in pole_xs
    ]
    scene = Scene(tags=tags, road=road, arrays=arrays)
    return scene, trajectories


def intersection_scene(
    queue_length: int,
    lane_y_m: float = -LANE_WIDTH_M / 2.0,
    car_spacing_m: float = 7.0,
    stop_line_x_m: float = 4.0,
    pole_height_m: float = EXPERIMENT_POLE_HEIGHT_M,
    rng=None,
    cfo_model: CfoModel | None = None,
) -> Scene:
    """A queue of tagged cars waiting at a light, watched from a pole.

    Car k queues at ``stop_line + k * spacing`` along the approach; the
    reader pole stands at the origin (the intersection corner). Used by
    the Fig 12 benchmark to turn queue sizes into actual collisions.
    """
    rng = as_rng(rng)
    if queue_length < 0:
        raise ConfigurationError("queue length must be non-negative")
    positions = np.array(
        [
            [stop_line_x_m + k * car_spacing_m + rng.uniform(-1.0, 1.0), lane_y_m, TAG_HEIGHT_M]
            for k in range(queue_length)
        ]
    ).reshape(queue_length, 3)
    tags = make_tags(positions, cfo_model=cfo_model, rng=rng) if queue_length else []
    array = TriangleArray.street_pole(np.array([0.0, 0.0, pole_height_m]))
    road = RoadSegment(
        x_min_m=-20.0,
        x_max_m=stop_line_x_m + max(queue_length, 1) * car_spacing_m + 20.0,
        y_center_m=lane_y_m,
        width_m=2 * LANE_WIDTH_M,
    )
    return Scene(tags=tags, road=road, arrays=[array])
