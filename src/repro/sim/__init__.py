"""Discrete-event world: clocks, media, traffic, mobility, parking, scenes."""

from .events import EventScheduler
from .clock import DriftingClock, NtpClock
from .medium import AirLog, Medium, ReaderNode, Transmission, TxKind
from .traffic import IntersectionSimulator, PoissonArrivals, TrafficLight, TrafficSample
from .mobility import ConstantSpeedTrajectory, DriveBy
from .parking import ParkingSpot, ParkingStreet
from .scenario import (
    Scene,
    city_corridor_scene,
    corridor_scene,
    intersection_scene,
    parking_scene,
    two_pole_speed_scene,
)

__all__ = [
    "EventScheduler",
    "DriftingClock",
    "NtpClock",
    "AirLog",
    "Medium",
    "ReaderNode",
    "Transmission",
    "TxKind",
    "IntersectionSimulator",
    "PoissonArrivals",
    "TrafficLight",
    "TrafficSample",
    "ConstantSpeedTrajectory",
    "DriveBy",
    "ParkingSpot",
    "ParkingStreet",
    "Scene",
    "city_corridor_scene",
    "corridor_scene",
    "intersection_scene",
    "parking_scene",
    "two_pole_speed_scene",
]
