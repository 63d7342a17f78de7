#!/usr/bin/env python
"""A reader *network* serving the §1 city services on lock-step rounds.

Two poles watch a two-lane street with three parked cars.
The street is a :class:`repro.sim.city.CityCorridor` run with
``scheduling="rounds"``: every 120 s each pole in turn counts the tags in
range (§5), resolves their spikes against its identity cache (or its
neighbor's), decodes any account id nobody knows yet from the shared
collision stream (§8/§12.4, batched across tags), localizes every spike
from its own pole (AoA cone x known lanes, inside its coverage cell) and
fans the observations into the parking-billing and find-my-car services.
A parked car is a car at speed zero: its trajectory has zero velocity.

A second street runs red-light enforcement the same way: one pole at the
stop line, rounds every 2 s, and a car at 6 m/s that crosses the line
during the red phase between two rounds. The detector interpolates the
crossing from the fixes on either side.

The event-driven form of the same corridor (async CSMA cadences, moving
traffic) is ``examples/city_corridor.py``; the corridor graph above it is
``examples/city_mesh.py``.

Run:  python examples/reader_network.py
"""

from collections import Counter

import numpy as np

from repro.apps import CarFinder, ParkingBillingService, RedLightDetector
from repro.sim.city import CityCorridor
from repro.sim.mobility import ConstantSpeedTrajectory
from repro.sim.scenario import corridor_scene
from repro.sim.traffic import TrafficLight

LANES = (-1.75, -5.25)


def parking_and_car_finder() -> None:
    print("=== Parked cars on a lock-step corridor: parking billing + find-my-car ===")
    round_s = 120.0
    scene = corridor_scene(
        pole_xs_m=[0.0, 24.0],
        lane_ys_m=list(LANES),
        cars=[(-6.0, 0), (5.0, 1), (26.0, 0)],
        rng=21,
    )
    parked = [
        ConstantSpeedTrajectory(start_m=tag.position_m, velocity_m_s=np.zeros(3))
        for tag in scene.tags
    ]
    # Each pole owns a coverage cell (cut at the midpoint between the
    # poles): fixes outside it are left to the neighbor with better
    # geometry, since AoA error grows with range.
    corridor = CityCorridor.build(
        scene, parked, LANES, rng=21, scheduling="rounds", query_interval_s=round_s
    )
    finder = corridor.subscribe(CarFinder())
    spots = {i: tag.position_m[:2] for i, tag in enumerate(scene.tags)}
    parking = corridor.subscribe(
        ParkingBillingService(spot_positions_m=spots, rate_per_hour=3.0)
    )
    result = corridor.run(2.5 * round_s)

    for index in range(result.rounds // len(corridor.stations)):
        t_s = index * round_s
        observed = sum(
            1 for o in corridor.observations if t_s <= o.timestamp_s < t_s + round_s
        )
        kinds = Counter(
            r.kind for r in corridor.ledger.records if t_s <= r.t_s < t_s + round_s
        )
        sightings = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
        print(
            f"round {index} (t={t_s:5.0f} s): {observed} observations; "
            f"sightings: {sightings}"
        )

    print(f"occupied spots: {sorted(parking.occupancy())}")
    for tag in scene.tags:
        fix = finder.locate(tag.packet.tag_id)
        err = np.linalg.norm(fix.position_m - tag.position_m[:2])
        print(
            f"  account {tag.packet.tag_id}: last seen by {fix.station} at "
            f"({fix.position_m[0]:6.2f}, {fix.position_m[1]:6.2f}) m "
            f"[error {err * 100:.0f} cm]"
        )

    # The cars drive away after the last round; their parking sessions
    # time out and bill.
    bills = parking.sweep(now_s=2.0 * round_s + 180.0)
    print(f"bills issued after sweep: {len(bills)}")
    for bill in bills:
        print(
            f"  account {bill.tag_id}: spot {bill.spot_index}, "
            f"{bill.duration_s / 60:.0f} min -> ${bill.amount:.2f}"
        )


def red_light_via_network() -> None:
    print("\n=== Single-pole red-light enforcement on the same rounds ===")
    light = TrafficLight(green_s=30.0, yellow_s=3.0, red_s=27.0)
    stop_line_x = 8.0
    crossing_s = 43.0  # red phase, strictly between the 42 s and 44 s rounds
    scene = corridor_scene(
        pole_xs_m=[stop_line_x],
        lane_ys_m=[LANES[0]],
        cars=[(stop_line_x, 0)],
        rng=23,
    )
    car = ConstantSpeedTrajectory(
        start_m=scene.tags[0].position_m,
        velocity_m_s=np.array([6.0, 0.0, 0.0]),
        t0_s=crossing_s,
    )
    corridor = CityCorridor.build(
        scene, [car], (LANES[0],), rng=23, scheduling="rounds", query_interval_s=2.0
    )
    detector = corridor.subscribe(
        RedLightDetector(light=light, stop_line_x_m=stop_line_x)
    )
    corridor.run(50.0)

    for obs in corridor.observations:
        t_s = obs.timestamp_s
        print(
            f"t = {t_s:4.1f} s ({light.phase(t_s)}): car at x = "
            f"{obs.position_m[0]:6.2f} m (true {car.position(t_s)[0]:6.2f} m)"
        )
    for ticket in detector.violations:
        print(
            f"  -> TICKET: account {ticket.tag_id} crossed at "
            f"t = {ticket.crossed_at_s:.2f} s ({ticket.phase}) doing "
            f"{ticket.speed_m_s:.1f} m/s"
        )
    print(f"violations recorded: {len(detector.violations)} (expected: 1)")


def main() -> None:
    parking_and_car_finder()
    red_light_via_network()


if __name__ == "__main__":
    main()
