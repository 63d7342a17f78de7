#!/usr/bin/env python
"""A city corridor on one shared time axis: async poles, moving cars.

Six reader poles watch a 240 m two-lane corridor. Cars stream in on
constant-speed trajectories; every pole runs its own query cadence
through the §9 CSMA policy on a single discrete-event timeline, so poles
back off each other's response slots instead of taking turns. A car
decoded once is *handed off* down the corridor: when its CFO fingerprint
shows up at the next pole, the identity-cache entry is forwarded instead
of re-decoding — the HandoffLedger at the end shows how much decode air
time that saved. A CarFinder service subscribes to the observation
stream, as the parking and red-light services do in the lock-step
reader_network example.

Everything here is the promoted library surface — cells, handoff and
moving-tag synthesis live in :mod:`repro.sim.city`
(:class:`~repro.sim.city.StationCell`,
:class:`~repro.sim.city.HandoffLedger`,
:class:`~repro.sim.city.MovingCollisionSource`), not in example code.
One street is one :class:`~repro.sim.city.CityCorridor`; for the graph
of corridors above it (intersections, routed traffic, the city-wide
identity directory and predictive push handoff) see
``examples/city_mesh.py`` and :class:`repro.sim.city.CityMesh`.

Run:  python examples/city_corridor.py   (about a minute of compute)
"""

from repro.apps import CarFinder
from repro.sim.city import CityCorridor
from repro.sim.scenario import city_corridor_scene

LANES = (-1.75, -5.25)


def main() -> None:
    scene, trajectories = city_corridor_scene(
        n_poles=6,
        pole_spacing_m=40.0,
        lane_ys_m=LANES,
        n_cars=18,
        speed_range_m_s=(9.0, 16.0),
        entry_window_s=5.0,
        rng=42,
    )
    corridor = CityCorridor.build(
        scene, trajectories, lane_ys_m=LANES, rng=42, max_queries=24
    )
    finder = corridor.subscribe(CarFinder())

    print("=== 6-pole corridor, 18 moving cars, event-driven ===")
    result = corridor.run(10.0)

    print(
        f"{result.rounds} measurement rounds in {result.duration_s:.0f} s "
        f"({result.queries_per_s:.0f} queries/s, "
        f"{result.queries_deferred} CSMA deferrals, "
        f"{result.corrupted_responses} corrupted responses)"
    )
    print(
        f"cars seen: {result.tags_seen}, identified: {result.identified}, "
        f"mean identification delay {result.mean_identification_delay_s:.2f} s "
        f"({result.mean_identification_queries:.1f} decode queries each)"
    )

    ledger = result.ledger
    print(
        f"sightings: {ledger.counts()}\n"
        f"downstream first-sightings: {ledger.downstream_sightings}, "
        f"{100 * ledger.handoff_resolution_rate:.0f}% resolved by handoff "
        f"({ledger.handoffs} re-decodes avoided)"
    )
    print(
        f"shared air: {result.overheard_windows} trigger windows published, "
        f"{result.overheard_donated} overheard captures donated to decode "
        f"bursts, {ledger.overheard_captures_used()} combined as free evidence"
    )

    print("\nlast known positions (find-my-car):")
    for tag_id in finder.known_tags()[:6]:
        fix = finder.locate(tag_id)
        print(
            f"  account {tag_id}: ({fix.position_m[0]:6.1f}, "
            f"{fix.position_m[1]:5.1f}) m at t={fix.timestamp_s:5.2f} s "
            f"via {fix.station}/{fix.cell}"
        )


if __name__ == "__main__":
    main()
