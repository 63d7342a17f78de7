#!/usr/bin/env python
"""Traffic monitoring at an intersection (the Fig 12 application).

Simulates the intersection of a quiet street (A) and the busiest street
on campus (C), with a shared traffic light whose green time for C is only
3x that of A although C carries ~10x the traffic. The reader samples each
approach once per second; queues build during red and drain during green.

Also contrasts Caraoke's count with a traffic-camera baseline operating
at night in wind — the §1/§4 motivation.

Run:  python examples/traffic_monitoring.py
"""

import numpy as np

from repro.baselines.camera import CameraConditions, CameraCounter
from repro.sim.traffic import IntersectionSimulator, PoissonArrivals, TrafficLight


def bar(n: int, scale: float = 1.0) -> str:
    return "#" * int(round(n * scale))


def main() -> None:
    cycle = dict(green_s=0.0, yellow_s=3.0, red_s=0.0)
    # Street C: 45 s green; street A: 15 s green (3x, §12.1); both share a
    # 66 s cycle, A's green sitting inside C's red.
    light_c = TrafficLight(green_s=45.0, yellow_s=3.0, red_s=18.0)
    light_a = TrafficLight(green_s=15.0, yellow_s=3.0, red_s=48.0, offset_s=48.0)

    street_c = IntersectionSimulator(
        light=light_c,
        arrivals=PoissonArrivals(0.30, rng=np.random.default_rng(1)),  # busy
        transponder_penetration=0.85,
        rng=np.random.default_rng(2),
    )
    street_a = IntersectionSimulator(
        light=light_a,
        arrivals=PoissonArrivals(0.03, rng=np.random.default_rng(3)),  # 10x quieter
        transponder_penetration=0.85,
        rng=np.random.default_rng(4),
    )

    duration = 132.0  # two light cycles, like Fig 12
    samples_c = street_c.simulate(duration, sample_period_s=3.0)
    samples_a = street_a.simulate(duration, sample_period_s=3.0)

    print("=== Intersection monitoring (two light cycles) ===")
    print(f"{'t[s]':>5} {'C':>3} {'light':<7}{'cars C':<26} {'A':>3} {'light':<7}cars A")
    for sc, sa in zip(samples_c, samples_a):
        print(
            f"{sc.t_s:5.0f} {sc.in_range:3d} {sc.phase:<7}{bar(sc.in_range):<26} "
            f"{sa.in_range:3d} {sa.phase:<7}{bar(sa.in_range)}"
        )

    mean_c = np.mean([s.in_range for s in samples_c])
    mean_a = np.mean([s.in_range for s in samples_a])
    print()
    print(f"mean tagged cars in range: C = {mean_c:.1f}, A = {mean_a:.1f} "
          f"(ratio {mean_c / max(mean_a, 0.1):.1f}x)")

    # --- camera baseline under adverse conditions -------------------------
    camera = CameraCounter(
        CameraConditions(illumination="night", wind=0.6, occlusion=0.25),
        rng=np.random.default_rng(5),
    )
    truth = [s.in_range for s in samples_c if s.in_range > 0]
    camera_counts = [camera.count(n) for n in truth]
    errors = [abs(c - n) / n for c, n in zip(camera_counts, truth)]
    print()
    print("camera baseline (night, wind, occlusion):")
    print(f"  mean |error| = {np.mean(errors) * 100:.1f}% "
          f"(the paper cites a few % up to 26% for video detection)")
    print("  Caraoke counts transponders directly and is immune to all of this;")
    print("  its counting error is set by CFO bin collisions (see Fig 11 bench).")


if __name__ == "__main__":
    main()
