#!/usr/bin/env python
"""A city mesh: three corridors, two intersections, predictive handoff.

Three two-pole corridors A -> B -> C joined by signalized intersections;
Poisson traffic enters at A, most of it routed all the way to C, some
turning off after B. Every pole runs its own CSMA cadence on one shared
discrete-event clock (`repro.sim.city.mesh.CityMesh`), every resolved
sighting is reported to the city-wide `IdentityDirectory`, and handoff
is *predictive*: a pole whose fixes complete a §7 cross-pole speed
estimate pushes the car's identity-cache entry to the predicted next
pole — across the intersection — ahead of arrival, so the entered
corridor's first pole resolves the car from its own cache at zero decode
queries. Cars that turn off-route leave their pushed entry unconsumed
(a push *miss*, audited on the shared HandoffLedger) and simply
re-decode wherever they actually went.

Run:  python examples/city_mesh.py    (about ten seconds of compute;
      set REPRO_MESH_DURATION_S to shorten/lengthen the simulation)

``--workers N`` (N >= 2) spreads the city over N forked worker
processes (`repro.sim.city.parallel.run_sharded`): interference-closed
edge groups rendezvousing at sync barriers for directory replay and
push delivery. ``--workers 1``, the default, runs ``CityMesh.run`` —
the same engine in-process. Any N prints the same numbers for the same
seed. See docs/PERFORMANCE.md.

``--grid ROWSxCOLS`` swaps the 3-corridor demo for a generated downtown
(`repro.sim.city.mesh.downtown_grid`) — e.g. ``--grid 10x10 --workers
4`` for the 100-corridor benchmark city (the pull ablation and the
find-my-car service are skipped in grid mode to keep the run short).

Pass ``--trace trace.json`` and/or ``--metrics metrics.json`` to record
the push run through ``repro.obs`` (see docs/OBSERVABILITY.md): the
trace is Chrome trace_event JSON — load it at https://ui.perfetto.dev —
and both files render via ``python -m repro.obs.report``. Sim-time
tracing needs the in-process run (``--workers 1``); metrics work at any
worker count (per-shard registries merge in deterministic order).
"""

import argparse
import os

from repro.apps import CarFinder
from repro.obs import Obs
from repro.sim.city import CityMesh, downtown_grid, run_sharded
from repro.sim.traffic import TrafficLight


def build_mesh(handoff: str, seed: int = 7, obs: Obs | None = None) -> CityMesh:
    mesh = CityMesh(rng=seed, handoff=handoff, obs=obs)
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_node(
        "v", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0, offset_s=3.0)
    )
    mesh.add_edge("A", dst="u", n_poles=2)
    mesh.add_edge("B", src="u", dst="v", n_poles=2)
    mesh.add_edge("C", src="v", n_poles=2)
    # 80% of cars ride the whole main line; 20% turn off after B — the
    # mis-push population the ledger audits.
    mesh.add_traffic(
        [(("A", "B", "C"), 0.8), (("A", "B"), 0.2)],
        rate_per_s=0.5,
        speed_range_m_s=(10.0, 16.0),
    )
    return mesh


def parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise SystemExit(f"--grid wants ROWSxCOLS (e.g. 10x10), got {text!r}")
    return rows, cols


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument(
        "--trace", metavar="PATH", help="write a Chrome trace_event JSON here"
    )
    parser.add_argument(
        "--metrics", metavar="PATH", help="write a metrics snapshot JSON here"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="1 (default): CityMesh.run, in-process; >= 2: that many "
        "forked workers, same results (see the docstring)",
    )
    parser.add_argument(
        "--grid",
        metavar="ROWSxCOLS",
        help="run a generated downtown grid of corridors instead of the "
        "3-corridor demo (e.g. 10x10)",
    )
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers wants a positive count")
    if args.trace and args.workers > 1:
        parser.error("sim-time tracing needs the in-process run (--workers 1)")
    obs = None
    if args.trace or args.metrics:
        obs = Obs(trace=bool(args.trace))

    duration_s = float(os.environ.get("REPRO_MESH_DURATION_S", "30"))
    finder = None
    if args.grid:
        rows, cols = parse_grid(args.grid)
        print(
            f"=== {rows}x{cols} downtown grid ({rows * cols} corridors), "
            f"predictive push handoff, workers={args.workers} ==="
        )

        def fresh_mesh(handoff: str) -> CityMesh:
            return downtown_grid(rows, cols, rng=7, handoff=handoff, obs=obs)

    else:
        print(
            "=== 3-corridor / 2-intersection mesh, predictive push handoff, "
            f"workers={args.workers} ==="
        )
        fresh_mesh = lambda handoff: build_mesh(handoff, obs=obs)  # noqa: E731

    def run(mesh: CityMesh):
        if args.workers == 1:
            return mesh.run(duration_s)
        return run_sharded(
            mesh,
            duration_s,
            workers=args.workers,
            shard_obs_factory=Obs if obs is not None else None,
        )

    mesh = fresh_mesh("push")
    if not args.grid:
        finder = mesh.subscribe(CarFinder())
    result = run(mesh)
    ledger = result.ledger

    if args.metrics:
        obs.metrics.write(args.metrics)
        n = sum(len(t) for t in obs.metrics.snapshot().values())
        print(f"metrics: {n} series -> {args.metrics}")
    if args.trace:
        obs.tracer.write(args.trace)
        print(f"trace: {len(obs.tracer.events)} events -> {args.trace}")

    print(
        f"{result.cars_injected} edge entries ({result.cars_transferred} "
        f"intersection transfers, {result.cars_departed} cars left the mesh) "
        f"in {result.duration_s:.0f} s"
    )
    print(
        f"air: {result.queries_sent} queries, {result.responses} responses, "
        f"{result.corrupted_responses} corrupted (CSMA on)"
    )
    print(
        f"sightings: {ledger.counts()}\n"
        f"pushes: {ledger.pushes_sent} sent, {ledger.push_hits} consumed at "
        f"the predicted pole, {len(ledger.push_misses)} missed (off-route or "
        f"still en route)"
    )
    print(
        f"cross-corridor entries: {result.cross_entries}, "
        f"{100 * result.cross_resolution_rate:.0f}% resolved without a "
        f"re-decode; first sighting at the entered corridor's first pole "
        f"cost {result.mean_first_pole_queries:.2f} decode queries on average"
    )
    print(f"directory: {result.directory}")
    events = sum(result.events_processed.values())
    print(
        f"shards: {len(result.groups)} interference-closed groups across "
        f"{result.workers} workers, {events} scheduler events, "
        f"sync quantum {result.sync_quantum_s * 1e3:.0f} ms"
    )

    if finder is not None:
        print("\nlast known positions (find-my-car, city-wide):")
        for tag_id in finder.known_tags()[:5]:
            fix = finder.locate(tag_id)
            print(
                f"  account {tag_id}: x={fix.position_m[0]:7.1f} m at "
                f"t={fix.timestamp_s:5.2f} s via {fix.station}"
            )

    if not args.grid:
        print("\n--- the same world under pull-at-sighting (the ablation) ---")
        pull = run(fresh_mesh("pull"))
        print(
            f"pull: {100 * pull.cross_resolution_rate:.0f}% of "
            f"{pull.cross_entries} cross-corridor entries resolved; first pole "
            f"costs {pull.mean_first_pole_queries:.2f} decode queries "
            f"(vs {result.mean_first_pole_queries:.2f} with push)"
        )


if __name__ == "__main__":
    main()
