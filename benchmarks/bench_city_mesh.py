"""City mesh: predictive push handoff vs pull-at-sighting.

One experiment on :class:`repro.sim.city.CityMesh` — the 3-corridor /
2-intersection main line A -> B -> C (three poles per corridor,
signalized intersections, Poisson traffic with an off-route share after
B) run twice from one seed:

* ``handoff="push"`` — every resolved sighting feeds the city-wide
  :class:`~repro.sim.city.IdentityDirectory`; a pole whose fixes
  complete a §7 cross-pole speed estimate pushes the identity-cache
  entry to the predicted next pole (its downstream neighbor, or across
  the intersection to the successor corridor's first pole) ahead of the
  car.
* ``handoff="pull"`` — today's pull-at-sighting semantics, the
  ablation: within-corridor neighbor pull still works, but a corridor
  boundary always costs a re-decode.

Gates:

1. with push, more than half of all cross-corridor entries (a tag's
   first attributed sighting in a corridor another corridor already
   identified) resolve from a pushed/pulled cache entry instead of a
   re-decode;
2. push strictly lowers the mean decode queries spent on a tag's first
   sighting at the entered corridor's *first* pole versus pull — the
   first-round latency §7's speed machinery buys;
3. both runs keep the street clean: zero corrupted responses under
   CSMA on every corridor's air log.

Alongside the 3-corridor experiment, the same file carries the
**full-city scale-out curve**: a 100-corridor downtown grid
(:func:`repro.sim.city.downtown_grid`) run through the sharded engine
(:func:`repro.sim.city.run_sharded`) with per-group compute *measured*
(bench-layer wall clock around each shard's ``advance``; the library
itself never reads the clock) and the N-worker makespan *modeled* from
those measurements — forking more workers than the host has cores
measures contention, not scale-out. The model is labeled
honestly in the JSON (``"mode": "modeled-makespan"``): it charges the
coordinator's replay/merge as a serial Amdahl term and assigns shard
times round-robin exactly as the engine does.

Beside the model sits one **measured** pair of points, ungated: the e2e
``grid_sharded_16s`` city (8x8 grid, seed 7, 16 sim-s) run through a
*forked* ``run_sharded`` with 1 and 2 workers, each in a fresh
interpreter, recording its wall time and the peak resident memory of
the parent and of its largest worker (``"mode": "measured"``).

The **run-length ladder** (``"run_length"``, measured and gated) runs the
e2e ``mainline_40s`` world (this 3-corridor main line with push handoff,
a 1 s scheduled backhaul and a billing tap, seed 2026) for 40, 80 and
160 sim-s, each in a fresh interpreter, recording reads (occupied
reader rounds), wall time, the process's own ``VmHWM`` and what the run
holds at its end (air-log records, pool windows and waveform-bank rows,
summed over the corridors just before they settle for good). Gates: the
160 s peak stays within 10 MB of the 40 s one, and the 160 s run holds
at most twice the 40 s run's air records and pool windows — memory
grows with the work done, not with how long the run has gone on. At
``REPRO_BENCH_SCALE=1.0`` a 900 sim-s soak point also runs, long enough
to pass the hint horizon (300 s), the identity caches' and directory's
age bound (600 s) and the push horizon (60 s); it must pass every
invariant its run checks (billing completeness and consistency,
directory consistency, exactly-once backhaul delivery, a clean street
and a clean capture audit), and its peak is recorded beside the
ladder's.

Set ``REPRO_BENCH_SCALE`` < 1 to shorten the simulations.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench_helpers import timer, write_bench_json
from conftest import bench_scale as _scale
from repro.sim.city import CityMesh, downtown_grid, run_sharded
from repro.sim.city import parallel as _parallel
from repro.sim.traffic import TrafficLight

MESH_SEED = 2026
N_POLES_PER_EDGE = 3
#: Main-line share: the fraction of cars riding A -> B -> C end to end;
#: the rest turn off after B (the mis-push population).
THROUGH_WEIGHT = 0.8
ARRIVAL_RATE_PER_S = 0.6

#: The downtown scale-out city: rows x cols avenues = 100 corridors.
GRID_ROWS, GRID_COLS = 10, 10
GRID_RATE_PER_S = 0.3
#: Worker counts on the modeled-makespan curve, and the gated point:
#: 4 workers must buy at least 2x the single-worker throughput.
SCALEOUT_WORKER_COUNTS = (1, 2, 4, 8, 16)
SCALEOUT_GATE_WORKERS = 4
SCALEOUT_GATE_SPEEDUP = 2.0

#: The measured forked points: the e2e ``grid_sharded_16s`` city.
FORKED_GRID_SIZE = 8
FORKED_GRID_SEED = 7
FORKED_WORKER_COUNTS = (1, 2)

#: One forked run in a fresh interpreter; prints its measurements as
#: JSON. An exec'd child inherits its launcher's ``ru_maxrss`` on Linux,
#: so the parent's peak is this process's own high-water mark (VmHWM);
#: the workers are forked from it, so the largest one's peak is
#: ``RUSAGE_CHILDREN``'s.
_FORKED_POINT = """
import json, resource, sys, time
from repro.sim.city import downtown_grid, run_sharded
size, seed, duration_s, workers = json.loads(sys.argv[1])
mesh = downtown_grid(size, size, rng=seed, rate_per_s=0.3)
t0 = time.perf_counter()
result = run_sharded(mesh, duration_s, workers=workers)
wall_s = time.perf_counter() - t0
with open("/proc/self/status") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "workers": workers,
    "wall_s": wall_s,
    "queries_sent": result.queries_sent,
    "parent_peak_rss_mb": hwm_kib / 1024.0,
    "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
}))
"""


#: The run-length ladder: the e2e ``mainline_40s`` world run for each
#: length, and the soak length that runs at full scale only.
RUN_LENGTHS_S = (40.0, 80.0, 160.0)
SOAK_S = 900.0
#: Gates: the longest ladder point's peak within this of the shortest's,
#: and its held air records / pool windows within this factor.
RUN_LENGTH_PEAK_SLACK_MB = 10.0
RUN_LENGTH_HELD_FACTOR = 2.0

#: One run-length point in a fresh interpreter; prints its measurements
#: as JSON. The world mirrors ``benchmarks/e2e``'s ``mainline_40s``
#: (billing events are not kept; the checks need only the totals).
#: Held history is read as each corridor finishes, just before its last
#: settle empties the air log and the pool.
_RUN_LENGTH_POINT = """
import json, sys, time
from repro.apps.tolling import TollingService
from repro.sim.city import BackhaulConfig, CityCorridor, CityMesh
from repro.sim.traffic import TrafficLight
seed, duration_s, n_poles, through, rate = json.loads(sys.argv[1])
held = {"air_records": 0, "pool_windows": 0, "bank_rows": 0}
finish = CityCorridor.finish
def counted_finish(corridor):
    held["air_records"] += len(corridor.air.transmissions)
    held["pool_windows"] += len(corridor.pool)
    banks = {id(s.source.bank): s.source.bank for s in corridor.stations}
    held["bank_rows"] += sum(len(bank) for bank in banks.values())
    return finish(corridor)
CityCorridor.finish = counted_finish
mesh = CityMesh(
    rng=seed, handoff="push",
    backhaul=BackhaulConfig(policy="scheduled", sync_period_s=1.0),
)
mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
mesh.add_node("v", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0, offset_s=3.0))
mesh.add_edge("A", dst="u", n_poles=n_poles)
mesh.add_edge("B", src="u", dst="v", n_poles=n_poles)
mesh.add_edge("C", src="v", n_poles=n_poles)
mesh.add_traffic(
    [(("A", "B", "C"), through), (("A", "B"), 1.0 - through)],
    rate_per_s=rate, speed_range_m_s=(10.0, 16.0),
)
service = TollingService(policy="as-sighted", max_lag_s=10.0 * duration_s)
mesh.add_sighting_tap(service)
t0 = time.perf_counter()
result = mesh.run(duration_s)
wall_s = time.perf_counter() - t0
billing = service.finish()
failures = []
for check in (service.check_consistent, mesh.directory.check_consistent):
    try:
        check()
    except Exception as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
items = result.backhaul["items"]
if items["delivered"] != items["submitted"]:
    failures.append(f"backhaul delivered {items['delivered']} of {items['submitted']}")
if billing["charged"] != billing["toll_events"]:
    failures.append(f"charged {billing['charged']} of {billing['toll_events']} tolls")
for name, edge in result.edges.items():
    for field in ("corrupted_responses", "burst_corruption_undercount",
                  "overheard_corrupted_posthoc"):
        if getattr(edge, field):
            failures.append(f"edge {name}: {field} = {getattr(edge, field)}")
with open("/proc/self/status") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "duration_s": duration_s,
    "reads": sum(e.rounds - e.empty_rounds for e in result.edges.values()),
    "wall_s": wall_s,
    "peak_rss_mb": hwm_kib / 1024.0,
    "held": held,
    "toll_events": billing["toll_events"],
    "directory": result.directory,
    "failures": failures,
}))
"""


def build_mesh(handoff: str) -> CityMesh:
    mesh = CityMesh(rng=MESH_SEED, handoff=handoff)
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_node(
        "v", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0, offset_s=3.0)
    )
    mesh.add_edge("A", dst="u", n_poles=N_POLES_PER_EDGE)
    mesh.add_edge("B", src="u", dst="v", n_poles=N_POLES_PER_EDGE)
    mesh.add_edge("C", src="v", n_poles=N_POLES_PER_EDGE)
    mesh.add_traffic(
        [
            (("A", "B", "C"), THROUGH_WEIGHT),
            (("A", "B"), 1.0 - THROUGH_WEIGHT),
        ],
        rate_per_s=ARRIVAL_RATE_PER_S,
        speed_range_m_s=(10.0, 16.0),
    )
    return mesh


def _measured_grid_run(duration_s: float):
    """One in-process sharded run of the downtown grid with per-group
    compute *measured* by wrapping ``_ShardGroup.advance`` in bench-layer
    wall-clock timing (the determinism checker keeps the clock out of
    the library, so shard profiling lives here). Returns the result,
    per-group seconds keyed like ``events_processed``, and the total
    wall seconds of the run (build excluded)."""
    per_group_s: dict[str, float] = {}
    original = _parallel._ShardGroup.advance

    def timed_advance(self, t_s, intents):
        t0 = time.perf_counter()
        try:
            return original(self, t_s, intents)
        finally:
            dt = time.perf_counter() - t0
            per_group_s[self.key] = per_group_s.get(self.key, 0.0) + dt

    mesh = downtown_grid(
        GRID_ROWS, GRID_COLS, rng=MESH_SEED, rate_per_s=GRID_RATE_PER_S
    )
    _parallel._ShardGroup.advance = timed_advance
    t0 = time.perf_counter()
    try:
        result = run_sharded(mesh, duration_s, workers=1, in_process=True)
    finally:
        _parallel._ShardGroup.advance = original
    total_s = time.perf_counter() - t0
    return result, per_group_s, total_s


def _modeled_makespan(
    group_keys: list[str],
    per_group_s: dict[str, float],
    coordinator_s: float,
    workers: int,
) -> float:
    """The engine's own placement, priced with the measured times:
    groups go to workers round-robin (``i % workers``), the coordinator's
    replay/merge stays serial, and the quantum barrier means every
    quantum waits for the slowest worker — for the whole-run model the
    worker loads simply sum."""
    workers = min(workers, len(group_keys))
    loads = [0.0] * workers
    for i, key in enumerate(group_keys):
        loads[i % workers] += per_group_s.get(key, 0.0)
    return coordinator_s + max(loads)


def _forked_grid_point(duration_s: float, workers: int) -> dict:
    """Measure one forked ``run_sharded`` of the 8x8 grid in a fresh
    interpreter (so neither its time nor its memory carries this
    process's state)."""
    src = Path(__file__).resolve().parent.parent / "src"
    args = [FORKED_GRID_SIZE, FORKED_GRID_SEED, duration_s, workers]
    proc = subprocess.run(
        [sys.executable, "-c", _FORKED_POINT, json.dumps(args)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _run_length_point(duration_s: float) -> dict:
    """Run the ``mainline_40s`` world for ``duration_s`` sim-s in a fresh
    interpreter (its peak then carries nothing of this process)."""
    src = Path(__file__).resolve().parent.parent / "src"
    args = [MESH_SEED, duration_s, N_POLES_PER_EDGE, THROUGH_WEIGHT, ARRIVAL_RATE_PER_S]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_LENGTH_POINT, json.dumps(args)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def bench_city_mesh(benchmark, report):
    duration_s = max(20.0, 45.0 * _scale())

    def run_both():
        with timer.phase("mac"):
            return {
                mode: build_mesh(mode).run(duration_s) for mode in ("push", "pull")
            }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    push, pull = results["push"], results["pull"]

    report(
        f"City mesh — 3 corridors x {N_POLES_PER_EDGE} poles, 2 signalized "
        f"intersections, {ARRIVAL_RATE_PER_S:.1f} cars/s Poisson, "
        f"{duration_s:.0f} s, push vs pull handoff"
    )
    report(
        f"{'policy':>6} {'entries':>8} {'resolved':>9} {'redecodes':>10} "
        f"{'rate':>6} {'1st-pole q':>11} {'pushes':>7} {'hits':>5} "
        f"{'misses':>7} {'corrupted':>10}"
    )
    for name, result in (("push", push), ("pull", pull)):
        ledger = result.ledger
        report(
            f"{name:>6} {result.cross_entries:8d} {result.cross_resolved:9d} "
            f"{result.cross_redecodes:10d} "
            f"{100 * result.cross_resolution_rate:5.0f}% "
            f"{result.mean_first_pole_queries:11.2f} "
            f"{ledger.pushes_sent:7d} {ledger.push_hits:5d} "
            f"{len(ledger.push_misses):7d} "
            f"{result.corrupted_responses:10d}"
        )
    report(
        f"predictive push cuts the entered corridor's first-pole cost "
        f"{pull.mean_first_pole_queries:.2f} -> "
        f"{push.mean_first_pole_queries:.2f} decode queries per first "
        f"sighting ({push.cars_transferred} intersection transfers, "
        f"{push.directory['accounts']} directory accounts, "
        f"{push.directory['reports']} sighting reports)"
    )

    # --- full-city scale-out: 100 corridors through the sharded engine ---
    grid_duration_s = max(4.0, 10.0 * _scale())
    with timer.phase("grid"):
        grid, per_group_s, grid_total_s = _measured_grid_run(grid_duration_s)
    group_keys = [g[0] for g in grid.groups]
    shard_s = sum(per_group_s.values())
    coordinator_s = max(0.0, grid_total_s - shard_s)
    curve = []
    for workers in SCALEOUT_WORKER_COUNTS:
        makespan_s = _modeled_makespan(
            group_keys, per_group_s, coordinator_s, workers
        )
        curve.append(
            {
                "workers": workers,
                "makespan_s": makespan_s,
                "queries_per_s": grid.queries_sent / makespan_s,
                "queries_per_s_per_core": grid.queries_sent
                / makespan_s
                / workers,
                "speedup_vs_1": curve[0]["makespan_s"] / makespan_s
                if curve
                else 1.0,
            }
        )

    report(
        f"\nDowntown grid — {GRID_ROWS}x{GRID_COLS} = {len(grid.edges)} "
        f"corridors, {len(grid.groups)} shards (one per edge), "
        f"{grid_duration_s:.0f} s sim, {grid.queries_sent} queries, "
        f"{sum(grid.events_processed.values())} scheduler events"
    )
    report(
        f"measured (1 core, in-process): {grid_total_s:.2f} s wall = "
        f"{shard_s:.2f} s shard compute + {coordinator_s:.2f} s "
        f"coordinator replay/merge; N-worker makespans below are modeled "
        f"from the per-group measurements (round-robin placement, serial "
        f"coordinator)"
    )
    report(
        f"{'workers':>8} {'makespan s':>11} {'queries/s':>10} "
        f"{'q/s/core':>9} {'speedup':>8}"
    )
    for point in curve:
        report(
            f"{point['workers']:8d} {point['makespan_s']:11.2f} "
            f"{point['queries_per_s']:10.0f} "
            f"{point['queries_per_s_per_core']:9.0f} "
            f"{point['speedup_vs_1']:7.2f}x"
        )

    # --- the second core, measured: forked 1- and 2-worker runs ---
    forked_duration_s = max(4.0, 16.0 * _scale())
    with timer.phase("forked"):
        forked = [
            _forked_grid_point(forked_duration_s, workers)
            for workers in FORKED_WORKER_COUNTS
        ]
    report(
        f"\nMeasured forked run_sharded — {FORKED_GRID_SIZE}x{FORKED_GRID_SIZE} "
        f"grid, seed {FORKED_GRID_SEED}, {forked_duration_s:.0f} s sim, each "
        f"point a fresh interpreter ({os.cpu_count()} CPUs; not gated)"
    )
    report(
        f"{'workers':>8} {'wall s':>7} {'speedup':>8} {'parent MB':>10} "
        f"{'worker MB':>10}"
    )
    for point in forked:
        point["speedup_vs_1"] = forked[0]["wall_s"] / point["wall_s"]
        report(
            f"{point['workers']:8d} {point['wall_s']:7.2f} "
            f"{point['speedup_vs_1']:7.2f}x {point['parent_peak_rss_mb']:10.1f} "
            f"{point['worker_peak_rss_mb']:10.1f}"
        )

    # --- run length: memory grows with work done, not with run time ---
    with timer.phase("run_length"):
        ladder = [_run_length_point(d) for d in RUN_LENGTHS_S]
        soak = _run_length_point(SOAK_S) if _scale() >= 1.0 else None
    report(
        "\nRun-length ladder — the mainline_40s world (seed "
        f"{MESH_SEED}), each point a fresh interpreter; held = what the "
        "corridors hold as the run ends"
    )
    report(
        f"{'sim s':>6} {'reads':>6} {'wall s':>7} {'peak MB':>8} "
        f"{'air rec':>8} {'windows':>8} {'rows':>5}"
    )
    for point in ladder + ([soak] if soak else []):
        held = point["held"]
        report(
            f"{point['duration_s']:6.0f} {point['reads']:6d} "
            f"{point['wall_s']:7.2f} {point['peak_rss_mb']:8.1f} "
            f"{held['air_records']:8d} {held['pool_windows']:8d} "
            f"{held['bank_rows']:5d}"
        )

    write_bench_json(
        "city_mesh",
        {
            "n_poles_per_edge": N_POLES_PER_EDGE,
            "through_weight": THROUGH_WEIGHT,
            "arrival_rate_per_s": ARRIVAL_RATE_PER_S,
            "push": push.summary(),
            "pull": pull.summary(),
            "grid_scaleout": {
                "rows": GRID_ROWS,
                "cols": GRID_COLS,
                "n_corridors": len(grid.edges),
                "n_groups": len(grid.groups),
                "duration_s": grid_duration_s,
                "rate_per_s": GRID_RATE_PER_S,
                "mode": "modeled-makespan",
                "cpu_cores": os.cpu_count(),
                "note": (
                    "per-group compute measured on one core in-process; "
                    "N-worker makespan modeled as serial coordinator time "
                    "plus the max round-robin worker load; forked_grid holds "
                    "measured forked points"
                ),
                "measured": {
                    "total_s": grid_total_s,
                    "shard_s": shard_s,
                    "coordinator_s": coordinator_s,
                    "queries_sent": grid.queries_sent,
                    "events_processed": sum(grid.events_processed.values()),
                    "cars_injected": grid.cars_injected,
                },
                "curve": curve,
            },
            "forked_grid": {
                "mode": "measured",
                "rows": FORKED_GRID_SIZE,
                "cols": FORKED_GRID_SIZE,
                "seed": FORKED_GRID_SEED,
                "duration_s": forked_duration_s,
                "cpu_cores": os.cpu_count(),
                "note": (
                    "forked run_sharded wall time and peak resident memory "
                    "(parent VmHWM, largest worker's RUSAGE_CHILDREN maxrss), "
                    "each point a fresh interpreter; recorded, not gated"
                ),
                "points": forked,
            },
            "run_length": {
                "mode": "measured",
                "seed": MESH_SEED,
                "world": "benchmarks/e2e mainline_40s (billing events not kept)",
                "note": (
                    "each point a fresh interpreter: reads are occupied reader "
                    "rounds, peak_rss_mb the process's VmHWM, held what the "
                    "corridors hold just before their final settle; gated: "
                    f"the longest ladder peak within {RUN_LENGTH_PEAK_SLACK_MB:g} "
                    "MB of the shortest, held air records and pool windows "
                    f"within {RUN_LENGTH_HELD_FACTOR:g}x; the soak (full scale "
                    "only) must pass every invariant"
                ),
                "points": ladder,
                "soak": soak,
            },
        },
    )

    # The mesh must actually exercise the boundary machinery before any
    # rate is meaningful.
    assert push.cross_entries >= 5, "too few cross-corridor entries to gate on"
    assert push.cars_transferred > 0
    # Gate 1: cross-corridor handoff resolution beats 50% under push.
    assert push.cross_resolution_rate > 0.5, (
        "most cross-corridor entries must resolve without a re-decode, got "
        f"{push.cross_resolution_rate:.2f}"
    )
    # Gate 2: push strictly lowers first-pole first-sighting decode cost.
    assert push.first_pole_queries and pull.first_pole_queries
    assert (
        push.mean_first_pole_queries < pull.mean_first_pole_queries
    ), (
        "predictive push must beat pull-at-sighting at the entered "
        f"corridor's first pole: push {push.mean_first_pole_queries:.2f} vs "
        f"pull {pull.mean_first_pole_queries:.2f}"
    )
    # Gate 3: a clean street under CSMA, mesh-wide, both policies.
    assert push.corrupted_responses == 0
    assert pull.corrupted_responses == 0
    # The directory's bounds never tripped mid-run consistency checks.
    assert push.directory["reports"] > 0
    # Gate 4: the sharded engine's modeled scale-out is real — 4 workers
    # buy at least 2x the single-worker throughput on the 100-corridor
    # grid (the partition is ~100 near-equal groups, so anything less
    # would mean the serial coordinator dominates).
    by_workers = {point["workers"]: point for point in curve}
    gate_speedup = by_workers[SCALEOUT_GATE_WORKERS]["speedup_vs_1"]
    assert gate_speedup >= SCALEOUT_GATE_SPEEDUP, (
        f"{SCALEOUT_GATE_WORKERS} workers must model >= "
        f"{SCALEOUT_GATE_SPEEDUP}x throughput vs 1, got {gate_speedup:.2f}x"
    )
    assert grid.corrupted_responses == 0
    # Gate 5: run length. The longest ladder run peaks within the slack
    # of the shortest, and holds at most twice its air records and pool
    # windows; the soak keeps every invariant.
    short, long = ladder[0], ladder[-1]
    assert long["peak_rss_mb"] <= short["peak_rss_mb"] + RUN_LENGTH_PEAK_SLACK_MB, (
        f"{long['duration_s']:.0f} s run peaked at {long['peak_rss_mb']:.1f} MB, "
        f"{short['duration_s']:.0f} s run at {short['peak_rss_mb']:.1f} MB"
    )
    for kind in ("air_records", "pool_windows"):
        assert long["held"][kind] <= RUN_LENGTH_HELD_FACTOR * short["held"][kind], (
            f"held {kind} grew {short['held'][kind]} -> {long['held'][kind]}"
        )
    for point in ladder + ([soak] if soak else []):
        assert not point["failures"], point["failures"]
