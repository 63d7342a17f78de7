"""End-to-end city benchmark: four workloads, one command.

One measurement (the last stdout line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload mainline_40s --seed 2026 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (and writes a Chrome trace to
``benchmarks/results/e2e_trace_<workload>.json``). Run the report form
(no ``--trace``) to get medians and quartiles over ``--repeat`` fresh
processes plus one traced run per workload::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--repeat 3]

BLAS threads are pinned to one before numpy loads, and the checkout's
``src/`` is put on the import path, so no environment is needed. Metric
names, units and bounds live in ``BENCHMARK.json`` at the repo root;
``benchmarks/e2e/README.md`` explains them.
"""

from __future__ import annotations

import os

# One BLAS thread: the measured cost is the simulator's, not a thread
# pool's, and one benchmark process stays one busy core.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parents[1] != SRC:
    raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")

from layers import LAYER_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Episode  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / "benchmarks" / "results"
SWEEP_ENTRY = "repro.sim.medium:AirLog.corrupted_responses"

#: Per-layer metrics besides ``<layer>.self_s|share|calls``: name ->
#: (unit, better, source). ``counter`` values are seeded work counts
#: from public results; ``stat`` values are seeded model outputs;
#: ``trace`` values exist only in a traced run.
EXTRA_LAYER_METRICS = {
    "sim.city.corridor.rounds": ("count", "higher", "counter"),
    "sim.city.corridor.occupied_rounds": ("count", "higher", "counter"),
    "sim.medium.transmissions": ("count", "lower", "counter"),
    "sim.medium.scan_pairs": ("count", "lower", "trace"),
    "sim.medium.sweep_s": ("s", "lower", "trace"),
    "core.counting.tags_per_count": ("tags/call", "higher", "trace"),
    "core.mac.defer_ratio": ("ratio", "lower", "counter"),
    "sim.city.pool.donated_per_harvested": ("ratio", "higher", "counter"),
    "core.decoding.queries_spent": ("count", "lower", "counter"),
    "core.decoding.identification_delay_p50_sim_s": ("sim_s", "lower", "stat"),
    "core.decoding.queries_per_identification": ("queries", "lower", "stat"),
    "sim.city.mesh.push_hit_rate": ("ratio", "higher", "stat"),
    "sim.city.parallel.groups": ("count", "higher", "counter"),
    "sim.city.backhaul.items": ("count", "higher", "counter"),
    "sim.city.backhaul.sync_lag_p50_sim_s": ("sim_s", "lower", "counter"),
    "sim.city.directory.resolve_hit_rate": ("ratio", "higher", "counter"),
    "apps.tolling.events_per_read": ("ratio", "lower", "counter"),
    "apps.tolling.dedup_peak_entries": ("count", "lower", "counter"),
    "apps.tolling.store_evictions": ("count", "lower", "counter"),
    "apps.tolling.latency_p50_sim_s": ("sim_s", "lower", "stat"),
    "apps.tolling.latency_tail_sim_s": ("sim_s", "lower", "stat"),
    "apps.tolling.air_queries_per_toll": ("queries", "lower", "stat"),
    "trace.overhead_share": ("ratio", "lower", "trace"),
}

#: Seeded stats -> the per-layer metric that carries them.
STAT_METRICS = {
    "core.decoding.identification_delay_p50_sim_s": "identification_delay_p50_sim_s",
    "core.decoding.queries_per_identification": "queries_per_identification",
    "sim.city.mesh.push_hit_rate": "push_hit_rate",
    "apps.tolling.latency_p50_sim_s": "billing_latency_p50_sim_s",
    "apps.tolling.latency_tail_sim_s": "billing_latency_tail_sim_s",
    "apps.tolling.air_queries_per_toll": "air_queries_per_toll",
}

END_TO_END_UNITS = {"reads_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    spec = {}
    for layer in LAYER_NAMES:
        spec[f"{layer}.self_s"] = ("s", "lower")
        spec[f"{layer}.share"] = ("ratio", "lower")
        spec[f"{layer}.calls"] = ("count", "lower")
    for name, (unit, better, _) in EXTRA_LAYER_METRICS.items():
        spec[name] = (unit, better)
    return spec


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


class Clock:
    """Sums the wall time spent inside ``measure`` calls."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def measure(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.root(fn, *args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def build_timed(workload, seed: int, size: str, setup_s: list[float]):
    start = time.perf_counter()
    world = workload.build(seed, size)
    setup_s.append(time.perf_counter() - start)
    return world


def run_episode(workload, world, tracer: Tracer | None = None, in_process=False):
    clock = Clock(tracer)
    episode = workload.run(world, clock.measure, traced=tracer is not None or in_process)
    episode.measured_s = clock.seconds
    return episode


def scan_pairs(air_logs) -> int:
    """Overlap tests the corruption sweep makes: for each response, the
    queries that start before it ends (computed after the run)."""
    total = 0
    for air in air_logs:
        starts = sorted(q.start_s for q in air.queries())
        total += sum(
            bisect.bisect_left(starts, r.end_s) for r in air.responses()
        )
    return total


def measure(workload, seed: int, seconds: float, trace: bool, size: str = "full",
            trace_path: Path | None = None) -> dict:
    """One benchmark run of ``workload`` in this process.

    Builds the world ``setup_builds`` times (set-up time is their
    median), then runs it. Untraced, episodes repeat while the next one
    still fits in ``seconds``; every repeat must reproduce the first
    episode's digest. Traced, one untraced reference episode is followed
    by one traced episode, which must match it. Returns the result
    object the command prints, plus a ``details`` entry.
    """
    failures: list[str] = []
    setup_s: list[float] = []
    world = None
    for _ in range(workload.setup_builds):
        world = None
        gc.collect()
        world = build_timed(workload, seed, size, setup_s)

    episodes: list[Episode] = []
    tracer = None
    if not trace:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            episodes.append(run_episode(workload, world))
            world = None
            gc.collect()
            last_s = time.perf_counter() - t0
            if time.perf_counter() - start + last_s > seconds:
                break
            world = build_timed(workload, seed, size, setup_s)
    else:
        # The reference runs in-process too, so the two passes differ
        # only by the wrappers.
        episodes.append(run_episode(workload, world, in_process=True))
        world = None
        gc.collect()
        world = build_timed(workload, seed, size, setup_s)
        with Tracer(workload.request_layer, workload.record_every) as tracer:
            episodes.append(run_episode(workload, world, tracer))
        world = None

    first = episodes[0]
    digests = [episode.digest() for episode in episodes]
    if len(set(digests)) != 1:
        failures.append(f"seeded outputs differ between repeated episodes: {digests}")
    for episode in episodes:
        failures.extend(episode.failures)

    attempted = sum(episode.ops for episode in episodes)
    failed = sum(episode.failed for episode in episodes)
    details = {
        "workload": workload.name,
        "seed": seed,
        "episodes": len(episodes),
        "digest": digests[0],
        "setup_s": setup_s,
        "measured_s": [episode.measured_s for episode in episodes],
        "sim_s": first.sim_s,
        "reads": first.reads,
        "sim_s_per_wall_s": statistics.median(
            episode.sim_s / episode.measured_s for episode in episodes
        ),
        "stats": first.stats,
        "counters": first.counters,
        "failures": failures,
    }
    if not trace:
        metrics = {
            "reads_per_s": statistics.median(
                episode.reads / episode.measured_s for episode in episodes
            ),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        }
    else:
        traced = episodes[1]
        tracer.check_sums()
        values = {}
        for layer, row in tracer.layer_table().items():
            for key, value in row.items():
                values[f"{layer}.{key}"] = value
        for name, (_, _, source) in EXTRA_LAYER_METRICS.items():
            if source == "counter":
                values[name] = traced.counters.get(name, 0)
        for name, stat in STAT_METRICS.items():
            values[name] = traced.stats.get(stat, 0.0)
        values["sim.medium.scan_pairs"] = scan_pairs(tracer.air_logs.values())
        values["sim.medium.sweep_s"] = tracer.entry_self(SWEEP_ENTRY)
        counted = tracer.calls[LAYER_NAMES.index("core.counting")]
        values["core.counting.tags_per_count"] = (
            tracer.tags_counted / counted if counted else 0.0
        )
        values["trace.overhead_share"] = traced.measured_s / first.measured_s - 1.0
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in per_layer_spec().items()
        }
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(tracer.chrome_trace()))
            details["trace_file"] = str(trace_path)
        details["layers"] = tracer.layer_table()
        details["root_s"] = tracer.root_s
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


# -- command line -------------------------------------------------------------


def single_run(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    trace = bool(args.trace)
    trace_path = TRACE_DIR / f"e2e_trace_{workload.name}.json" if trace else None
    try:
        result = measure(workload, seed, args.seconds, trace, trace_path=trace_path)
    except Exception as exc:  # a run that raises fails all of its ops
        traceback.print_exc()
        result = {
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "metrics": {},
            "details": {"workload": workload.name, "seed": seed,
                        "failures": [f"{type(exc).__name__}: {exc}"]},
        }
    details = result.pop("details")
    print_details(details)
    print("e2e-details " + json.dumps(details, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def print_details(details: dict) -> None:
    print(f"workload {details['workload']} seed {details['seed']}")
    for failure in details.get("failures", []):
        print(f"  FAILED CHECK: {failure}")
    if "digest" not in details:
        return
    print(f"  episodes {details['episodes']}, seeded-summary sha256 {details['digest']}")
    print(f"  sim {details['sim_s']:.1f} s, {details['sim_s_per_wall_s']:.3f} sim-s/wall-s")
    for name, value in details["stats"].items():
        print(f"  {name} = {value}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(args) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        runs = [run_child(name, seed, seconds, 0) for _ in range(args.repeat)]
        traced = run_child(name, seed, seconds, 1)
        digests = {run["details"].get("digest") for run in runs + [traced]}
        same = len(digests) == 1
        ok &= same and all(run["result"]["correct"] for run in runs + [traced])
        first = runs[0]["details"]
        print(f"\n== {name} (seed {seed}, {args.repeat} runs + 1 traced) ==")
        print(f"   why: {workload.why}")
        print(f"   seeded-summary sha256 {first.get('digest')} "
              f"({'identical' if same else 'DIFFERS'} across runs and the traced run)")
        print(f"   {'metric':<18} {'unit':<6} {'better':<7} {'bound':>6} "
              f"{'median':>11} {'q1':>11} {'q3':>11}")
        for metric, spec_row in bounds.items():
            values = [run["result"]["metrics"][metric]["value"] for run in runs
                      if run["result"]["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            print(f"   {metric:<18} {spec_row['unit']:<6} {spec_row['better']:<7} "
                  f"{spec_row['bound']:>6.0%} {med:>11.4f} {q1:>11.4f} {q3:>11.4f}")
        sim_rates = [run["details"]["sim_s_per_wall_s"] for run in runs
                     if "sim_s_per_wall_s" in run["details"]]
        if sim_rates:
            print(f"   {'sim_s_per_wall_s':<18} (unbounded) median "
                  f"{statistics.median(sim_rates):.4f}")
        for stat, value in first.get("stats", {}).items():
            print(f"   {stat} = {value}")
        layers = traced["details"].get("layers", {})
        if layers:
            overhead = traced["result"]["metrics"]["trace.overhead_share"]["value"]
            print(f"   traced run: per-layer self time (overhead {overhead:+.1%})")
            for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
                if row["calls"]:
                    print(f"     {layer:<20} {row['self_s']:9.3f} s {row['share']:7.1%} "
                          f"{row['calls']:>9} calls")
        for run in runs + [traced]:
            for failure in run["details"].get("failures", []):
                print(f"   FAILED CHECK: {failure}")
    return 0 if ok else 1


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One measurement in a fresh interpreter; returns its parsed output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    details = {}
    for line in lines:
        if line.startswith("e2e-details "):
            details = json.loads(line[len("e2e-details "):])
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name}: benchmark child failed ({proc.returncode})")
    return {"result": json.loads(lines[-1]), "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="measurement budget per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measurement: 0 end-to-end metrics, 1 per-layer")
    parser.add_argument("--repeat", type=int, default=3,
                        help="report form: untraced runs per workload")
    args = parser.parse_args(argv)
    if args.trace is None:
        return report(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
