"""The four end-to-end workloads: one seeded world each, built and run.

Every workload is a batch job: :meth:`Workload.build` makes one world
from a seed (timed as set-up), :meth:`Workload.run` runs it to
completion and returns an :class:`Episode`. ``run`` takes a ``measure``
callable and routes exactly the measured region through it — the whole
engine call on the radio workloads, only the ingest of each pre-made
chunk on the billing replay (the read generator stays outside the
clock). Everything an episode reports apart from wall time is a pure
function of the seed.

Each episode checks the program's own invariants after its run and
records every violation in :attr:`Episode.failures`; the caller turns a
non-empty list into ``correct: false``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

from repro.apps.tolling import (
    DirectoryBackend,
    ShardedAccountStore,
    TollingService,
    synthetic_reads,
)
from repro.apps.tolling.events import PENDING
from repro.errors import ConfigurationError
from repro.sim.city import (
    BackhaulConfig,
    CityCorridor,
    CityMesh,
    IdentityDirectory,
    downtown_grid,
)
from repro.sim.city import parallel
from repro.sim.city.handoff import DECODE, DECODE_FAILED, REDECODE
from repro.sim.scenario import city_corridor_scene
from repro.sim.traffic import TrafficLight

#: Percentiles a tail latency may be reported at; the highest one with at
#: least :data:`TAIL_MIN_BEYOND` samples beyond it is used.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def percentiles(values) -> dict:
    """Nearest-rank median and tail of ``values``, with the sample count
    and which percentile the tail is."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_pct": 50.0, "tail": 0.0}

    def rank(pct: float) -> int:
        return max(1, math.ceil(pct * n / 100.0))

    tail_pct = 50.0
    for pct in TAIL_LADDER:
        if n - rank(pct) >= TAIL_MIN_BEYOND:
            tail_pct = pct
    return {
        "n": n,
        "p50": xs[rank(50.0) - 1],
        "tail_pct": tail_pct,
        "tail": xs[rank(tail_pct) - 1],
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Episode:
    """What one run of one world produced.

    Attributes:
        sim_s: simulated seconds the measured region covered.
        reads: the work unit the throughput metric divides by. On the
            radio workloads a read is an occupied reader round — a query
            round that heard at least one tag, so it ran the §5 count,
            §6 AoA and identity resolution; on the billing replay it is
            one ingested sighting read.
        ops: operations attempted — toll events on the billing-bearing
            workloads, decode attempts on the corridor.
        failed: operations whose outcome broke a check.
        failures: every violated invariant, as a message.
        stats: seeded model outputs (latencies, air cost, rates).
        counters: deterministic work counters from public results, by
            per-layer metric name; a counter that does not apply to the
            workload is absent (reported as 0).
        summary: the seeded summary the digest is taken over.
        measured_s: wall seconds inside ``measure`` (filled by the caller).
    """

    sim_s: float
    reads: int
    ops: int
    failed: int
    failures: list[str]
    stats: dict
    counters: dict
    summary: dict
    measured_s: float = 0.0

    def digest(self) -> str:
        """sha256 over everything seeded: stats, counters and summary."""
        blob = json.dumps(
            {"stats": self.stats, "counters": self.counters, "summary": self.summary},
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``--workload`` takes (and BENCHMARK.json lists).
        why: the one-line reason the workload exists.
        default_seed: the seed used when none is given.
        request_layer: layer whose top-level calls start a new request
            in the trace.
        record_every: record the spans of one request in this many
            (caps the trace file; totals still count every call).
        setup_builds: how many times a run builds the world before
            measuring (set-up time is the median).
        builder / runner: ``builder(seed, **size) -> world`` and
            ``runner(world, measure, traced) -> Episode``.
        sizes: ``"full"`` for the benchmark, ``"smoke"`` for the test.
    """

    name: str
    why: str
    default_seed: int
    request_layer: str
    record_every: int
    setup_builds: int
    builder: object
    runner: object
    sizes: dict

    def build(self, seed: int, size: str = "full"):
        return self.builder(seed, **self.sizes[size])

    def run(self, world, measure, traced: bool = False) -> Episode:
        return self.runner(world, measure, traced)


class LagProbe:
    """A sighting tap that keeps each batched read's backhaul lag."""

    def __init__(self) -> None:
        self.lags_s: list[float] = []

    def __call__(self, t_s, *args, delivered_s=None, **kwargs) -> None:
        if delivered_s is not None:
            self.lags_s.append(delivered_s - t_s)


# -- shared checks ------------------------------------------------------------


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _checked_call(failures: list[str], fn) -> None:
    """Run a library invariant check; record the violation it names."""
    try:
        fn()
    except ConfigurationError as exc:
        failures.append(str(exc))


def _billing_stats(summary: dict, latencies) -> dict:
    lat = percentiles(latencies)
    return {
        "toll_events": summary["toll_events"],
        "billing_latency_p50_sim_s": lat["p50"],
        "billing_latency_tail_sim_s": lat["tail"],
        "billing_latency_tail_pct": lat["tail_pct"],
        "billing_latency_n": lat["n"],
        "air_queries_per_toll": ratio(summary["air_queries_total"], summary["toll_events"]),
    }


def _tolling_counters(summary: dict) -> dict:
    return {
        "apps.tolling.events_per_read": ratio(summary["toll_events"], summary["reads"]),
        "apps.tolling.dedup_peak_entries": summary["dedup"]["peak_entries"],
        "apps.tolling.store_evictions": summary["accounts"]["evictions"],
    }


def _radio_counters(result, ledger: dict) -> dict:
    """Counters every radio workload reports from its public result."""
    edges = list(result.edges.values()) if hasattr(result, "edges") else [result]
    sent = sum(e.queries_sent for e in edges)
    deferred = sum(e.queries_deferred for e in edges)
    harvested = sum(e.overheard_harvested for e in edges)
    donated = sum(e.overheard_donated for e in edges)
    rounds = sum(e.rounds for e in edges)
    return {
        "sim.city.corridor.rounds": rounds,
        "sim.city.corridor.occupied_rounds": rounds - sum(e.empty_rounds for e in edges),
        "sim.medium.transmissions": sent + result.responses,
        "core.mac.defer_ratio": ratio(deferred, sent + deferred),
        "sim.city.pool.donated_per_harvested": ratio(donated, harvested),
        "core.decoding.queries_spent": ledger["decode_queries_spent"],
    }


# -- mainline: the flagship 3-corridor mesh -----------------------------------


def _build_mainline(seed: int, *, duration_s: float, rate_per_s: float):
    mesh = CityMesh(
        rng=seed,
        handoff="push",
        backhaul=BackhaulConfig(policy="scheduled", sync_period_s=1.0),
    )
    mesh.add_node("u", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0))
    mesh.add_node(
        "v", light=TrafficLight(green_s=8.0, yellow_s=1.0, red_s=4.0, offset_s=3.0)
    )
    mesh.add_edge("A", dst="u", n_poles=3)
    mesh.add_edge("B", src="u", dst="v", n_poles=3)
    mesh.add_edge("C", src="v", n_poles=3)
    mesh.add_traffic(
        [(("A", "B", "C"), 0.8), (("A", "B"), 0.2)],
        rate_per_s=rate_per_s,
        speed_range_m_s=(10.0, 16.0),
    )
    # The lag allowance covers any sync lag, the final flush included.
    service = TollingService(
        policy="as-sighted", max_lag_s=10.0 * duration_s, keep_events=True
    )
    mesh.add_sighting_tap(service)
    probe = LagProbe()
    mesh.add_sighting_tap(probe)
    return {"mesh": mesh, "service": service, "probe": probe, "duration_s": duration_s}


def _run_mainline(world, measure, traced: bool) -> Episode:
    mesh, service = world["mesh"], world["service"]
    result = measure(mesh.run, world["duration_s"])
    return _mesh_episode(mesh, service, result, world["probe"].lags_s)


def _mesh_episode(mesh, service, result, lags_s) -> Episode:
    failures: list[str] = []
    billing = service.finish()
    ledger = result.ledger.summary()
    _checked_call(failures, service.check_consistent)
    _checked_call(failures, mesh.directory.check_consistent)
    backhaul = result.backhaul or {}
    items = backhaul.get("items", {"submitted": 0, "delivered": 0})
    _check(
        failures,
        items["delivered"] == items["submitted"],
        f"backhaul delivered {items['delivered']} of {items['submitted']} items",
    )
    _check(
        failures,
        billing["charged"] == billing["toll_events"],
        f"completeness {billing['charged']}/{billing['toll_events']} after the final flush",
    )
    _check(
        failures,
        result.corrupted_responses == 0,
        f"{result.corrupted_responses} corrupted responses under CSMA",
    )
    directory = result.directory
    stats = _billing_stats(billing, [event.latency_s for event in service.events])
    stats["push_hit_rate"] = ratio(ledger["push_hits"], ledger["pushes_sent"])
    stats["cross_resolution_rate"] = result.cross_resolution_rate
    lag = percentiles(lags_s)
    counters = {
        **_radio_counters(result, ledger),
        "sim.city.parallel.groups": len(getattr(result, "groups", ())),
        "sim.city.backhaul.items": items["delivered"],
        "sim.city.backhaul.sync_lag_p50_sim_s": lag["p50"],
        "sim.city.directory.resolve_hit_rate": ratio(
            directory["hits"], directory["hits"] + directory["misses"]
        ),
        **_tolling_counters(billing),
    }
    summary = result.summary()
    summary.pop("edges")  # per-edge detail repeats the totals
    return Episode(
        sim_s=result.duration_s,
        reads=counters["sim.city.corridor.occupied_rounds"],
        ops=billing["toll_events"],
        failed=billing["toll_events"] - billing["charged"],
        failures=failures,
        stats=stats,
        counters=counters,
        summary={"mesh": summary, "billing": billing},
    )


# -- corridor_dense: one crowded street, no identity plane --------------------


LANES_M = (-1.75, -5.25)


#: The corridor's car stream (entry times, speeds, lanes, transponders)
#: is drawn from this fixed seed, so every run sees the same traffic;
#: ``--seed`` drives the radio side (noise, query jitter, decoding).
#: Cost on this street follows collision density, which a reseeded
#: stream would swing by a fifth from run to run.
CORRIDOR_TRAFFIC_SEED = 2025


def _build_corridor(seed: int, *, duration_s: float, n_cars: int):
    scene, trajectories = city_corridor_scene(
        n_poles=8,
        pole_spacing_m=25.0,
        lane_ys_m=LANES_M,
        n_cars=n_cars,
        entry="stream",
        entry_window_s=0.75 * duration_s,
        rng=CORRIDOR_TRAFFIC_SEED,
    )
    corridor = CityCorridor.build(
        scene,
        trajectories,
        lane_ys_m=LANES_M,
        rng=seed,
        scheduling="event",
        max_queries=32,
        opportunistic="accept",
    )
    return {"corridor": corridor, "duration_s": duration_s}


def _run_corridor(world, measure, traced: bool) -> Episode:
    result = measure(world["corridor"].run, world["duration_s"])
    failures: list[str] = []
    ledger = result.ledger.summary()
    counts = ledger["counts"]
    attempts = sum(counts.get(kind, 0) for kind in (DECODE, REDECODE, DECODE_FAILED))
    corrupted_evidence = result.burst_corrupted_posthoc + result.overheard_corrupted_posthoc
    _check(
        failures,
        result.corrupted_responses == 0,
        f"{result.corrupted_responses} corrupted responses under CSMA",
    )
    _check(
        failures,
        result.burst_corruption_undercount == 0,
        f"{result.burst_corruption_undercount} corrupted burst captures missed at synthesis",
    )
    _check(
        failures,
        corrupted_evidence == 0,
        f"{corrupted_evidence} decode captures built on corrupted evidence",
    )
    delay = percentiles(s.delay_s for s in result.identifications)
    stats = {
        "identified": result.identified,
        "decode_failed": counts.get(DECODE_FAILED, 0),
        "identification_delay_p50_sim_s": delay["p50"],
        "identification_delay_tail_sim_s": delay["tail"],
        "identification_delay_tail_pct": delay["tail_pct"],
        "queries_per_identification": ratio(
            sum(s.n_queries for s in result.identifications), result.identified
        ),
    }
    counters = _radio_counters(result, ledger)
    return Episode(
        sim_s=result.duration_s,
        reads=counters["sim.city.corridor.occupied_rounds"],
        ops=attempts,
        failed=min(attempts, corrupted_evidence),
        failures=failures,
        stats=stats,
        counters=counters,
        summary=result.summary(),
    )


# -- grid_sharded: the scale-out engine over a downtown grid ------------------


def _build_grid(seed: int, *, duration_s: float, rows: int, cols: int):
    mesh = downtown_grid(rows, cols, rng=seed, rate_per_s=0.3)
    service = TollingService(policy="as-sighted", keep_events=True)
    mesh.add_sighting_tap(service)
    return {"mesh": mesh, "service": service, "duration_s": duration_s}


def _run_grid(world, measure, traced: bool) -> Episode:
    mesh, service = world["mesh"], world["service"]
    # A forked worker would not see the tracer's wrappers; the in-process
    # host runs the identical protocol (worker-count invariance).
    result = measure(
        parallel.run_sharded, mesh, world["duration_s"], workers=1, in_process=traced
    )
    return _mesh_episode(mesh, service, result, [])


# -- billing_replay: the billing plane with no radio --------------------------


#: Account k's fingerprint is ``k * CFO_SPACING_HZ`` (the replay's own
#: default), so the seeded directory matches the stream exactly.
CFO_SPACING_HZ = 200.0
CHUNK_READS = 50_000


def _build_billing(seed: int, *, n_accounts: int, n_crossings: int):
    directory = IdentityDirectory(
        tolerance_hz=CFO_SPACING_HZ / 4.0, max_entries=n_accounts, max_age_s=1e9
    )
    # Ascending-CFO seeding keeps the index inserts append-only.
    for account in range(n_accounts):
        directory.report(
            account, account * CFO_SPACING_HZ, "seed", "seed", 0.0, 0.0,
            localized=False,
        )
    service = TollingService(
        policy="pull",
        backend=DirectoryBackend(directory, latency_rounds=5),
        accounts=ShardedAccountStore(n_shards=16, max_active_per_shard=8192),
        # Kept events are drained per chunk below, so memory stays flat.
        keep_events=True,
    )
    reads = synthetic_reads(
        n_accounts,
        n_crossings,
        rate_per_s=200.0,
        cfo_spacing_hz=CFO_SPACING_HZ,
        rng=seed,
    )
    return {"directory": directory, "service": service, "reads": reads}


def _ingest(ingest, chunk) -> None:
    for read in chunk:
        ingest(read)


def _run_billing(world, measure, traced: bool) -> Episode:
    service, directory = world["service"], world["directory"]
    reads = world["reads"]
    window_s = service.dedup.window_s
    opened: deque = deque()
    latencies: list[float] = []
    # Independent dedup truth, outside the clock: distinct (tag, zone,
    # window) triples. Reads arrive time-ordered, so one window's set is
    # complete once a read lands in a later window.
    truth = 0
    window_keys: set = set()
    current_window = None
    last_t_s = 0.0
    n_reads = 0
    while True:
        chunk = list(itertools.islice(reads, CHUNK_READS))
        if not chunk:
            break
        measure(_ingest, service.ingest, chunk)
        n_reads += len(chunk)
        for read in chunk:
            index = int(read.t_s // window_s)
            if index != current_window:
                truth += len(window_keys)
                window_keys = set()
                current_window = index
            window_keys.add((read.tag_id, read.zone))
        last_t_s = chunk[-1].t_s
        opened.extend(service.events)
        service.events.clear()
        while opened and opened[0].status != PENDING:
            latencies.append(opened.popleft().latency_s)
    truth += len(window_keys)
    summary = service.finish()
    latencies.extend(event.latency_s for event in opened)

    failures: list[str] = []
    _checked_call(failures, service.check_consistent)
    _check(
        failures,
        summary["toll_events"] == truth,
        f"dedup admitted {summary['toll_events']} events, reference count is {truth}",
    )
    _check(
        failures,
        summary["charged"] == summary["toll_events"],
        f"completeness {summary['charged']}/{summary['toll_events']}",
    )
    _check(failures, summary["misattributed"] == 0, "pull charged the wrong account")
    store = summary["accounts"]
    cap = service.accounts.n_shards * service.accounts.max_active_per_shard
    _check(
        failures,
        store["peak_active"] <= cap,
        f"account store peaked at {store['peak_active']} rows, cap {cap}",
    )
    _check(failures, len(latencies) == summary["charged"], "a charge went unobserved")
    stats = _billing_stats(summary, latencies)
    stats["pull_fallbacks"] = summary["pull_fallbacks"]
    dir_summary = directory.summary()
    counters = {
        "sim.city.directory.resolve_hit_rate": ratio(
            dir_summary["hits"], dir_summary["hits"] + dir_summary["misses"]
        ),
        **_tolling_counters(summary),
    }
    return Episode(
        sim_s=last_t_s,
        reads=n_reads,
        ops=summary["toll_events"],
        failed=summary["toll_events"] - summary["charged"],
        failures=failures,
        stats=stats,
        counters=counters,
        summary={"billing": summary, "directory": dir_summary},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mainline_40s",
            why=(
                "flagship 3-corridor mesh with push handoff, 1 s scheduled "
                "backhaul and a billing tap; its shared air log grows all run"
            ),
            default_seed=2026,
            request_layer="sim.events",
            record_every=4,
            setup_builds=5,
            builder=_build_mainline,
            runner=_run_mainline,
            sizes={
                "full": {"duration_s": 40.0, "rate_per_s": 0.6},
                "smoke": {"duration_s": 3.0, "rate_per_s": 0.6},
            },
        ),
        Workload(
            name="corridor_dense_10s",
            why=(
                "one street, 8 poles at 25 m, 100 streaming cars: big collisions, "
                "heavy CSMA deferral, overheard donation; no directory or billing"
            ),
            default_seed=2025,
            request_layer="sim.events",
            record_every=4,
            setup_builds=5,
            builder=_build_corridor,
            runner=_run_corridor,
            sizes={
                "full": {"duration_s": 10.0, "n_cars": 100},
                "smoke": {"duration_s": 1.5, "n_cars": 12},
            },
        ),
        Workload(
            name="grid_sharded_16s",
            why=(
                "8x8 downtown grid (64 two-pole corridors) with a billing tap "
                "on the sharded engine, one forked worker, 250 ms quanta"
            ),
            default_seed=7,
            request_layer="sim.events",
            record_every=4,
            setup_builds=5,
            builder=_build_grid,
            runner=_run_grid,
            sizes={
                "full": {"duration_s": 16.0, "rows": 8, "cols": 8},
                "smoke": {"duration_s": 3.0, "rows": 2, "cols": 2},
            },
        ),
        Workload(
            name="billing_replay",
            why=(
                "pull billing over a 1M-account directory and an evicting "
                "16x8192-row store, fed synthetic reads; no radio at all"
            ),
            default_seed=2026,
            request_layer="apps.tolling",
            record_every=1000,
            setup_builds=3,
            builder=_build_billing,
            runner=_run_billing,
            sizes={
                "full": {"n_accounts": 1_000_000, "n_crossings": 300_000},
                "smoke": {"n_accounts": 3_000, "n_crossings": 2_000},
            },
        ),
    )
}
