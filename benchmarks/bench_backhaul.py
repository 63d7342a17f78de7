"""Backhaul delivery policy vs billing: the sync-period curve.

One experiment on the 3-corridor main line (the same A -> B -> C mesh
as ``bench_city_mesh``, same seed) with a
:class:`~repro.apps.tolling.TollingService` riding the sighting tap —
run once per backhaul configuration:

* **wired** — the free-uplink anchor and the mesh's default policy.
* **scheduled** at four sync periods — reports and push intents batch
  at each pole and flush on its staggered schedule. The curve the
  module exists to measure: longer periods push billing latency up
  (charges wait on the next sync) and push-hit rate down (a push that
  arrives after the car has left its predicted pole resolves nothing).
* **mule** — no schedule at all: deltas ride passing cars to the exit
  gateway. The far end of the delivery-delay spectrum.
* **fault determinism** — one scheduled run under a seeded
  :class:`~repro.sim.city.FaultPlan` (outages + drops + delays),
  executed twice: the mesh summary, backhaul counters and billing
  summary must be byte-identical across the two runs.

Gates: billing completeness is 100% after the final convergence flush
for *every* batched configuration (every crossing billed exactly once —
``check_consistent`` on the plane, the service and the account store);
mean billing latency is monotone nondecreasing in sync period with the
wired anchor at the bottom; push-hit rate is monotone nonincreasing
(small tolerance — the curve is a simulation, not a formula); the
faulted run is repeat-seed deterministic.

Wall clock only annotates throughput; every gated number is seeded sim
output. Set ``REPRO_BENCH_SCALE`` < 1 to shorten the runs.
"""

import json
import time

from bench_helpers import timer, write_bench_json
from conftest import bench_scale as _scale
from repro.apps.tolling import TollingService
from repro.sim.city import BackhaulConfig, CityMesh, FaultPlan
from repro.sim.traffic import TrafficLight

MESH_SEED = 2026
N_POLES_PER_EDGE = 3
THROUGH_WEIGHT = 0.8
ARRIVAL_RATE_PER_S = 0.6
DURATION_S = 90.0

#: The gated sync-period sweep (s). Wired anchors the curve at zero
#: effective lag; mule rides cars instead of a schedule.
SYNC_PERIODS_S = (0.5, 1.0, 2.0, 4.0)

#: Curve tolerances: adjacent points may wiggle this much before the
#: monotonicity gates trip (finite crossing counts, not noise — the
#: runs are seeded).
HIT_RATE_TOL = 0.02
LATENCY_TOL_S = 1e-9

FAULT_SEED = 17
FAULT_SYNC_PERIOD_S = 1.0


def build_mesh(backhaul) -> CityMesh:
    mesh = CityMesh(rng=MESH_SEED, handoff="push", backhaul=backhaul)
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


def run_config(duration_s: float, backhaul) -> dict:
    """One seeded mesh run with a billing tap; returns the curve point."""
    mesh = build_mesh(backhaul)
    service = TollingService(
        policy="as-sighted",
        max_lag_s=10.0 * duration_s,  # cover any sync lag incl. final flush
        keep_events=False,
    )
    mesh.add_sighting_tap(service)
    t0 = time.perf_counter()
    result = mesh.run(duration_s)
    wall_s = time.perf_counter() - t0
    mesh._plane.check_consistent()
    service.check_consistent()
    billing = service.finish()
    ledger = result.ledger.summary()
    pushes_sent = ledger["pushes_sent"]
    return {
        "mesh": result.summary(),
        "billing": billing,
        "push_hit_rate": ledger["push_hits"] / pushes_sent if pushes_sent else 0.0,
        "completeness": (
            billing["charged"] / billing["toll_events"]
            if billing["toll_events"]
            else 0.0
        ),
        "wall_s": wall_s,
    }


def _snapshot(point: dict) -> str:
    """The determinism digest: every seeded number, no wall clock."""
    return json.dumps(
        {k: point[k] for k in ("mesh", "billing", "push_hit_rate", "completeness")},
        sort_keys=True,
    )


def bench_backhaul(benchmark, report):
    duration_s = max(DURATION_S * _scale(), 20.0)

    # -- the wired anchor ----------------------------------------------
    with timer.phase("wired-anchor"):
        wired = benchmark.pedantic(
            lambda: run_config(duration_s, BackhaulConfig(policy="wired")),
            rounds=1,
            iterations=1,
        )

    curve = [{"label": "wired", "sync_period_s": 0.0, **wired}]
    with timer.phase("period-sweep"):
        for period_s in SYNC_PERIODS_S:
            point = run_config(
                duration_s,
                BackhaulConfig(policy="scheduled", sync_period_s=period_s),
            )
            curve.append(
                {"label": f"scheduled-{period_s:g}s", "sync_period_s": period_s,
                 **point}
            )
    with timer.phase("mule"):
        mule = {"label": "mule", "sync_period_s": None,
                **run_config(duration_s, BackhaulConfig(policy="mule"))}

    def fault_cfg():
        return BackhaulConfig(
            policy="scheduled",
            sync_period_s=FAULT_SYNC_PERIOD_S,
            fault_plan=FaultPlan.seeded(
                FAULT_SEED,
                duration_s=duration_s,
                n_outages=3,
                outage_s=4.0,
                drop_p=0.15,
                max_delay_s=1.0,
            ),
        )

    with timer.phase("fault-determinism"):
        faulted = [run_config(duration_s, fault_cfg()) for _ in range(2)]

    for point in curve + [mule]:
        backhaul = point["mesh"]["backhaul"]
        lag = f"{backhaul['policy']}, mean lag {backhaul['sync_lag_s']['mean']:.2f}s"
        report(
            f"{point['label']}: {point['billing']['toll_events']} events, "
            f"completeness {point['completeness']:.3f}, "
            f"mean billing latency {point['billing']['mean_latency_s']:.3f}s, "
            f"push-hit rate {point['push_hit_rate']:.3f} ({lag})"
        )
    fault_bh = faulted[0]["mesh"]["backhaul"]
    report(
        f"faulted scheduled-{FAULT_SYNC_PERIOD_S:g}s: "
        f"{fault_bh['batches']['retried']} retries, "
        f"{fault_bh['batches']['dropped']} drops, "
        f"{fault_bh['items']['final_flush']} items on the final flush, "
        f"completeness {faulted[0]['completeness']:.3f}"
    )

    write_bench_json(
        "backhaul",
        {
            "duration_s": duration_s,
            "curve": [
                {k: p[k] for k in (
                    "label", "sync_period_s", "completeness", "push_hit_rate",
                )}
                | {
                    "mean_latency_s": p["billing"]["mean_latency_s"],
                    "max_latency_s": p["billing"]["max_latency_s"],
                    "toll_events": p["billing"]["toll_events"],
                    "air_queries_total": p["billing"]["air_queries_total"],
                    "backhaul": p["mesh"]["backhaul"],
                }
                for p in curve + [mule]
            ],
            "fault": {
                "seed": FAULT_SEED,
                "sync_period_s": FAULT_SYNC_PERIOD_S,
                "backhaul": fault_bh,
                "completeness": faulted[0]["completeness"],
                "deterministic": _snapshot(faulted[0]) == _snapshot(faulted[1]),
            },
            "scale": _scale(),
        },
    )

    # Gates (after the JSON lands, so a trip still leaves the numbers).
    for point in curve[1:] + [mule, *faulted]:
        assert point["completeness"] == 1.0, (
            f"{point.get('label', 'faulted')}: completeness "
            f"{point['completeness']} after the final flush — crossings "
            "went unbilled"
        )
        assert point["billing"]["pending"] == 0
        assert point["billing"]["unresolved"] == 0
    for a, b in zip(curve, curve[1:]):
        assert b["billing"]["mean_latency_s"] >= (
            a["billing"]["mean_latency_s"] - LATENCY_TOL_S
        ), (
            f"billing latency not monotone in sync period: {a['label']} "
            f"{a['billing']['mean_latency_s']:.4f}s -> {b['label']} "
            f"{b['billing']['mean_latency_s']:.4f}s"
        )
        assert b["push_hit_rate"] <= a["push_hit_rate"] + HIT_RATE_TOL, (
            f"push-hit rate not monotone in sync period: {a['label']} "
            f"{a['push_hit_rate']:.3f} -> {b['label']} "
            f"{b['push_hit_rate']:.3f}"
        )
    assert mule["billing"]["mean_latency_s"] >= (
        curve[0]["billing"]["mean_latency_s"] - LATENCY_TOL_S
    )
    assert _snapshot(faulted[0]) == _snapshot(faulted[1]), (
        "identical FaultPlan + seed produced different runs — the "
        "determinism contract broke"
    )
