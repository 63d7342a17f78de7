"""CI smokes for the city engine: ``python -m repro.sim.city --smoke NAME``.

* ``--smoke mesh [--duration S]`` — ``mesh.run`` (the engine
  in-process, one worker) must give the same summary bytes as
  ``run_sharded`` over two forked workers on a small downtown grid.
* ``--smoke backhaul [--duration S]`` — all three backhaul policies plus
  one fault plan on a small grid: lossless convergence after the final
  flush, repeat-seed determinism, and ``mesh.run`` equal to a forked
  two-worker run under ``scheduled``.

Both print one ``ok:`` line and exit 0, or print each failure and exit 1.
They live here, not in the modules they exercise, because the package
``__init__`` already imports those modules: ``python -m`` on one of them
would run a second copy of it as ``__main__``.
"""

from __future__ import annotations

import argparse
import json

from ...errors import ConfigurationError
from .backhaul import BackhaulConfig, FaultPlan
from .mesh import downtown_grid
from .parallel import run_sharded

#: The seed of the small downtown grid both smokes build.
SEED = 7

#: Simulated seconds per smoke when ``--duration`` is not given.
DEFAULT_DURATION_S = {"mesh": 12.0, "backhaul": 6.0}


def canon(result) -> str:
    """A summary as canonical JSON text: short runs legitimately carry
    NaN means (no cross-corridor entries yet), and NaN != NaN would fail
    a plain dict comparison even on identical results."""
    return json.dumps(result.summary(), sort_keys=True)


def mesh_smoke(duration_s: float) -> int:
    """``mesh.run`` vs two forked workers."""

    def build():
        return downtown_grid(2, 2, rng=SEED, rate_per_s=0.5)

    local = build().run(duration_s)
    forked = run_sharded(build(), duration_s, workers=2)
    if canon(local) != canon(forked):
        print("FAIL: mesh.run differs from 2 forked workers")
        return 1
    summary = local.summary()
    ledger = summary["handoff_ledger"]
    print(
        "ok: mesh.run == 2 forked workers "
        f"(sightings={ledger['sightings']}, pushes={ledger['pushes_sent']}, "
        f"cars={summary['cars_injected']})"
    )
    return 0


def backhaul_smoke(duration_s: float) -> int:
    """All three policies + one fault plan on a small grid."""
    failures: list[str] = []

    def build(backhaul):
        return downtown_grid(2, 2, rng=SEED, rate_per_s=0.5, backhaul=backhaul)

    def scheduled_cfg():
        return BackhaulConfig(policy="scheduled", sync_period_s=1.0)

    delivered = {}
    for label, make_cfg in (
        ("scheduled", scheduled_cfg),
        ("mule", lambda: BackhaulConfig(policy="mule")),
    ):
        mesh = build(make_cfg())
        result = mesh.run(duration_s)
        plane = mesh._plane
        try:
            plane.check_consistent()
        except ConfigurationError as exc:
            failures.append(f"{label}: {exc}")
        policy = result.backhaul["policy"]
        if policy != label:
            failures.append(f"{label}: the summary reports {policy!r}")
        delivered[label] = plane.items_delivered
        if label == "scheduled":
            forked = run_sharded(build(make_cfg()), duration_s, workers=2)
            if canon(forked) != canon(result):
                failures.append("scheduled: mesh.run differs from 2 forked workers")

    def fault_cfg():
        return BackhaulConfig(
            policy="scheduled",
            sync_period_s=1.0,
            fault_plan=FaultPlan.seeded(
                SEED + 1,
                duration_s=duration_s,
                n_outages=2,
                outage_s=1.5,
                drop_p=0.2,
                max_delay_s=0.5,
            ),
        )

    snapshots = []
    for _ in range(2):
        mesh = build(fault_cfg())
        result = mesh.run(duration_s)
        try:
            mesh._plane.check_consistent()
        except ConfigurationError as exc:
            failures.append(f"faulted: {exc}")
        snapshots.append(canon(result))
    if snapshots[0] != snapshots[1]:
        failures.append("fault-plan run is not repeat-seed deterministic")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "ok: backhaul smoke — "
        f"scheduled delivered {delivered['scheduled']} items (mesh.run == "
        f"2 forked workers), mule {delivered['mule']}; faulted run deterministic"
    )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="city engine smoke tests")
    parser.add_argument(
        "--smoke", choices=sorted(DEFAULT_DURATION_S), help="run one CI smoke"
    )
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args()
    if args.smoke is None:
        parser.error("nothing to do (pass --smoke mesh or --smoke backhaul)")
    duration_s = args.duration
    if duration_s is None:
        duration_s = DEFAULT_DURATION_S[args.smoke]
    if args.smoke == "mesh":
        raise SystemExit(mesh_smoke(duration_s))
    raise SystemExit(backhaul_smoke(duration_s))
