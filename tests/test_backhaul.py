"""The intermittent backhaul: links, fault plans, golden pins, conservation.

The contract under test (see ``src/repro/sim/city/backhaul.py``):

* ``backhaul="wired"`` is the default pass-through — an explicit
  ``"wired"`` mesh reproduces the mesh golden sha;
* batched policies are lossless after the final convergence flush —
  every submitted sighting delta is applied exactly once, whatever the
  fault plan injected;
* identical ``FaultPlan`` + seed => byte-identical summaries across two
  runs and across 1/2 workers (``scheduled`` mode is worker-count
  invariant exactly like wired);
* billing over batched links conserves charges: every crossing billed
  exactly once after the flush, cents exact
  (``ShardedAccountStore.check_consistent``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.tolling import TollingService
from repro.errors import ConfigurationError
from repro.sim.city import (
    BackhaulConfig,
    BackhaulPlane,
    FaultPlan,
    IdentityDirectory,
    OutageWindow,
    downtown_grid,
    run_sharded,
)
from repro.utils import as_rng

from tests.test_city_mesh import chain_mesh
from tests.test_city_parallel import MESH_GOLDEN_SHA256, summary_json


class Recorder:
    """A sighting tap that records every call (args + keywords)."""

    def __init__(self):
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))

    @property
    def delivered(self):
        return [kw.get("delivered_s") for _, kw in self.calls]


class StubDirectory:
    """A directory that always returns a speed estimate, so the plane's
    push path fires on the very first delta."""

    def __init__(self, estimate=12.0):
        self.estimate = estimate
        self.reports = 0

    def report(self, *args, **kwargs):
        self.reports += 1
        return self.estimate

    def apply_delta(self, *args, **kwargs):
        return self.report(*args, **kwargs)


def make_plane(config, *, stations=("s0",), gateways=(), taps=(), directory=None,
               **kwargs):
    return BackhaulPlane(
        config,
        directory=IdentityDirectory() if directory is None else directory,
        taps=list(taps),
        stations=list(stations),
        gateways=gateways,
        **kwargs,
    )


class TestFaultPlan:
    def test_seeded_plans_are_identical(self):
        kwargs = dict(
            duration_s=30.0, links=("a", "b"), n_outages=3, outage_s=2.0,
            drop_p=0.25, max_delay_s=1.5,
        )
        p1 = FaultPlan.seeded(42, **kwargs)
        p2 = FaultPlan.seeded(42, **kwargs)
        assert p1.outages == p2.outages
        assert [p1.sample("a") for _ in range(32)] == [
            p2.sample("a") for _ in range(32)
        ]

    def test_sample_always_draws_both_values(self):
        # The draw stream stays aligned whatever the drop outcome, so
        # drop_p=1 and drop_p=0 plans with one rng consume identically.
        plan = FaultPlan(drop_p=1.0, delay_range_s=(0.5, 0.5), rng=3)
        dropped, delay_s = plan.sample("s0")
        assert dropped is True
        assert delay_s == 0.5

    def test_outage_windows_cover_their_link_only(self):
        plan = FaultPlan(outages=[OutageWindow(1.0, 2.0, "a")])
        assert plan.outage_covers("a", 1.5)
        assert not plan.outage_covers("b", 1.5)
        assert not plan.outage_covers("a", 2.0)
        everywhere = FaultPlan(outages=[OutageWindow(1.0, 2.0, None)])
        assert everywhere.outage_covers("b", 1.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_p=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_range_s=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            FaultPlan(outages=[OutageWindow(3.0, 1.0)])


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            BackhaulConfig(policy="carrier-pigeon")

    def test_bad_periods_rejected(self):
        with pytest.raises(ConfigurationError):
            BackhaulConfig(sync_period_s=0.0)

    def test_mule_needs_a_gateway(self):
        with pytest.raises(ConfigurationError):
            make_plane(BackhaulConfig(policy="mule"), stations=("s0", "s1"))

    def test_unknown_gateway_rejected(self):
        with pytest.raises(ConfigurationError):
            make_plane(
                BackhaulConfig(policy="mule"),
                stations=("s0",),
                gateways=("nowhere",),
            )


class TestScheduledDelivery:
    def test_deltas_apply_at_the_sync_time_not_submission(self):
        tap = Recorder()
        plane = make_plane(
            BackhaulConfig(policy="scheduled", sync_period_s=2.0), taps=[tap]
        )
        assert plane.submit(0.5, "Z", "s0", 7, 50e3, 10.0, True) is None
        assert tap.calls == []  # buffered, not applied
        plane.advance(4.0)
        assert tap.delivered == [2.0]  # the link's first scheduled flush
        assert plane.directory.reports == 1
        assert plane.items_delivered == 1

    def test_wired_taps_get_no_delivered_keyword(self):
        tap = Recorder()
        plane = make_plane(BackhaulConfig(policy="wired"), taps=[tap])
        plane.submit(0.5, "Z", "s0", 7, 50e3, 10.0, True)
        assert len(tap.calls) == 1
        assert tap.calls[0][1] == {}

    def test_outage_forces_retry_with_backoff(self):
        cfg = BackhaulConfig(
            policy="scheduled",
            sync_period_s=1.0,
            fault_plan=FaultPlan(outages=[OutageWindow(0.0, 3.0, "s0")], rng=1),
        )
        tap = Recorder()
        plane = make_plane(cfg, taps=[tap])
        plane.submit(0.5, "Z", "s0", 7, 50e3, 10.0, True)
        plane.advance(10.0)
        assert plane.batches_retried > 0
        assert len(tap.calls) == 1
        assert tap.delivered[0] >= 3.0  # nothing got through the outage
        plane.final_flush(10.0)
        plane.check_consistent()

    def test_final_flush_delivers_leftovers_at_end(self):
        tap = Recorder()
        plane = make_plane(
            BackhaulConfig(policy="scheduled", sync_period_s=100.0), taps=[tap]
        )
        plane.submit(1.0, "Z", "s0", 7, 50e3, 10.0, True)
        plane.final_flush(6.0)
        assert tap.delivered == [6.0]
        assert plane.final_flush_items == 1
        plane.check_consistent()

    def test_push_intents_ride_the_target_downlink(self):
        # A delivered delta triggers a push for target s1; the intent
        # waits on s1's downlink and reaches it at s1's next sync.
        # Staggered schedule: s0 first syncs at 2.0, s1 at 3.0.
        delivered = []
        plane = make_plane(
            BackhaulConfig(policy="scheduled", sync_period_s=2.0),
            stations=("s0", "s1"),
            directory=StubDirectory(),
            push_intent=lambda *a: ("s1", "s0", 7, 50e3, a[5], a[5] + 1.0),
            deliver_push=lambda intent, now_s: delivered.append((intent, now_s)),
        )
        plane.submit(0.5, "Z", "s0", 7, 50e3, 10.0, True)
        plane.advance(10.0)
        assert plane.pushes_sent == 1
        assert plane.pushes_delivered == 1
        assert delivered and delivered[0][0][0] == "s1"
        assert delivered[0][1] == 3.0  # s1's next flush after the t=2 uplink


class TestMuleDelivery:
    def test_cars_carry_deltas_to_the_gateway(self):
        tap = Recorder()
        plane = make_plane(
            BackhaulConfig(policy="mule"),
            stations=("p0", "g"),
            gateways=("g",),
            taps=[tap],
        )
        plane.submit(1.0, "Z", "p0", 1, 50e3, 10.0, True)  # tag 1 buffers at p0
        plane.submit(2.0, "Z", "p0", 2, 51e3, 10.0, True)  # tag 2 picks it up
        assert plane.mule_pickups == 1
        assert tap.calls == []  # still riding the car
        plane.submit(3.0, "Z", "g", 2, 51e3, 50.0, True)  # tag 2 hits the gateway
        plane.advance(3.0)
        # tag 1's read (satcheled) and tag 2's two reads minus the one
        # still waiting at p0 for the next car:
        assert plane.mule_deliveries == 1
        assert sorted(tap.delivered) == [3.0, 3.0]
        plane.final_flush(5.0)
        assert len(tap.calls) == 3  # p0's leftover read flushed
        plane.check_consistent()


class TestWiredGoldenPin:
    def test_wired_serial_reproduces_the_pre_backhaul_golden_sha(self):
        """An explicit ``backhaul="wired"`` is the default: it
        reproduces the mesh golden."""
        result = chain_mesh("push", seed=7, backhaul="wired").run(16.0)
        digest = hashlib.sha256(summary_json(result).encode()).hexdigest()
        assert digest == MESH_GOLDEN_SHA256

    def test_none_is_not_a_backhaul(self):
        with pytest.raises(ConfigurationError):
            downtown_grid(1, 1, rng=0, backhaul=None)


def _scheduled_fault_cfg(duration_s):
    return BackhaulConfig(
        policy="scheduled",
        sync_period_s=1.0,
        fault_plan=FaultPlan.seeded(
            5, duration_s=duration_s, n_outages=2, outage_s=1.5,
            drop_p=0.2, max_delay_s=0.5,
        ),
    )


def _grid_snapshot(workers, backhaul_factory, *, duration_s=6.0, seed=11):
    mesh = downtown_grid(
        2, 2, rng=seed, rate_per_s=0.5, backhaul=backhaul_factory(duration_s)
    )
    svc = TollingService(policy="as-sighted", max_lag_s=1e6, keep_events=False)
    mesh.add_sighting_tap(svc)
    result = run_sharded(mesh, duration_s, workers=workers)
    return summary_json(result) + json.dumps(svc.finish(), sort_keys=True)


class TestScheduledInvariance:
    @pytest.mark.slow
    def test_worker_count_invariance_scheduled(self):
        factory = lambda d: BackhaulConfig(policy="scheduled", sync_period_s=1.0)
        assert _grid_snapshot(1, factory) == _grid_snapshot(2, factory)

    @pytest.mark.slow
    def test_worker_count_invariance_under_faults(self):
        # The acceptance gate: identical FaultPlan + seed => byte-equal
        # summaries (mesh + billing) across two runs and across 1/2
        # workers.
        runs = [
            _grid_snapshot(w, _scheduled_fault_cfg) for w in (1, 1, 2)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestBatchedCompleteness:
    @pytest.mark.parametrize(
        "backhaul",
        [
            BackhaulConfig(policy="scheduled", sync_period_s=1.5),
            BackhaulConfig(policy="mule"),
        ],
        ids=["scheduled", "mule"],
    )
    def test_every_submitted_item_delivered_after_flush(self, backhaul):
        mesh = downtown_grid(2, 2, rng=11, rate_per_s=0.5, backhaul=backhaul)
        result = mesh.run(4.0)
        plane = mesh._plane
        plane.check_consistent()
        assert plane.items_submitted > 0
        summary = result.summary()["backhaul"]
        assert summary["items"]["delivered"] == summary["items"]["submitted"]
        assert result.backhaul["policy"] == backhaul.policy


# -- satellite: charge conservation under arbitrary fault plans -------------


def _synthetic_crossings(seed, duration_s, n_tags, window_s):
    """A time-ordered read stream: tags loop over two zones, each zone
    read at both of its poles ~1 s apart."""
    rng = as_rng(seed)
    zones = {
        "Z0": ("Z0/p0", "Z0/p1"),
        "Z1": ("Z1/p0", "Z1/p1"),
    }
    reads = []
    for tag_id in range(1, n_tags + 1):
        t = float(rng.uniform(0.0, window_s))
        while t < duration_s:
            for zone, stations in zones.items():
                for k, station in enumerate(stations):
                    t_read = t + 4.0 * list(zones).index(zone) + 1.1 * k
                    if t_read < duration_s:
                        reads.append(
                            (t_read, zone, station, tag_id, 40e3 * tag_id)
                        )
            t += float(rng.uniform(1.5 * window_s, 3.0 * window_s))
    reads.sort()
    return reads


class TestChargeConservationUnderFaults:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy", ["scheduled", "mule"])
    def test_every_crossing_billed_exactly_once(self, seed, policy):
        duration_s, window_s, toll_cents = 60.0, 5.0, 150
        reads = _synthetic_crossings(seed, duration_s, n_tags=6, window_s=window_s)
        assert len(reads) > 50
        stations = sorted({r[2] for r in reads})
        plan = FaultPlan.seeded(
            seed + 100,
            duration_s=duration_s,
            links=stations,
            n_outages=4,
            outage_s=8.0,
            drop_p=0.3,
            max_delay_s=4.0,
        )
        cfg = BackhaulConfig(
            policy=policy,
            sync_period_s=3.0,
            fault_plan=plan,
            gateways=("Z1/p1",),
        )
        svc = TollingService(
            policy="as-sighted",
            toll_cents=toll_cents,
            window_s=window_s,
            max_lag_s=10.0 * duration_s,  # cover any lag incl. final flush
            keep_events=False,
        )
        plane = BackhaulPlane(
            cfg,
            directory=IdentityDirectory(),
            taps=[svc],
            stations=stations,
            gateways=cfg.gateways,
        )
        for t_s, zone, station, tag_id, cfo_hz in reads:
            plane.submit(t_s, zone, station, tag_id, cfo_hz, 10.0, True)
        plane.final_flush(duration_s)
        plane.check_consistent()
        summary = svc.finish()

        expected_events = len(
            {(tag, zone, int(t // window_s)) for t, zone, _, tag, _ in reads}
        )
        assert summary["reads"] == len(reads)
        assert summary["toll_events"] == expected_events
        assert summary["charged"] == expected_events
        assert summary["total_charged_cents"] == expected_events * toll_cents
        svc.check_consistent()  # includes ShardedAccountStore.check_consistent

    def test_faulted_stream_is_repeat_seed_deterministic(self):
        def run_once():
            duration_s = 40.0
            reads = _synthetic_crossings(3, duration_s, n_tags=4, window_s=5.0)
            stations = sorted({r[2] for r in reads})
            cfg = BackhaulConfig(
                policy="scheduled",
                sync_period_s=2.0,
                fault_plan=FaultPlan.seeded(
                    9, duration_s=duration_s, links=stations,
                    drop_p=0.25, max_delay_s=2.0,
                ),
            )
            svc = TollingService(
                policy="as-sighted", max_lag_s=1e6, keep_events=False
            )
            plane = BackhaulPlane(
                cfg, directory=IdentityDirectory(), taps=[svc], stations=stations
            )
            for t_s, zone, station, tag_id, cfo_hz in reads:
                plane.submit(t_s, zone, station, tag_id, cfo_hz, 10.0, True)
            plane.final_flush(duration_s)
            return json.dumps(
                [plane.summary(), svc.finish()], sort_keys=True
            )

        assert run_once() == run_once()
