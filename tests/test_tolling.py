"""Unit and integration tests for repro.apps.tolling (the billing plane)."""

import json
from types import SimpleNamespace

import pytest

from repro.apps.tolling import (
    DirectoryBackend,
    ShardedAccountStore,
    TollDedup,
    TollEvent,
    TollRead,
    TollingService,
    synthetic_reads,
)
from repro.errors import ConfigurationError
from repro.sim.city import IdentityDirectory, downtown_grid
from repro.sim.city.parallel import run_sharded


def read(t_s, tag_id=7, zone="edge-0", kind="own", n_queries=0, cfo_hz=None,
         delivered_s=None):
    return TollRead(
        t_s=t_s,
        zone=zone,
        station=f"{zone}/pole-0",
        tag_id=tag_id,
        cfo_hz=200.0 * tag_id if cfo_hz is None else cfo_hz,
        kind=kind,
        n_queries=n_queries,
        delivered_s=delivered_s,
    )


class TestDedupWindow:
    def test_duplicates_collapse_to_one_event(self):
        dedup = TollDedup(window_s=5.0)
        assert dedup.admit(7, "edge-0", 10.0)
        for t in (10.5, 11.0, 14.9):
            assert not dedup.admit(7, "edge-0", t)
        assert dedup.events == 1
        assert dedup.duplicates == 3

    def test_other_tag_and_other_zone_are_their_own_events(self):
        dedup = TollDedup(window_s=5.0)
        assert dedup.admit(7, "edge-0", 10.0)
        assert dedup.admit(8, "edge-0", 10.0)
        assert dedup.admit(7, "edge-1", 10.0)
        assert dedup.events == 3

    def test_next_window_is_a_new_crossing(self):
        dedup = TollDedup(window_s=5.0)
        assert dedup.admit(7, "edge-0", 14.9)
        assert dedup.admit(7, "edge-0", 15.1)  # next bin: circled back
        assert dedup.events == 2

    def test_table_is_bounded_by_concurrent_crossings(self):
        dedup = TollDedup(window_s=5.0)
        for k in range(1000):
            dedup.admit(k, "edge-0", float(k))
        # 1000 crossings have streamed through, but only the last
        # window-and-change of them can still receive duplicates.
        assert len(dedup) < 20
        assert dedup.peak_entries < 20
        assert dedup.events == 1000

    def test_reads_far_behind_the_watermark_are_rejected(self):
        dedup = TollDedup(window_s=5.0)
        dedup.admit(7, "edge-0", 100.0)
        with pytest.raises(ConfigurationError):
            dedup.admit(8, "edge-0", 90.0)

    def test_zero_window_rejected(self):
        with pytest.raises(ConfigurationError):
            TollDedup(window_s=0.0)


class TestDedupProperty:
    """The satellite property: N mixed-provenance duplicate reads of one
    crossing yield exactly one toll event inside the window and exactly
    two straddling the boundary — deterministically, per seed."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_n_duplicate_reads_one_event(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        service = TollingService(policy="as-sighted", window_s=5.0)
        kinds = ["own", "push", "handoff", "decode", "redecode"]
        # One crossing: first read at the window's start, N-1 duplicates
        # of mixed provenance spread inside the same window bin.
        t0 = 10.0
        n = int(rng.integers(3, 12))
        offsets = np.sort(rng.uniform(0.0, 4.9, size=n - 1))
        service.ingest(read(t0, kind="decode", n_queries=8))
        for dt in offsets:
            kind = kinds[int(rng.integers(0, len(kinds)))]
            service.ingest(
                read(t0 + float(dt), kind=kind, n_queries=6 if "decode" in kind else 0)
            )
        assert service.dedup.events == 1
        assert service.dedup.duplicates == n - 1
        assert service.charged == 1
        if service.keep_events:
            assert service.events[0].n_reads == n

    @pytest.mark.parametrize("seed", [3, 17])
    def test_boundary_straddle_two_events(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        service = TollingService(policy="as-sighted", window_s=5.0)
        # Reads straddle the t=15 bin boundary: some in [13, 15), some
        # in [15, 17) — one crossing on the road, two dedup windows.
        before = 13.0 + rng.uniform(0.0, 2.0, size=4)
        after = 15.0 + rng.uniform(0.0, 2.0, size=3)
        for t in sorted([*before, *after]):
            service.ingest(read(float(t)))
        assert service.dedup.events == 2
        assert service.charged == 2

    def test_deterministic_under_repeated_seed(self):
        def run(seed):
            service = TollingService(policy="as-sighted", window_s=5.0)
            for r in synthetic_reads(500, 800, rng=seed):
                service.ingest(r)
            return json.dumps(service.finish(), sort_keys=True)

        assert run(5) == run(5)
        assert run(9) == run(9)
        assert run(5) != run(9)  # the seed actually matters


class TestAccountStore:
    def test_charges_accumulate(self):
        store = ShardedAccountStore(n_shards=4)
        assert store.charge(7, 150, 1.0) == 150
        assert store.charge(7, 150, 2.0) == 300
        assert store.balance_cents(7) == 300
        assert store.total_charged_cents == 300

    def test_eviction_settles_exactly(self):
        store = ShardedAccountStore(n_shards=1, max_active_per_shard=10)
        for account in range(25):
            store.charge(account, 150, float(account))
        store.check_consistent()
        assert store.active_rows <= 10
        assert store.evictions > 0
        assert store.total_charged_cents == 25 * 150
        # Settled accounts re-open fresh rows on their next charge.
        assert store.balance_cents(0) is None
        store.charge(0, 150, 30.0)
        assert store.balance_cents(0) == 150
        store.check_consistent()

    def test_settling_drops_the_coldest(self):
        store = ShardedAccountStore(n_shards=1, max_active_per_shard=4)
        for account, t in ((1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)):
            store.charge(account, 100, t)
        store.charge(5, 100, 50.0)  # overflows: settles the two coldest
        assert store.balance_cents(1) is None
        assert store.balance_cents(2) is None
        assert store.balance_cents(4) == 100
        store.check_consistent()

    def test_peak_active_tracks_high_water(self):
        store = ShardedAccountStore(n_shards=1, max_active_per_shard=100)
        for account in range(50):
            store.charge(account, 1, 0.0)
        assert store.peak_active == 50

    def test_negative_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedAccountStore().charge(1, -5, 0.0)


class TestBackend:
    def make_directory(self):
        directory = IdentityDirectory(tolerance_hz=50.0, max_age_s=1e6)
        directory.report(7, 1400.0, "s", "z", 0.0, 0.0)
        return directory

    def test_answer_arrives_k_rounds_later(self):
        backend = DirectoryBackend(self.make_directory(), latency_rounds=5)
        backend.submit(1400.0, 10.0, token="q")
        assert backend.drain(10.004) == []  # not ready yet
        answers = backend.drain(10.005)
        assert len(answers) == 1
        assert answers[0].account_id == 7
        assert answers[0].ready_s == pytest.approx(10.005)
        assert answers[0].token == "q"

    def test_answers_reflect_delivery_time_state(self):
        """The directory is consulted when the answer ships, not when
        the question was asked — a fingerprint that expires in flight
        resolves to nothing."""
        directory = IdentityDirectory(tolerance_hz=50.0, max_age_s=10.0)
        directory.report(7, 1400.0, "s", "z", 0.0, 0.0)
        backend = DirectoryBackend(directory, latency_rounds=15_000)  # 15 s
        backend.submit(1400.0, 1.0)  # ready at 16.0; entry expires at 10.0
        answers = backend.drain(16.0)
        assert answers[0].account_id is None

    def test_flush_delivers_everything(self):
        backend = DirectoryBackend(self.make_directory(), latency_rounds=3)
        backend.submit(1400.0, 1.0)
        backend.submit(1400.0, 2.0)
        assert backend.pending == 2
        assert len(backend.flush()) == 2
        assert backend.pending == 0


class TestTollingPolicies:
    def seeded_backend(self, n_accounts=10, latency_rounds=5):
        directory = IdentityDirectory(
            tolerance_hz=50.0, max_entries=n_accounts, max_age_s=1e9
        )
        for account in range(n_accounts):
            directory.report(account, 200.0 * account, "seed", "seed", 0.0, 0.0)
        return DirectoryBackend(directory, latency_rounds=latency_rounds)

    def test_push_charges_instantly_for_free(self):
        service = TollingService(policy="push")
        event = service.ingest(read(10.0, kind="push"))
        assert event.status == "charged"
        assert event.latency_s == 0.0
        assert event.air_queries == 0
        assert service.accounts.balance_cents(7) == 150

    def test_pull_charges_k_rounds_later(self):
        backend = self.seeded_backend(latency_rounds=5)
        service = TollingService(policy="pull", backend=backend)
        event = service.ingest(read(10.0, tag_id=3))
        assert event.status == "pending"
        assert service.pending == 1
        service.advance(10.006)
        assert event.status == "charged"
        assert event.latency_s == pytest.approx(0.005)
        assert event.air_queries == 0
        assert service.accounts.balance_cents(3) == 150

    def test_pull_miss_falls_back_to_decode_and_reports(self):
        directory = IdentityDirectory(tolerance_hz=50.0, max_age_s=1e9)
        backend = DirectoryBackend(directory, latency_rounds=5)
        service = TollingService(
            policy="pull", backend=backend, fallback_decode_queries=8, window_s=2.0
        )
        event = service.ingest(read(10.0, tag_id=3))
        service.advance(11.0)
        assert event.status == "charged"
        assert event.air_queries == 8
        assert event.latency_s == pytest.approx(0.005 + 8 * 1e-3)
        assert service.pull_fallbacks == 1
        # The recovery was reported: the same car's next crossing pulls.
        assert 3 in directory
        event2 = service.ingest(read(20.0, tag_id=3))
        service.advance(21.0)
        assert event2.air_queries == 0
        assert service.pull_fallbacks == 1

    def test_pull_without_fallback_leaves_unresolved(self):
        directory = IdentityDirectory(tolerance_hz=50.0, max_age_s=1e9)
        backend = DirectoryBackend(directory, latency_rounds=1)
        service = TollingService(
            policy="pull", backend=backend, fallback_decode_queries=0
        )
        service.ingest(read(10.0, tag_id=3))
        service.advance(11.0)
        assert service.unresolved == 1
        assert service.charged == 0
        service.check_consistent()

    def test_misattribution_is_counted(self):
        """A stale directory mapping bills the wrong account — the
        billing plane cannot know better, but it must count it."""
        directory = IdentityDirectory(tolerance_hz=50.0, max_age_s=1e9)
        directory.report(99, 600.0, "s", "z", 0.0, 0.0)  # 99 owns tag 3's cfo
        backend = DirectoryBackend(directory, latency_rounds=1)
        service = TollingService(policy="pull", backend=backend)
        service.ingest(read(10.0, tag_id=3, cfo_hz=600.0))
        service.advance(11.0)
        assert service.misattributed == 1
        assert service.accounts.balance_cents(99) == 150
        assert service.accounts.balance_cents(3) is None

    def test_redecode_always_burns_a_burst(self):
        service = TollingService(policy="redecode", fallback_decode_queries=12)
        event = service.ingest(read(10.0, kind="own"))  # free read, paid policy
        assert event.air_queries == 12
        assert event.latency_s == pytest.approx(12e-3)

    def test_as_sighted_prices_each_read_at_cost(self):
        service = TollingService(policy="as-sighted", window_s=2.0)
        free = service.ingest(read(10.0, kind="handoff"))
        paid = service.ingest(read(20.0, kind="decode", n_queries=9))
        assert free.air_queries == 0
        assert paid.air_queries == 9
        assert paid.latency_s == pytest.approx(9e-3)

    def test_policy_curve_ordering(self):
        """The architectural claim, measured: push <= pull <= redecode
        on latency and on air time, over one identical stream."""
        streams = lambda: synthetic_reads(200, 400, rng=13)  # noqa: E731
        results = {}
        for policy in ("push", "pull", "redecode"):
            backend = self.seeded_backend(200) if policy == "pull" else None
            service = TollingService(policy=policy, backend=backend)
            for r in streams():
                service.ingest(r)
            results[policy] = service.finish()
            service.check_consistent()
        latency = [results[p]["mean_latency_s"] for p in ("push", "pull", "redecode")]
        air = [results[p]["air_queries_total"] for p in ("push", "pull", "redecode")]
        assert latency[0] <= latency[1] <= latency[2]
        assert air[0] <= air[1] <= air[2]
        # Same stream, same toll events, whatever the policy.
        assert len({results[p]["toll_events"] for p in results}) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TollingService(policy="fee-only")
        with pytest.raises(ConfigurationError):
            TollingService(policy="pull")  # no backend
        with pytest.raises(ConfigurationError):
            TollingService(toll_cents=-1)

    def test_obs_hook_mirrors_billing(self):
        from repro.obs import Obs

        obs = Obs()
        service = TollingService(policy="push", obs=obs)
        service.ingest(read(10.0))
        service.ingest(read(10.5))
        counters = obs.metrics.snapshot()["counters"]
        assert any(key.startswith("tolling.read") for key in counters)
        assert any(key.startswith("tolling.charge") for key in counters)
        assert any(key.startswith("tolling.event") for key in counters)


class TestMeshIntegration:
    def build(self, rng=7):
        return downtown_grid(2, 2, rng=rng, rate_per_s=0.5)

    def test_serial_mesh_tap_bills_crossings(self):
        mesh = self.build()
        service = mesh.add_sighting_tap(
            TollingService(policy="as-sighted", window_s=5.0)
        )
        mesh.run(8.0)
        summary = service.finish()
        service.check_consistent()
        assert summary["reads"] > 0
        # Every tap read is a directory report too: same stream.
        assert summary["reads"] == mesh.directory.reports

    def test_sharded_rejects_services_but_not_taps(self):
        # A non-observer is refused as a service, while the same engine
        # takes a billing tap and a real observer side by side.
        mesh = self.build()
        with pytest.raises(ConfigurationError):
            mesh.subscribe(object())
        seen = []
        mesh.subscribe(SimpleNamespace(observe=seen.append))
        service = mesh.add_sighting_tap(
            TollingService(policy="as-sighted", window_s=5.0)
        )
        run_sharded(mesh, 8.0, workers=1, in_process=True)
        service.check_consistent()
        assert service.finish()["reads"] > 0
        assert seen

    def test_sharded_tap_is_worker_count_invariant(self):
        """Billing over the coordinator-replayed stream must not depend
        on how the mesh was sharded (one in-process worker is what
        ``mesh.run`` does)."""
        sharded = []
        for workers, in_process in ((1, True), (2, False), (2, True)):
            service = TollingService(policy="as-sighted", window_s=5.0)
            mesh = self.build()
            mesh.add_sighting_tap(service)
            run_sharded(mesh, 8.0, workers=workers, in_process=in_process)
            service.check_consistent()
            sharded.append(json.dumps(service.finish(), sort_keys=True))
        assert sharded[0] == sharded[1] == sharded[2]
        assert json.loads(sharded[0])["charged"] > 0


class TestSyntheticReplay:
    def test_stream_is_time_ordered_and_seed_stable(self):
        reads_a = list(synthetic_reads(100, 200, rng=3))
        reads_b = list(synthetic_reads(100, 200, rng=3))
        assert reads_a == reads_b
        times = [r.t_s for r in reads_a]
        assert times == sorted(times)
        assert all(0 <= r.tag_id < 100 for r in reads_a)

    def test_cache_hit_reads_carry_no_queries(self):
        for r in synthetic_reads(50, 100, rng=5):
            if r.kind in ("decode", "redecode"):
                assert r.n_queries > 0
            else:
                assert r.n_queries == 0

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            list(synthetic_reads(0, 10))
        with pytest.raises(ConfigurationError):
            list(synthetic_reads(10, 10, reads_per_crossing=0))


class TestTollEventRecord:
    def test_event_defaults_pending(self):
        event = TollEvent(tag_id=1, zone="z", window_index=2, first_read_s=10.0, kind="own")
        assert event.status == "pending"
        assert event.charged_s is None


class TestDedupEmitVsDelivery:
    """The latent-bug regression (PR 10): behind-watermark rejection
    must key on *delivery* lag, not emit time. Pre-backhaul the two were
    conflated, so a legitimately late delivery of an on-time crossing —
    routine on a batched link — was rejected as out of order."""

    def test_late_delivery_of_on_time_emit_is_admitted(self):
        # Failing pre-PR: the watermark jumped to the *emit* time of the
        # freshest read, so an older-emitted read arriving later (a
        # batch flushed after an outage) raised instead of billing.
        dedup = TollDedup(window_s=5.0, max_lag_s=30.0)
        assert dedup.admit(7, "edge-0", 40.0, delivered_s=41.0)
        # Emitted a window earlier, held back by the backhaul, delivered
        # after the fresher read: a real crossing — exactly one event.
        assert dedup.admit(8, "edge-0", 12.0, delivered_s=42.0)
        assert not dedup.admit(8, "edge-0", 12.5, delivered_s=43.0)
        assert dedup.events == 2
        assert dedup.duplicates == 1

    def test_reordered_redelivery_cannot_double_charge(self):
        dedup = TollDedup(window_s=5.0, max_lag_s=30.0)
        assert dedup.admit(7, "edge-0", 10.0, delivered_s=11.0)  # window 2
        assert dedup.admit(7, "edge-0", 15.0, delivered_s=16.0)  # window 3
        # A straggler from window 2 delivered after window 3 opened must
        # fold into the *old* window, never open a second event for it.
        assert not dedup.admit(7, "edge-0", 11.0, delivered_s=20.0)
        assert dedup.events == 2
        assert dedup.duplicates == 1

    def test_delivery_before_emission_raises(self):
        dedup = TollDedup(window_s=5.0, max_lag_s=30.0)
        with pytest.raises(ConfigurationError):
            dedup.admit(7, "edge-0", 10.0, delivered_s=9.0)

    def test_emit_beyond_the_lag_allowance_rejected_loudly(self):
        dedup = TollDedup(window_s=5.0, max_lag_s=10.0)
        dedup.admit(7, "edge-0", 100.0, delivered_s=100.0)
        with pytest.raises(ConfigurationError, match="max_lag_s"):
            dedup.admit(8, "edge-0", 80.0, delivered_s=101.0)

    def test_wired_behavior_unchanged_by_default(self):
        # max_lag_s defaults to 0: identical semantics to the pre-PR
        # single-argument admit on an ordered stream.
        dedup = TollDedup(window_s=5.0)
        assert dedup.admit(7, "edge-0", 10.0)
        assert not dedup.admit(7, "edge-0", 11.0)
        with pytest.raises(ConfigurationError):
            dedup.admit(8, "edge-0", 1.0)

    def test_service_bills_backhaul_lag_as_latency(self):
        service = TollingService(policy="push", max_lag_s=60.0)
        service.ingest(read(10.0, delivered_s=13.5))
        assert service.charged == 1
        assert service.latency_max_s == pytest.approx(3.5)
        if service.keep_events:
            assert service.events[0].latency_s == pytest.approx(3.5)
            assert service.events[0].charged_s == pytest.approx(13.5)

    def test_service_sweep_honors_the_lag_allowance(self):
        # With a lag allowance the dedup table must keep events foldable
        # for window_s + max_lag_s, not sweep them at window_s.
        service = TollingService(policy="as-sighted", max_lag_s=20.0)
        service.ingest(read(10.0, delivered_s=10.0))
        service.ingest(read(31.0, tag_id=9, delivered_s=31.0))
        service.ingest(read(12.0, delivered_s=32.0))  # straggler duplicate
        assert service.dedup.events == 2
        assert service.events[0].n_reads == 2

    def test_late_duplicate_counts_on_its_own_windows_event(self):
        # Under scheduled backhaul each pole of a zone rides its own
        # link, so a duplicate from window w-1 can arrive after window w
        # opened. It belongs to w-1's event, not to the zone's latest.
        service = TollingService(policy="as-sighted", window_s=5.0)
        service.ingest(read(4.0))
        service.ingest(read(6.0))
        service.ingest(read(4.5, delivered_s=6.5))
        assert [event.n_reads for event in service.events] == [2, 1]
        assert service.dedup.duplicates == 1
