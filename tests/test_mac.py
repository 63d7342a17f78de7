"""Unit tests for repro.core.mac and repro.sim.medium (§9)."""

import numpy as np
import pytest

from repro.constants import (
    CSMA_LISTEN_S,
    QUERY_DURATION_S,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from repro.core.mac import CsmaState, ReaderMac
from repro.errors import ConfigurationError
from repro.sim.medium import AirLog, Medium, ReaderNode, Transmission, TxKind


class TestCsmaState:
    def test_idle_forever_when_silent(self):
        assert CsmaState().idle_since(5.0) == float("inf")

    def test_busy_interval_blocks(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        assert state.idle_since(1.5) == 0.0

    def test_idle_after_interval(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        assert state.idle_since(2.5) == pytest.approx(0.5)

    def test_intervals_merge(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        state.add_busy(1.5, 3.0)
        assert state.busy_intervals == [(1.0, 3.0)]

    def test_disjoint_intervals_kept(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        state.add_busy(5.0, 6.0)
        assert len(state.busy_intervals) == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            CsmaState().add_busy(2.0, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CsmaState().add_busy(1.0, 2.0, kind="chirp")

    def test_interval_ending_exactly_at_t_is_zero_idle(self):
        """A transmission ending exactly at ``t_s`` means the medium has
        been idle for zero time — the listen window starts over."""
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        assert state.idle_since(2.0) == 0.0
        assert not ReaderMac().can_transmit(2.0, state)
        assert not ReaderMac(defer_to_queries=True).can_transmit(2.0, state)

    def test_abutting_intervals_merge(self):
        """Back-to-back energy is one continuous busy stretch."""
        state = CsmaState()
        state.add_busy(1.0, 2.0)
        state.add_busy(2.0, 3.0)
        assert state.busy_intervals == [(1.0, 3.0)]
        assert state.idle_since(3.0) == 0.0
        assert state.idle_since(3.5) == pytest.approx(0.5)

    def test_response_energy_subtracts_query_spans(self):
        state = CsmaState()
        state.add_busy(1.0, 4.0)  # unknown energy
        state.add_busy(2.0, 3.0, kind="query")
        assert state.response_energy_intervals() == [(1.0, 2.0), (3.0, 4.0)]

    def test_pure_query_energy_leaves_no_response_energy(self):
        state = CsmaState()
        state.add_busy(1.0, 2.0, kind="query")
        assert state.response_energy_intervals() == []
        assert state.response_idle_since(5.0) == float("inf")

    def test_response_windows_follow_each_query(self):
        state = CsmaState()
        state.add_busy(0.0, 20e-6, kind="query")
        (window,) = state.response_windows()
        assert window[0] == pytest.approx(20e-6 + TURNAROUND_S)
        assert window[1] == pytest.approx(20e-6 + TURNAROUND_S + RESPONSE_DURATION_S)


class TestReaderMac:
    def test_listen_window_is_120us(self):
        assert CSMA_LISTEN_S == pytest.approx(120e-6)
        assert ReaderMac().listen_s == pytest.approx(QUERY_DURATION_S + TURNAROUND_S)

    def test_transmit_allowed_on_silent_medium(self):
        assert ReaderMac().can_transmit(0.0, CsmaState())

    def test_blocked_right_after_activity(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        mac = ReaderMac()
        assert not mac.can_transmit(1e-3 + 50e-6, state)

    def test_allowed_after_full_listen(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        mac = ReaderMac()
        assert mac.can_transmit(1e-3 + 121e-6, state)

    def test_next_opportunity(self):
        state = CsmaState()
        state.add_busy(0.0, 1e-3)
        mac = ReaderMac()
        t = mac.next_opportunity(1e-3, state)
        assert t == pytest.approx(1e-3 + CSMA_LISTEN_S)
        assert mac.can_transmit(t, state)

    def test_guaranteed_safe_predicate(self):
        mac = ReaderMac()
        assert mac.guaranteed_safe(130e-6)
        assert not mac.guaranteed_safe(100e-6)


class TestDeferToQueriesPolicies:
    """The §9 refinement: classified query energy is benign, and the
    ``defer_to_queries=True`` ablation treats it like any other energy."""

    def query_just_ended(self, end_s=1.0):
        state = CsmaState()
        state.add_busy(end_s - QUERY_DURATION_S, end_s, kind="query")
        return state

    def test_default_policy_ignores_query_energy(self):
        """Right after another reader's query ends, a §9 reader may
        transmit — its own 20 µs query finishes before the other
        query's response slot opens."""
        state = self.query_just_ended(1.0)
        assert ReaderMac().can_transmit(1.0 + 10e-6, state)

    def test_ablation_policy_defers_to_query_energy(self):
        state = self.query_just_ended(1.0)
        mac = ReaderMac(defer_to_queries=True)
        assert not mac.can_transmit(1.0 + 10e-6, state)
        assert mac.can_transmit(1.0 + CSMA_LISTEN_S + 1e-9, state)

    def test_default_policy_honors_response_window(self):
        """The query may not land inside the response slot a heard query
        opened (that is the §9 harmful case)."""
        state = self.query_just_ended(1.0)
        inside = 1.0 + TURNAROUND_S + 50e-6
        assert not ReaderMac().can_transmit(inside, state)

    def test_default_policy_keeps_own_slot_clear_of_announced_queries(self):
        """A reader never invites responses into a query it already
        knows is coming (an announced burst query)."""
        state = CsmaState()
        now = 1.0
        state.add_busy(now + 300e-6, now + 320e-6, kind="query")  # announced
        mac = ReaderMac()
        assert not mac.can_transmit(now, state)  # slot would cover it
        t = mac.next_opportunity(now, state)
        assert t > now
        assert mac.can_transmit(t, state)

    def test_both_policies_defer_to_unclassified_energy(self):
        state = CsmaState()
        state.add_busy(1.0 - 50e-6, 1.0)  # unknown kind
        assert not ReaderMac().can_transmit(1.0 + 50e-6, state)
        assert not ReaderMac(defer_to_queries=True).can_transmit(1.0 + 50e-6, state)

    def test_next_opportunity_agrees_with_can_transmit(self):
        for defer in (False, True):
            state = CsmaState()
            state.add_busy(0.0, 1e-3)
            state.add_busy(2e-3, 2.02e-3, kind="query")
            mac = ReaderMac(defer_to_queries=defer)
            t = mac.next_opportunity(1e-3, state)
            assert mac.can_transmit(t, state)


class TestAirLog:
    def test_heard_state_classifies_kinds(self):
        air = AirLog()
        air.record_query("A", 0.0)
        air.record_response("tag0", 120e-6)
        state = air.heard_state(1e-3)
        assert state.query_spans() == [(0.0, QUERY_DURATION_S)]
        assert state.response_energy_intervals() == [
            (120e-6, 120e-6 + RESPONSE_DURATION_S)
        ]

    def test_announced_transmissions_visible(self):
        """Future-start recorded transmissions (a burst's remaining
        queries) are part of the carrier-sense picture."""
        air = AirLog()
        air.record_query("A", 5e-3)
        state = air.heard_state(1e-3)
        assert state.query_spans() == [(5e-3, 5e-3 + QUERY_DURATION_S)]
        # ... but future energy does not reset the idle clock.
        assert state.idle_since(1e-3) == float("inf")

    def test_corruption_accounting(self):
        air = AirLog()
        response = air.record_response("tag0", 0.0)
        air.record_query("B", 100e-6)  # lands inside the response
        assert air.corrupted_responses() == [response]

    def test_horizon_drops_ancient_history(self):
        air = AirLog()
        air.record_query("A", 0.0)
        state = air.heard_state(1.0, horizon_s=10e-3)
        assert state.busy_intervals == []

    def test_distance_gates_sensing_and_corruption(self):
        """Mesh worlds: a far-away street's query is neither carrier-
        sensed nor able to corrupt a response; placing it near restores
        the single-street behavior; positions or range missing mean
        'audible everywhere' (the pre-mesh default, unchanged)."""
        air = AirLog()
        air.record_query("far", 100e-6, x_m=2000.0)
        response = air.record_response("tag0", 0.0, x_m=0.0)
        # A listener at x=0 with a 500 m hearing range hears the nearby
        # response but not the distant query.
        state = air.heard_state(1e-3, x_m=0.0, hear_range_m=500.0)
        assert state.query_spans() == []
        assert state.response_energy_intervals() == [(0.0, RESPONSE_DURATION_S)]
        assert not air.any_query_overlapping(
            response.start_s, response.end_s, x_m=0.0, hear_range_m=500.0
        )
        assert air.corrupted_responses(interference_range_m=500.0) == []
        # The same query placed nearby is heard and corrupts.
        near = air.record_query("near", 150e-6, x_m=100.0)
        assert air.any_query_overlapping(
            response.start_s, response.end_s, x_m=0.0, hear_range_m=500.0
        )
        assert air.corrupted_responses(interference_range_m=500.0) == [response]
        # Without a range (or without positions), everything interferes.
        assert air.corrupted_responses() == [response]
        legacy = AirLog()
        legacy_response = legacy.record_response("tag0", 0.0)
        legacy.record_query("B", 100e-6)
        assert legacy.corrupted_responses(interference_range_m=1.0) == [
            legacy_response
        ]
        assert near.reaches(0.0, 500.0)


class TestCorruptionSweep:
    """The bounded sweep equals the brute-force check of every response
    against every query."""

    @staticmethod
    def _brute_force(air: AirLog, interference_range_m):
        return [
            response
            for response in air.responses()
            if any(
                query.overlaps(response)
                and query.reaches(response.x_m, interference_range_m)
                for query in air.queries()
            )
        ]

    @staticmethod
    def _random_log(rng) -> AirLog:
        air = AirLog()
        horizon_s = 0.05
        for _ in range(int(rng.integers(20, 200))):
            start = float(rng.uniform(0.0, horizon_s))
            x_m = None if rng.random() < 0.2 else float(rng.uniform(0.0, 1500.0))
            if rng.random() < 0.5:
                air.record_query(f"r{rng.integers(4)}", start, x_m=x_m)
            else:
                air.record_response(f"t{rng.integers(50)}", start, x_m=x_m)
        # Queries longer than the standard 20 us, recorded directly: the
        # sweep's lower bound must widen to the longest one.
        for span_s in rng.uniform(QUERY_DURATION_S, 40 * QUERY_DURATION_S, 3):
            start = float(rng.uniform(0.0, horizon_s))
            air.record(
                Transmission(TxKind.QUERY, "long", start, start + float(span_s),
                             x_m=float(rng.uniform(0.0, 1500.0)))
            )
        return air

    def test_equals_brute_force_on_random_logs(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            air = self._random_log(rng)
            for interference_range_m in (None, 100.0, 600.0):
                assert air.corrupted_responses(interference_range_m) == (
                    self._brute_force(air, interference_range_m)
                )

    def test_long_query_reaches_back(self):
        """A response that starts long after a long query began, but
        before it ends, is corrupted."""
        air = AirLog()
        for k in range(50):
            air.record_query("A", k * 1e-3)
        response = air.record_response("tag0", 0.2)
        assert air.corrupted_responses() == []
        air.record(Transmission(TxKind.QUERY, "long", 0.19, 0.2 + 1e-6))
        assert air.corrupted_responses() == [response]
        assert self._brute_force(air, None) == [response]


class RecordScan:
    """The per-record carrier-sense scan the sensing view replaced,
    reading the same log with its own dead-prefix cursor."""

    def __init__(self, air: AirLog) -> None:
        self.air = air
        self.cursor = 0

    def heard_state(self, now_s, horizon_s=10e-3, x_m=None, hear_range_m=None):
        floor = now_s - horizon_s
        prune_floor = floor - self.air.sense_slack_s
        transmissions = self.air.transmissions
        while (
            self.cursor < len(transmissions)
            and transmissions[self.cursor].end_s < prune_floor
        ):
            self.cursor += 1
        return CsmaState.from_heard(
            [
                (tx.start_s, tx.end_s, tx.kind.value)
                for tx in transmissions[self.cursor:]
                if tx.end_s >= floor and tx.reaches(x_m, hear_range_m)
            ]
        )


def same_state(a: CsmaState, b: CsmaState) -> bool:
    return (
        a.busy_intervals == b.busy_intervals
        and a.response_energy_intervals() == b.response_energy_intervals()
        and a.query_spans() == b.query_spans()
    )


class TestSensingView:
    """``heard_state`` reads one entry per query and per response window;
    it equals the per-record scan in everything the MAC reads."""

    READERS_X_M = (0.0, 60.0, 130.0, 400.0)
    HEAR_RANGE_M = 50.0

    def _window(self, air, rng, name, x_m, t_s, n):
        query = air.record_query(name, t_s, x_m=x_m)
        start = query.end_s + TURNAROUND_S
        for k in range(n):
            # Responders spread +-70 m around the pole, so one window's
            # responders straddle the hearing range of a neighbour.
            air.record_response(
                f"tag{k}", start, triggered_by=name,
                x_m=x_m + float(rng.uniform(-70.0, 70.0)),
            )

    def _random_run(self, seed, duration_s, slack_s=0.02):
        """A seeded random log sensed as it grows; yields ``(log, view
        state, record-scan state)`` at each sense."""
        rng = np.random.default_rng(seed)
        air = AirLog(sense_slack_s=slack_s)
        scan = RecordScan(air)
        t = 0.0
        newest = 0.0
        while t < duration_s:
            t += float(rng.exponential(0.4e-3))
            i = int(rng.integers(len(self.READERS_X_M)))
            name, x_m = f"r{i}", self.READERS_X_M[i]
            action = rng.random()
            if action < 0.45:
                self._window(air, rng, name, x_m, t, int(rng.integers(0, 30)))
            elif action < 0.6:
                # A decode burst: its later queries are recorded ahead of
                # the clock, one response record per burst capture.
                for j in range(int(rng.integers(1, 5))):
                    t_q = t + j * 1e-3
                    air.record_query(name, t_q, x_m=x_m)
                    air.record_response(
                        f"{name}-burst", t_q + QUERY_DURATION_S + TURNAROUND_S,
                        triggered_by=name, x_m=x_m,
                    )
            elif action < 0.7:
                # Two readers' windows whose response records interleave:
                # equal windows that are not consecutive stay apart.
                other = (i + 1) % len(self.READERS_X_M)
                starts = {}
                for who in (i, other):
                    q = air.record_query(f"r{who}", t, x_m=self.READERS_X_M[who])
                    starts[who] = q.end_s + TURNAROUND_S
                for k in range(int(rng.integers(2, 8))):
                    for who in (i, other):
                        air.record_response(
                            f"tag{who}-{k}", starts[who], triggered_by=f"r{who}",
                            x_m=self.READERS_X_M[who] + float(rng.uniform(-70.0, 70.0)),
                        )
            elif action < 0.75:
                # Unplaced energy is heard everywhere.
                air.record_response("stray", t, triggered_by=None, x_m=None)
            kind = rng.random()
            if kind < 0.5:
                now = t
            elif kind < 0.7:
                now = t + float(rng.uniform(0.0, 4e-3))  # a burst senses ahead
            elif kind < 0.95:
                now = newest - float(rng.uniform(0.0, slack_s))  # within the slack
            else:
                now = newest - float(rng.uniform(slack_s, 5 * slack_s))  # beyond it
            newest = max(newest, now)
            listener = self.READERS_X_M[int(rng.integers(len(self.READERS_X_M)))]
            gated = rng.random() < 0.7
            x_kw = {"x_m": listener, "hear_range_m": self.HEAR_RANGE_M} if gated else {}
            yield air, air.heard_state(now, **x_kw), scan.heard_state(now, **x_kw)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_the_record_scan_on_random_logs(self, seed):
        senses = heard = 0
        for _, view_state, scan_state in self._random_run(seed, 0.4):
            assert same_state(view_state, scan_state)
            senses += 1
            heard += bool(view_state.busy_intervals)
        assert senses > 500 and heard > senses // 2

    def test_long_runs_trim_the_view(self):
        """The view keeps recent entries only; the records all stay."""
        sizes = []
        for air, view_state, scan_state in self._random_run(4, 1.2):
            assert same_state(view_state, scan_state)
            sizes.append(len(air._heard))
        assert len(air.transmissions) > 30 * max(sizes)

    def test_one_entry_per_query_and_per_window(self):
        air = AirLog()
        a = air.record_query("A", 0.0, x_m=0.0)
        b = air.record_query("B", 0.0, x_m=100.0)
        start = a.end_s + TURNAROUND_S
        for k in range(3):
            air.record_response(f"a{k}", start, triggered_by="A", x_m=float(k))
        air.record_response("b0", start, triggered_by="B", x_m=100.0)
        # Window A again, after B's record: not consecutive, so apart.
        air.record_response("a3", start, triggered_by="A", x_m=3.0)
        air.record_response("a4", start, triggered_by="A", x_m=4.0)
        state = air.heard_state(1e-3)
        assert [entry[:3] for entry in air._heard] == [
            (a.start_s, a.end_s, "query"),
            (b.start_s, b.end_s, "query"),
            (start, start + RESPONSE_DURATION_S, "response"),
            (start, start + RESPONSE_DURATION_S, "response"),
            (start, start + RESPONSE_DURATION_S, "response"),
        ]
        assert [len(entry[3]) for entry in list(air._heard)[2:]] == [3, 1, 2]
        assert same_state(state, RecordScan(air).heard_state(1e-3))

    def test_window_heard_when_any_responder_reaches(self):
        air = AirLog()
        start = 140e-6
        for x_m in (-80.0, -60.0, 45.0):  # only the last is within 50 m
            air.record_response("t", start, triggered_by="A", x_m=x_m)
        state = air.heard_state(1e-3, x_m=0.0, hear_range_m=50.0)
        assert state.busy_intervals == [(start, start + RESPONSE_DURATION_S)]
        assert air.heard_state(1e-3, x_m=-200.0, hear_range_m=50.0).busy_intervals == []

    def test_a_log_never_sensed_builds_no_view(self):
        air = AirLog()
        for k in range(100):
            air.record_query("A", k * 1e-3)
            air.record_response("t", k * 1e-3 + 140e-6, triggered_by="A")
        assert len(air._heard) == 0 and air._heard_folded == 0
        assert len(air.transmissions) == 200


class TestMedium:
    def test_csma_avoids_query_response_corruption(self):
        """§9's claim: with the 120 us listen rule, no reader query ever
        lands on top of a tag response."""
        medium = Medium(n_tags=3, rng=1)
        for name in ("A", "B", "C"):
            medium.add_reader(ReaderNode(name=name, use_csma=True))
        stats = medium.run(duration_s=0.5)
        assert stats["responses"] > 100
        assert stats["corrupted_responses"] == 0

    def test_blind_readers_corrupt_responses(self):
        """Without carrier sense, queries land inside response windows."""
        medium = Medium(n_tags=3, rng=2)
        for name in ("A", "B", "C"):
            medium.add_reader(ReaderNode(name=name, use_csma=False))
        stats = medium.run(duration_s=0.5)
        assert stats["corrupted_responses"] > 0

    def test_csma_defers_sometimes(self):
        medium = Medium(n_tags=2, rng=3)
        medium.add_reader(ReaderNode(name="A", use_csma=True, query_interval_s=0.7e-3))
        medium.add_reader(ReaderNode(name="B", use_csma=True, query_interval_s=0.7e-3))
        stats = medium.run(duration_s=0.5)
        assert stats["queries_deferred"] > 0
        assert stats["corrupted_responses"] == 0

    def test_queries_trigger_responses(self):
        medium = Medium(n_tags=4, rng=4)
        medium.add_reader(ReaderNode(name="A"))
        stats = medium.run(duration_s=0.1)
        assert stats["responses"] == 4 * stats["queries_sent"]

    def test_single_reader_never_defers(self):
        medium = Medium(n_tags=1, rng=5)
        medium.add_reader(ReaderNode(name="solo", query_interval_s=2e-3))
        stats = medium.run(duration_s=0.2)
        assert stats["queries_deferred"] == 0
        assert stats["corrupted_responses"] == 0

    def test_transmission_overlap_logic(self):
        a = Transmission(TxKind.QUERY, "A", 0.0, 1.0)
        b = Transmission(TxKind.RESPONSE, "t", 0.5, 1.5)
        c = Transmission(TxKind.RESPONSE, "t", 1.0, 2.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)
