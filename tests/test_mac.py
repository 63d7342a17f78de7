"""Unit tests for repro.core.mac and repro.sim.medium (§9)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import (
    CSMA_LISTEN_S,
    QUERY_DURATION_S,
    RESPONSE_DURATION_S,
    TURNAROUND_S,
)
from repro.core.mac import CsmaState, ReaderMac, _idle_since
from repro.errors import SimulationError
from repro.sim.medium import AirLog, Medium, ReaderNode, Transmission, TxKind


def heard(*intervals) -> CsmaState:
    """A sensed state from ``(start, end)`` or ``(start, end, kind)``
    intervals; energy without a kind is unclassified."""
    return CsmaState.from_heard(
        [interval if len(interval) == 3 else (*interval, "unknown") for interval in intervals]
    )


class TestCsmaState:
    def test_idle_forever_when_silent(self):
        assert _idle_since(CsmaState().busy_intervals, 5.0) == float("inf")

    def test_busy_interval_blocks(self):
        state = heard((1.0, 2.0))
        assert _idle_since(state.busy_intervals, 1.5) == 0.0

    def test_idle_after_interval(self):
        state = heard((1.0, 2.0))
        assert _idle_since(state.busy_intervals, 2.5) == pytest.approx(0.5)

    def test_intervals_merge(self):
        state = heard((1.0, 2.0), (1.5, 3.0))
        assert state.busy_intervals == [(1.0, 3.0)]

    def test_disjoint_intervals_kept(self):
        state = heard((1.0, 2.0), (5.0, 6.0))
        assert len(state.busy_intervals) == 2

    def test_interval_ending_exactly_at_t_is_zero_idle(self):
        """A transmission ending exactly at ``t_s`` means the medium has
        been idle for zero time — the listen window starts over."""
        state = heard((1.0, 2.0))
        assert _idle_since(state.busy_intervals, 2.0) == 0.0
        assert not ReaderMac().can_transmit(2.0, state)

    def test_abutting_intervals_merge(self):
        """Back-to-back energy is one continuous busy stretch."""
        state = heard((1.0, 2.0), (2.0, 3.0))
        assert state.busy_intervals == [(1.0, 3.0)]
        assert _idle_since(state.busy_intervals, 3.0) == 0.0
        assert _idle_since(state.busy_intervals, 3.5) == pytest.approx(0.5)

    def test_response_energy_subtracts_query_spans(self):
        state = heard((1.0, 4.0), (2.0, 3.0, "query"))  # query inside unknown energy
        assert state.response_energy_intervals() == [(1.0, 2.0), (3.0, 4.0)]

    def test_pure_query_energy_leaves_no_response_energy(self):
        state = heard((1.0, 2.0, "query"))
        assert state.response_energy_intervals() == []
        assert _idle_since(state.response_energy_intervals(), 5.0) == float("inf")

    def test_response_windows_follow_each_query(self):
        state = heard((0.0, 20e-6, "query"))
        (window,) = state.response_windows()
        assert window[0] == pytest.approx(20e-6 + TURNAROUND_S)
        assert window[1] == pytest.approx(20e-6 + TURNAROUND_S + RESPONSE_DURATION_S)


class TestReaderMac:
    def test_listen_window_is_120us(self):
        assert CSMA_LISTEN_S == pytest.approx(120e-6)
        assert CSMA_LISTEN_S == pytest.approx(QUERY_DURATION_S + TURNAROUND_S)

    def test_transmit_allowed_on_silent_medium(self):
        assert ReaderMac().can_transmit(0.0, CsmaState())

    def test_blocked_right_after_activity(self):
        state = heard((0.0, 1e-3))
        mac = ReaderMac()
        assert not mac.can_transmit(1e-3 + 50e-6, state)

    def test_allowed_after_full_listen(self):
        state = heard((0.0, 1e-3))
        mac = ReaderMac()
        assert mac.can_transmit(1e-3 + 121e-6, state)

    def test_next_opportunity(self):
        state = heard((0.0, 1e-3))
        mac = ReaderMac()
        t = mac.next_opportunity(1e-3, state)
        assert t == pytest.approx(1e-3 + CSMA_LISTEN_S)
        assert mac.can_transmit(t, state)


class TestDeferToQueriesPolicies:
    """The §9 refinement: classified query energy is benign; response
    energy, unclassified energy and the response windows heard queries
    open are not."""

    def query_just_ended(self, end_s=1.0):
        return heard((end_s - QUERY_DURATION_S, end_s, "query"))

    def test_default_policy_ignores_query_energy(self):
        """Right after another reader's query ends, a §9 reader may
        transmit — its own 20 µs query finishes before the other
        query's response slot opens."""
        state = self.query_just_ended(1.0)
        assert ReaderMac().can_transmit(1.0 + 10e-6, state)

    def test_default_policy_honors_response_window(self):
        """The query may not land inside the response slot a heard query
        opened (that is the §9 harmful case)."""
        state = self.query_just_ended(1.0)
        inside = 1.0 + TURNAROUND_S + 50e-6
        assert not ReaderMac().can_transmit(inside, state)

    def test_default_policy_keeps_own_slot_clear_of_announced_queries(self):
        """A reader never invites responses into a query it already
        knows is coming (an announced burst query)."""
        now = 1.0
        state = heard((now + 300e-6, now + 320e-6, "query"))  # announced
        mac = ReaderMac()
        assert not mac.can_transmit(now, state)  # slot would cover it
        t = mac.next_opportunity(now, state)
        assert t > now
        assert mac.can_transmit(t, state)

    def test_both_policies_defer_to_unclassified_energy(self):
        """Unclassified energy blocks the listen window as response
        energy does: the §9 rule covers anything a reader cannot rule
        out."""
        for kind in ("unknown", "response"):
            state = heard((1.0 - 50e-6, 1.0, kind))
            assert not ReaderMac().can_transmit(1.0 + 50e-6, state)
            assert ReaderMac().can_transmit(1.0 + CSMA_LISTEN_S + 1e-9, state)

    def test_next_opportunity_agrees_with_can_transmit(self):
        state = heard((0.0, 1e-3), (2e-3, 2.02e-3, "query"))
        mac = ReaderMac()
        t = mac.next_opportunity(1e-3, state)
        assert mac.can_transmit(t, state)


def per_probe_can_transmit(now_s, state: CsmaState) -> bool:
    """The per-probe carrier sense: every call reads the state afresh."""
    if _idle_since(state.response_energy_intervals(), now_s) < CSMA_LISTEN_S:
        return False
    tx_end = now_s + QUERY_DURATION_S
    if any(
        now_s < w_hi and w_lo < tx_end for w_lo, w_hi in state.response_windows()
    ):
        return False
    slot_lo = tx_end + TURNAROUND_S
    slot_hi = slot_lo + RESPONSE_DURATION_S
    return not any(
        q_lo < slot_hi and slot_lo < q_hi for q_lo, q_hi in state.query_spans()
    )


def per_probe_next_opportunity(now_s, state: CsmaState) -> float:
    """The search that probed every candidate through the per-probe sense."""
    if per_probe_can_transmit(now_s, state):
        return now_s
    busy = state.response_energy_intervals()
    windows = state.response_windows()
    spans = state.query_spans()
    candidates = [hi + CSMA_LISTEN_S for _, hi in busy]
    candidates += [w_hi for _, w_hi in windows]
    candidates += [q_hi - QUERY_DURATION_S - TURNAROUND_S for _, q_hi in spans]
    ends = [hi for _, hi in busy] + [w_hi for _, w_hi in windows]
    ends += [q_hi + CSMA_LISTEN_S for _, q_hi in spans]
    if ends:
        candidates.append(max(ends) + CSMA_LISTEN_S)
    for t in sorted(c for c in candidates if c > now_s):
        if per_probe_can_transmit(t, state):
            return t
    return now_s


class TestSenseOncePerSearch:
    """The search reads what the policy defers to once; every verdict and
    every search result equals the per-probe sense, on states built the
    way the air log builds them (``CsmaState.from_heard``)."""

    @staticmethod
    def random_state(rng) -> CsmaState:
        intervals = []
        for _ in range(int(rng.integers(0, 30))):
            start = float(rng.uniform(0.0, 5e-3))
            kind = str(rng.choice(["query", "response", "unknown"]))
            span_s = {
                "query": QUERY_DURATION_S,
                "response": RESPONSE_DURATION_S,
                "unknown": float(rng.uniform(1e-6, 300e-6)),
            }[kind]
            intervals.append((start, start + span_s, kind))
        return CsmaState.from_heard(intervals)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_equals_the_per_probe_sense_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        mac = ReaderMac()
        for _ in range(200):
            state = self.random_state(rng)
            edges = [hi + CSMA_LISTEN_S for _, hi in state.busy_intervals]
            edges += [w_hi for _, w_hi in state.response_windows()]
            for now_s in list(rng.uniform(0.0, 6e-3, 8)) + edges:
                assert mac.can_transmit(now_s, state) == per_probe_can_transmit(
                    now_s, state
                )
                assert mac.next_opportunity(now_s, state) == per_probe_next_opportunity(
                    now_s, state
                )


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
        assert _idle_since(state.busy_intervals, 1e-3) == float("inf")

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


class TestCorruptionSweep:
    """The bounded sweep equals the brute-force check of every response
    against every query."""

    @staticmethod
    def _brute_force(air: AirLog):
        return [
            response
            for response in air.responses()
            if any(query.overlaps(response) for query in air.queries())
        ]

    @staticmethod
    def _random_log(rng) -> AirLog:
        air = AirLog()
        horizon_s = 0.05
        for _ in range(int(rng.integers(20, 200))):
            start = float(rng.uniform(0.0, horizon_s))
            if rng.random() < 0.5:
                air.record_query(f"r{rng.integers(4)}", start)
            else:
                air.record_response(f"t{rng.integers(50)}", start)
        # Queries longer than the standard 20 us, recorded directly: the
        # sweep's lower bound must widen to the longest one.
        for span_s in rng.uniform(QUERY_DURATION_S, 40 * QUERY_DURATION_S, 3):
            start = float(rng.uniform(0.0, horizon_s))
            air.record(Transmission(TxKind.QUERY, "long", start, start + float(span_s)))
        return air

    def test_equals_brute_force_on_random_logs(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            air = self._random_log(rng)
            assert air.corrupted_responses() == self._brute_force(air)

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
        assert self._brute_force(air) == [response]


class RecordScan:
    """The per-record carrier-sense scan the sensing view replaced,
    reading the same log with its own dead-prefix cursor."""

    def __init__(self, air: AirLog) -> None:
        self.air = air
        self.cursor = 0

    def heard_state(self, now_s, horizon_s=10e-3):
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
                if tx.end_s >= floor
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

    N_READERS = 4

    def _window(self, air, name, t_s, n):
        query = air.record_query(name, t_s)
        start = query.end_s + TURNAROUND_S
        for k in range(n):
            air.record_response(f"tag{k}", start, triggered_by=name)

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
            i = int(rng.integers(self.N_READERS))
            name = f"r{i}"
            action = rng.random()
            if action < 0.45:
                self._window(air, name, t, int(rng.integers(0, 30)))
            elif action < 0.6:
                # A decode burst: its later queries are recorded ahead of
                # the clock, one response record per burst capture.
                for j in range(int(rng.integers(1, 5))):
                    t_q = t + j * 1e-3
                    air.record_query(name, t_q)
                    air.record_response(
                        f"{name}-burst", t_q + QUERY_DURATION_S + TURNAROUND_S,
                        triggered_by=name,
                    )
            elif action < 0.7:
                # Two readers' windows whose response records interleave:
                # equal windows that are not consecutive stay apart.
                other = (i + 1) % self.N_READERS
                starts = {}
                for who in (i, other):
                    q = air.record_query(f"r{who}", t)
                    starts[who] = q.end_s + TURNAROUND_S
                for k in range(int(rng.integers(2, 8))):
                    for who in (i, other):
                        air.record_response(
                            f"tag{who}-{k}", starts[who], triggered_by=f"r{who}"
                        )
            elif action < 0.75:
                # Energy no query of the log explains.
                air.record_response("stray", t, triggered_by=None)
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
            yield air, air.heard_state(now), scan.heard_state(now)

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
        a = air.record_query("A", 0.0)
        b = air.record_query("B", 0.0)
        start = a.end_s + TURNAROUND_S
        for k in range(3):
            air.record_response(f"a{k}", start, triggered_by="A")
        air.record_response("b0", start, triggered_by="B")
        # Window A again, after B's record: not consecutive, so apart.
        air.record_response("a3", start, triggered_by="A")
        air.record_response("a4", start, triggered_by="A")
        state = air.heard_state(1e-3)
        assert [entry[:3] for entry in air._heard] == [
            (a.start_s, a.end_s, "query"),
            (b.start_s, b.end_s, "query"),
            (start, start + RESPONSE_DURATION_S, "response"),
            (start, start + RESPONSE_DURATION_S, "response"),
            (start, start + RESPONSE_DURATION_S, "response"),
        ]
        assert [entry[3] for entry in list(air._heard)[2:]] == ["A", "B", "A"]
        assert same_state(state, RecordScan(air).heard_state(1e-3))

    def test_a_log_never_sensed_builds_no_view(self):
        air = AirLog()
        for k in range(100):
            air.record_query("A", k * 1e-3)
            air.record_response("t", k * 1e-3 + 140e-6, triggered_by="A")
        assert len(air._heard) == 0 and air._heard_folded == 0
        assert len(air.transmissions) == 200


class TestSettlement:
    """Settling a log at event times keeps its verdicts: a response is
    settled once it has ended, and every record made at event time T
    starts at or after T, so the running totals and the stepped-on
    responses equal the sweep of a copy nobody settled, and what the
    settled log still answers (sensing, overlap checks reaching back the
    lookback) equals what the copy answers."""

    LOOKBACK_S = 2e-3

    #: One event: microseconds since the previous one, whether the log
    #: settles and whether a reader senses at it (rarely, so records go
    #: unsensed across settles), and the records it makes as (kind,
    #: microseconds after the event, reader, responders).
    EVENT = st.tuples(
        st.integers(0, 700),
        st.booleans(),
        st.sampled_from((False, False, False, True)),
        st.lists(
            st.tuples(
                st.sampled_from(["query", "window", "burst"]),
                st.integers(0, 1200),
                st.integers(0, 2),
                st.integers(1, 3),
            ),
            max_size=4,
        ),
    )

    @staticmethod
    def _keys(responses):
        return Counter((r.triggered_by, r.start_s, r.end_s, r.source) for r in responses)

    @given(st.lists(EVENT, min_size=1, max_size=50), st.data())
    @settings(max_examples=150, deadline=None)
    def test_totals_and_stepped_on_equal_an_unsettled_copy(self, events, data):
        air, copy = AirLog(sense_slack_s=0.01), AirLog(sense_slack_s=0.01)
        stepped_on = []
        t = 0.0
        for dt_us, settle, sense, records in events:
            t += dt_us * 1e-6
            if settle:
                stepped_on += air.settle(t, self.LOOKBACK_S)
            for kind, offset_us, reader, n in records:
                start = t + offset_us * 1e-6
                name = f"r{reader}"
                if kind == "query":
                    copy.record(air.record_query(name, start))
                    continue
                if kind == "burst":
                    copy.record(air.record_query(name, start))
                    start += QUERY_DURATION_S + TURNAROUND_S
                for k in range(n):
                    copy.record(air.record_response(f"{name}-{k}", start, triggered_by=name))
            if sense:
                assert same_state(air.heard_state(t), copy.heard_state(t))
            if air.settled_s == t:
                # Overlap checks reaching back no further than the lookback.
                offset_s = data.draw(st.integers(0, 2000)) * 1e-6
                lo = t - self.LOOKBACK_S + offset_s
                hi = lo + RESPONSE_DURATION_S
                assert air.any_query_overlapping(lo, hi) == copy.any_query_overlapping(lo, hi)
                assert self._keys(air.corrupted_responses()) == self._keys(
                    r for r in copy.corrupted_responses() if r.end_s > t
                )
        stepped_on += air.settle(math.inf, self.LOOKBACK_S)
        assert air.settled_responses == len(copy.responses())
        assert air.settled_corrupted == len(copy.corrupted_responses())
        assert self._keys(stepped_on) == self._keys(copy.corrupted_responses())
        assert air.transmissions == [] and air.responses() == [] and air.queries() == []

    def test_a_response_ending_after_the_clock_stays_open(self):
        """A response still on the air at the settle time can be stepped
        on by a query starting at that time."""
        air = AirLog()
        air.record_response("tag0", 0.0, triggered_by="A")
        assert air.settle(RESPONSE_DURATION_S - 12e-6, 0.0) == []
        assert air.settled_responses == 0
        query = air.record_query("B", RESPONSE_DURATION_S - 12e-6)
        (stepped_on,) = air.settle(RESPONSE_DURATION_S, 0.0)
        assert stepped_on.overlaps(query)
        assert (air.settled_responses, air.settled_corrupted) == (1, 1)

    def test_queries_stay_for_the_lookback(self):
        air = AirLog()
        query = air.record_query("A", 0.0)
        air.settle(1e-3, 2e-3)
        assert air.queries() == [query]
        assert air.any_query_overlapping(0.0, 1e-3)
        air.settle(3e-3, 2e-3)
        assert air.queries() == [] and not air.any_query_overlapping(0.0, 1e-3)

    def test_the_sensing_view_keeps_what_settling_dropped(self):
        """Records nobody sensed before they were dropped still reach
        the sensing view."""
        air = AirLog()
        query = air.record_query("A", 0.0)
        response = air.record_response("tag0", 120e-6, triggered_by="A")
        air.settle(1e-3, 0.0)
        assert air.transmissions == []
        state = air.heard_state(1e-3)
        assert state.query_spans() == [(query.start_s, query.end_s)]
        assert state.response_energy_intervals() == [(response.start_s, response.end_s)]

    def test_a_log_settled_but_never_sensed_keeps_a_small_view(self):
        """Settling folds what it drops into the sensing view, and trims
        the view to what a later sense can still read."""
        air = AirLog(sense_slack_s=1e-3)
        sizes = []
        for k in range(200):
            air.settle(k * 1e-3, self.LOOKBACK_S)
            air.record_query("A", k * 1e-3)
            air.record_response("t", k * 1e-3 + 140e-6, triggered_by="A")
            sizes.append(len(air._heard) + len(air.transmissions))
        # Two records a millisecond, held for the lookback plus the slack.
        assert max(sizes) <= 4 * (self.LOOKBACK_S + 1e-3) / 1e-3 + 4

    def test_a_record_before_the_settle_time_raises(self):
        air = AirLog()
        air.settle(1.0, 0.25)
        air.record_query("A", 1.0)
        with pytest.raises(SimulationError, match="settled at 1.0"):
            air.record_query("A", 1.0 - 1e-9)
        with pytest.raises(SimulationError):
            air.record_response("tag0", 0.5)


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
