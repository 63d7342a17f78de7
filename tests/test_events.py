"""Unit tests for repro.sim.events and repro.sim.clock."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs import Obs
from repro.sim.clock import DriftingClock, NtpClock
from repro.sim.events import KINDS, EventScheduler


class TestEventScheduler:
    def test_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda s: order.append("late"), "attempt")
        scheduler.schedule(1.0, lambda s: order.append("early"), "attempt")
        scheduler.run_until(3.0)
        assert order == ["early", "late"]

    def test_priority_breaks_ties(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(1.0, lambda s: order.append("low"), "attempt", priority=1)
        scheduler.schedule(1.0, lambda s: order.append("high"), "attempt", priority=0)
        scheduler.run_until(1.0)
        assert order == ["high", "low"]

    def test_fifo_within_same_priority(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(1.0, lambda s: order.append("first"), "attempt")
        scheduler.schedule(1.0, lambda s: order.append("second"), "attempt")
        scheduler.run_until(1.0)
        assert order == ["first", "second"]

    def test_callbacks_can_schedule(self):
        scheduler = EventScheduler()
        seen = []

        def chain(s):
            seen.append(s.now_s)
            if len(seen) < 3:
                s.schedule(s.now_s + 1.0, chain, "attempt")

        scheduler.schedule(0.0, chain, "attempt")
        assert scheduler.run_until(10.0) == 3
        assert seen == [0.0, 1.0, 2.0]

    def test_run_until_stops(self):
        scheduler = EventScheduler()
        seen = []
        for t in (1.0, 2.0, 3.0):
            scheduler.schedule(t, lambda s, t=t: seen.append(t), "attempt")
        ran = scheduler.run_until(2.0)
        assert ran == 2 and seen == [1.0, 2.0]
        assert scheduler.now_s == 2.0
        assert scheduler.processed == 2
        assert scheduler.run_until(3.0) == 1 and seen == [1.0, 2.0, 3.0]

    def test_run_until_advances_an_idle_clock(self):
        scheduler = EventScheduler()
        assert scheduler.run_until(4.0) == 0
        assert scheduler.now_s == 4.0

    def test_past_scheduling_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        with pytest.raises(SimulationError):
            scheduler.schedule(4.0, lambda s: None, "attempt")

    def test_unknown_kind_rejected(self):
        """An event's kind labels its series, so it comes from the fixed
        vocabulary: a per-instance label would add a series per car."""
        scheduler = EventScheduler()
        for kind in KINDS:
            scheduler.schedule(1.0, lambda s: None, kind)
        with pytest.raises(SimulationError, match="unknown event kind"):
            scheduler.schedule(1.0, lambda s: None, "pole-0-next")
        assert scheduler.run_until(1.0) == len(KINDS)

    def test_obs_counts_by_kind(self):
        obs = Obs()
        scheduler = EventScheduler(obs=obs)
        scheduler.schedule(1.0, lambda s: None, "attempt")
        scheduler.schedule(2.0, lambda s: None, "retry")
        scheduler.schedule(3.0, lambda s: None, "retry")
        scheduler.run_until(2.5)
        counters = obs.metrics.snapshot()["counters"]
        assert counters == {
            "scheduler.processed{kind=attempt}": 1,
            "scheduler.processed{kind=retry}": 1,
            "scheduler.scheduled{kind=attempt}": 1,
            "scheduler.scheduled{kind=retry}": 2,
        }

    def test_runaway_guard(self):
        scheduler = EventScheduler()

        def forever(s):
            s.schedule(s.now_s + 1e-9, forever, "retry")

        scheduler.schedule(0.0, forever, "retry")
        with pytest.raises(SimulationError):
            scheduler.run_until(1.0, max_events=100)
        assert scheduler.processed == 100


class TestClocks:
    def test_drifting_clock_offset(self):
        clock = DriftingClock(offset_s=0.5)
        assert clock.now(10.0) == pytest.approx(10.5)

    def test_drifting_clock_ppm(self):
        clock = DriftingClock(drift_ppm=100.0)
        assert clock.now(1000.0) == pytest.approx(1000.1)

    def test_ntp_clock_error_bounded(self):
        clock = NtpClock(sync_sigma_s=0.01, rng=np.random.default_rng(0))
        errors = [abs(clock.now(t) - t) for t in np.linspace(0, 600, 100)]
        assert max(errors) < 0.06  # few sigma plus drift

    def test_ntp_resync_changes_offset(self):
        clock = NtpClock(sync_sigma_s=0.01, sync_interval_s=10.0, rng=np.random.default_rng(1))
        first = clock.current_offset_s
        clock.now(25.0)  # crosses two sync boundaries
        assert clock.current_offset_s != first

    def test_ntp_typical_error_tens_of_ms(self):
        """The paper's 'tens of ms' synchronization regime."""
        rng = np.random.default_rng(2)
        offsets = [abs(NtpClock(rng=rng).current_offset_s) for _ in range(300)]
        assert 0.005 < np.mean(offsets) < 0.02  # sigma = 10 ms default

    def test_bad_interval_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            NtpClock(sync_interval_s=0.0)
