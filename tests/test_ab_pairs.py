"""The summary ``python -m tools.ab_pairs`` prints, on fixed pairs."""

import math

import pytest

from tools.ab_pairs import quartiles, summarize

#: Ten alternating (base, change) pairs of ``reads_per_s``.
BASE = [83.2, 95.4, 91.5, 89.0, 113.1, 109.2, 95.2, 122.8, 90.0, 93.7]
CHANGE = [111.0, 124.5, 125.4, 111.7, 123.1, 102.1, 109.5, 147.9, 141.3, 150.5]


class TestSummarize:
    def test_higher_is_better(self):
        s = summarize(BASE, CHANGE, "higher")
        assert (s["wins"], s["losses"], s["pairs"]) == (9, 1, 10)
        assert s["base"] == pytest.approx((89.75, 94.45, 110.175))
        assert s["change"][1] == pytest.approx(123.8)
        assert s["gain"] == pytest.approx(29.35)
        assert s["gain_pct"] == pytest.approx(100 * 29.35 / 94.45)
        assert s["base_iqr"] == pytest.approx(20.425)
        assert s["exceeds_iqr"]

    def test_lower_is_better_and_ties_count_for_neither(self):
        s = summarize([10.0, 12.0, 11.0], [9.0, 12.0, 13.0], "lower")
        assert (s["wins"], s["losses"]) == (1, 1)
        assert s["base"] == (10.0, 11.0, 12.0)
        assert s["gain"] == -1.0
        assert s["base_iqr"] == 2.0
        assert not s["exceeds_iqr"]

    def test_one_pair_is_its_own_quartiles(self):
        assert quartiles([4.0]) == (4.0, 4.0, 4.0)
        s = summarize([4.0], [5.0], "lower")
        assert (s["wins"], s["losses"], s["base_iqr"]) == (0, 1, 0.0)
        assert s["gain"] == -1.0 and s["exceeds_iqr"]

    def test_zero_base_median_has_no_percentage(self):
        assert math.isnan(summarize([0.0, 0.0], [1.0, 1.0], "higher")["gain_pct"])

    def test_rejects_unpaired_or_unknown_direction(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], [1.0], "higher")
        with pytest.raises(ValueError):
            summarize([], [], "higher")
        with pytest.raises(ValueError):
            summarize([1.0], [2.0], "faster")
