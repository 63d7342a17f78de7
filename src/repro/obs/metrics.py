"""Labelled counters, gauges, and histograms with deterministic snapshots.

A metric series is identified by ``(name, sorted label items)`` — e.g.
``air.query{kind=decode, station=p3}``. The registry stores plain
Python numbers; nothing here reads a clock or draws randomness, so a
snapshot is a pure function of what the simulation reported, and two
same-seed runs serialize byte-identically via :meth:`snapshot_json`.

Histograms bucket into a fixed 1-2-5 geometric ladder (1e-6 .. 1e6)
plus an overflow bucket, and track count/sum/min/max exactly.
"""

from __future__ import annotations

import json
from bisect import bisect_left

#: Upper bounds of the histogram buckets: a 1-2-5 ladder spanning
#: microseconds-to-megaseconds (or any other unit the caller uses).
BUCKET_BOUNDS = tuple(
    round(10.0**exp * mult, 9) for exp in range(-6, 7) for mult in (1.0, 2.0, 5.0)
)


def _series_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def render_key(name: str, labels: tuple) -> str:
    """``name{k=v, ...}`` — the human/JSON form of a series key."""
    if not labels:
        return name
    inner = ", ".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Histogram:
    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    def merge(self, other: "_Histogram") -> None:
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n

    def summary(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {},
        }
        for bound, n in zip(BUCKET_BOUNDS, self.buckets):
            if n:
                out["buckets"][f"le_{bound:g}"] = n
        if self.buckets[-1]:
            out["buckets"]["le_inf"] = self.buckets[-1]
        return out


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by name + labels."""

    def __init__(self):
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, _Histogram] = {}

    # -- recording -----------------------------------------------------
    def inc(self, name: str, n: float = 1, **labels) -> None:
        key = _series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[_series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        key = _series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram()
        hist.observe(value)

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one, in place.

        Worker shards each record into their own registry; the
        coordinator merges them after the run. Semantics per kind:
        counters and histograms add (series keys are already
        label-sorted tuples, so the union is order-independent);
        gauges are last-writer-wins, and merging shards in a fixed
        order keeps that deterministic — callers must sort shards
        before merging. The merged snapshot of shard registries
        equals the snapshot one shared registry would have produced,
        up to counter float-add ordering. Merging a registry into
        itself would double every series, so it is refused.
        """
        if other is self:
            raise ValueError("cannot merge a metrics registry into itself")
        for key in sorted(other._counters):
            self._counters[key] = self._counters.get(key, 0) + other._counters[key]
        for key in sorted(other._gauges):
            self._gauges[key] = other._gauges[key]
        for key in sorted(other._histograms):
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.merge(other._histograms[key])

    # -- reading -------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        """The current value of one counter series (0 if never touched)."""
        return self._counters.get(_series_key(name, labels), 0)

    def total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def snapshot(self) -> dict:
        """All series, sorted by rendered key — deterministic by design."""

        def table(store, value=lambda v: v):
            return {
                render_key(name, labels): value(v)
                for (name, labels), v in sorted(store.items())
            }

        return {
            "counters": table(self._counters),
            "gauges": table(self._gauges),
            "histograms": table(self._histograms, lambda h: h.summary()),
        }

    def snapshot_json(self) -> str:
        """Canonical serialization: byte-identical across same-seed runs."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.snapshot_json())
