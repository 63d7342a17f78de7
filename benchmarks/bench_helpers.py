"""Shared scene builders for the benchmark suite.

The counting/decoding benches replicate the paper's §12.1 methodology:
tag responses are combined into collisions with comparable amplitudes
(the authors recorded each tag solo with a directional antenna in a
parking lot, then summed subsets). ``lot_simulator`` reproduces that
regime; ``street_simulator`` adds realistic near-far spread for the
ablation study.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.channel.antenna import TriangleArray
from repro.channel.noise import thermal_noise_power_w
from repro.channel.propagation import LosChannel
from repro.constants import DEFAULT_SAMPLE_RATE_HZ, EXPERIMENT_POLE_HEIGHT_M
from repro.datasets import empirical_carriers_hz
from repro.phy.oscillator import Oscillator
from repro.phy.packet import TransponderPacket
from repro.phy.transponder import Transponder
from repro.sim.city.moving import ParkedSource

NOISE_W = thermal_noise_power_w(DEFAULT_SAMPLE_RATE_HZ)

RESULTS_DIR = Path(__file__).parent / "results"


class PhaseTimer:
    """Wall-clock phase accounting for the bench suite.

    The library itself never reads the wall clock (the determinism
    checker enforces it); profiling therefore lives out here. Benches
    wrap their hot sections in ``with timer.phase("count"):`` blocks and
    :func:`write_bench_json` attaches the accumulated breakdown to every
    ``BENCH_*.json`` as a ``timings`` key — per-phase seconds, call
    counts, and share of the instrumented total — then resets, so one
    pytest process writing several bench files never double-reports.

    Wall-clock readings annotate the run; they never feed a gated
    number, so the simulation results stay bit-identical regardless of
    host speed.
    """

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        """Accumulate the block's wall time under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._seconds[name] = self._seconds.get(name, 0.0) + dt
            self._counts[name] = self._counts.get(name, 0) + 1

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulated phases into this one.

        Worker shards time their own hot sections; the coordinator
        merges shard timers (in sorted-label order, so repeated merges
        of the same shards are deterministic) before ``take`` writes
        the breakdown.
        """
        for name in sorted(other._seconds):
            self._seconds[name] = self._seconds.get(name, 0.0) + other._seconds[name]
            self._counts[name] = self._counts.get(name, 0) + other._counts[name]

    def take(self) -> dict:
        """The breakdown so far, JSON-friendly; resets the timer."""
        total = sum(self._seconds.values())
        phases = {
            name: {
                "seconds": self._seconds[name],
                "count": self._counts[name],
                "share": self._seconds[name] / total if total else 0.0,
            }
            for name in sorted(self._seconds)
        }
        self._seconds, self._counts = {}, {}
        return {"total_s": total, "phases": phases}


#: The suite-wide timer every bench module shares; write_bench_json
#: drains it into the file it writes.
timer = PhaseTimer()


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist a benchmark's headline numbers machine-readably.

    Writes ``benchmarks/results/BENCH_<name>.json`` so the performance
    trajectory can be tracked across commits (the human-readable ``.txt``
    transcripts are free-form; this is the stable contract). Values must
    be JSON-serializable; numpy scalars are coerced and non-finite
    floats become null (bare ``NaN`` is not valid JSON). Every file
    additionally carries the shared :data:`timer`'s ``timings``
    breakdown (count/refine/decode/mac wall-clock shares) for the
    phases the bench wrapped; the timer resets on write.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload.setdefault("timings", timer.take())

    def coerce(value):
        if isinstance(value, dict):
            return {str(k): coerce(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [coerce(v) for v in value]
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return float(value) if math.isfinite(value) else None
        return value

    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(coerce(payload), indent=2, sort_keys=True) + "\n")
    return path


def pole_array() -> TriangleArray:
    return TriangleArray.street_pole(np.array([0.0, 0.0, EXPERIMENT_POLE_HEIGHT_M]))


def tags_from_population(m: int, rng: np.random.Generator, spread: str) -> list[Transponder]:
    """``m`` tags with carriers drawn (without replacement) from the
    synthetic 155-tag population, placed per the requested regime."""
    carriers = rng.choice(empirical_carriers_hz(), size=m, replace=m > 155)
    tags = []
    for carrier in carriers:
        if spread == "lot":
            position = (rng.uniform(-8, 8), rng.uniform(-11, -7), 1.0)
        elif spread == "street":
            position = (rng.uniform(-20, 20), rng.uniform(-12, -4), 1.0)
        else:
            raise ValueError(f"unknown spread {spread!r}")
        tags.append(
            Transponder(
                packet=TransponderPacket.random(rng),
                oscillator=Oscillator(float(carrier)),
                position_m=np.array(position),
                rng=rng,
            )
        )
    return tags


def population_simulator(
    m: int, seed: int, spread: str = "lot"
) -> ParkedSource:
    """A collision simulator over ``m`` tags from the 155-tag population."""
    rng = np.random.default_rng(seed)
    tags = tags_from_population(m, rng, spread)
    return ParkedSource(
        tags,
        pole_array().positions_m,
        LosChannel(),
        noise_power_w=NOISE_W,
        rng=rng,
    )
