"""Fig 16: identification time vs number of colliding transponders.

The paper decodes tag ids out of collisions of 1..10 tags; since queries
go out every 1 ms, identification time = queries-to-CRC-pass x 1 ms:
~4.2 ms for 2 colliding tags, ~16.2 ms for 5, within ~50 ms at 10. It
also notes decoding *all* colliding tags costs no more air time than the
slowest single tag, because the same collisions are recombined per target.
"""

import numpy as np

from bench_helpers import population_simulator
from conftest import scaled
from repro.constants import DEFAULT_SAMPLE_RATE_HZ
from repro.core.cfo import extract_cfo_peaks
from repro.core.decoding import CoherentDecoder, DecodeSession


def bench_fig16_identification_time(benchmark, report):
    experiments = scaled(6)
    sizes = tuple(range(1, 11))

    def run_all():
        per_tag_ms: dict[int, list[float]] = {m: [] for m in sizes}
        all_tags_ms: dict[int, list[float]] = {m: [] for m in sizes}
        decoded_fraction: dict[int, list[float]] = {m: [] for m in sizes}
        for m in sizes:
            for run in range(experiments):
                simulator = population_simulator(m=m, seed=1600 + 113 * m + run)
                decoder = CoherentDecoder(DEFAULT_SAMPLE_RATE_HZ)
                session = DecodeSession(
                    query_fn=lambda t: simulator.query(t), decoder=decoder
                )
                peaks = extract_cfo_peaks(
                    simulator.query(0.0).antenna(0), min_snr_db=15
                )
                results = session.decode_all(
                    [p.cfo_hz for p in peaks], max_queries=64
                )
                succeeded = [r for r in results.values() if r.success]
                if not succeeded:
                    continue
                per_tag_ms[m].extend(r.identification_time_ms for r in succeeded)
                all_tags_ms[m].append(session.total_air_time_s * 1e3)
                decoded_fraction[m].append(len(succeeded) / max(len(results), 1))
        return per_tag_ms, all_tags_ms, decoded_fraction

    per_tag, all_tags, decoded = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report(f"Fig 16 — identification time vs colliding tags ({experiments} runs/point)")
    report(f"{'m':>3} {'per-tag mean [ms]':>18} {'all-tags air [ms]':>18} {'decoded':>8}")
    means = {}
    for m in sizes:
        if not per_tag[m]:
            continue
        means[m] = float(np.mean(per_tag[m]))
        report(
            f"{m:3d} {means[m]:18.1f} {np.mean(all_tags[m]):18.1f} "
            f"{np.mean(decoded[m]) * 100:7.0f}%"
        )
    report("")
    report("paper: ~4.2 ms at m=2, ~16.2 ms at m=5, <~50 ms at m=10;")
    report("decoding all tags reuses the same collisions (shared air time)")

    assert means[1] <= 4.0, "a lone tag decodes almost immediately"
    assert means[2] < means[5] < means[10], "time must grow with collision size"
    assert means[5] < 35.0
    assert means[10] < 64.0
