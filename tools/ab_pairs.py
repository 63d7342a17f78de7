"""Alternating base/change pairs of the end-to-end benchmark, one command.

    python -m tools.ab_pairs BASE --workload W [--pairs 10] [--seed S]

Exports the git revision ``BASE`` with ``git archive`` into a temporary
directory (removed on exit) and runs ``benchmarks/e2e/run.py --trace 0``
of that tree and of this checkout, one fresh process each, at
``BENCHMARK.json``'s ``run_seconds``. The side that runs first
alternates from pair to pair, so a drift in the machine's speed lands on
both sides alike.

Every pair is printed (the three end-to-end metrics, ``correct`` and the
seeded-summary digest of each side). Then, per metric, each side's
median and quartiles (``statistics.quantiles(n=4)``, the cut
``run.py`` reports), the pairs the change won (ties count for neither
side) and whether the median difference exceeds the base's
interquartile range. Differing digests are reported, not failed on: a
change may mean to move outputs. The exit status is 1 when any run was
not ``correct``, 0 otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` cuts
    them; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: quartiles, wins, median gain.

    ``base[i]`` and ``change[i]`` are pair ``i``. ``better`` is
    ``"higher"`` or ``"lower"``. ``gain`` is the median difference in
    the better direction (positive when the change is better), and
    ``exceeds_iqr`` whether its size is larger than the base's
    interquartile range.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    base_q = quartiles(base)
    change_q = quartiles(change)
    gain = sign * (change_q[1] - base_q[1])
    iqr = base_q[2] - base_q[0]
    return {
        "base": base_q,
        "change": change_q,
        "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
        "losses": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
        "pairs": len(base),
        "gain": gain,
        "gain_pct": 100.0 * gain / abs(base_q[1]) if base_q[1] else float("nan"),
        "base_iqr": iqr,
        "exceeds_iqr": abs(gain) > iqr,
    }


def export(base: str, into: Path) -> Path:
    """Write the tree of revision ``base`` into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", base],
        capture_output=True,
        check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seconds: float, seed: int | None) -> dict:
    """One untraced benchmark run of ``tree``: its metrics, ``correct``
    and digest. A run that crashes or prints nothing is not correct."""
    cmd = [sys.executable, str(tree / RUNNER), "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    details = {}
    for line in lines:
        if line.startswith("e2e-details "):
            details = json.loads(line[len("e2e-details "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"metrics": {}, "correct": False, "digest": None}
    return {
        "metrics": {name: row["value"] for name, row in result.get("metrics", {}).items()},
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "digest": details.get("digest"),
    }


def describe(side: str, run: dict, metrics: list[str]) -> str:
    values = "  ".join(
        f"{name} {run['metrics'].get(name, float('nan')):.6g}" for name in metrics
    )
    digest = (run["digest"] or "none")[:16]
    return f"  {side:<6}  {values}  correct {str(run['correct']).lower()}  digest {digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (one of {sorted(names)})")
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]

    # A terminated run still removes its exported tree on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {"base": export(args.base, Path(tmp)), "change": ROOT}
        print(f"{args.workload}: {args.base} (base) vs {ROOT} (change), "
              f"{args.pairs} pairs at {seconds} s", flush=True)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {side: run_once(trees[side], args.workload, seconds, args.seed)
                    for side in order}
            for side in order:
                runs[side].append(pair[side])
            print(f"pair {i + 1} ({order[0]} first)", flush=True)
            for side in ("base", "change"):
                print(describe(side, pair[side], metrics), flush=True)

    print("\nsummary (median [q1, q3]; wins are pairs the change won)")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [run["metrics"].get(name, float("nan")) for run in runs["base"]]
        change = [run["metrics"].get(name, float("nan")) for run in runs["change"]]
        s = summarize(base, change, metric["better"])
        print(
            f"  {name:<12} ({metric['better']} is better)  "
            f"base {s['base'][1]:.6g} [{s['base'][0]:.6g}, {s['base'][2]:.6g}]  "
            f"change {s['change'][1]:.6g} [{s['change'][0]:.6g}, {s['change'][2]:.6g}]  "
            f"wins {s['wins']}/{s['pairs']}  "
            f"median gain {s['gain']:+.6g} ({s['gain_pct']:+.1f}%)  "
            f"{'exceeds' if s['exceeds_iqr'] else 'within'} base IQR {s['base_iqr']:.6g}"
        )
    digests = {side: sorted({str(run["digest"]) for run in runs[side]}) for side in runs}
    same = digests["base"] == digests["change"] and len(digests["base"]) == 1
    print(f"digests: {'identical' if same else 'DIFFER'} "
          f"(base {', '.join(d[:16] for d in digests['base'])}; "
          f"change {', '.join(d[:16] for d in digests['change'])})")
    bad = sum(not run["correct"] for side in runs for run in runs[side])
    if bad:
        print(f"{bad} run(s) not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
