"""CLI for the static analysis suite: ``python -m tools.analyze [paths...]``.

Exit status: 0 when no unbaselined findings, 1 when findings remain,
2 on usage errors. ``--json`` writes the machine-readable report CI
uploads as an artifact; ``--update-baseline`` grandfathers the current
findings into ``tools/analyze/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import all_checkers
from .core import (
    DEFAULT_BASELINE,
    DEFAULT_PATHS,
    REPO_ROOT,
    load_baseline,
    run_analysis,
    write_baseline,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyze",
        description="Domain-aware static analysis for the Caraoke repro; "
        f"rules: {', '.join(sorted(all_checkers()))}.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files/directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rules to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the machine-readable findings report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=str(DEFAULT_BASELINE),
        help="baseline file of grandfathered findings (default: %(default)s)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings suppressed by the baseline",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, checker in sorted(all_checkers().items()):
            print(f"{name:15s} {checker.description}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = set(rules) - set(all_checkers())
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    raw_paths = args.paths or [str(REPO_ROOT / p) for p in DEFAULT_PATHS]
    paths = []
    for raw in raw_paths:
        path = Path(raw)
        if not path.is_absolute():
            path = (REPO_ROOT / path) if (REPO_ROOT / path).exists() else path.resolve()
        if not path.exists():
            print(f"no such path: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    baseline_path = Path(args.baseline)
    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    report = run_analysis(paths, rules=rules, baseline=baseline)

    if args.update_baseline:
        write_baseline(report.all_findings, baseline_path)
        print(
            f"baseline updated: {len(report.all_findings)} finding(s) -> "
            f"{baseline_path}"
        )
        return 0

    if args.json:
        payload = json.dumps(report.to_json(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            out = Path(args.json)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(payload)

    for error in report.parse_errors:
        print(f"parse error: {error}", file=sys.stderr)
    for finding in report.new:
        print(finding.render())
    if args.show_baselined:
        for finding in report.baselined:
            print(f"{finding.render()}  [baselined]")

    if report.new:
        print(
            f"\nanalyze: {len(report.new)} finding(s) "
            f"({len(report.baselined)} baselined) across "
            f"{report.files_checked} files"
        )
        return 1
    suffix = f", {len(report.baselined)} baselined" if report.baselined else ""
    print(f"analyze: ok ({report.files_checked} files{suffix})")
    return 1 if report.parse_errors else 0


if __name__ == "__main__":
    sys.exit(main())
