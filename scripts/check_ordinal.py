#!/usr/bin/env python3
"""Ordinal sanity check over evaluation reports.

Exact score replication across machines, dataset snapshots, and
preprocessing choices is not a realistic target (see
docs/reproduction.md). What must survive all of that is the ordering:
a task-supervised selector should never lose to the random-windowing
baseline on the task it was supervised for. This script enforces that
ordering on one or more report JSON files produced by
`graphwin evaluate` (or `ExperimentReport.write_json`).

Usage:
    python scripts/check_ordinal.py REPORT.json [REPORT.json ...]

Prints one PASS/FAIL line per (report, selector, task) comparison and
exits non-zero if any comparison fails or no comparison could be made.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SUPERVISED = ("supervised", "online", "online-weighted", "training-only")
BASELINE = "random"


def comparisons(report: dict) -> list[tuple[str, str, float, float]]:
    """(selector, task, supervised score, random score) rows for one report."""
    aggregates = report.get("aggregates", {})
    base = aggregates.get(BASELINE, {})
    rows = []
    for selector in SUPERVISED:
        for task, entry in aggregates.get(selector, {}).items():
            rand = base.get(task, {}).get("score")
            score = entry.get("score")
            if score is None or rand is None:
                continue
            rows.append((selector, task, float(score), float(rand)))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", help="report JSON files to check")
    args = parser.parse_args(argv)

    failing = checked = unusable = 0
    for path in args.reports:
        try:
            report = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: unreadable report ({exc})")
            unusable += 1
            continue
        rows = comparisons(report)
        if not rows:
            print(f"FAIL {path}: no supervised-vs-random comparison available")
            unusable += 1
            continue
        for selector, task, score, rand in rows:
            checked += 1
            ok = score >= rand
            verdict = "PASS" if ok else "FAIL"
            print(
                f"{verdict} {path}: {selector} on {task}: "
                f"{score:.6g} vs random {rand:.6g}"
            )
            if not ok:
                failing += 1
    if failing or unusable:
        summary = f"{failing} failing comparison(s) out of {checked} checked"
        if unusable:
            summary += f"; {unusable} report(s) unreadable or without a comparison"
        print(summary)
        return 1
    print(f"all {checked} comparison(s) hold: supervised >= random")
    return 0


if __name__ == "__main__":
    sys.exit(main())
