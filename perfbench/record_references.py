#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Runs every workload's stage list once per input seed through the real CLI
(one process per stage, at the workload's --jobs) and stores what
`run.observe` extracts from each stage in perfbench/references.json:
dataset ids, aggregate scores, chosen windowings, sweep curves, the
`analyze` argmax and cross-task matrix, the rendered aggregate rows and
the ordinal verdicts of scripts/check_ordinal.py.

Usage, from the root of a checkout:

    python3 perfbench/record_references.py [--workload NAME ...]

Re-record only when a change is meant to alter results, and say so where
the change is described.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run

def record(name: str, input_seed: int) -> dict:
    work = run.WORK / f"record-{name}-{input_seed}"
    if work.exists():
        shutil.rmtree(work)
    try:
        plan = run.prepare(run.WORKLOADS[name], work, input_seed)
        deadline = time.monotonic() + 600
        out = {}
        for stage in plan.stages:
            _, code = run.run_stage_process(stage, deadline)
            if code != 0:
                raise RuntimeError(f"{name} seed {input_seed}: {stage.name} exited {code}")
            out[stage.name] = run.observe(stage)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    for name in args.workload or sorted(run.WORKLOADS):
        per_seed = {}
        for seed in range(run.REFERENCE_SEEDS):
            t0 = time.perf_counter()
            per_seed[str(seed)] = record(name, seed)
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)
        references[name] = per_seed
        run.REFERENCES.write_text(
            json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
