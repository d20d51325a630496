"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import planted  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "online": run.Workload("online", jobs=1, copies=1, steps=24, resolution=10, contacts=(1, 3), intervals=2),
    "offline": run.Workload("offline", jobs=2, copies=1, steps=24, intervals=2),
}


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def test_planted_stream_repeats_the_demo_block(tmp_path):
    steps = planted.planted_steps(seed=4, copies=2, steps=40)
    assert len(steps) == 40
    assert all(0 <= u < v < 60 for step in steps for u, v in step)
    # the second copy is the demo block shifted by 30 vertices, with its own noise
    first = planted.make_demo.demo_edges((4 * 1_000_003 + 101) % 2**32)
    assert {(u - 30, v - 30) for u, v in steps[0] if u >= 30} == first[0]
    events = planted.write_planted(tmp_path, 4, copies=2, steps=40, resolution=10, contacts=(2, 3))
    rows = (tmp_path / "stream.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == events
    assert 2 * sum(map(len, steps)) <= events <= 3 * sum(map(len, steps))
    assert max(int(r.rsplit(",", 1)[1]) for r in rows) < 400
    cps = (tmp_path / "changepoints.txt").read_text(encoding="utf-8").split()
    assert cps == [str(t) for t in range(5, 41, 4)]
    again = tmp_path / "again"
    planted.write_planted(again, 4, copies=2, steps=40, resolution=10, contacts=(2, 3))
    assert (again / "stream.csv").read_bytes() == (tmp_path / "stream.csv").read_bytes()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_pass_reproduces_the_cli_outputs(kind, tmp_path):
    """Record references from the CLI processes, then check an untimed
    process pass and the traced in-process pass against them: this
    exercises the checks, the stage loop and the tracer."""
    plan = run.prepare(TINY[kind], tmp_path, input_seed=1)
    deadline = time.monotonic() + 300
    expected = {}
    for stage in plan.stages:
        _, code = run.run_stage_process(stage, deadline)
        assert code == 0, stage.name
        expected[stage.name] = run.observe(stage)
    # with no time left, the untraced loop makes exactly one checked pass
    cycled = run.cycle_stages(plan, expected, end=time.monotonic(), deadline=deadline)
    assert len(cycled["passes"]) == 1 and cycled["failed"] == 0
    assert cycled["attempted"] == len(plan.stages)
    inproc = run.Plan(
        tuple(run.inprocess_argv(s) for s in plan.stages),
        plan.archive, plan.attributes, plan.changepoints,
    )
    t = tracer.Tracer()
    t.install()
    try:
        result = run.run_pipeline(inproc, expected, lambda s: run.run_stage_inprocess(s, t.begin_stage))
    finally:
        t.uninstall()
    assert result["failed"] == 0 and result["attempted"] == len(plan.stages)
    layers = t.layer_metrics()
    assert set(layers) | {"cli.import_s", "trace.wall_s", "trace.overhead_ratio"} == set(tracer.PER_LAYER)
    spans = t.spans
    assert all(parent < 0 or any(s[0] == parent for s in spans) for _, parent, *_ in spans[:50])
    assert sum(t.self_times().values()) <= result["times"]["pipeline_s"]
    if kind == "online":
        assert layers["linkpred.katz_calls"][0] > 0
        assert layers["changepoint.detect_calls"][0] == layers["attrpred.fits"][0] == 0
        assert layers["selectors.online_steps"][0] > 0
    else:
        assert layers["linkpred.katz_calls"][0] == 0
        assert layers["changepoint.detect_calls"][0] > 0
        assert layers["temporal.neighbor_lists_calls"][0] > 0
    # a changed score is caught
    stage = next(s for s in inproc.stages if s.kind == "evaluate")
    tampered = json.loads(json.dumps(expected))
    aggregates = tampered[stage.name]["aggregates"]
    selector = sorted(aggregates)[0]
    task = next(iter(aggregates[selector]))
    aggregates[selector][task] = (aggregates[selector][task] or 0.0) + 1e-9
    assert run.stage_errors(stage, 0, tampered[stage.name])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-linkpred", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
