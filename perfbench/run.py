#!/usr/bin/env python3
"""End-to-end benchmark of the graphwin CLI pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``online-linkpred``: a planted n=150, 24-step stream of about 130k raw
  contacts, ingested at resolution 600, evaluated online with all six
  online selectors over 2 intervals, swept for link prediction, reported.
* ``offline-attr-cp``: a planted n=150, 36-step stream with one event per
  edge and step, evaluated offline for attribute and change-point
  prediction with all eight offline selectors over 3 intervals, swept,
  analysed and reported at ``--jobs 2``.

Intervals are 12 steps, the planted community period; intervals that cut
the period invert the offline results.

With ``--trace 0`` every stage runs as its own ``python -m graphwin.cli``
process. An untimed ``ingest`` warms the file cache and writes the
archive; fresh interpreters then import ``graphwin.cli`` and load the
archive and sidecars, and their median wall time is ``setup_s``. The
stage list then runs in order, over and over, until ``--seconds`` after the
start; near the end a stage runs only if its median time still fits, so
short stages fill the time a whole pass would leave unused. ``pipeline_s``
is the median wall time of the complete passes; ``evaluate_s`` and
``sweep_s`` (and the printed ``ingest_s`` and ``analyze_s``) sum, over
their stages, the median wall time of each.

With ``--trace 1`` the same warm-up and probes (their import time is
``cli.import_s``) come first; the stages then run in this process at
``--jobs 1``, in pairs of an untraced and a traced pass, while a further
pair ends within ``--seconds`` of the start. The traced pass wraps the
public functions of each module from outside (``perfbench/tracer.py``); the
per-layer metrics are medians over the traced passes of self times and
counts from the recorded spans.

Inputs come from the seed: ``--seed N`` selects recorded input seed
``N % 10``. Every stage's outputs are checked against the values recorded
for that input seed in ``perfbench/references.json``
(``perfbench/record_references.py`` writes them); a stage fails when it
exits non-zero or its outputs differ. The ordinal verdicts of
``scripts/check_ordinal.py`` must equal the recorded ones, FAIL lines
included. The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` (counted in stages) and
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH / "references.json"

# The benchmark seed picks one of this many recorded input seeds.
REFERENCE_SEEDS = 10
REL_TOL = 1e-12
SETUP_PROBES = 3
# no pass starts that could end later than this; a run may take 180 s
HARD_LIMIT_S = 140.0

ONLINE_SELECTORS = ("online", "online-weighted", "training-only", "hand-picked", "random", "adage")
OFFLINE_SELECTORS = (
    "supervised", "hand-picked", "random", "no-time", "fourier", "jaccard", "entropy", "adage",
)

STAGE_METRIC = {
    "ingest": "ingest_s",
    "evaluate": "evaluate_s",
    "sweep": "sweep_s",
    "analyze": "analyze_s",
    "report": "analyze_s",
}

# ingest_s and analyze_s are printed but are not end-to-end metrics: on
# these workloads both stages are mostly interpreter start-up, whose
# run-to-run spread on a shared 2-vCPU host (0.15-0.26 of the median over
# 60-s runs) exceeds any usable bound. Start-up is measured by setup_s,
# their compute by the per-layer metrics, and pipeline_s includes both.
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "evaluate_s": "s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_PROBE = """
import json, sys, time
from pathlib import Path
t0 = time.perf_counter()
import graphwin.cli
from graphwin.temporal import load_archive, load_attributes, load_change_points
t1 = time.perf_counter()
arch = load_archive(sys.argv[1])
if sys.argv[2]:
    load_attributes(Path(sys.argv[2]), "community", arch.labels)
if sys.argv[3]:
    load_change_points(Path(sys.argv[3]), arch.sequence.length)
print(json.dumps({"import_s": t1 - t0, "load_s": time.perf_counter() - t1}))
"""


@dataclass(frozen=True)
class Stage:
    name: str  # unique within a workload; keys the reference values
    kind: str  # ingest, evaluate, sweep, analyze or report
    argv: tuple[str, ...]  # graphwin CLI arguments


@dataclass(frozen=True)
class Plan:
    """A prepared workload: its stages and what set-up loads."""

    stages: tuple[Stage, ...]
    archive: Path
    attributes: Path | None
    changepoints: Path | None


@dataclass(frozen=True)
class Workload:
    kind: str  # online or offline
    jobs: int
    copies: int = 5
    steps: int = 36
    resolution: int = 1
    contacts: tuple[int, int] = (1, 1)
    intervals: int = 3


WORKLOADS = {
    "online-linkpred": Workload(
        "online", jobs=1, steps=24, resolution=600, contacts=(50, 100), intervals=2
    ),
    "offline-attr-cp": Workload("offline", jobs=2, steps=36, intervals=3),
}


# --------------------------------------------------------------------------
# inputs and stage lists


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def prepare(workload: Workload, work: Path, input_seed: int) -> Plan:
    """Write the workload's inputs into `work` and list its stages."""
    import planted  # imports scripts/make_demo.py

    work.mkdir(parents=True, exist_ok=True)
    jobs = ("--jobs", str(workload.jobs))
    archive = work / "archive"
    attributes = work / "attributes.csv"
    changepoints = work / "changepoints.txt"
    reports = []
    planted.write_planted(
        work,
        input_seed,
        copies=workload.copies,
        steps=workload.steps,
        resolution=workload.resolution,
        contacts=workload.contacts,
    )
    stages = [
        Stage(
            "ingest",
            "ingest",
            ("ingest", str(work / "stream.csv"), "--out", str(archive),
             "--resolution", str(workload.resolution)),
        )
    ]
    if workload.kind == "online":
        runs = [("linkpred", "online", ONLINE_SELECTORS, {})]
        sweep_tasks = "linkpred"
        sweep_extra = ()
    else:
        runs = [
            ("attribute", "offline", OFFLINE_SELECTORS,
             {"attributes": str(attributes), "target": "community"}),
            ("changepoint", "offline", OFFLINE_SELECTORS,
             {"changepoints": str(changepoints)}),
        ]
        sweep_tasks = "attribute,changepoint"
        sweep_extra = (
            "--attributes", str(attributes), "--target", "community",
            "--changepoints", str(changepoints),
        )
    for task, mode, selectors, extra in runs:
        config = {
            "archive": str(archive),
            "mode": mode,
            "task": task,
            "selectors": list(selectors),
            "intervals": workload.intervals,
            "seed": input_seed,
            "output": str(work / f"report-{task}"),
            **extra,
        }
        if mode == "online":
            config["params"] = {"min_tests": 2, "top_count": 4, "alpha": 0.5}
        path = work / f"config-{task}.json"
        _write_config(path, config)
        stages.append(Stage(f"evaluate-{task}", "evaluate", ("evaluate", str(path), *jobs)))
        reports.append(str(work / f"report-{task}.json"))
    curves = str(work / "curves.json")
    stages.append(
        Stage(
            "sweep",
            "sweep",
            ("sweep", str(archive), "--tasks", sweep_tasks,
             "--intervals", str(workload.intervals), *sweep_extra, "--out", curves, *jobs),
        )
    )
    if workload.kind != "online":
        stages.append(
            Stage("analyze", "analyze", ("analyze", curves, "--out-prefix", str(work / "analysis")))
        )
    stages.append(Stage("report", "report", ("report", *reports, "--out", str(work / "report.md"))))
    has_sidecars = workload.kind != "online"
    return Plan(
        tuple(stages),
        archive,
        attributes if has_sidecars else None,
        changepoints if has_sidecars else None,
    )


# --------------------------------------------------------------------------
# output checks


def _check_ordinal_module():
    spec = importlib.util.spec_from_file_location(
        "check_ordinal", ROOT / "scripts" / "check_ordinal.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def observe(stage: Stage) -> dict:
    """The values of a stage's outputs that the references pin down."""
    if stage.kind == "ingest":
        summary = _load(Path(stage.argv[3]) / "summary.json")
        return {k: summary[k] for k in ("n", "length", "edge_totals", "dataset_id")}
    if stage.kind == "evaluate":
        config = _load(Path(stage.argv[1]))
        report = _load(Path(config["output"] + ".json"))
        chosen = {}
        for cell in report["cells"]:
            detail = cell["detail"]
            key = f"{cell['selector']}/{cell['pair_index']}"
            if "windowing" in detail:
                chosen[key] = detail["windowing"]
            else:
                chosen[key] = [step["chosen"] for step in detail["log"]]
        verdicts = [
            f"{'PASS' if score >= rand else 'FAIL'} {selector} {task}"
            for selector, task, score, rand in _check_ordinal_module().comparisons(report)
        ]
        aggregates = {
            selector: {task: entry["score"] for task, entry in tasks.items()}
            for selector, tasks in report["aggregates"].items()
        }
        return {"aggregates": aggregates, "chosen": chosen, "verdicts": verdicts}
    if stage.kind == "sweep":
        out = stage.argv[stage.argv.index("--out") + 1]
        return {"curves": _load(Path(out))["curves"]["values"]}
    if stage.kind == "analyze":
        analysis = _load(Path(stage.argv[-1] + ".json"))
        return {
            "argmax": analysis["cross_task"]["argmax"],
            "cross_task": analysis["cross_task"]["entries"],
            "spearman": analysis["spearman"],
        }
    text = Path(stage.argv[-1]).read_text(encoding="utf-8")  # report
    rows = [line for line in text.splitlines() if line.startswith("| ") and line.count("|") == 5]
    return {"aggregate_rows": [r for r in rows if not r.startswith("| selector ")]}


def compare(observed, expected, path: str = "") -> list[str]:
    """Differences between observed and recorded values; floats may differ
    by REL_TOL relative, everything else must match exactly."""
    if isinstance(expected, float) and isinstance(observed, (int, float)) and not isinstance(observed, bool):
        if abs(observed - expected) <= REL_TOL * max(abs(observed), abs(expected)):
            return []
        return [f"{path}: {observed!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(observed, dict):
        if set(expected) != set(observed):
            return [f"{path}: keys {sorted(observed)} != {sorted(expected)}"]
        return [e for k in expected for e in compare(observed[k], expected[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(observed, list):
        if len(expected) != len(observed):
            return [f"{path}: length {len(observed)} != {len(expected)}"]
        return [e for i, (o, x) in enumerate(zip(observed, expected)) for e in compare(o, x, f"{path}[{i}]")]
    if observed != expected:
        return [f"{path}: {observed!r} != {expected!r}"]
    return []


def stage_errors(stage: Stage, returncode: int, expected: dict | None) -> list[str]:
    """Why a stage failed; empty when it passed."""
    if returncode != 0:
        return [f"{stage.name}: exit code {returncode}"]
    if expected is None:
        return [f"{stage.name}: no recorded reference"]
    try:
        observed = observe(stage)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{stage.name}: unreadable output ({exc!r})"]
    return [f"{stage.name}{e}" for e in compare(observed, expected)]


# --------------------------------------------------------------------------
# stage execution


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage_process(stage: Stage, deadline: float) -> tuple[float, int]:
    """Run one stage as its own interpreter; returns (wall s, exit code)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "graphwin.cli", *stage.argv],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, -1
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return wall, proc.returncode


def run_stage_inprocess(stage: Stage, on_stage=None) -> tuple[float, int]:
    """Run one stage by calling its entry point in this process."""
    import graphwin.cli

    if on_stage is not None:
        on_stage(stage)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = graphwin.cli.main(list(stage.argv))
    return time.perf_counter() - t0, code


def inprocess_argv(stage: Stage) -> Stage:
    """The same stage at --jobs 1, so no pool worker drops spans."""
    argv = list(stage.argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return Stage(stage.name, stage.kind, tuple(argv))


def run_pipeline(plan: Plan, expected: dict, runner) -> dict:
    """One pass over the stage list: stage times, pipeline time, failures."""
    times: dict[str, float] = {}
    results = []
    t0 = time.perf_counter()
    for stage in plan.stages:
        wall, code = runner(stage)
        results.append((stage, code))
        times[STAGE_METRIC[stage.kind]] = times.get(STAGE_METRIC[stage.kind], 0.0) + wall
    times["pipeline_s"] = time.perf_counter() - t0
    failed = 0
    for stage, code in results:
        errors = stage_errors(stage, code, expected.get(stage.name))
        failed += bool(errors)
        for e in errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
    return {"times": times, "attempted": len(results), "failed": failed}


def setup_probes(plan: Plan, count: int) -> list[dict]:
    """Fresh interpreters that import the CLI and load the archive and sidecars."""
    out = []
    args = [str(plan.archive), str(plan.attributes or ""), str(plan.changepoints or "")]
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *args],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=10,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["wall_s"] = wall
        out.append(record)
    return out


# --------------------------------------------------------------------------
# reporting


def machine_block() -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def summarize(name: str, values: list[float], unit: str) -> str:
    values = sorted(values)
    return (
        f"{name:<34} {statistics.median(values):>12.4f} {unit:<6}"
        f" n={len(values)} min={values[0]:.4f} max={values[-1]:.4f}"
    )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


# --------------------------------------------------------------------------
# the two modes


def repeat(one_pass, end: float) -> list[dict]:
    """Run passes while the next one, at the median pass time, still ends
    before `end` (a time.monotonic value); at least one pass."""
    passes = []
    while True:
        passes.append(one_pass())
        typical = statistics.median(p["times"]["pipeline_s"] for p in passes)
        if time.monotonic() + typical > end:
            return passes


def cycle_stages(plan: Plan, expected: dict, end: float, deadline: float) -> dict:
    """Run the stage list in order, over and over, until no stage's median
    time fits before `end`. Once a stage has a sample it runs only if it
    fits, so the last cycles are partial and spend the time that a whole
    pass would not fill. Returns each stage's wall times, the wall times of
    the complete cycles, and the stage counts."""
    walls: dict[str, list[float]] = {stage.name: [] for stage in plan.stages}
    passes: list[float] = []
    attempted = failed = 0
    while True:
        t0 = time.perf_counter()
        complete = True
        for stage in plan.stages:
            done = walls[stage.name]
            if done and time.monotonic() + statistics.median(done) > end:
                complete = False
                continue
            wall, code = run_stage_process(stage, deadline)
            done.append(wall)
            attempted += 1
            errors = stage_errors(stage, code, expected.get(stage.name))
            failed += bool(errors)
            for e in errors[:20]:
                print(f"check failed: {e}", file=sys.stderr)
        if complete:
            passes.append(time.perf_counter() - t0)
        elif not any(
            time.monotonic() + statistics.median(w) <= end for w in walls.values()
        ):
            return {"walls": walls, "passes": passes, "attempted": attempted, "failed": failed}


def warm_up_and_probe(plan: Plan, deadline: float) -> list[dict]:
    """An untimed ingest warms the file cache and writes the archive that
    the set-up probes then load."""
    _, code = run_stage_process(plan.stages[0], deadline)
    if code != 0:
        raise RuntimeError(f"warm-up {plan.stages[0].name} exited {code}")
    return setup_probes(plan, SETUP_PROBES)


def measure(plan: Plan, expected: dict, seconds: float, deadline: float) -> int:
    end = min(time.monotonic() + seconds, deadline)
    probes = warm_up_and_probe(plan, deadline)
    cycled = cycle_stages(plan, expected, end, deadline)
    attempted, failed = cycled["attempted"], cycled["failed"]
    print(f"{len(cycled['passes'])} complete pipeline pass(es), {len(probes)} set-up probes")
    for stage in plan.stages:
        print(summarize(f"  {stage.name}", cycled["walls"][stage.name], "s"))
    # a stage metric sums, over its stages, the median wall time of each
    values = {"pipeline_s": statistics.median(cycled["passes"])}
    for stage in plan.stages:
        metric = STAGE_METRIC[stage.kind]
        values[metric] = values.get(metric, 0.0) + statistics.median(cycled["walls"][stage.name])
    values["setup_s"] = statistics.median(p["wall_s"] for p in probes)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(summarize("pipeline_s", cycled["passes"], "s"))
    print(summarize("setup_s", [p["wall_s"] for p in probes], "s"))
    for name, value in values.items():
        print(f"{name:<34} {value:>12.4f} {END_TO_END_UNITS.get(name, 's')}")
    print(f"{'fail_ratio':<34} {failed / attempted:>12.4f} ratio  ({failed} of {attempted} stages)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def measure_traced(plan: Plan, expected: dict, seconds: float, deadline: float, trace_file: Path) -> int:
    import tracer as tracing

    sys.path.insert(0, str(ROOT / "src"))
    import graphwin.cli  # noqa: F401  (the passes time compute, not import)

    stages = [inprocess_argv(s) for s in plan.stages]
    inproc = Plan(tuple(stages), plan.archive, plan.attributes, plan.changepoints)
    tracer = tracing.Tracer()

    def paired_pass() -> dict:
        """An untraced pass, then a traced one, so both see the same warm-up."""
        plain = run_pipeline(inproc, expected, run_stage_inprocess)
        tracer.reset()
        tracer.install()
        try:
            traced = run_pipeline(inproc, expected, lambda s: run_stage_inprocess(s, tracer.begin_stage))
        finally:
            tracer.uninstall()
        return {
            "times": {"pipeline_s": plain["times"]["pipeline_s"] + traced["times"]["pipeline_s"]},
            "plain_s": plain["times"]["pipeline_s"],
            "traced_s": traced["times"]["pipeline_s"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "layers": tracer.layer_metrics(),
            "self_times": tracer.self_times(),
        }

    end = min(time.monotonic() + seconds, deadline)
    probes = warm_up_and_probe(plan, deadline)
    passes = repeat(paired_pass, end)
    tracer.write_spans(trace_file)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    layers = {
        name: (statistics.median(p["layers"][name][0] for p in passes), unit)
        for name, (_, unit) in passes[0]["layers"].items()
    }
    plain_wall = statistics.median(p["plain_s"] for p in passes)
    traced_wall = statistics.median(p["traced_s"] for p in passes)
    layers["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    layers["trace.wall_s"] = (traced_wall, "s")
    layers["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    print(f"{len(passes)} untraced and traced in-process pass pair(s); untraced median {plain_wall:.3f} s")
    print(tracing.breakdown(passes[-1]["self_times"], passes[-1]["traced_s"]))
    for name, unit in tracing.PER_LAYER.items():
        print(f"{name:<34} {layers[name][0]:>14.6f} {unit}")
    metrics = {name: {"value": layers[name][0], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
    print(f"spans of the last traced pass written to {trace_file.relative_to(ROOT)}")
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="graphwin end-to-end CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p for p in ("src/graphwin/cli.py", "scripts/make_demo.py", "scripts/check_ordinal.py")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"error: not a graphwin checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    input_seed = args.seed % REFERENCE_SEEDS
    expected = references.get(args.workload, {}).get(str(input_seed))
    if expected is None:
        print(f"error: no reference values for {args.workload} seed {input_seed}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    print(json.dumps({"machine": machine_block()}))
    print(f"workload {args.workload}, seed {args.seed} (input seed {input_seed}), trace {args.trace}")
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        plan = prepare(workload, work, input_seed)
        if args.trace:
            trace_file = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
            return measure_traced(plan, expected, args.seconds, deadline, trace_file)
        return measure(plan, expected, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
