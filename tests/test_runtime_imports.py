"""No CLI stage imports scipy: numpy is the package's only runtime dependency.
Nor does any stage import a process pool: every stage computes in the one
CLI process, `--jobs` or not.

scipy is installed wherever the tests run (the differential oracles use
it), so nothing else would notice a stage that imports it again. Each stage
runs in one fresh interpreter through `graphwin.cli.main`, and the test
checks `sys.modules` after every stage.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from graphwin import OFFLINE_SELECTORS, ONLINE_SELECTORS

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys

def unwanted_modules():
    pools = {"concurrent.futures", "multiprocessing"}
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in pools)

from graphwin.cli import main

seen = {"import graphwin.cli": [0, unwanted_modules()]}
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [main(argv), unwanted_modules()]
print(json.dumps(seen))
"""


def demo_stages(demo: Path) -> list[tuple[str, list[str]]]:
    """The README demo pipeline with every selector of each mode, plus a
    `select` of the baseline that fits power laws, and then its `evaluate`
    and `sweep` stages again at --jobs 2."""
    configs = []
    for task, mode, selectors in (
        ("linkpred", "online", ONLINE_SELECTORS),
        ("attribute", "offline", OFFLINE_SELECTORS),
        ("changepoint", "offline", OFFLINE_SELECTORS),
    ):
        config = json.loads((demo / f"config-{task}.json").read_text())
        config.update(selectors=list(selectors), output=str(demo / f"{mode}-{task}.json"))
        configs.append((f"evaluate {mode} {task}", config))
    stages = [("ingest", ["ingest", str(demo / "stream.csv"), "--out", str(demo / "archive")])]
    for name, config in configs:
        path = demo / f"config-{name.replace(' ', '-')}.json"
        path.write_text(json.dumps(config))
        stages.append((name, ["evaluate", str(path)]))
    stages.append(("select adage", [
        "select", str(demo / "archive"), "--selector", "adage", "--out", str(demo / "adage.json"),
    ]))
    stages.append(("sweep", [
        "sweep", str(demo / "archive"), "--tasks", "linkpred,attribute,changepoint",
        "--intervals", "3", "--attributes", str(demo / "attributes.csv"),
        "--target", "community", "--changepoints", str(demo / "changepoints.txt"),
        "--batch-size", "1", "--out", str(demo / "curves.json"),
    ]))
    stages.append(("analyze", [
        "analyze", str(demo / "curves.json"), "--out-prefix", str(demo / "analysis"),
    ]))
    reports = [config["output"] for _, config in configs]
    stages.append(("report", ["report", *reports, "--out", str(demo / "report.md")]))
    return stages + [
        (f"{name} --jobs 2", [*argv, "--jobs", "2"])
        for name, argv in stages
        if argv[0] in ("evaluate", "sweep")
    ]


def test_no_cli_stage_imports_scipy(tmp_path):
    demo = tmp_path / "demo"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_demo.py"), str(demo)],
        check=True, capture_output=True, timeout=120,
    )
    stages = demo_stages(demo)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(stages)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(seen) == ["import graphwin.cli"] + [name for name, _ in stages]
    assert seen == {name: [0, []] for name in seen}, proc.stderr
    assert (demo / "report.md").read_text().count("\n") > 10
