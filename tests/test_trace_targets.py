"""Every function the benchmark tracer wraps must exist, and every CLI call
the benchmark makes must still parse.

`perfbench/tracer.py` replaces package functions by name, and
`perfbench/run.py` runs the CLI with the arguments its `prepare` lists; a
rename or a deletion of either breaks the benchmark, which the tier-1 suite
never runs. Both files are loaded by path; `prepare` imports
`perfbench/planted.py`, so that directory goes on the import path for that
test only.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import graphwin.cli  # loads every module the tracer names

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str, monkeypatch=None):
    """Load `perfbench/<name>.py`; with `monkeypatch`, registered in
    `sys.modules` for the test, where its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


def test_every_traced_target_resolves():
    tracer = load_tracer()
    targets = [t for group in tracer.SPANS.values() for t in group]
    targets += list(tracer.COUNTED.values())
    missing = []
    for module_name, attr in targets:
        try:
            owner, name = tracer._resolve(module_name, attr)
        except (KeyError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        if not callable(getattr(owner, name, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_benchmark_stage_parses(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load("run", monkeypatch)
    parser = graphwin.cli.build_parser()
    for name, workload in run.WORKLOADS.items():
        plan = run.prepare(workload, tmp_path / name, 0)
        assert plan.stages
        for stage in plan.stages:
            try:
                parser.parse_args(list(stage.argv))
            except SystemExit:
                pytest.fail(f"{name} {stage.name}: the CLI refuses {list(stage.argv)}")
