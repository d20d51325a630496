"""Every function the benchmark tracer wraps must exist.

`perfbench/tracer.py` replaces package functions by name; a rename or a
deletion there breaks `perfbench/run.py --trace 1`, which the tier-1 suite
never runs. The tracer is loaded by path, so this test needs nothing from
`perfbench/` on the import path.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import graphwin.cli  # noqa: F401  (loads every module the tracer names)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
