"""Outside-in tracing of the graphwin package.

`Tracer.install` replaces chosen public functions and methods with wrappers
that record a span (name, start, end, parent) per call and count work at the
same boundary. A function is replaced in every graphwin module that bound
it by name (``from .temporal import union_graphs`` included), so calls from
any layer are seen. Nothing inside the package changes.

Spans stay in memory and are written out at the end. A layer's self time is
the sum over its spans of duration minus the time covered by child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, attribute); the module's class attributes are
# written as "Class.method"
SPANS = {
    "cli.stage": [
        ("graphwin.cli", name)
        for name in ("cmd_ingest", "cmd_select", "cmd_sweep", "cmd_evaluate", "cmd_analyze", "cmd_report")
    ],
    "temporal.parse": [("graphwin.temporal", "parse_edge_stream")],
    "temporal.bin": [("graphwin.temporal", "bin_initial")],
    "temporal.archive_save": [("graphwin.temporal", "save_archive")],
    "temporal.archive_load": [("graphwin.temporal", "load_archive")],
    "temporal.sidecars": [
        ("graphwin.temporal", "load_attributes"),
        ("graphwin.temporal", "load_change_points"),
    ],
    "temporal.union": [("graphwin.temporal", "union_graphs")],
    "temporal.neighbor_lists": [("graphwin.temporal", "StaticGraph.neighbor_lists")],
    "windows.apply": [("graphwin.windows", "apply_windowing")],
    "linkpred.katz_matrix": [("graphwin.linkpred", "katz_matrix")],
    "linkpred.katz_rank": [("graphwin.linkpred", "katz_scores")],
    "linkpred.ap": [("graphwin.linkpred", "average_precision")],
    "attrpred.fit": [("graphwin.attrpred", "fit_model")],
    "attrpred.predict": [("graphwin.attrpred", "predict_attribute")],
    "changepoint.detect": [("graphwin.changepoint", "detect_change_points")],
    "selectors.online_step": [("graphwin.selectors", "OnlineWindowSelector.process")],
    "selectors.quality": [
        ("graphwin.selectors", name)
        for name in (
            "linkpred_window_quality",
            "cp_window_quality",
            "attr_window_quality",
            "attr_split_window_quality",
        )
    ],
    "selectors.baseline": [
        ("graphwin.selectors", name)
        for name in ("fourier_select", "jaccard_select", "entropy_select", "adage_select")
    ],
    "harness.suite": [("graphwin.harness", "run_suite")],
    "harness.evaluate": [
        ("graphwin.harness", name) for name in ("run_offline", "run_online", "score_curves")
    ],
    "harness.analysis": [
        ("graphwin.harness", name)
        for name in ("cross_task_matrix", "spearman_table", "stability_diff", "stability_curve")
    ],
}

# counted, not timed: a span per graph would cost more than the work
COUNTED = {"temporal.graphs_built": ("graphwin.temporal", "StaticGraph.__post_init__")}

# per-layer metric -> unit, in the order they are reported
PER_LAYER = {
    "cli.import_s": "s",
    "temporal.parse_s": "s",
    "temporal.bin_s": "s",
    "temporal.events": "count",
    "temporal.archive_load_s": "s",
    "temporal.archive_save_s": "s",
    "temporal.neighbor_lists_calls": "count",
    "temporal.neighbor_lists_s": "s",
    "temporal.graphs_built": "count",
    "temporal.union_calls": "count",
    "temporal.union_s": "s",
    "windows.apply_calls": "count",
    "windows.apply_s": "s",
    "windows.built_per_call": "ratio",
    "linkpred.katz_calls": "count",
    "linkpred.katz_matrix_s": "s",
    "linkpred.katz_rank_s": "s",
    "linkpred.ap_s": "s",
    "linkpred.pairs_ranked": "count",
    "linkpred.repeat_ratio": "ratio",
    "attrpred.fits": "count",
    "attrpred.fit_s": "s",
    "attrpred.predicts": "count",
    "attrpred.predict_s": "s",
    "changepoint.detect_calls": "count",
    "changepoint.detect_s": "s",
    "changepoint.windows_in": "count",
    "selectors.online_steps": "count",
    "selectors.online_step_s": "s",
    "selectors.tests_per_step": "ratio",
    "selectors.quality_calls": "count",
    "selectors.baseline_s": "s",
    "harness.cells": "count",
    "harness.analysis_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._ranked: set = set()

    # -- recording

    def _timed(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                self.counts[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self) -> dict:
        counts = self.counts

        def parsed(args, result):
            counts["temporal.events"] += len(result.events)

        def applied(args, result):
            counts["windows.built"] += len(result.graphs)

        def ranked(args, result):
            graph = args[0]
            counts["linkpred.pairs_ranked"] += len(result)
            if graph in self._ranked:
                counts["linkpred.repeats"] += 1
            else:
                self._ranked.add(graph)

        def detected(args, result):
            counts["changepoint.windows_in"] += args[0].window_count

        def stepped(args, result):
            counts["selectors.tests"] += len(result.tested)

        def evaluated(args, result):
            if hasattr(result, "cells"):
                counts["harness.cells"] += len(result.cells)
            else:  # a CurveSet: one cell per task and interval
                counts["harness.cells"] += len(result.tasks) * len(result.intervals)

        return {
            "temporal.parse": parsed,
            "windows.apply": applied,
            "linkpred.katz_rank": ranked,
            "changepoint.detect": detected,
            "selectors.online_step": stepped,
            "harness.evaluate": evaluated,
        }

    # -- installing

    def _replace(self, module_name: str, attr: str, make) -> None:
        owner, name = _resolve(module_name, attr)
        original = getattr(owner, name)
        wrapper = make(original)
        if owner is sys.modules[module_name]:
            # every graphwin module that imported the function by name
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "graphwin":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        else:
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)

    def install(self) -> None:
        import graphwin.cli  # noqa: F401  (loads every module first)

        observers = self._observers()
        for span, targets in SPANS.items():
            for module_name, attr in targets:
                self._replace(
                    module_name, attr, lambda fn, s=span: self._timed(s, fn, observers.get(s))
                )
        for counter, (module_name, attr) in COUNTED.items():
            self._replace(module_name, attr, lambda fn, c=counter: self._counted(c, fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._ranked.clear()

    def begin_stage(self, stage) -> None:
        """A memo in the CLI would live for one stage process, so repeats
        count only within a stage."""
        self._ranked.clear()

    # -- results

    def self_times(self) -> dict[str, float]:
        child_time: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded since the last reset,
        except the three the caller measures (import, wall, overhead)."""
        t = Counter(self.self_times())
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values = {
            "temporal.parse_s": t["temporal.parse"],
            "temporal.bin_s": t["temporal.bin"],
            "temporal.events": c["temporal.events"],
            "temporal.archive_load_s": t["temporal.archive_load"],
            "temporal.archive_save_s": t["temporal.archive_save"],
            "temporal.neighbor_lists_calls": c["temporal.neighbor_lists"],
            "temporal.neighbor_lists_s": t["temporal.neighbor_lists"],
            "temporal.graphs_built": c["temporal.graphs_built"],
            "temporal.union_calls": c["temporal.union"],
            "temporal.union_s": t["temporal.union"],
            "windows.apply_calls": c["windows.apply"],
            "windows.apply_s": t["windows.apply"],
            "windows.built_per_call": ratio(c["windows.built"], c["windows.apply"]),
            "linkpred.katz_calls": c["linkpred.katz_rank"],
            "linkpred.katz_matrix_s": t["linkpred.katz_matrix"],
            "linkpred.katz_rank_s": t["linkpred.katz_rank"],
            "linkpred.ap_s": t["linkpred.ap"],
            "linkpred.pairs_ranked": c["linkpred.pairs_ranked"],
            "linkpred.repeat_ratio": ratio(c["linkpred.repeats"], c["linkpred.katz_rank"]),
            "attrpred.fits": c["attrpred.fit"],
            "attrpred.fit_s": t["attrpred.fit"],
            "attrpred.predicts": c["attrpred.predict"],
            "attrpred.predict_s": t["attrpred.predict"],
            "changepoint.detect_calls": c["changepoint.detect"],
            "changepoint.detect_s": t["changepoint.detect"],
            "changepoint.windows_in": c["changepoint.windows_in"],
            "selectors.online_steps": c["selectors.online_step"],
            "selectors.online_step_s": t["selectors.online_step"],
            "selectors.tests_per_step": ratio(c["selectors.tests"], c["selectors.online_step"]),
            "selectors.quality_calls": c["selectors.quality"],
            "selectors.baseline_s": t["selectors.baseline"],
            "harness.cells": c["harness.cells"],
            "harness.analysis_s": t["harness.analysis"],
        }
        return {name: (float(v), PER_LAYER[name]) for name, v in values.items()}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )


def breakdown(self_times: dict[str, float], wall: float) -> str:
    """Self time per span name as a share of the traced wall time."""
    traced = sum(self_times.values())
    lines = [f"{'span':<26} {'self s':>10} {'share':>7}"]
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<26} {value:>10.4f} {value / wall:>7.1%}")
    lines.append(f"{'(outside any span)':<26} {wall - traced:>10.4f} {(wall - traced) / wall:>7.1%}")
    return "\n".join(lines)
