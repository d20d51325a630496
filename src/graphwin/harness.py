"""Evaluation harness: interval plans, offline/online runs, and analyses.

A sequence is split into near-equal consecutive intervals; each adjacent
(train, test) pair forms one evaluation cell. Offline: a selector picks a
windowing of the test interval (supervised selectors see training data and
training ground truth only; unsupervised ones see test edges only, so test
ground truth is structurally out of reach), then the task runs on the
windowed test interval. Online: a selector warm-starts on the train interval
and its per-step predictions are scored across the test interval.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import stats as scipy_stats

from .attrpred import KernelParams, leave_out_scores, roc_auc
from .changepoint import cp_pr_auc, detect_change_points
from .linkpred import KatzParams, average_precision
from .selectors import (
    OnlineWindowSelector,
    ScoreLedger,
    SelectorParams,
    adage_select,
    attr_split_window_quality,
    attr_window_quality,
    cp_window_quality,
    entropy_select,
    fourier_select,
    jaccard_select,
    linkpred_window_quality,
    random_windowing,
    supervised_offline_select,
)
from .temporal import ChangePointLabels, GraphSequence, VertexAttributes
from .windows import Windowing, apply_windowing, uniform_windowing

__all__ = [
    "EvalParams",
    "IntervalPlan",
    "split_intervals",
    "OFFLINE_SELECTORS",
    "ONLINE_SELECTORS",
    "TASKS",
    "choose_test_windowing",
    "CellResult",
    "ExperimentReport",
    "run_offline",
    "run_online",
    "run_suite",
    "CurveSet",
    "score_curves",
    "cross_task_matrix",
    "spearman",
    "spearman_table",
    "stability_diff",
    "stability_curve",
    "hyperparam_sweep",
    "derive_seed",
]

log = logging.getLogger(__name__)

TASKS = ("linkpred", "attribute", "changepoint")

OFFLINE_SELECTORS = (
    "supervised",
    "hand-picked",
    "random",
    "no-time",
    "fourier",
    "jaccard",
    "entropy",
    "adage",
)

ONLINE_SELECTORS = (
    "online",
    "online-weighted",
    "training-only",
    "hand-picked",
    "random",
    "adage",
)

# keys of a run config's flat `params` object
_FLAT_KEYS = (
    "beta",
    "theta",
    "batch_size",
    "min_tests",
    "top_count",
    "alpha",
    "tau",
    "adage_tol",
    "adage_patience",
    "carry_ledger",
)


def _as_count(value) -> float:
    """A retest budget from a config value; the string "inf" means unbounded."""
    return float("inf") if value == "inf" else float(value)


@dataclass(frozen=True)
class EvalParams:
    """Every tuning value of an evaluation, with its default.

    katz: Katz scoring for link prediction.
    kernel: recency kernel for attribute prediction.
    batch_size: attribute leave-out batch size (None = the default size).
    tau: the jaccard baseline's rise threshold.
    adage_tol, adage_patience: the adage baseline's convergence test.
    selector: the online ledger's knobs.
    carry_ledger: each online interval pair starts from the ledger the
        previous pair left instead of an empty one.
    """

    katz: KatzParams = KatzParams()
    kernel: KernelParams = KernelParams()
    batch_size: int | None = None
    tau: float = 0.05
    adage_tol: float = 0.01
    adage_patience: int = 3
    selector: SelectorParams = SelectorParams()
    carry_ledger: bool = False

    @classmethod
    def from_flat(cls, flat: Mapping[str, object]) -> "EvalParams":
        """Build from a run config's flat `params` object (`beta`, `theta`,
        `min_tests`, ...); absent keys keep their defaults."""
        unknown = sorted(set(flat) - set(_FLAT_KEYS))
        if unknown:
            raise ValueError(f"unknown params keys {unknown}")
        d = cls()
        get = flat.get
        batch_size = get("batch_size", d.batch_size)
        carry_ledger = get("carry_ledger", d.carry_ledger)
        problems = []
        # an exact type test: JSON true/false parse to bool, an int subclass
        if batch_size is not None and (type(batch_size) is not int or batch_size < 1):
            problems.append(f"params.batch_size must be an integer >= 1, got {batch_size!r}")
        if not isinstance(carry_ledger, bool):
            problems.append(f"params.carry_ledger must be true or false, got {carry_ledger!r}")
        if problems:
            raise ValueError("; ".join(problems))
        return cls(
            katz=KatzParams(beta=float(get("beta", d.katz.beta))),
            kernel=KernelParams(theta=float(get("theta", d.kernel.theta))),
            batch_size=batch_size,
            tau=float(get("tau", d.tau)),
            adage_tol=float(get("adage_tol", d.adage_tol)),
            adage_patience=int(get("adage_patience", d.adage_patience)),
            selector=SelectorParams(
                min_tests=_as_count(get("min_tests", d.selector.min_tests)),
                top_count=_as_count(get("top_count", d.selector.top_count)),
                alpha=float(get("alpha", d.selector.alpha)),
            ),
            carry_ledger=carry_ledger,
        )


@dataclass(frozen=True)
class IntervalPlan:
    """Consecutive 1-based inclusive interval spans covering a sequence."""

    spans: tuple[tuple[int, int], ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Indices of consecutive (train, test) interval pairs."""
        return tuple((i, i + 1) for i in range(len(self.spans) - 1))


def split_intervals(length: int, count: int = 6) -> IntervalPlan:
    """Split `length` steps into `count` consecutive near-equal intervals;
    the remainder goes to the earliest intervals, so longer ones come first."""
    if not 1 <= count <= length:
        raise ValueError(f"interval count {count} outside [1, {length}]")
    base, extra = divmod(length, count)
    spans = []
    start = 1
    for i in range(count):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size - 1))
        start += size
    return IntervalPlan(tuple(spans))


def derive_seed(master: int, *parts: object) -> int:
    """Stable per-cell seed from the master seed and cell coordinates."""
    text = ":".join([str(master), *[str(p) for p in parts]])
    return int(hashlib.sha256(text.encode()).hexdigest()[:16], 16)


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, items))


def _one_blas_thread() -> None:
    """Pool-worker initializer: numpy's BLAS on one thread, so `jobs`
    workers use `jobs` CPUs rather than `jobs` times BLAS's thread count.
    Calls the thread setter of the OpenBLAS that numpy wheels bundle; other
    builds keep their setting."""
    import ctypes

    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError) as exc:
        log.debug("pool worker: BLAS threads left as they are (%s)", exc)
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)
    log.debug("pool worker: scipy-openblas64 BLAS pinned to one thread")


# --------------------------------------------------------------------------
# Offline evaluation


def choose_test_windowing(
    selector: str,
    train: GraphSequence,
    test: GraphSequence,
    *,
    task: str | None = None,
    train_cp: ChangePointLabels | None = None,
    attrs: VertexAttributes | None = None,
    params: EvalParams = EvalParams(),
    seed: int = 0,
) -> Windowing:
    """Pick a windowing of the test interval.

    Supervised selection sees the training interval and its ground truth;
    every other selector sees test edges only. Chosen uniform sizes are
    clamped to the test length.
    """
    if selector == "hand-picked":
        return uniform_windowing(test.length, 1)
    if selector == "no-time":
        return uniform_windowing(test.length, test.length)
    if selector == "random":
        return random_windowing(test.length, seed)
    if selector == "fourier":
        return uniform_windowing(test.length, min(fourier_select(test), test.length))
    if selector == "jaccard":
        return uniform_windowing(test.length, min(jaccard_select(test, params.tau), test.length))
    if selector == "entropy":
        return entropy_select(test)
    if selector == "adage":
        size = adage_select(test, params.adage_tol, params.adage_patience)
        return uniform_windowing(test.length, min(size, test.length))
    if selector == "supervised":
        if task == "changepoint":
            if train_cp is None:
                raise ValueError("supervised change-point selection needs training truth")
            if not train_cp.times:
                log.info("training interval has no change points; selection sees empty truth")
            selection = supervised_offline_select(
                train, lambda s, w: cp_window_quality(s, w, train_cp)
            )
        elif task == "attribute":
            if attrs is None:
                raise ValueError("supervised attribute selection needs attributes")
            selection = supervised_offline_select(
                train,
                lambda s, w: attr_split_window_quality(
                    s, w, attrs, params.kernel, params.batch_size
                ),
            )
        else:
            raise ValueError(f"no offline supervised selection for task {task!r}")
        return uniform_windowing(test.length, min(selection.chosen, test.length))
    raise ValueError(f"unknown offline selector {selector!r}")


@dataclass(frozen=True)
class CellResult:
    """One (selector, task, interval-pair) evaluation."""

    selector: str
    task: str
    pair_index: int
    train_span: tuple[int, int]
    test_span: tuple[int, int]
    score: float | None
    detail: Mapping[str, object] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """Cells plus per-selector/per-task aggregates, optional score curves,
    and run metadata; serializes deterministically."""

    metadata: dict
    cells: list[CellResult]
    aggregates: dict  # selector -> task -> {"score": ..., "method": ...}
    curves: "CurveSet | None" = None

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "cells": [
                {
                    "selector": c.selector,
                    "task": c.task,
                    "pair_index": c.pair_index,
                    "train_span": list(c.train_span),
                    "test_span": list(c.test_span),
                    "score": c.score,
                    "detail": _jsonable(c.detail),
                }
                for c in self.cells
            ],
            "aggregates": _jsonable(self.aggregates),
            "curves": self.curves.to_dict() if self.curves is not None else None,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    def write_csv(self, path: str | Path) -> None:
        lines = ["selector,task,pair,train_start,train_end,test_start,test_end,score"]
        for c in self.cells:
            score = "" if c.score is None else repr(c.score)
            lines.append(
                f"{c.selector},{c.task},{c.pair_index},{c.train_span[0]},{c.train_span[1]},"
                f"{c.test_span[0]},{c.test_span[1]},{score}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        # keep the serialized report strict JSON
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


def _offline_cell(
    seq: GraphSequence,
    plan: IntervalPlan,
    task: str,
    attrs: VertexAttributes | None,
    cp_truth: ChangePointLabels | None,
    params: EvalParams,
    seed: int,
    cell: tuple[str, int],
) -> tuple[float | None, dict]:
    selector, pair_index = cell
    a, b = plan.pairs[pair_index]
    train_span, test_span = plan.spans[a], plan.spans[b]
    train = seq.slice_steps(*train_span)
    test = seq.slice_steps(*test_span)
    train_cp = cp_truth.restrict(*train_span) if cp_truth is not None else None
    test_cp = cp_truth.restrict(*test_span) if cp_truth is not None else None
    windowing = choose_test_windowing(
        selector,
        train,
        test,
        task=task,
        train_cp=train_cp,
        attrs=attrs,
        params=params,
        seed=derive_seed(seed, selector, task, pair_index),
    )
    ws = apply_windowing(test, windowing)
    detail: dict = {"windowing": list(windowing.cuts), "window_sizes": list(windowing.sizes())}
    if task == "changepoint":
        result = detect_change_points(ws)
        score = cp_pr_auc(result.times, test_cp.times, test.length)
        detail["detected"] = list(result.times)
        detail["truth"] = list(test_cp.times)
        return score, detail
    # attribute task: per-pair AUC plus raw pairs for pooling
    pairs = leave_out_scores(ws, attrs, params.batch_size, params.kernel)
    _, positive = attrs.classes
    flags = [lab == positive for _, lab in pairs]
    score = roc_auc([s for s, _ in pairs], flags)
    detail["pairs"] = [[s, lab] for s, lab in pairs]
    return score, detail


def _cells(selector: str, task: str, plan: IntervalPlan, results: list) -> list[CellResult]:
    return [
        CellResult(selector, task, idx, plan.spans[a], plan.spans[b], score, detail)
        for idx, ((a, b), (score, detail)) in enumerate(zip(plan.pairs, results))
    ]


def run_offline(
    seq: GraphSequence,
    plan: IntervalPlan,
    selector: str,
    task: str,
    *,
    attrs: VertexAttributes | None = None,
    cp_truth: ChangePointLabels | None = None,
    params: EvalParams = EvalParams(),
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentReport:
    """Evaluate one offline selector on one task across all interval pairs.

    Change-point pair scores average into the aggregate; attribute pairs pool
    their (score, label) lists into a single AUC (the population repeats
    across test sets, so pooling is the meaningful combination).
    """
    (report,) = _offline_reports(seq, plan, [selector], task, attrs, cp_truth, params, seed, jobs)
    return report


def _offline_reports(
    seq: GraphSequence,
    plan: IntervalPlan,
    selectors: Sequence[str],
    task: str,
    attrs: VertexAttributes | None,
    cp_truth: ChangePointLabels | None,
    params: EvalParams,
    seed: int,
    jobs: int,
) -> list[ExperimentReport]:
    """`run_offline` for each selector, every (selector, pair) cell in one
    `_pmap` call, so a suite starts one process pool."""
    if task not in ("attribute", "changepoint"):
        raise ValueError(f"offline evaluation covers attribute/changepoint, not {task!r}")
    for selector in selectors:
        if selector not in OFFLINE_SELECTORS:
            raise ValueError(f"unknown offline selector {selector!r}")
    if task == "attribute" and attrs is None:
        raise ValueError("attribute evaluation needs attributes")
    if task == "changepoint" and cp_truth is None:
        raise ValueError("change-point evaluation needs ground-truth labels")
    count = len(plan.pairs)
    cell = partial(_offline_cell, seq, plan, task, attrs, cp_truth, params, seed)
    results = _pmap(cell, [(name, idx) for name in selectors for idx in range(count)], jobs)
    return [
        _offline_report(plan, name, task, attrs, seed, results[k * count : (k + 1) * count])
        for k, name in enumerate(selectors)
    ]


def _offline_report(
    plan: IntervalPlan,
    selector: str,
    task: str,
    attrs: VertexAttributes | None,
    seed: int,
    results: list,
) -> ExperimentReport:
    cells = _cells(selector, task, plan, results)
    if task == "changepoint":
        scores = [c.score for c in cells if c.score is not None]
        aggregate = math.fsum(scores) / len(scores) if scores else None
        entry = {"score": aggregate, "method": "mean"}
    else:
        pooled: list[tuple[float, bool]] = []
        _, positive = attrs.classes
        for c in cells:
            pooled.extend((s, lab == positive) for s, lab in c.detail["pairs"])
        aggregate = roc_auc([s for s, _ in pooled], [b for _, b in pooled])
        entry = {"score": aggregate, "method": "pooled"}
    metadata = {
        "mode": "offline",
        "selector": selector,
        "task": task,
        "seed": seed,
        "intervals": [list(s) for s in plan.spans],
    }
    return ExperimentReport(metadata, cells, {selector: {task: entry}})


# --------------------------------------------------------------------------
# Online evaluation


def _adage_policy(rel_tol: float, patience: int) -> Callable[[GraphSequence], int]:
    """`adage_select` on each history until it converges. A size shorter
    than the history was returned on convergence and depends only on the
    steps up to it, so every longer history returns it too and is not
    refitted."""
    converged: int | None = None

    def policy(history: GraphSequence) -> int:
        nonlocal converged
        if converged is not None:
            return converged
        size = adage_select(history, rel_tol, patience)
        if size < history.length:
            converged = size
        return size

    return policy


def _make_online_selector(
    name: str,
    n: int,
    params: EvalParams,
    train_span: tuple[int, int],
    seed: int,
) -> OnlineWindowSelector:
    rng = np.random.default_rng(seed)
    flat = replace(params.selector, alpha=1.0)
    train_length = train_span[1] - train_span[0] + 1
    # name -> (windowing policy, ledger knobs, freeze step); no policy = the ledger
    table = {
        "online": (None, flat, None),
        "online-weighted": (None, params.selector, None),
        "training-only": (None, flat, train_length),
        "hand-picked": (lambda history: 1, params.selector, None),
        "random": (lambda history: random_windowing(history.length, rng), params.selector, None),
        "adage": (_adage_policy(params.adage_tol, params.adage_patience), params.selector, None),
    }
    policy, knobs, freeze_after = table[name]
    return OnlineWindowSelector(
        n, knobs, freeze_after, katz=params.katz, policy=policy, first_step=train_span[0]
    )


def _online_pair(
    seq: GraphSequence,
    plan: IntervalPlan,
    selector: str,
    params: EvalParams,
    seed: int,
    pair_index: int,
    ledger: ScoreLedger | None = None,
) -> tuple[float | None, dict, ScoreLedger | None]:
    a, b = plan.pairs[pair_index]
    train_span, test_span = plan.spans[a], plan.spans[b]
    stream = seq.slice_steps(train_span[0], test_span[1])
    train_length = train_span[1] - train_span[0] + 1
    pair_seed = derive_seed(seed, selector, "linkpred", pair_index)
    sel = _make_online_selector(selector, seq.n, params, train_span, pair_seed)
    if ledger is not None:
        sel.ledger = ledger
    scores: list[float] = []
    scored: list[dict] = []
    run_log: list[dict] = []
    previous = None
    for local, g in enumerate(stream.graphs, start=1):
        if previous is not None and local > train_length:
            positives = g.edges - previous.last_graph.edges
            if positives:
                ap = average_precision(previous.prediction, positives)
                scores.append(ap)
                scored.append({"target_step": local, "chosen": previous.chosen, "score": ap})
            else:
                scored.append({"target_step": local, "chosen": previous.chosen, "score": None})
        previous = sel.process(g)
        run_log.append(
            {
                "step": local,
                "tested": [[w, s] for w, s in previous.tested],
                "chosen": previous.chosen,
            }
        )
    kept = sel.ledger if sel.policy is None else None
    detail = {"scored": scored, "log": run_log}
    if not scores:
        log.info("pair %s->%s has no scoreable steps; skipped", train_span, test_span)
        return None, detail, kept
    return math.fsum(scores) / len(scores), detail, kept


def run_online(
    seq: GraphSequence,
    plan: IntervalPlan,
    selector: str,
    *,
    params: EvalParams = EvalParams(),
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentReport:
    """One-step-ahead link prediction with per-step size selection.

    For each (train, test) pair the selector consumes the whole contiguous
    stream; predictions targeting test-interval steps are scored by average
    precision against that step's new links. The ledger resets per pair
    unless `params.carry_ledger` is set. Pairs without a single scoreable
    step are skipped; the aggregate is the mean of pair means.
    """
    if selector not in ONLINE_SELECTORS:
        raise ValueError(f"unknown online selector {selector!r}")
    cell = partial(_online_pair, seq, plan, selector, params, seed)
    pairs = range(len(plan.pairs))
    if params.carry_ledger:
        # each pair starts from the ledger the previous pair left
        results, ledger = [], None
        for idx in pairs:
            score, detail, next_ledger = cell(idx, ledger)
            detail["carried_ledger"] = ledger is not None
            results.append((score, detail))
            ledger = next_ledger
    else:
        results = [(score, detail) for score, detail, _ in _pmap(cell, pairs, jobs)]
    cells = _cells(selector, "linkpred", plan, results)
    scores = [c.score for c in cells if c.score is not None]
    aggregate = math.fsum(scores) / len(scores) if scores else None
    metadata = {
        "mode": "online",
        "selector": selector,
        "task": "linkpred",
        "seed": seed,
        "carry_ledger": params.carry_ledger,
        "params": {
            "min_tests": params.selector.min_tests,
            "top_count": params.selector.top_count,
            "alpha": params.selector.alpha,
        },
        "intervals": [list(s) for s in plan.spans],
    }
    aggregates = {selector: {"linkpred": {"score": aggregate, "method": "mean"}}}
    return ExperimentReport(metadata, cells, aggregates)


def run_suite(
    seq: GraphSequence,
    plan: IntervalPlan,
    mode: str,
    selectors: Sequence[str],
    task: str,
    *,
    attrs: VertexAttributes | None = None,
    cp_truth: ChangePointLabels | None = None,
    params: EvalParams = EvalParams(),
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentReport:
    """Run several selectors on one task and merge them into one report."""
    if mode not in ("offline", "online"):
        raise ValueError(f"mode must be 'offline' or 'online', not {mode!r}")
    if len(set(selectors)) != len(selectors):
        raise ValueError("duplicate selector names")
    if mode == "offline":
        reports = _offline_reports(seq, plan, selectors, task, attrs, cp_truth, params, seed, jobs)
    else:
        reports = [
            run_online(seq, plan, name, params=params, seed=seed, jobs=jobs) for name in selectors
        ]
    cells = [c for rep in reports for c in rep.cells]
    aggregates = {name: rep.aggregates[name] for name, rep in zip(selectors, reports)}
    metadata = {
        "mode": mode,
        "selectors": list(selectors),
        "task": task if mode == "offline" else "linkpred",
        "seed": seed,
        "intervals": [list(s) for s in plan.spans],
    }
    return ExperimentReport(metadata, cells, aggregates)


# --------------------------------------------------------------------------
# Curves and cross-task analyses


@dataclass(frozen=True)
class CurveSet:
    """Per-task, per-interval quality at every common uniform size."""

    tasks: tuple[str, ...]
    sizes: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]
    values: Mapping[str, tuple[tuple[float, ...], ...]]  # task -> interval -> size
    dataset_id: str = ""

    def curve(self, task: str, interval: int) -> tuple[float, ...]:
        return self.values[task][interval]

    def mean_curve(self, task: str) -> tuple[float, ...]:
        per_interval = self.values[task]
        return tuple(
            math.fsum(curve[j] for curve in per_interval) / len(per_interval)
            for j in range(len(self.sizes))
        )

    def to_dict(self) -> dict:
        return {
            "tasks": list(self.tasks),
            "sizes": list(self.sizes),
            "intervals": [list(s) for s in self.intervals],
            "values": {t: [list(c) for c in self.values[t]] for t in self.tasks},
            "dataset_id": self.dataset_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CurveSet":
        return cls(
            tasks=tuple(data["tasks"]),
            sizes=tuple(int(s) for s in data["sizes"]),
            intervals=tuple((int(a), int(b)) for a, b in data["intervals"]),
            values={
                t: tuple(tuple(float(x) for x in c) for c in data["values"][t])
                for t in data["tasks"]
            },
            dataset_id=str(data.get("dataset_id", "")),
        )


def _curve_cell(
    seq: GraphSequence,
    plan: IntervalPlan,
    sizes: tuple[int, ...],
    attrs: VertexAttributes | None,
    cp_truth: ChangePointLabels | None,
    params: EvalParams,
    cell: tuple[str, int],
) -> tuple[float, ...]:
    task, interval = cell
    span = plan.spans[interval]
    segment = seq.slice_steps(*span)
    if task == "linkpred":
        return tuple(linkpred_window_quality(segment, w, params.katz) for w in sizes)
    if task == "attribute":
        return tuple(
            attr_window_quality(segment, w, attrs, params.kernel, params.batch_size)
            for w in sizes
        )
    local_truth = cp_truth.restrict(*span)
    return tuple(cp_window_quality(segment, w, local_truth) for w in sizes)


def score_curves(
    seq: GraphSequence,
    plan: IntervalPlan,
    tasks: Sequence[str],
    *,
    attrs: VertexAttributes | None = None,
    cp_truth: ChangePointLabels | None = None,
    params: EvalParams = EvalParams(),
    dataset_id: str = "",
    jobs: int = 1,
) -> CurveSet:
    """Quality of every uniform size, per task, per interval.

    Sizes run from 1 to the shortest interval length so curves align across
    intervals.
    """
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
    if "attribute" in tasks and attrs is None:
        raise ValueError("attribute curves need attributes")
    if "changepoint" in tasks and cp_truth is None:
        raise ValueError("change-point curves need ground-truth labels")
    w_max = min(b - a + 1 for a, b in plan.spans)
    sizes = tuple(range(1, w_max + 1))
    cells = [(task, idx) for task in tasks for idx in range(len(plan.spans))]
    curves = _pmap(partial(_curve_cell, seq, plan, sizes, attrs, cp_truth, params), cells, jobs)
    n_int = len(plan.spans)
    packed = {t: tuple(curves[k * n_int : (k + 1) * n_int]) for k, t in enumerate(tasks)}
    return CurveSet(tuple(tasks), sizes, plan.spans, packed, dataset_id)


def cross_task_matrix(curves: CurveSet) -> dict:
    """Each task's best size applied to every other task.

    Entry (chooser, scored) = mean over intervals of the scored task's value
    at the chooser task's per-interval argmax size (smallest on ties). A
    task's own entry averages per-interval maxima, so no other chooser can
    beat it on its task. Also reports each task's argmax of the interval-mean
    curve.
    """
    n_int = len(curves.intervals)
    argmax_per_interval: dict[str, list[int]] = {}
    for task in curves.tasks:
        per = []
        for i in range(n_int):
            curve = curves.curve(task, i)
            best = min(range(len(curve)), key=lambda j: (-curve[j], j))
            per.append(best)
        argmax_per_interval[task] = per
    entries: dict[str, dict[str, float]] = {}
    for chooser in curves.tasks:
        entries[chooser] = {}
        for scored in curves.tasks:
            total = 0.0
            for i in range(n_int):
                j = argmax_per_interval[chooser][i]
                total += curves.curve(scored, i)[j]
            entries[chooser][scored] = total / n_int
    overall_argmax = {}
    for task in curves.tasks:
        mean = curves.mean_curve(task)
        j = min(range(len(mean)), key=lambda i: (-mean[i], i))
        overall_argmax[task] = curves.sizes[j]
    return {"entries": entries, "argmax": overall_argmax}


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Rank correlation (Pearson of midranks) with a two-sided t-test p-value.

    Zero rank variance makes the statistic undefined; (nan, nan) is returned
    and logged.
    """
    if len(xs) != len(ys):
        raise ValueError("paired samples must align")
    if len(xs) < 3:
        raise ValueError("rank correlation needs at least 3 pairs")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input: we report nan ourselves
        rho, p = scipy_stats.spearmanr(xs, ys)
    if math.isnan(rho):
        log.warning("zero rank variance; rank correlation undefined")
        return (float("nan"), float("nan"))
    return float(rho), float(p)


def spearman_table(curves: CurveSet) -> dict:
    """Pairwise task rank correlations over pooled (interval, size) samples."""
    out: dict[str, dict[str, list[float]]] = {}
    n_int = len(curves.intervals)
    for i, ta in enumerate(curves.tasks):
        for tb in curves.tasks[i + 1 :]:
            xs = [curves.curve(ta, k)[j] for k in range(n_int) for j in range(len(curves.sizes))]
            ys = [curves.curve(tb, k)[j] for k in range(n_int) for j in range(len(curves.sizes))]
            rho, p = spearman(xs, ys)
            out.setdefault(ta, {})[tb] = [rho, p]
    return out


def stability_diff(curves: CurveSet) -> dict[str, float]:
    """Mean absolute score change between consecutive intervals, per task."""
    out = {}
    n_int = len(curves.intervals)
    if n_int < 2:
        raise ValueError("stability needs at least 2 intervals")
    for task in curves.tasks:
        diffs = [
            abs(curves.curve(task, i + 1)[j] - curves.curve(task, i)[j])
            for i in range(n_int - 1)
            for j in range(len(curves.sizes))
        ]
        out[task] = math.fsum(diffs) / len(diffs)
    return out


def stability_curve(curves: CurveSet) -> dict[str, tuple[float, ...]]:
    """Per size: mean absolute score change between consecutive intervals."""
    n_int = len(curves.intervals)
    if n_int < 2:
        raise ValueError("stability needs at least 2 intervals")
    out = {}
    for task in curves.tasks:
        per_size = []
        for j in range(len(curves.sizes)):
            diffs = [
                abs(curves.curve(task, i + 1)[j] - curves.curve(task, i)[j])
                for i in range(n_int - 1)
            ]
            per_size.append(math.fsum(diffs) / len(diffs))
        out[task] = tuple(per_size)
    return out


def hyperparam_sweep(
    seq: GraphSequence,
    plan: IntervalPlan,
    *,
    min_tests_values: Sequence[float] = (),
    top_count_values: Sequence[float] = (),
    fixed: float = 10.0,
    selector: str = "online",
    params: EvalParams = EvalParams(),
    seed: int = 0,
    jobs: int = 1,
) -> list[dict]:
    """Aggregate online score across a one-axis-at-a-time grid over the
    ledger's retest budgets; every other value comes from `params`."""
    alpha = params.selector.alpha
    grid = [("min_tests", v, SelectorParams(v, fixed, alpha)) for v in min_tests_values]
    grid += [("top_count", v, SelectorParams(fixed, v, alpha)) for v in top_count_values]
    records = []
    for axis, value, knobs in grid:
        report = run_online(
            seq, plan, selector, params=replace(params, selector=knobs), seed=seed, jobs=jobs
        )
        score = report.aggregates[selector]["linkpred"]["score"]
        records.append({"axis": axis, "value": value, "fixed": fixed, "score": score})
    return records
