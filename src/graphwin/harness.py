"""Evaluation harness: interval plans, offline/online runs, and analyses.

A sequence is split into near-equal consecutive intervals; each adjacent
(train, test) pair forms one evaluation cell. Offline: a selector picks a
windowing of the test interval (supervised selectors see training data and
training ground truth only; unsupervised ones see test edges only, so test
ground truth is structurally out of reach), then the task runs on the
windowed test interval. Online: a selector warm-starts on the train interval,
and each test-interval step is scored against the last window of the
windowing the selector emitted one step before. Every
report is `run_suite`'s: its cells by selector, then by pair, and each
selector's aggregate; `run_offline` and `run_online` are `run_suite` with
one selector.

Each stage reads one `QualityTable`, built where its inputs are loaded and
passed to every entry point it runs (`run_suite`, `score_curves`,
`hyperparam_sweep`). An entry (task, span, windowing) is the task run on
that windowing of the span, and each distinct entry is scored once, when it
is first read. `QualityTable.test_windowing` picks every offline test
windowing, the offline cells' and `graphwin select`'s: supervised selection
is the argmax of a training span's row of uniform sizes, and a baseline sees
the test edges only. The offline cells read their test entries, and
`score_curves` is the table of every uniform size. Link-prediction work
reads the table's span table (`SpanScores`), so each one-step-ahead score of
a window span is computed once per stage, whether a sweep entry, a ledger
test, a test step or a grid point needs it. It is the only link-prediction
cache: the online selectors run one after another, and each span's ranking
is built once per table.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ._numeric import midranks, t_two_sided_p
from .attrpred import leave_out_scores, pairs_auc
from .changepoint import cp_pr_auc, detect_change_points
from .selectors import (
    AdagePolicy,
    OnlineWindowSelector,
    SpanScores,
    adage_select,
    attr_split_window_quality,
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
    "LEDGER_SELECTORS",
    "TASKS",
    "QualityTable",
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

# the online selectors whose ledger chooses each size, so that the retest
# budgets steer them; the others follow a windowing policy
LEDGER_SELECTORS = ("online", "online-weighted", "training-only")
ONLINE_SELECTORS = (*LEDGER_SELECTORS, "hand-picked", "random", "adage")

# the JSON type a run config's `params` value must have, by key; every
# other key takes a number. A number is never a bool, which JSON true/false
# parse to; a retest budget is a number or "inf" (unbounded). `EvalParams`
# enforces the ranges.
_NUMBER, _INTEGER = "must be a number", "must be an integer >= 1"
_COUNT = 'must be a number >= 1 or "inf"'
_JSON_TYPES = {"batch_size": _INTEGER, "min_tests": _COUNT, "top_count": _COUNT,
               "adage_patience": _INTEGER}


@dataclass(frozen=True)
class EvalParams:
    """Every tuning value of an evaluation: its default is its field's, and
    `__post_init__` states its range. The fields are the keys of a run
    config's `params` object.

    beta: Katz damping per edge.
    theta: the attribute recency kernel: window i of m weighs
        (1-theta)^(m-i) * theta.
    batch_size: attribute leave-out batch size (None = the default size).
    min_tests: retest any size scored fewer than this many times (inf = always).
    top_count: how many of the best-scoring sizes to retest each step (inf = all).
    alpha: per-step decay of a size's older scores in its ledger mean;
        1 = plain mean. Every online interval pair starts from an empty
        ledger.
    tau: the jaccard baseline's rise threshold.
    adage_tol, adage_patience: the adage baseline's convergence test.
    """

    beta: float = 0.005
    theta: float = 0.5
    batch_size: int | None = None
    min_tests: float = 10.0
    top_count: float = 10.0
    alpha: float = 0.5
    tau: float = 0.05
    adage_tol: float = 0.01
    adage_patience: int = 3

    def __post_init__(self) -> None:
        batch = 1 if self.batch_size is None else self.batch_size
        for key, valid, rule in (
            ("beta", 0.0 < self.beta < 1.0, "must lie in (0, 1)"),
            ("theta", 0.0 < self.theta < 1.0, "must lie in (0, 1)"),
            ("batch_size", isinstance(batch, int) and batch >= 1, _INTEGER),
            ("min_tests", self.min_tests >= 1, "must be >= 1"),
            ("top_count", self.top_count >= 1, "must be >= 1"),
            ("alpha", 0.0 < self.alpha <= 1.0, "must lie in (0, 1]"),
            ("tau", 0.0 <= self.tau < math.inf, "must be a finite number >= 0"),
            ("adage_tol", 0.0 < self.adage_tol < math.inf, "must be a finite number > 0"),
            ("adage_patience",
             isinstance(self.adage_patience, int) and self.adage_patience >= 1, _INTEGER),
        ):
            if not valid:
                raise ValueError(f"{key} {rule}")

    @classmethod
    def from_flat(
        cls, flat: Mapping[str, object], name: Callable[[str], str] = "params.{}".format
    ) -> "EvalParams":
        """Build from a run config's flat `params` object (`beta`, `theta`,
        `min_tests`, ...); absent keys keep their defaults. Raises one
        ValueError listing every problem, each naming its key as `name`
        renders it."""
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(flat) - set(keys))
        problems = [f"unknown params keys {unknown}"] if unknown else []
        params = cls()
        for key in keys:
            if key not in flat:
                continue
            raw, rule = flat[key], _JSON_TYPES.get(key, _NUMBER)
            value = math.inf if rule is _COUNT and raw == "inf" else raw
            if type(value) not in ((int,) if rule is _INTEGER else (int, float)):
                problems.append(f"{name(key)} {rule}, got {raw!r}")
                continue
            try:
                params = replace(params, **{key: value if rule is _INTEGER else float(value)})
            except ValueError as exc:
                # __post_init__ words each range as "<key> must ..."
                problems.append(f"{name(key)} {str(exc).removeprefix(key + ' ')}, got {raw!r}")
        if problems:
            raise ValueError("; ".join(problems))
        return params


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


# --------------------------------------------------------------------------
# The quality table

# An entry (kind, span, windowing) is a task run on one windowing of a
# 1-based inclusive span. `kind` is a task, or "attribute-split" for the
# supervised attribute rows, which fit on the first half of a training span
# and score on the second. linkpred and attribute-split entries are uniform:
# their size is that of their first window.
Entry = tuple[str, tuple[int, int], Windowing]
_SUPERVISED_KIND = {"changepoint": "changepoint", "attribute": "attribute-split"}


def _row(kind: str, span: tuple[int, int]) -> list[Entry]:
    """The entries of every uniform size of `span`, smallest first."""
    length = span[1] - span[0] + 1
    return [(kind, span, uniform_windowing(length, w)) for w in range(1, length + 1)]


class QualityTable:
    """Task quality per entry of `seq`, each distinct entry scored once:
    when it is first read. Reading an entry whose task raised a ValueError
    raises it again. Link-prediction entries, and the online selectors of
    every run given this table, read its one span table (`spans`).
    """

    def __init__(
        self,
        seq: GraphSequence,
        attrs: VertexAttributes | None,
        cp_truth: ChangePointLabels | None,
        params: EvalParams,
    ) -> None:
        self.seq, self.attrs, self.cp_truth, self.params = seq, attrs, cp_truth, params
        self.values: dict[Entry, tuple[float, dict] | ValueError] = {}
        self.spans = SpanScores(params.beta)

    def score(self, kind: str, span: tuple[int, int], windowing: Windowing) -> tuple[float, dict]:
        """How task `kind` scores the steps of `span` under `windowing`: the
        score, and the detail an offline cell reports."""
        attrs, theta, batch = self.attrs, self.params.theta, self.params.batch_size
        segment = self.seq.slice_steps(*span)
        size = windowing.sizes()[0]
        if kind == "linkpred":
            return linkpred_window_quality(segment, size, self.spans, span[0]), {}
        if kind == "attribute-split":
            return attr_split_window_quality(segment, size, attrs, theta, batch), {}
        ws = apply_windowing(segment, windowing)
        if kind == "changepoint":
            truth = self.cp_truth.restrict(*span)
            detected = detect_change_points(ws)
            score = cp_pr_auc(detected, truth.times, segment.length)
            return score, {"detected": list(detected), "truth": list(truth.times)}
        pairs = leave_out_scores(ws, attrs, batch, theta)
        return pairs_auc(pairs, attrs), {"pairs": [[s, lab] for s, lab in pairs]}

    def __getitem__(self, entry: Entry) -> tuple[float, dict]:
        if entry not in self.values:
            try:
                self.values[entry] = self.score(*entry)
            except ValueError as exc:
                self.values[entry] = exc
        value = self.values[entry]
        if isinstance(value, ValueError):
            raise value
        return value

    def test_windowing(
        self,
        selector: str,
        task: str | None,
        train: tuple[int, int] | None,
        test: tuple[int, int],
        seed: int,
    ) -> Windowing:
        """The windowing `selector` picks for the `test` span. Supervised
        selection sees the `train` span and its ground truth only: the best
        uniform size of `task`'s row there, clamped to the test length.
        Every other selector sees the test edges only."""
        if selector != "supervised":
            return _baseline_windowing(selector, self.seq.slice_steps(*test), self.params, seed)
        kind = _SUPERVISED_KIND[task]
        if kind == "changepoint" and not self.cp_truth.restrict(*train).times:
            log.info("training interval has no change points; selection sees empty truth")
        row = _row(kind, train)
        selection = supervised_offline_select(
            self.seq.slice_steps(*train), lambda _, w: self[row[w - 1]][0]
        )
        length = test[1] - test[0] + 1
        return uniform_windowing(length, min(selection.chosen, length))


# --------------------------------------------------------------------------
# Offline evaluation


def _baseline_windowing(
    selector: str, test: GraphSequence, params: EvalParams, seed: int
) -> Windowing:
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
                    "detail": c.detail,
                }
                for c in self.cells
            ],
            "aggregates": self.aggregates,
            "curves": self.curves.to_dict() if self.curves is not None else None,
        }

    def write_json(self, path: str | Path) -> None:
        _write_json(path, self.to_dict())

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


def _write_json(path: str | Path, obj: Mapping) -> None:
    """Write `obj` as sorted, indented, strict JSON (non-finite floats as
    strings, see `_jsonable`)."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _mean(scores: Sequence[float | None]) -> float | None:
    """The mean of the scores that are not None; None when none is."""
    scores = [s for s in scores if s is not None]
    return math.fsum(scores) / len(scores) if scores else None


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
) -> ExperimentReport:
    """Evaluate one offline selector on one task across all interval pairs:
    `run_suite` with that one selector, on a quality table of its own."""
    table = QualityTable(seq, attrs, cp_truth, params)
    return run_suite(table, plan, "offline", [selector], task, seed=seed)


def _offline_cells(
    table: QualityTable,
    plan: IntervalPlan,
    selectors: Sequence[str],
    task: str,
    seed: int,
) -> tuple[list[CellResult], dict]:
    """The cells and aggregates of each offline selector, from `table`: its
    training rows pick the supervised windowings, and every cell reads its
    test entry. Change-point pair scores average into the aggregate;
    attribute pairs pool their (score, label) lists into a single AUC (the
    population repeats across test sets, so pooling is what combines them)."""
    if task not in ("attribute", "changepoint"):
        raise ValueError(f"offline evaluation covers attribute/changepoint, not {task!r}")
    for selector in selectors:
        if selector not in OFFLINE_SELECTORS:
            raise ValueError(f"unknown offline selector {selector!r}")
    if task == "attribute" and table.attrs is None:
        raise ValueError("attribute evaluation needs attributes")
    if task == "changepoint" and table.cp_truth is None:
        raise ValueError("change-point evaluation needs ground-truth labels")
    cells, aggregates = [], {}
    for name in selectors:
        own = []
        for idx, (a, b) in enumerate(plan.pairs):
            train, test = plan.spans[a], plan.spans[b]
            cell_seed = derive_seed(seed, name, task, idx)
            windowing = table.test_windowing(name, task, train, test, cell_seed)
            score, detail = table[task, test, windowing]
            cuts, sizes = list(windowing.cuts), list(windowing.sizes())
            detail = {"windowing": cuts, "window_sizes": sizes, **detail}
            own.append(CellResult(name, task, idx, train, test, score, detail))
        if task == "changepoint":
            entry = {"score": _mean([c.score for c in own]), "method": "mean"}
        else:
            pooled = [pair for c in own for pair in c.detail["pairs"]]
            entry = {"score": pairs_auc(pooled, table.attrs), "method": "pooled"}
        cells += own
        aggregates[name] = {task: entry}
    return cells, aggregates


# --------------------------------------------------------------------------
# Online evaluation


def _make_online_selector(
    name: str,
    table: QualityTable,
    params: EvalParams,
    train_span: tuple[int, int],
    seed: int,
) -> OnlineWindowSelector:
    """Selector `name` of `table`'s sequence with the ledger knobs and
    adage test of `params`: `online` and `training-only` weigh every score
    alike, and `training-only` stops testing after the training span."""
    n = table.seq.n
    rng = np.random.default_rng(seed)
    policies = {
        "hand-picked": lambda history: 1,
        "random": lambda history: random_windowing(len(history), rng),
        "adage": AdagePolicy(n, params.adage_tol, params.adage_patience),
    }
    policy = None if name in LEDGER_SELECTORS else policies[name]
    alpha = 1.0 if name in ("online", "training-only") else params.alpha
    freeze_after = train_span[1] - train_span[0] + 1 if name == "training-only" else None
    return OnlineWindowSelector(
        n, table.spans, min_tests=params.min_tests, top_count=params.top_count, alpha=alpha,
        freeze_after=freeze_after, policy=policy, first_step=train_span[0],
    )


def _online_cells(
    table: QualityTable,
    plan: IntervalPlan,
    selectors: Sequence[str],
    params: EvalParams,
    seed: int,
) -> tuple[list[CellResult], dict]:
    """The cells and aggregates of each online selector with the ledger
    knobs of `params`, run selector by selector and pair by pair. `table`'s
    span table serves them all: it scores the ledger tests, and each test
    step against the last window the previous step emitted."""
    for selector in selectors:
        if selector not in ONLINE_SELECTORS:
            raise ValueError(f"unknown online selector {selector!r}")
    seq, spans = table.seq, table.spans
    cells, aggregates = [], {}
    for name in selectors:
        own = []
        for idx, (a, b) in enumerate(plan.pairs):
            train_span, test_span = plan.spans[a], plan.spans[b]
            first = train_span[0]
            stream = seq.graphs[first - 1 : test_span[1]]
            pair_seed = derive_seed(seed, name, "linkpred", idx)
            sel = _make_online_selector(name, table, params, train_span, pair_seed)
            scored, run_log = [], []
            for local, g in enumerate(stream, start=1):
                if local > train_span[1] - first + 1:
                    # the previous step's last window: its steps after the last cut
                    cuts = record.windowing.cuts
                    start = first + (cuts[-1] if cuts else 0)
                    ap = spans.score(stream, first, start, first + local - 2)
                    scored.append({"target_step": local, "chosen": record.chosen, "score": ap})
                record = sel.process(g)
                tested = [[w, s] for w, s in record.tested]
                run_log.append({"step": local, "tested": tested, "chosen": record.chosen})
            score = _mean([e["score"] for e in scored])
            if score is None:
                log.info("pair %s->%s has no scoreable steps; skipped", train_span, test_span)
            detail = {"scored": scored, "log": run_log}
            own.append(CellResult(name, "linkpred", idx, train_span, test_span, score, detail))
        cells += own
        aggregates[name] = {"linkpred": {"score": _mean([c.score for c in own]), "method": "mean"}}
    return cells, aggregates


def run_online(
    seq: GraphSequence,
    plan: IntervalPlan,
    selector: str,
    *,
    params: EvalParams = EvalParams(),
    seed: int = 0,
) -> ExperimentReport:
    """One-step-ahead link prediction with per-step size selection:
    `run_suite` with that one selector, on a quality table of its own.

    For each (train, test) pair the selector consumes the whole contiguous
    stream; predictions targeting test-interval steps are scored by average
    precision against that step's new links. Each pair starts from an
    empty ledger. Pairs without a single scoreable step are skipped; the
    aggregate is the mean of pair means.
    """
    table = QualityTable(seq, None, None, params)
    return run_suite(table, plan, "online", [selector], "linkpred", seed=seed)


def run_suite(
    table: QualityTable,
    plan: IntervalPlan,
    mode: str,
    selectors: Sequence[str],
    task: str,
    *,
    seed: int = 0,
) -> ExperimentReport:
    """Run several selectors on one task of `table`'s sequence into one
    report: the cells of each selector in the given order, each selector's
    aggregate, and the run's metadata. Offline selectors read the table's
    entries (see `_offline_cells`); online ones read its span table with the
    ledger knobs of `table.params` (see `_online_cells`), and an online
    report's task is always "linkpred"."""
    if mode not in ("offline", "online"):
        raise ValueError(f"mode must be 'offline' or 'online', not {mode!r}")
    if len(set(selectors)) != len(selectors):
        raise ValueError("duplicate selector names")
    if mode == "offline":
        result = _offline_cells(table, plan, selectors, task, seed)
    else:
        result = _online_cells(table, plan, selectors, table.params, seed)
    metadata = {
        "mode": mode,
        "selectors": list(selectors),
        "task": task if mode == "offline" else "linkpred",
        "seed": seed,
        "intervals": [list(s) for s in plan.spans],
    }
    return ExperimentReport(metadata, *result)


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


def score_curves(
    table: QualityTable,
    plan: IntervalPlan,
    tasks: Sequence[str],
    *,
    dataset_id: str = "",
) -> CurveSet:
    """`table`'s quality of every uniform size, per task, per interval.

    Sizes run from 1 to the shortest interval length so curves align across
    intervals.
    """
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
    if "attribute" in tasks and table.attrs is None:
        raise ValueError("attribute curves need attributes")
    if "changepoint" in tasks and table.cp_truth is None:
        raise ValueError("change-point curves need ground-truth labels")
    w_max = min(b - a + 1 for a, b in plan.spans)
    sizes = tuple(range(1, w_max + 1))
    values = {
        task: tuple(tuple(table[e][0] for e in _row(task, span)[:w_max]) for span in plan.spans)
        for task in tasks
    }
    return CurveSet(tuple(tasks), sizes, plan.spans, values, dataset_id)


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

    A NaN in either sample, or a constant sample, makes the statistic
    undefined; (nan, nan) is returned and the reason logged.
    """
    if len(xs) != len(ys):
        raise ValueError("paired samples must align")
    if len(xs) < 3:
        raise ValueError("rank correlation needs at least 3 pairs")
    pairs = np.column_stack((np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)))
    if np.isnan(pairs).any():
        log.warning("NaN in a paired sample; rank correlation undefined")
        return (float("nan"), float("nan"))
    if (pairs == pairs[0]).all(axis=0).any():
        log.warning("constant sample, zero rank variance; rank correlation undefined")
        return (float("nan"), float("nan"))
    ranks = np.column_stack((midranks(pairs[:, 0]), midranks(pairs[:, 1])))
    rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    if abs(rho) == 1.0:
        return rho, 0.0
    dof = len(xs) - 2
    t = rho * math.sqrt(dof / ((rho + 1.0) * (1.0 - rho)))
    return rho, t_two_sided_p(t, dof)


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


def _interval_changes(curves: CurveSet) -> dict[str, list[list[float]]]:
    """Per task: the absolute change of each size's score (column) between
    consecutive intervals (row)."""
    if len(curves.intervals) < 2:
        raise ValueError("stability needs at least 2 intervals")
    curve, rows, sizes = curves.curve, range(len(curves.intervals) - 1), range(len(curves.sizes))
    return {
        t: [[abs(curve(t, i + 1)[j] - curve(t, i)[j]) for j in sizes] for i in rows]
        for t in curves.tasks
    }


def stability_diff(curves: CurveSet) -> dict[str, float]:
    """Mean absolute score change between consecutive intervals, per task."""
    return {
        task: math.fsum(d for row in rows for d in row) / (len(rows) * len(curves.sizes))
        for task, rows in _interval_changes(curves).items()
    }


def stability_curve(curves: CurveSet) -> dict[str, tuple[float, ...]]:
    """Per size: mean absolute score change between consecutive intervals."""
    return {
        task: tuple(math.fsum(col) / len(rows) for col in zip(*rows))
        for task, rows in _interval_changes(curves).items()
    }


def hyperparam_sweep(
    table: QualityTable,
    plan: IntervalPlan,
    *,
    min_tests_values: Sequence[float] = (),
    top_count_values: Sequence[float] = (),
    fixed: float,
    selector: str = "online",
    seed: int = 0,
) -> list[dict]:
    """Aggregate online score across a one-axis-at-a-time grid over the
    ledger's retest budgets, the other budget held at `fixed`; alpha and
    every other value come from `table.params`. Every grid point reads
    `table`'s span table, which the run that shares the table may already
    have filled: the budgets change no span's score."""
    grid = [("min_tests", v, {"min_tests": v, "top_count": fixed}) for v in min_tests_values]
    grid += [("top_count", v, {"min_tests": fixed, "top_count": v}) for v in top_count_values]
    records = []
    for axis, value, budgets in grid:
        point = replace(table.params, **budgets)
        _, aggregates = _online_cells(table, plan, [selector], point, seed)
        score = aggregates[selector]["linkpred"]["score"]
        records.append({"axis": axis, "value": value, "fixed": fixed, "score": score})
    return records
