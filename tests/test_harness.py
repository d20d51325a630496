"""Evaluation harness: interval plans, runners, curves, cross-task analyses."""
from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from graphwin import (
    OFFLINE_SELECTORS,
    ONLINE_SELECTORS,
    CurveSet,
    EvalParams,
    ExperimentReport,
    GraphSequence,
    QualityTable,
    adage_select,
    cross_task_matrix,
    derive_seed,
    harness,
    hyperparam_sweep,
    roc_auc,
    run_offline,
    run_online,
    run_suite,
    score_curves,
    spearman,
    spearman_table,
    split_intervals,
    stability_curve,
    stability_diff,
)
from graphwin import linkpred
from graphwin import selectors as selectors_module
from graphwin.linkpred import online_step_score
from graphwin.selectors import (
    AdagePolicy,
    SpanScores,
    attr_window_quality,
    cp_window_quality,
    linkpred_window_quality,
    powerlaw_exponent,
)
from graphwin.cli import _flag, main
from graphwin.temporal import ChangePointLabels, VertexAttributes, save_archive, union_graphs
from graphwin.windows import uniform_windowing

import oracles
from helpers import (
    clique_edges,
    graph,
    planted_sequence,
    random_sequence,
    seq_of,
    trace_streams,
)


# --------------------------------------------------------------------------
# interval plans and seeds


def test_split_intervals_even():
    plan = split_intervals(12, 6)
    assert plan.spans == ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12))
    assert plan.pairs == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))


def test_split_intervals_remainder_goes_first():
    plan = split_intervals(13, 6)
    sizes = [b - a + 1 for a, b in plan.spans]
    assert sizes == [3, 2, 2, 2, 2, 2]
    assert plan.spans[0] == (1, 3)
    assert plan.spans[-1] == (12, 13)


def test_eval_params_refuses_integers_out_of_range():
    for key in ("batch_size", "adage_patience"):
        for value in (0, -5, 1.5, "2"):
            with pytest.raises(ValueError, match=f"^{key} must be an integer >= 1$"):
                EvalParams(**{key: value})
    assert EvalParams(batch_size=None, adage_patience=1).batch_size is None
    assert EvalParams(batch_size=1).batch_size == 1


def test_eval_params_refuses_each_key_out_of_range():
    """Each key's range, stated once by `EvalParams`: values just inside it
    are kept, and values just outside it, NaN and inf where they lie
    outside, are refused with the dataclass's message, which `from_flat`
    words with the key as `params.<key>` and as `--<flag>`. `from_flat`
    also refuses a value of the wrong JSON type, and reads "inf" as an
    unbounded retest budget."""
    tiny, below_one, above_one = 5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    nan, inf = math.nan, math.inf
    integer = [0, -5, 1.5, "2", nan, inf]
    # key: (values kept, values refused, the range's wording)
    ranges = {
        "beta": ([tiny, 0.5, below_one], [0.0, 1.0, -tiny, above_one, nan, inf], "must lie in (0, 1)"),
        "theta": ([tiny, 0.5, below_one], [0.0, 1.0, -tiny, above_one, nan, inf], "must lie in (0, 1)"),
        "batch_size": ([1, 2], integer, "must be an integer >= 1"),
        "min_tests": ([1, above_one, inf], [below_one, 0.5, 0, nan], "must be >= 1"),
        "top_count": ([1, above_one, inf], [below_one, 0, nan], "must be >= 1"),
        "alpha": ([tiny, 0.5, 1.0], [0.0, -tiny, above_one, 1.5, nan, inf], "must lie in (0, 1]"),
        "tau": ([0.0, 0.05, 1e308], [-tiny, -1, nan, inf], "must be a finite number >= 0"),
        "adage_tol": ([tiny, 0.01, 1e308], [0.0, -1, nan, inf], "must be a finite number > 0"),
        "adage_patience": ([1, 3], integer, "must be an integer >= 1"),
    }
    number, budget = "must be a number", 'must be a number >= 1 or "inf"'
    # key: (values of a JSON type `from_flat` refuses, its wording)
    json_types = {
        "beta": (["inf", True, None], number),
        "theta": (["0.5", False], number),
        "batch_size": ([True, None], "must be an integer >= 1"),
        "min_tests": (["x", True, None], budget),
        "top_count": (["Inf", False], budget),
        "alpha": (["inf", [1]], number),
        "tau": (["inf", None], number),
        "adage_tol": (["inf", True], number),
        "adage_patience": ([True, "3"], "must be an integer >= 1"),
    }

    def assert_flat_refuses(key, value, wording):
        flag = "--" + key.replace("_", "-")
        for name, shown in (("params.{}".format, f"params.{key}"), (_flag, flag)):
            with pytest.raises(ValueError) as exc:
                EvalParams.from_flat({key: value}, name)
            assert str(exc.value) == f"{shown} {wording}, got {value!r}", (key, value)

    for key, (kept, refused, rule) in ranges.items():
        for value in kept:
            assert getattr(EvalParams(**{key: value}), key) == value
            assert getattr(EvalParams.from_flat({key: value}), key) == value
        for value in refused:
            with pytest.raises(ValueError) as exc:
                EvalParams(**{key: value})
            assert str(exc.value) == f"{key} {rule}", (key, value)
            assert_flat_refuses(key, value, rule)
        wrong, wording = json_types[key]
        for value in wrong:
            assert_flat_refuses(key, value, wording)
    for key in ("min_tests", "top_count"):
        assert getattr(EvalParams.from_flat({key: "inf"}), key) == math.inf
    assert EvalParams(batch_size=None, adage_patience=1).batch_size is None
    assert EvalParams(batch_size=1).batch_size == 1
    assert EvalParams(min_tests=inf, top_count=inf, alpha=1.0).alpha == 1.0


def test_split_intervals_validation():
    with pytest.raises(ValueError):
        split_intervals(5, 6)
    with pytest.raises(ValueError):
        split_intervals(5, 0)
    assert split_intervals(5, 1).spans == ((1, 5),)
    assert split_intervals(5, 1).pairs == ()


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(7, "online", "linkpred", 0)
    assert a == derive_seed(7, "online", "linkpred", 0)
    others = {
        derive_seed(7, "online", "linkpred", 1),
        derive_seed(7, "random", "linkpred", 0),
        derive_seed(8, "online", "linkpred", 0),
    }
    assert a not in others
    assert 0 <= a < 2**64


# --------------------------------------------------------------------------
# fixtures


def regime_flip_sequence() -> tuple[GraphSequence, ChangePointLabels]:
    """Dense block alternates between two vertex sets every 3 steps."""
    first = clique_edges(range(5))
    second = clique_edges(range(5, 10))
    steps = [first if ((t - 1) // 3) % 2 == 0 else second for t in range(1, 19)]
    seq = GraphSequence(10, tuple(graph(10, e) for e in steps), 1)
    return seq, ChangePointLabels((4, 7, 10, 13, 16))


def split_star_stream(periods: int, n: int = 10) -> GraphSequence:
    steps = []
    for p in range(periods):
        h = (2 * p) % n
        leaves = [(h + i) % n for i in (1, 2, 3, 4)]
        steps.append([(h, leaves[0]), (h, leaves[1])])
        steps.append([(h, leaves[2]), (h, leaves[3])])
        steps.append(
            [(min(a, b), max(a, b)) for i, a in enumerate(leaves) for b in leaves[i + 1 :]]
        )
    return seq_of(n, *steps)


def noisy_homophily() -> tuple[GraphSequence, VertexAttributes]:
    """Even/odd vertex classes, within-class edges denser than cross-class."""
    n = 8
    labels = ["a", "b"] * 4
    attrs = VertexAttributes(
        n, "y", {"y": "categorical"}, tuple({"y": labels[i]} for i in range(n))
    )
    rng = np.random.default_rng(1)
    graphs = []
    for _ in range(12):
        es = set()
        for u in range(n):
            for v in range(u + 1, n):
                p = 0.35 if (u % 2) == (v % 2) else 0.18
                if rng.random() < p:
                    es.add((u, v))
        graphs.append(graph(n, es))
    return GraphSequence(n, tuple(graphs), 1), attrs


# --------------------------------------------------------------------------
# offline runner


def test_run_offline_changepoint_aggregates_mean():
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    rep = run_offline(seq, plan, "supervised", "changepoint", cp_truth=truth)
    assert [c.pair_index for c in rep.cells] == [0, 1]
    assert [c.train_span for c in rep.cells] == [(1, 6), (7, 12)]
    assert [c.test_span for c in rep.cells] == [(7, 12), (13, 18)]
    assert [c.score for c in rep.cells] == [0.75, 0.75]
    # truth restricted to a test span is re-indexed to local steps
    assert rep.cells[0].detail["truth"] == [1, 4]
    entry = rep.aggregates["supervised"]["changepoint"]
    assert entry["method"] == "mean"
    assert entry["score"] == math.fsum(c.score for c in rep.cells) / len(rep.cells)

    flat = run_offline(seq, plan, "no-time", "changepoint", cp_truth=truth)
    assert [c.score for c in flat.cells] == [0.0, 0.0]


def test_run_offline_attribute_pools_pairs():
    seq, attrs = noisy_homophily()
    plan = split_intervals(12, 3)
    rep = run_offline(
        seq, plan, "hand-picked", "attribute", attrs=attrs, params=EvalParams(batch_size=2)
    )
    entry = rep.aggregates["hand-picked"]["attribute"]
    assert entry["method"] == "pooled"
    pooled = []
    for c in rep.cells:
        pooled.extend((s, lab == "b") for s, lab in c.detail["pairs"])
    assert entry["score"] == roc_auc([s for s, _ in pooled], [b for _, b in pooled])
    # pooling is not the mean of per-pair AUCs
    assert [c.score for c in rep.cells] == [0.875, 0.5]
    assert entry["score"] == 0.703125
    mean_cells = math.fsum(c.score for c in rep.cells) / len(rep.cells)
    assert mean_cells != entry["score"]


def test_run_offline_validation():
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    with pytest.raises(ValueError, match="attribute/changepoint"):
        run_offline(seq, plan, "supervised", "linkpred", cp_truth=truth)
    with pytest.raises(ValueError, match="unknown offline selector"):
        run_offline(seq, plan, "online", "changepoint", cp_truth=truth)
    with pytest.raises(ValueError, match="needs attributes"):
        run_offline(seq, plan, "hand-picked", "attribute")
    with pytest.raises(ValueError, match="ground-truth"):
        run_offline(seq, plan, "hand-picked", "changepoint")


def test_run_offline_is_deterministic_across_jobs():
    # every offline selector, entropy's eigen-solve included, on both tasks;
    # a rerun of the suite, and one selector run alone, give the same cells
    seq, truth = regime_flip_sequence()
    labels = ["a", "b"] * 5
    attrs = VertexAttributes(10, "y", {"y": "categorical"}, tuple({"y": y} for y in labels))
    plan = split_intervals(18, 3)
    for task in ("attribute", "changepoint"):
        kwargs = dict(attrs=attrs, cp_truth=truth, params=EvalParams(batch_size=2), seed=5)
        table = QualityTable(seq, attrs, truth, kwargs["params"])
        first = run_suite(table, plan, "offline", OFFLINE_SELECTORS, task, seed=5)
        table = QualityTable(seq, attrs, truth, kwargs["params"])
        rerun = run_suite(table, plan, "offline", OFFLINE_SELECTORS, task, seed=5)
        assert rerun.to_dict() == first.to_dict()
        one = run_offline(seq, plan, "random", task, **kwargs)
        assert [c for c in first.cells if c.selector == "random"] == one.cells
        assert one.aggregates["random"] == first.aggregates["random"]


def test_offline_suite_scores_each_windowed_span_once(monkeypatch):
    """Several selectors choose size 1 here, and pair 1 trains on pair 0's
    test span; still every segmentation and every leave-out run sees a
    distinct (span, windowing)."""
    seq, truth = regime_flip_sequence()
    labels = ["a", "b"] * 5
    attrs = VertexAttributes(10, "y", {"y": "categorical"}, tuple({"y": y} for y in labels))
    plan = split_intervals(18, 3)
    selectors = ["supervised", "hand-picked", "fourier", "jaccard", "no-time"]
    calls = {"detect_change_points": [], "leave_out_scores": []}

    def span_of(ws):
        # slices share the step graphs of `seq`, so their ids name the span
        return None if ws is None else (tuple(map(id, ws.source.graphs)), ws.windowing)

    def counted(name, fn):
        def wrapper(ws, *args, **kwargs):
            calls[name].append((span_of(ws), span_of(kwargs.get("eval_ws"))))
            return fn(ws, *args, **kwargs)

        return wrapper

    for module in (harness, selectors_module):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for task, name in (("changepoint", "detect_change_points"), ("attribute", "leave_out_scores")):
        table = QualityTable(seq, attrs, truth, EvalParams(batch_size=2))
        report = run_suite(table, plan, "offline", selectors, task)
        cells = {(c.test_span, tuple(c.detail["windowing"])) for c in report.cells}
        assert len(cells) < len(report.cells)  # selectors collide
        assert calls[name]
        assert len(set(calls[name])) == len(calls[name])


def test_quality_table_caches_a_task_error(monkeypatch):
    seq, attrs = noisy_homophily()
    calls = []

    def counted(*args):
        calls.append(args[1])
        return selectors_module.attr_split_window_quality(*args)

    monkeypatch.setattr(harness, "attr_split_window_quality", counted)
    table = QualityTable(seq, attrs, None, EvalParams(batch_size=2))
    # the halves of a 6-step training span hold 3 steps each
    entry = ("attribute-split", (1, 6), uniform_windowing(6, 4))
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError, match="size 4 exceeds a training half") as info:
            table[entry]
        errors.append(info.value)
    assert errors[0] is errors[1]
    assert calls == [4]


# --------------------------------------------------------------------------
# online runner


ONLINE_PARAMS = EvalParams(min_tests=2, top_count=2, alpha=1.0)


def test_run_online_scores_only_test_steps():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    rep = run_online(seq, plan, "online", params=ONLINE_PARAMS, seed=3)
    assert len(rep.cells) == 2
    for cell in rep.cells:
        train_len = cell.train_span[1] - cell.train_span[0] + 1
        test_len = cell.test_span[1] - cell.test_span[0] + 1
        targets = [e["target_step"] for e in cell.detail["scored"]]
        assert targets == list(range(train_len + 1, train_len + test_len + 1))
        usable = [e["score"] for e in cell.detail["scored"] if e["score"] is not None]
        assert cell.score == math.fsum(usable) / len(usable)
    entry = rep.aggregates["online"]["linkpred"]
    assert entry["method"] == "mean"
    assert entry["score"] == math.fsum(c.score for c in rep.cells) / len(rep.cells)


def test_run_online_jobs_do_not_change_the_report():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    # a rerun gives the same report
    r1 = run_online(seq, plan, "online", params=ONLINE_PARAMS, seed=3)
    r2 = run_online(seq, plan, "online", params=ONLINE_PARAMS, seed=3)
    assert r1.to_dict() == r2.to_dict()


def test_run_online_adage_honours_its_configured_test():
    seq = random_sequence(np.random.default_rng(2), 10, 24, 0.2)
    plan = split_intervals(seq.length, 2)
    tol, patience = 0.2, 1
    rep = run_online(
        seq, plan, "adage", params=EvalParams(adage_tol=tol, adage_patience=patience)
    )
    (cell,) = rep.cells
    for entry in cell.detail["log"]:
        step = entry["step"]
        history = seq.slice_steps(cell.train_span[0], cell.train_span[0] + step - 1)
        assert entry["chosen"] == min(adage_select(history, tol, patience), step)
    chosen = [e["chosen"] for e in cell.detail["log"]]
    assert chosen != [e["chosen"] for e in run_online(seq, plan, "adage").cells[0].detail["log"]]


def test_adage_policy_matches_adage_select_without_refitting(monkeypatch):
    """The online adage policy, fed every prefix of a stream, returns what
    a fit from step 1 returns on each, and fits each step at most once: as
    many fits in all as one `adage_select` call on the whole stream."""
    fits = []

    def counted(degrees):
        fits.append(len(degrees))
        return powerlaw_exponent(degrees)

    monkeypatch.setattr(selectors_module, "powerlaw_exponent", counted)
    rng = np.random.default_rng(17)
    streams = trace_streams() + [
        random_sequence(rng, int(rng.integers(3, 13)), int(rng.integers(1, 21)),
                        float(rng.uniform(0.05, 0.5)))
        for _ in range(100)
    ]
    converged = 0
    for k, seq in enumerate(streams):
        tol, patience = [(0.01, 3), (0.1, 2), (0.3, 1)][k % 3]
        prefixes = [seq.slice_steps(1, i) for i in range(1, seq.length + 1)]
        want = [oracles.adage_select(prefix, tol, patience) for prefix in prefixes]
        fits.clear()
        policy = AdagePolicy(seq.n, tol, patience)
        assert [policy(prefix.graphs) for prefix in prefixes] == want
        policy_fits = list(fits)
        fits.clear()
        assert adage_select(seq, tol, patience) == want[-1]
        assert policy_fits == fits and len(fits) <= seq.length
        converged += want[-1] < seq.length
    assert converged >= 20


def test_run_online_training_only_freezes_choice():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    rep = run_online(seq, plan, "training-only", seed=3)
    for cell in rep.cells:
        train_len = cell.train_span[1] - cell.train_span[0] + 1
        after = [e for e in cell.detail["log"] if e["step"] > train_len]
        assert all(e["tested"] == [] for e in after)
        assert len({e["chosen"] for e in after}) == 1


def test_run_online_random_baseline_is_seeded():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    r1 = run_online(seq, plan, "random", seed=9)
    r2 = run_online(seq, plan, "random", seed=9)
    r3 = run_online(seq, plan, "random", seed=10)
    assert r1.to_dict() == r2.to_dict()
    assert r1.to_dict() != r3.to_dict()


def test_run_online_unknown_selector():
    seq = split_star_stream(2)
    with pytest.raises(ValueError, match="unknown online selector"):
        run_online(seq, split_intervals(6, 2), "fourier")


def count_span_scores(monkeypatch) -> tuple[list, list]:
    """(spans requested of any span table, spans it scored) from now on."""
    requested, scored = [], []
    read = SpanScores.score

    def counted_read(self, steps, first_step, a, b):
        requested.append((a, b))
        return read(self, steps, first_step, a, b)

    def counted_score(last, incoming, beta):
        scored.append((last, incoming))
        return online_step_score(last, incoming, beta)

    monkeypatch.setattr(SpanScores, "score", counted_read)
    monkeypatch.setattr(selectors_module, "online_step_score", counted_score)
    return requested, scored


PLANTED_PARAMS = EvalParams(min_tests=2, top_count=4, alpha=0.5)


def test_online_suite_scores_each_span_once(monkeypatch):
    """The ledger tests and the emitted predictions of every selector and
    interval pair read one span table, so each span is scored once."""
    requested, scored = count_span_scores(monkeypatch)
    seq = planted_sequence()
    run_suite(QualityTable(seq, None, None, PLANTED_PARAMS), split_intervals(seq.length, 3),
              "online", ONLINE_SELECTORS, "linkpred", seed=3)
    assert len(scored) == len(set(requested)) < len(requested) / 2


def test_score_curves_score_each_span_once(monkeypatch):
    requested, scored = count_span_scores(monkeypatch)
    seq = planted_sequence()
    score_curves(QualityTable(seq, None, None, EvalParams()), split_intervals(seq.length, 3),
                 ["linkpred"])
    assert len(scored) == len(set(requested)) < len(requested) / 2


def test_each_katz_solve_is_one_span_table_entry(monkeypatch, tmp_path):
    """The span table is the only link-prediction cache. In an online suite
    given its own table, in a sweep, and in an `evaluate` with a
    `hyperparams` grid, `katz_matrix` solves the window of each entry of the
    stage's one span table that holds a score once, and nothing else. The
    demo stream's online suite makes 184 solves; it made 211 when every step
    also ranked its emitted last window."""
    tables, solved = [], []
    solve = linkpred.katz_matrix

    class RecordedSpans(SpanScores):
        def __init__(self, beta):
            super().__init__(beta)
            tables.append(self)

    def counted(graph, beta):
        solved.append(graph)
        return solve(graph, beta)

    def scored_windows(seq, spans):
        entries = [span for span, value in spans.values.items() if value is not None]
        return Counter(union_graphs(seq.graphs[a - 1 : b]) for a, b in entries)

    monkeypatch.setattr(harness, "SpanScores", RecordedSpans)
    monkeypatch.setattr(linkpred, "katz_matrix", counted)
    seq = planted_sequence()
    plan = split_intervals(seq.length, 3)
    table = QualityTable(seq, None, None, PLANTED_PARAMS)
    harness._online_cells(table, plan, ONLINE_SELECTORS, PLANTED_PARAMS, 3)
    assert solved and Counter(solved) == scored_windows(seq, table.spans)
    assert tables == [table.spans]
    solved.clear()
    tables.clear()
    table = QualityTable(seq, None, None, PLANTED_PARAMS)
    hyperparam_sweep(table, plan, min_tests_values=[1, 2, 4], top_count_values=[1, 2],
                     fixed=10.0, seed=3)
    assert tables == [table.spans]
    assert solved and Counter(solved) == scored_windows(seq, tables[0])
    solved.clear()
    tables.clear()
    # the CLI stage: the evaluate and its grid read one span table
    save_archive(seq, tuple(f"v{i}" for i in range(seq.n)), tmp_path / "archive")
    config = {
        "archive": str(tmp_path / "archive"), "mode": "online", "task": "linkpred",
        "selectors": list(ONLINE_SELECTORS), "intervals": 3, "seed": 3,
        "output": str(tmp_path / "run"), "params": {"min_tests": 2, "top_count": 4, "alpha": 0.5},
        "hyperparams": {"min_tests_values": [1, 2, 4], "top_count_values": [1, 2], "fixed": 10},
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(["evaluate", str(tmp_path / "run.json")]) == 0
    assert (tmp_path / "run_sweep.json").exists()
    assert len(tables) == 1
    assert solved and Counter(solved) == scored_windows(seq, tables[0])
    solved.clear()
    demo = planted_sequence(copies=1)
    run_suite(QualityTable(demo, None, None, PLANTED_PARAMS), split_intervals(demo.length, 3),
              "online", ONLINE_SELECTORS, "linkpred", seed=3)
    assert len(solved) == 184


# --------------------------------------------------------------------------
# suite merging


def test_run_suite_merges_online_reports():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    suite = run_suite(QualityTable(seq, None, None, ONLINE_PARAMS), plan, "online",
                      ["online", "hand-picked"], "linkpred", seed=3)
    solo_a = run_online(seq, plan, "online", params=ONLINE_PARAMS, seed=3)
    solo_b = run_online(seq, plan, "hand-picked", params=ONLINE_PARAMS, seed=3)
    assert suite.cells == solo_a.cells + solo_b.cells
    assert suite.aggregates == {
        "online": solo_a.aggregates["online"],
        "hand-picked": solo_b.aggregates["hand-picked"],
    }
    assert suite.metadata["selectors"] == ["online", "hand-picked"]
    assert suite.metadata["task"] == "linkpred"


def test_run_suite_merges_offline_reports():
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    suite = run_suite(
        QualityTable(seq, None, truth, EvalParams()), plan, "offline", ["supervised", "no-time"],
        "changepoint",
    )
    assert {c.selector for c in suite.cells} == {"supervised", "no-time"}
    assert suite.aggregates["supervised"]["changepoint"]["score"] == 0.75
    assert suite.aggregates["no-time"]["changepoint"]["score"] == 0.0


def test_single_selector_runs_are_the_suite_with_that_selector():
    seq, truth = regime_flip_sequence()
    labels = ["a", "b"] * 5
    attrs = VertexAttributes(10, "y", {"y": "categorical"}, tuple({"y": y} for y in labels))
    plan = split_intervals(18, 3)
    kwargs = dict(attrs=attrs, cp_truth=truth, params=EvalParams(batch_size=2), seed=5)
    for task in ("attribute", "changepoint"):
        for name in OFFLINE_SELECTORS:
            table = QualityTable(seq, attrs, truth, kwargs["params"])
            suite = run_suite(table, plan, "offline", [name], task, seed=5)
            assert run_offline(seq, plan, name, task, **kwargs).to_dict() == suite.to_dict()
            assert suite.metadata["selectors"] == [name]
    seq = split_star_stream(6)
    for name in ONLINE_SELECTORS:
        table = QualityTable(seq, None, None, ONLINE_PARAMS)
        suite = run_suite(table, plan, "online", [name], "linkpred", seed=3)
        solo = run_online(seq, plan, name, params=ONLINE_PARAMS, seed=3)
        assert solo.to_dict() == suite.to_dict()
        assert suite.metadata["selectors"] == [name]


def test_run_suite_validation():
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    table = QualityTable(seq, None, truth, EvalParams())
    with pytest.raises(ValueError, match="mode"):
        run_suite(table, plan, "sideways", ["no-time"], "changepoint")
    with pytest.raises(ValueError, match="duplicate"):
        run_suite(table, plan, "offline", ["no-time", "no-time"], "changepoint")


# --------------------------------------------------------------------------
# report serialization


def test_report_json_is_deterministic(tmp_path):
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    rep = run_offline(seq, plan, "supervised", "changepoint", cp_truth=truth)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rep.write_json(p1)
    rep.write_json(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["aggregates"]["supervised"]["changepoint"]["score"] == 0.75

    csv_path = tmp_path / "a.csv"
    rep.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "selector,task,pair,train_start,train_end,test_start,test_end,score"
    assert lines[1] == "supervised,changepoint,0,1,6,7,12,0.75"


def test_report_json_is_strict_with_unbounded_budgets(tmp_path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    seq = split_star_stream(6)
    params = EvalParams(min_tests=math.inf)
    rep = run_online(seq, split_intervals(18, 3), "online", params=params, seed=3)
    first, second = rep.cells
    cells = [replace(first, score=math.inf), replace(second, score=math.nan)]
    aggregates = {"online": {"linkpred": {"score": -math.inf, "method": "mean"}}}
    path = tmp_path / "online.json"
    ExperimentReport(rep.metadata, cells, aggregates).write_json(path)
    loaded = json.loads(path.read_text(), parse_constant=refuse)
    assert [c["score"] for c in loaded["cells"]] == ["inf", "nan"]
    assert loaded["aggregates"]["online"]["linkpred"]["score"] == "-inf"


# --------------------------------------------------------------------------
# score curves


def curve_fixture():
    seq = split_star_stream(4)
    n = seq.n
    labels = ["a", "b"] * (n // 2)
    attrs = VertexAttributes(
        n, "y", {"y": "categorical"}, tuple({"y": labels[i]} for i in range(n))
    )
    truth = ChangePointLabels((5, 9))
    plan = split_intervals(12, 3)
    return seq, plan, attrs, truth


def test_score_curves_sizes_span_the_shortest_interval():
    seq, plan, attrs, truth = curve_fixture()
    curves = score_curves(
        QualityTable(seq, attrs, truth, EvalParams(batch_size=2)), plan,
        ["linkpred", "attribute", "changepoint"], dataset_id="probe",
    )
    assert curves.sizes == (1, 2, 3, 4)
    assert curves.intervals == plan.spans
    assert curves.tasks == ("linkpred", "attribute", "changepoint")
    assert curves.dataset_id == "probe"
    for task in curves.tasks:
        assert len(curves.values[task]) == 3
        for c in curves.values[task]:
            assert len(c) == 4


def test_score_curves_match_direct_quality_calls():
    seq, plan, attrs, truth = curve_fixture()
    curves = score_curves(
        QualityTable(seq, attrs, truth, EvalParams(batch_size=2)), plan,
        ["linkpred", "attribute", "changepoint"],
    )
    for idx, span in enumerate(plan.spans):
        segment = seq.slice_steps(*span)
        local_truth = truth.restrict(*span)
        for j, w in enumerate(curves.sizes):
            assert curves.curve("linkpred", idx)[j] == linkpred_window_quality(
                segment, w, SpanScores(0.005)
            )
            assert curves.curve("attribute", idx)[j] == attr_window_quality(
                segment, w, attrs, 0.5, 2
            )
            assert curves.curve("changepoint", idx)[j] == cp_window_quality(
                segment, w, local_truth
            )


def test_score_curves_validation_and_jobs():
    seq, plan, attrs, truth = curve_fixture()
    bare = QualityTable(seq, None, None, EvalParams())
    with pytest.raises(ValueError, match="unknown task"):
        score_curves(QualityTable(seq, attrs, truth, EvalParams()), plan, ["linkpred", "mystery"])
    with pytest.raises(ValueError, match="need attributes"):
        score_curves(bare, plan, ["attribute"])
    with pytest.raises(ValueError, match="ground-truth"):
        score_curves(bare, plan, ["changepoint"])
    # a rerun gives the same curves
    a = score_curves(QualityTable(seq, None, None, EvalParams()), plan, ["linkpred"])
    b = score_curves(QualityTable(seq, None, None, EvalParams()), plan, ["linkpred"])
    assert a == b


def test_curveset_round_trips_through_json():
    seq, plan, attrs, truth = curve_fixture()
    curves = score_curves(QualityTable(seq, None, truth, EvalParams()), plan,
                          ["linkpred", "changepoint"], dataset_id="rt")
    blob = json.dumps(curves.to_dict(), sort_keys=True)
    assert CurveSet.from_dict(json.loads(blob)) == curves


def test_curveset_mean_curve():
    cs = CurveSet(
        tasks=("alpha",),
        sizes=(1, 2),
        intervals=((1, 2), (3, 4)),
        values={"alpha": ((0.2, 0.8), (0.4, 0.2))},
    )
    assert cs.mean_curve("alpha") == pytest.approx((0.3, 0.5), abs=1e-15)
    assert cs.curve("alpha", 1) == (0.4, 0.2)


# --------------------------------------------------------------------------
# cross-task matrix


HAND_CURVES = CurveSet(
    tasks=("alpha", "beta", "gamma"),
    sizes=(1, 2, 3),
    intervals=((1, 4), (5, 8)),
    values={
        "alpha": ((0.9, 0.5, 0.1), (0.2, 0.8, 0.3)),
        "beta": ((0.1, 0.2, 0.9), (0.4, 0.4, 0.7)),
        "gamma": ((0.5, 0.5, 0.2), (0.3, 0.3, 0.3)),
    },
    dataset_id="hand",
)


def test_cross_task_matrix_hand_values():
    out = cross_task_matrix(HAND_CURVES)
    entries = out["entries"]
    assert entries["alpha"]["alpha"] == pytest.approx(0.85, abs=1e-15)
    assert entries["alpha"]["beta"] == pytest.approx(0.25, abs=1e-15)
    assert entries["beta"]["alpha"] == pytest.approx(0.2, abs=1e-15)
    assert entries["beta"]["beta"] == pytest.approx(0.8, abs=1e-15)
    # gamma's curves tie at sizes 1 and 2; the smaller size wins
    assert entries["gamma"]["alpha"] == pytest.approx(0.55, abs=1e-15)
    assert out["argmax"] == {"alpha": 2, "beta": 3, "gamma": 1}


def test_cross_task_matrix_diagonal_dominates():
    """A task scored at its own per-interval argmax can never lose to another
    chooser; this holds exactly, not within a tolerance."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_int, n_sizes = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        tasks = ("alpha", "beta", "gamma")
        values = {
            t: tuple(
                tuple(float(x) for x in rng.random(n_sizes)) for _ in range(n_int)
            )
            for t in tasks
        }
        cs = CurveSet(tasks, tuple(range(1, n_sizes + 1)),
                      tuple((i + 1, i + 1) for i in range(n_int)), values)
        entries = cross_task_matrix(cs)["entries"]
        for scored in tasks:
            for chooser in tasks:
                assert entries[scored][scored] >= entries[chooser][scored]


# --------------------------------------------------------------------------
# rank correlation


def midrank_pearson(xs, ys):
    def midranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        ranks = [0.0] * len(vals)
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            r = (i + j) / 2 + 1
            for k in range(i, j + 1):
                ranks[order[k]] = r
            i = j + 1
        return ranks

    a, b = midranks(xs), midranks(ys)
    n = len(a)
    ma, mb = math.fsum(a) / n, math.fsum(b) / n
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.fsum((x - ma) ** 2 for x in a)
    vb = math.fsum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def test_spearman_perfect_and_reversed():
    rho, p = spearman([1, 2, 3, 4], [10, 20, 30, 40])
    assert rho == 1.0
    rho, _ = spearman([1, 2, 3, 4], [5, 4, 3, 2])
    assert rho == -1.0
    assert 0.0 <= p <= 1.0


def test_spearman_constant_input_is_nan():
    rho, p = spearman([1.0, 1.0, 1.0], [1, 2, 3])
    assert math.isnan(rho) and math.isnan(p)


def test_spearman_validation():
    with pytest.raises(ValueError, match="align"):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="at least 3"):
        spearman([1, 2], [3, 4])


def test_spearman_matches_midrank_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        xs = [float(v) for v in rng.integers(0, 5, n)]  # heavy ties
        ys = [float(v) for v in rng.integers(0, 5, n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        rho, _ = spearman(xs, ys)
        assert rho == pytest.approx(midrank_pearson(xs, ys), abs=1e-12)


def test_spearman_table_pools_intervals():
    doubled = CurveSet(
        tasks=("alpha", "beta"),
        sizes=(1, 2, 3),
        intervals=((1, 4), (5, 8)),
        values={
            "alpha": ((0.9, 0.5, 0.1), (0.2, 0.8, 0.3)),
            "beta": ((1.8, 1.0, 0.2), (0.4, 1.6, 0.6)),  # order-preserving transform
        },
    )
    table = spearman_table(doubled)
    assert set(table) == {"alpha"}
    rho, p = table["alpha"]["beta"]
    assert rho == 1.0
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize(
    "beta, reason, not_reason",
    [
        (["nan", 0.5, 0.1, 0.2], "NaN in a paired sample", "rank variance"),
        ([0.5, 0.5, 0.5, 0.5], "zero rank variance", "NaN"),
    ],
)
def test_spearman_logs_why_it_is_undefined(caplog, beta, reason, not_reason):
    # curves round-trip a NaN score as the string "nan"
    curves = CurveSet.from_dict({
        "tasks": ["alpha", "beta"],
        "sizes": [1, 2],
        "intervals": [[1, 4], [5, 8]],
        "values": {"alpha": [[0.9, 0.5], [0.2, 0.8]], "beta": [beta[:2], beta[2:]]},
    })
    with caplog.at_level(logging.WARNING, logger="graphwin.harness"):
        rho, p = spearman_table(curves)["alpha"]["beta"]
    assert math.isnan(rho) and math.isnan(p)
    assert reason in caplog.text and not_reason not in caplog.text


# --------------------------------------------------------------------------
# stability


STAB_CURVES = CurveSet(
    tasks=("alpha",),
    sizes=(1, 2),
    intervals=((1, 2), (3, 4), (5, 6)),
    values={"alpha": ((0.1, 0.2), (0.2, 0.4), (0.0, 0.1))},
)


def test_stability_diff_hand_values():
    out = stability_diff(STAB_CURVES)
    assert out["alpha"] == pytest.approx(0.2, abs=1e-12)
    same = CurveSet(("alpha",), (1, 2), ((1, 2), (3, 4)),
                    {"alpha": ((0.3, 0.7), (0.3, 0.7))})
    assert stability_diff(same)["alpha"] == 0.0


def test_stability_curve_hand_values():
    out = stability_curve(STAB_CURVES)
    assert out["alpha"] == pytest.approx((0.15, 0.25), abs=1e-12)


def test_stability_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    n_int, n_sizes = 4, 5
    values = {"alpha": tuple(tuple(float(x) for x in rng.random(n_sizes))
                             for _ in range(n_int))}
    cs = CurveSet(("alpha",), tuple(range(1, n_sizes + 1)),
                  tuple((i + 1, i + 1) for i in range(n_int)), values)
    diffs = []
    for i in range(n_int - 1):
        for j in range(n_sizes):
            diffs.append(abs(values["alpha"][i + 1][j] - values["alpha"][i][j]))
    assert stability_diff(cs)["alpha"] == pytest.approx(
        math.fsum(diffs) / len(diffs), abs=1e-15
    )


def test_stability_needs_two_intervals():
    single = CurveSet(("alpha",), (1,), ((1, 4),), {"alpha": ((0.5,),)})
    with pytest.raises(ValueError):
        stability_diff(single)
    with pytest.raises(ValueError):
        stability_curve(single)


# --------------------------------------------------------------------------
# hyperparameter sweep


def test_hyperparam_sweep_matches_direct_runs():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    records = hyperparam_sweep(
        QualityTable(seq, None, None, EvalParams(alpha=0.5)), plan,
        min_tests_values=[2], top_count_values=[3], fixed=4.0, selector="online", seed=7,
    )
    assert [r["axis"] for r in records] == ["min_tests", "top_count"]
    assert [r["value"] for r in records] == [2, 3]
    assert all(r["fixed"] == 4.0 for r in records)
    direct_min = run_online(
        seq, plan, "online",
        params=EvalParams(min_tests=2, top_count=4.0, alpha=0.5),
        seed=7,
    )
    assert records[0]["score"] == direct_min.aggregates["online"]["linkpred"]["score"]
    direct_top = run_online(
        seq, plan, "online",
        params=EvalParams(min_tests=4.0, top_count=3, alpha=0.5),
        seed=7,
    )
    assert records[1]["score"] == direct_top.aggregates["online"]["linkpred"]["score"]


def test_hyperparam_sweep_scores_each_span_once(monkeypatch):
    """The retest budgets change no span's score, so every grid point reads
    one span table."""
    requested, scored = count_span_scores(monkeypatch)
    seq = planted_sequence()
    hyperparam_sweep(QualityTable(seq, None, None, PLANTED_PARAMS),
                     split_intervals(seq.length, 3), min_tests_values=[1, 2, 4],
                     top_count_values=[1, 2], fixed=10.0, seed=3)
    assert len(scored) == len(set(requested)) < len(requested) / 2
