"""Evaluation harness: interval plans, runners, curves, cross-task analyses."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from graphwin import (
    CurveSet,
    EvalParams,
    GraphSequence,
    ScoreLedger,
    SelectorParams,
    adage_select,
    cross_task_matrix,
    derive_seed,
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
from graphwin.selectors import (
    attr_window_quality,
    cp_window_quality,
    linkpred_window_quality,
)
from graphwin.temporal import ChangePointLabels, StaticGraph, VertexAttributes

from helpers import clique_edges, graph, random_sequence, seq_of


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
        graphs.append(StaticGraph(n, frozenset(es)))
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
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    r1 = run_offline(seq, plan, "random", "changepoint", cp_truth=truth, seed=5)
    r2 = run_offline(seq, plan, "random", "changepoint", cp_truth=truth, seed=5, jobs=2)
    assert r1.to_dict() == r2.to_dict()


# --------------------------------------------------------------------------
# online runner


ONLINE_PARAMS = EvalParams(selector=SelectorParams(min_tests=2, top_count=2, alpha=1.0))


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
    assert rep.metadata["params"] == {"min_tests": 2, "top_count": 2, "alpha": 1.0}


def test_run_online_jobs_do_not_change_the_report():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    r1 = run_online(seq, plan, "online", params=ONLINE_PARAMS, seed=3)
    r2 = run_online(seq, plan, "online", params=ONLINE_PARAMS, seed=3, jobs=2)
    assert r1.to_dict() == r2.to_dict()


def test_run_online_carry_ledger_links_pairs():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    carried = run_online(seq, plan, "online", params=EvalParams(carry_ledger=True), seed=3)
    fresh = run_online(seq, plan, "online", params=EvalParams(carry_ledger=False), seed=3)
    assert [c.detail["carried_ledger"] for c in carried.cells] == [False, True]
    assert "carried_ledger" not in fresh.cells[0].detail
    # first pair starts empty either way; the second inherits scores
    assert carried.cells[0].score == fresh.cells[0].score
    assert carried.cells[1].score != fresh.cells[1].score
    assert carried.metadata["carry_ledger"] is True


def test_carried_ledger_keys_entries_by_absolute_step(monkeypatch):
    """A carried ledger must never hold an entry dated after the step it is
    ranked at (its decay weight would exceed 1), nor one (size, step) twice."""
    seq = random_sequence(np.random.default_rng(1), 12, 30, 0.25)
    plan = split_intervals(seq.length, 3)
    mean = ScoreLedger.mean
    checked = []

    def checked_mean(self, size, now, alpha):
        steps = [step for step, _ in self.snapshot()[size]]
        assert max(steps) <= now
        assert len(set(steps)) == len(steps)
        checked.append(size)
        return mean(self, size, now, alpha)

    monkeypatch.setattr(ScoreLedger, "mean", checked_mean)
    rep = run_online(seq, plan, "online-weighted", params=EvalParams(carry_ledger=True))
    assert [c.detail["carried_ledger"] for c in rep.cells] == [False, True]
    assert checked


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


# --------------------------------------------------------------------------
# suite merging


def test_run_suite_merges_online_reports():
    seq = split_star_stream(6)
    plan = split_intervals(18, 3)
    suite = run_suite(seq, plan, "online", ["online", "hand-picked"], "linkpred",
                      params=ONLINE_PARAMS, seed=3)
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
        seq, plan, "offline", ["supervised", "no-time"], "changepoint", cp_truth=truth
    )
    assert {c.selector for c in suite.cells} == {"supervised", "no-time"}
    assert suite.aggregates["supervised"]["changepoint"]["score"] == 0.75
    assert suite.aggregates["no-time"]["changepoint"]["score"] == 0.0


def test_run_suite_validation():
    seq, truth = regime_flip_sequence()
    plan = split_intervals(18, 3)
    with pytest.raises(ValueError, match="mode"):
        run_suite(seq, plan, "sideways", ["no-time"], "changepoint", cp_truth=truth)
    with pytest.raises(ValueError, match="duplicate"):
        run_suite(seq, plan, "offline", ["no-time", "no-time"], "changepoint", cp_truth=truth)


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
        seq, plan, ["linkpred", "attribute", "changepoint"],
        attrs=attrs, cp_truth=truth, params=EvalParams(batch_size=2), dataset_id="probe",
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
        seq, plan, ["linkpred", "attribute", "changepoint"],
        attrs=attrs, cp_truth=truth, params=EvalParams(batch_size=2),
    )
    for idx, span in enumerate(plan.spans):
        segment = seq.slice_steps(*span)
        local_truth = truth.restrict(*span)
        for j, w in enumerate(curves.sizes):
            assert curves.curve("linkpred", idx)[j] == linkpred_window_quality(segment, w)
            assert curves.curve("attribute", idx)[j] == attr_window_quality(
                segment, w, attrs, batch_size=2
            )
            assert curves.curve("changepoint", idx)[j] == cp_window_quality(
                segment, w, local_truth
            )


def test_score_curves_validation_and_jobs():
    seq, plan, attrs, truth = curve_fixture()
    with pytest.raises(ValueError, match="unknown task"):
        score_curves(seq, plan, ["linkpred", "mystery"], attrs=attrs, cp_truth=truth)
    with pytest.raises(ValueError, match="need attributes"):
        score_curves(seq, plan, ["attribute"])
    with pytest.raises(ValueError, match="ground-truth"):
        score_curves(seq, plan, ["changepoint"])
    a = score_curves(seq, plan, ["linkpred"], jobs=1)
    b = score_curves(seq, plan, ["linkpred"], jobs=2)
    assert a == b


def test_curveset_round_trips_through_json():
    seq, plan, attrs, truth = curve_fixture()
    curves = score_curves(seq, plan, ["linkpred", "changepoint"], cp_truth=truth,
                          dataset_id="rt")
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
        seq, plan, min_tests_values=[2], top_count_values=[3],
        fixed=4.0, selector="online", params=EvalParams(selector=SelectorParams(alpha=0.5)),
        seed=7,
    )
    assert [r["axis"] for r in records] == ["min_tests", "top_count"]
    assert [r["value"] for r in records] == [2, 3]
    assert all(r["fixed"] == 4.0 for r in records)
    direct_min = run_online(
        seq, plan, "online",
        params=EvalParams(selector=SelectorParams(min_tests=2, top_count=4.0, alpha=0.5)),
        seed=7,
    )
    assert records[0]["score"] == direct_min.aggregates["online"]["linkpred"]["score"]
    direct_top = run_online(
        seq, plan, "online",
        params=EvalParams(selector=SelectorParams(min_tests=4.0, top_count=3, alpha=0.5)),
        seed=7,
    )
    assert records[1]["score"] == direct_top.aggregates["online"]["linkpred"]["score"]
