"""Deliverable-level acceptance checks.

Each test pins one end-to-end guarantee of the package at its stated
tolerance, checked against an independently coded reference; `pytest -v`
prints one pass/fail line per guarantee.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from graphwin.attrpred import roc_auc
from graphwin.changepoint import cp_pr_auc, detect_change_points
from graphwin.cli import main as cli_main
from graphwin.harness import EvalParams, cross_task_matrix, score_curves, split_intervals
from graphwin.linkpred import KatzParams, average_precision, katz_matrix, katz_scores
from graphwin.selectors import OnlineWindowSelector, SelectorParams
from graphwin.temporal import (
    ChangePointLabels,
    GraphSequence,
    StaticGraph,
    VertexAttributes,
)
from graphwin.windows import Windowing, apply_windowing, windowed_at
from helpers import random_graph, random_sequence, trace_streams

ROOT = Path(__file__).resolve().parents[1]


def canonical(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


# --------------------------------------------------------------------------
# 1. change-point score vs unit-step integration


def unit_step_pr_auc(proposed, truth, length):
    """Riemann sum of precision(d) * recall(d) at unit tolerance steps.

    Exact for integer time stamps because the integrand is constant on
    [d, d + 1)."""
    if not proposed or not truth:
        return 0.0
    prop_min = [min(abs(s - t) for t in truth) for s in proposed]
    true_min = [min(abs(s - t) for s in proposed) for t in truth]
    total = 0.0
    for d in range(length):
        precision = sum(1 for x in prop_min if x <= d) / len(proposed)
        recall = sum(1 for x in true_min if x <= d) / len(truth)
        total += precision * recall
    return total / length


def test_change_point_score_matches_unit_step_integration():
    rng = np.random.default_rng(412)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        n_prop = min(int(rng.integers(0, 11)), n)
        n_true = min(int(rng.integers(0, 11)), n)
        proposed = sorted(int(x) + 1 for x in rng.choice(n, size=n_prop, replace=False))
        truth = sorted(int(x) + 1 for x in rng.choice(n, size=n_true, replace=False))
        got = cp_pr_auc(proposed, truth, n)
        assert abs(got - unit_step_pr_auc(proposed, truth, n)) <= 1.0 / n
        if not proposed or not truth:
            assert got == 0.0
    elapsed = time.perf_counter() - start
    # perfect proposals integrate to exactly 1, regardless of the sets
    for _ in range(50):
        n = int(rng.integers(2, 101))
        size = min(int(rng.integers(1, 11)), n)
        pts = sorted(int(x) + 1 for x in rng.choice(n, size=size, replace=False))
        assert cp_pr_auc(pts, pts, n) == 1.0
    assert elapsed < 5.0, f"1000 scored instances took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# 2. closed-form damped path sums vs truncated enumeration


def test_katz_exact_solve_matches_truncated_path_sums():
    rng = np.random.default_rng(76)
    beta = 0.005
    params = KatzParams(beta=beta)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        exact = katz_matrix(g, params)
        # walk counts by exact integer matrix powers; 29^11 fits in int64
        adj = g.adjacency().astype(np.int64)
        power = np.eye(n, dtype=np.int64)
        truncated = np.zeros((n, n))
        for length in range(1, 13):
            power = power @ adj
            truncated += beta**length * power
        diff = float(np.max(np.abs(exact - truncated)))
        # geometric tail of the series beyond 12 steps, overestimated
        assert diff <= beta**13 * n * 30**13
        assert diff <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"200 graphs took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# 3. the online selection loop vs an exhaustively re-derived reference


class ReferenceSelector:
    """Independent re-derivation of ledger-driven online size selection.

    Maintains its own score ledger, test schedule, and uniform-window
    arithmetic (remainder window at the end); only the leaf scoring
    functions are shared with the library, and those are pinned against
    their own oracles elsewhere in this file.
    """

    def __init__(self, n, min_tests=math.inf, top_count=math.inf, alpha=1.0):
        self.n = n
        self.min_tests = min_tests
        self.top_count = top_count
        self.alpha = alpha
        self.params = KatzParams()
        self.graphs: list[StaticGraph] = []
        self.entries: dict[int, list[tuple[int, float]]] = {}

    def _mean(self, size, now):
        entries = self.entries[size]
        if self.alpha == 1.0:
            return math.fsum(s for _, s in entries) / len(entries)
        num = math.fsum(self.alpha ** (now - step) * s for step, s in entries)
        den = math.fsum(self.alpha ** (now - step) for step, _ in entries)
        return num / den

    def _ranked(self, now):
        rows = [(w, self._mean(w, now)) for w in sorted(self.entries) if self.entries[w]]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    def _last_window(self, prefix, size):
        cuts = list(range(size, len(prefix), size))
        start = cuts[-1] if cuts else 0
        edges = frozenset(set().union(*(g.edges for g in prefix[start:])))
        return StaticGraph(self.n, edges)

    def step(self, incoming):
        i = len(self.graphs) + 1
        tested = []
        if i >= 2:
            fresh = {
                w for w in range(1, i) if len(self.entries.get(w, ())) < self.min_tests
            }
            ranked = self._ranked(i)
            if math.isinf(self.top_count):
                best = {w for w, _ in ranked}
            else:
                best = {w for w, _ in ranked[: int(self.top_count)]}
            for w in sorted(x for x in fresh | best if x < i):
                last = self._last_window(self.graphs, w)
                positives = incoming.edges - last.edges
                if positives:
                    score = average_precision(katz_scores(last, self.params), positives)
                    self.entries.setdefault(w, []).append((i, score))
                else:
                    score = None
                tested.append((w, score))
        self.graphs.append(incoming)
        ranked = self._ranked(i)
        chosen = min(ranked[0][0] if ranked else 1, i)
        last = self._last_window(self.graphs, chosen)
        return {
            "tested": tuple(tested),
            "chosen": chosen,
            "cuts": tuple(range(chosen, i, chosen)),
            "last": last,
            "prediction": katz_scores(last, self.params),
        }


def assert_traces_match(seq, min_tests, top_count, alpha):
    selector = OnlineWindowSelector(
        seq.n,
        SelectorParams(min_tests=min_tests, top_count=top_count, alpha=alpha),
    )
    reference = ReferenceSelector(
        seq.n, min_tests=min_tests, top_count=top_count, alpha=alpha
    )
    for i in range(1, seq.length + 1):
        incoming = seq.step(i)
        record = selector.process(incoming)
        want = reference.step(incoming)
        assert record.tested == want["tested"], f"step {i} tested sets differ"
        assert record.chosen == want["chosen"], f"step {i} chose differently"
        assert record.windowing == Windowing(i, want["cuts"])
        assert record.last_graph == want["last"]
        assert record.prediction == want["prediction"], f"step {i} predictions differ"
    assert selector.ledger.snapshot() == {
        w: tuple(entries) for w, entries in reference.entries.items()
    }
    return selector


def test_online_selection_matches_exhaustive_reference():
    for seq in trace_streams():
        # unbounded budgets: every size is retested at every step
        assert_traces_match(seq, math.inf, math.inf, 1.0)
        assert_traces_match(seq, math.inf, math.inf, 0.5)
        # finite budgets follow the same trace semantics
        assert_traces_match(seq, 2, 2, 1.0)
    # one brand-new edge per step: after warm-up the unit budget tests at
    # most the one never-seen size plus the single best size
    T = 12
    novel = GraphSequence(
        2 * T,
        tuple(
            StaticGraph(2 * T, frozenset({(2 * (t - 1), 2 * (t - 1) + 1)}))
            for t in range(1, T + 1)
        ),
        1,
    )
    selector = assert_traces_match(novel, 1, 1, 1.0)
    records_tested = []
    replay = OnlineWindowSelector(
        novel.n, SelectorParams(min_tests=1, top_count=1, alpha=1.0)
    )
    for i in range(1, T + 1):
        records_tested.append(replay.process(novel.step(i)).tested)
    assert all(len(t) <= 2 for t in records_tested)
    assert sum(len(t) for t in records_tested) == 2 * (T - 1) - 1
    assert selector.ledger.snapshot() == replay.ledger.snapshot()


# --------------------------------------------------------------------------
# 4. ranking metrics vs their direct pairwise definitions


def test_ranking_metrics_match_direct_definitions():
    rng = np.random.default_rng(59)
    for _ in range(120):
        m = int(rng.integers(1, 201))
        pairs = [(0, j) for j in range(1, m + 1)]
        ranking = [
            (p, float(s)) for p, s in zip(pairs, rng.integers(0, 5, size=m) / 4.0)
        ]
        ranking.sort(key=lambda item: (-item[1], item[0]))
        k = int(rng.integers(1, m + 1))
        positives = [pairs[int(j)] for j in rng.choice(m, size=k, replace=False)]
        if rng.random() < 0.3:
            positives.append((0, m + 1))  # a positive the ranking never retrieves
        got = average_precision(ranking, positives)
        pos = set(positives)
        hits, precisions = 0, []
        for rank, (pair, _) in enumerate(ranking, start=1):
            if pair in pos:
                hits += 1
                precisions.append(hits / rank)
        assert got == math.fsum(precisions) / len(pos)
    for _ in range(120):
        m = int(rng.integers(2, 201))
        labels = [bool(x) for x in rng.integers(0, 2, size=m)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        scores = [float(x) for x in rng.integers(0, 6, size=m) / 5.0]
        got = roc_auc(scores, labels)
        pos = [s for s, b in zip(scores, labels) if b]
        neg = [s for s, b in zip(scores, labels) if not b]
        wins = sum(1 for p in pos for q in neg if p > q)
        ties = sum(1 for p in pos for q in neg if p == q)
        assert got == (wins + 0.5 * ties) / (len(pos) * len(neg))


# --------------------------------------------------------------------------
# 5. windowing invariants over every cut pattern of short sequences


def test_windowing_invariants_hold_for_every_cut_pattern():
    rng = np.random.default_rng(33)
    for length in range(1, 9):
        seq = random_sequence(rng, 5, length, 0.4)
        step_edges = [seq.step(i).edges for i in range(1, length + 1)]
        for bits in range(2 ** (length - 1)):
            cuts = tuple(k for k in range(1, length) if bits >> (k - 1) & 1)
            win = Windowing(length, cuts)
            spans = win.spans()
            assert spans[0][0] == 1 and spans[-1][1] == length
            assert all(b[0] == a[1] + 1 for a, b in zip(spans, spans[1:]))
            assert sum(win.sizes()) == length
            assert win.segment_count == len(cuts) + 1
            ws = apply_windowing(seq, win)
            for (a, b), g in zip(spans, ws.graphs):
                assert g.edges == frozenset(set().union(*step_edges[a - 1 : b]))
            assert Windowing.from_json(win.to_json(), length) == win
            # re-windowing the window graphs == one composed windowing
            inner = ws.to_graph_sequence()
            ends = cuts + (length,)
            k = win.segment_count
            for bits2 in range(2 ** (k - 1)):
                cuts2 = tuple(c for c in range(1, k) if bits2 >> (c - 1) & 1)
                composed = Windowing(length, tuple(ends[c - 1] for c in cuts2))
                left = apply_windowing(inner, Windowing(k, cuts2))
                assert left.graphs == apply_windowing(seq, composed).graphs


# --------------------------------------------------------------------------
# 6. a planted community switch is detected exactly once, at the switch


def test_planted_community_switch_detected_exactly_once():
    first = frozenset((u, v) for u in range(6) for v in range(u + 1, 6))
    second = frozenset((u, v) for u in range(6, 12) for v in range(u + 1, 12))
    switched = GraphSequence(
        12, tuple(StaticGraph(12, first if t < 5 else second) for t in range(10)), 1
    )
    result = detect_change_points(windowed_at(switched, 1))
    assert result.times == (6,)
    assert result.segment_starts == (1, 6)
    rerun = detect_change_points(windowed_at(switched, 1))
    assert (rerun.times, rerun.segment_starts) == (result.times, result.segment_starts)
    constant = GraphSequence(12, tuple(StaticGraph(12, first) for _ in range(10)), 1)
    quiet = detect_change_points(windowed_at(constant, 1))
    assert quiet.times == ()
    assert quiet.segment_starts == (1,)


# --------------------------------------------------------------------------
# 7. planting a different temporal signal per task makes the tasks
#    prefer different window sizes


def three_signal_sequence(n=30, T=36, seed=0):
    """Stars (period 3) on 0..9, banded community evidence on 10..21,
    rotating dense blocks (every 4 steps) on 22..29."""
    rng = np.random.default_rng(seed)
    steps = []
    for t in range(T):
        es = set()
        period, phase = divmod(t, 3)
        for hub in ((2 * period) % 10, (2 * period + 5) % 10):
            leaves = [(hub + i) % 10 for i in (1, 2, 3, 4)]
            if phase == 0:
                es |= {canonical(hub, leaves[0]), canonical(hub, leaves[1])}
            elif phase == 1:
                es |= {canonical(hub, leaves[2]), canonical(hub, leaves[3])}
            else:
                es |= {
                    canonical(a, b)
                    for i, a in enumerate(leaves)
                    for b in leaves[i + 1 :]
                }
        local = t % 12
        if local < 4:  # misleading cross-community pairs early in the interval
            for _ in range(2):
                u = int(rng.choice(range(10, 16)))
                v = int(rng.choice(range(16, 22)))
                es.add(canonical(u, v))
        elif local < 9:  # clean within-community evidence mid-interval
            for pool in (list(range(10, 16)), list(range(16, 22))):
                u, v = rng.choice(pool, size=2, replace=False)
                es.add(canonical(int(u), int(v)))
            pool = list(range(10, 16)) if rng.integers(0, 2) == 0 else list(range(16, 22))
            u, v = rng.choice(pool, size=2, replace=False)
            es.add(canonical(int(u), int(v)))
        rotation = t // 4
        block = [22 + (2 * rotation + i) % 8 for i in range(4)]
        es |= {canonical(a, b) for i, a in enumerate(block) for b in block[i + 1 :]}
        steps.append(StaticGraph(n, frozenset(es)))
    return GraphSequence(n, tuple(steps), 1)


def test_tasks_prefer_different_window_sizes():
    seq = three_signal_sequence()
    rows = tuple(
        ({"y": "a" if v < 16 else "b"} if 10 <= v < 22 else {}) for v in range(30)
    )
    attrs = VertexAttributes(30, "y", {"y": "categorical"}, rows)
    truth = ChangePointLabels(tuple(range(5, 37, 4)))
    curves = score_curves(
        seq,
        split_intervals(36, 3),
        ["linkpred", "attribute", "changepoint"],
        attrs=attrs,
        cp_truth=truth,
        params=EvalParams(batch_size=1),
        dataset_id="three-signal",
    )
    out = cross_task_matrix(curves)
    assert out["argmax"] == {"linkpred": 3, "attribute": 4, "changepoint": 1}
    assert len(set(out["argmax"].values())) == 3
    # each planted signal peaks where it was planted
    lp, at, cp = (curves.mean_curve(t) for t in ("linkpred", "attribute", "changepoint"))
    assert lp[2] > lp[0] and lp[2] > lp[1] and lp[2] > max(lp[3:])
    assert at[3] > at[0] and at[3] > max(at[6:])
    assert cp[0] > max(cp[1:])
    # choosing the window size for a different task never beats the task's own
    entries = out["entries"]
    for scored in curves.tasks:
        for chooser in curves.tasks:
            assert entries[chooser][scored] <= entries[scored][scored]


# --------------------------------------------------------------------------
# 8/9. the documented reproduction path: demo dataset, ordinal gate,
#      and byte-stable reruns


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    demo = tmp_path_factory.mktemp("demo")
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_demo.py"), str(demo)],
        check=True,
        capture_output=True,
    )
    assert cli_main(["ingest", str(demo / "stream.csv"), "--out", str(demo / "archive")]) == 0
    return demo


def test_reproduction_guide_and_ordinal_gate(demo_dir, tmp_path):
    guide = (ROOT / "docs" / "reproduction.md").read_text(encoding="utf-8")
    for needle in ("graphwin ingest", "graphwin evaluate", "check_ordinal", "sweep"):
        assert needle in guide
    for task in ("linkpred", "attribute", "changepoint"):
        assert cli_main(["evaluate", str(demo_dir / f"config-{task}.json")]) == 0
    reports = sorted(str(p) for p in demo_dir.glob("report-*.json"))
    assert len(reports) == 3
    gate = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_ordinal.py"), *reports],
        capture_output=True,
        text=True,
    )
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert "FAIL" not in gate.stdout
    assert gate.stdout.count("PASS") >= 4
    # a report that violates the ordering must be rejected
    tampered = json.loads((demo_dir / "report-linkpred.json").read_text())
    tampered["aggregates"]["online"]["linkpred"]["score"] = 0.0
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    gate2 = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_ordinal.py"), str(bad)],
        capture_output=True,
        text=True,
    )
    assert gate2.returncode == 1
    assert "FAIL" in gate2.stdout


def test_evaluation_reruns_are_byte_identical(demo_dir):
    config = demo_dir / "config-linkpred.json"
    out_json = demo_dir / "report-linkpred.json"
    out_csv = demo_dir / "report-linkpred.csv"
    assert cli_main(["evaluate", str(config)]) == 0
    first_json = out_json.read_bytes()
    first_csv = out_csv.read_bytes()
    assert cli_main(["evaluate", str(config), "--jobs", "2"]) == 0
    assert out_json.read_bytes() == first_json
    assert out_csv.read_bytes() == first_csv
