"""MDL graph segmentation and distance-curve PR-AUC."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from graphwin import changepoint
from graphwin import (
    GraphSequence,
    StaticGraph,
    binary_entropy,
    cp_pr_auc,
    detect_change_points,
    log_star,
    windowed_at,
)

from helpers import clique_edges, edge_set, graph, random_sequence, seq_of


def log_star_oracle(x: int) -> float:
    total = math.log2(2.865064)
    v = math.log2(x)
    while v > 0:
        total += v
        v = math.log2(v) if v > 1 else 0.0
    return total


def test_log_star_matches_definition():
    for x in (1, 2, 3, 7, 16, 100, 65536):
        assert log_star(x) == pytest.approx(log_star_oracle(x), abs=1e-12)
    assert log_star(1) == pytest.approx(math.log2(2.865064), abs=1e-15)
    for a, b in zip(range(1, 200), range(2, 201)):
        assert log_star(a) < log_star(b)
    with pytest.raises(ValueError):
        log_star(0)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)


def segment_cost_oracle(graphs, groups) -> float:
    """Straight-line reimplementation: universal codes for the partition,
    then per-block cell counts and aggregated densities."""
    k = len(groups)
    sizes = [len(g) for g in groups]
    index = {}
    for gi, grp in enumerate(groups):
        for v in grp:
            index[v] = gi
    cost = log_star_oracle(k) + sum(log_star_oracle(s) for s in sizes)
    m = len(graphs)
    for a in range(k):
        for b in range(a, k):
            if a == b:
                cells = sizes[a] * (sizes[a] - 1) // 2 * m
            else:
                cells = sizes[a] * sizes[b] * m
            ones = 0
            for g in graphs:
                for u, v in edge_set(g):
                    pa, pb = index[u], index[v]
                    if (min(pa, pb), max(pa, pb)) == (a, b):
                        ones += 1
            if cells:
                cost += math.log2(cells + 1) + cells * binary_entropy(ones / cells)
    return cost


def state_cost(graphs, groups) -> float:
    """The search state's cost of a segment under a partition given as groups."""
    assign = np.empty(graphs[0].n, dtype=int)
    for gi, grp in enumerate(groups):
        assign[grp] = gi
    return changepoint._SegmentState(graphs, assign).cost()


def test_segment_cost_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        graphs = []
        for _ in range(int(rng.integers(1, 4))):
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            }
            graphs.append(graph(n, edges))
        cut = int(rng.integers(1, n))
        groups = [list(range(cut)), list(range(cut, n))]
        if not groups[1]:
            groups = [groups[0]]
        assert state_cost(graphs, groups) == pytest.approx(
            segment_cost_oracle(graphs, groups), abs=1e-9
        )


def test_two_blocks_compress_better_split():
    g = graph(8, clique_edges(range(4)) | clique_edges(range(4, 8)))
    together = state_cost([g], [list(range(8))])
    apart = state_cost([g], [list(range(4)), list(range(4, 8))])
    assert apart < together


def test_segment_cost_group_order_irrelevant():
    g = graph(6, clique_edges(range(3)) | {(3, 4)})
    a = state_cost([g], [[0, 1, 2], [3, 4, 5]])
    b = state_cost([g], [[5, 4, 3], [2, 1, 0]])
    assert a == pytest.approx(b, abs=1e-12)


# --------------------------------------------------------------------------
# detection


def planted_switch_sequence() -> GraphSequence:
    """Ten windows over 12 vertices: clique on 0..5 for the first five,
    clique on 6..11 afterwards."""
    first = clique_edges(range(6))
    second = clique_edges(range(6, 12))
    return seq_of(12, *([list(first)] * 5 + [list(second)] * 5))


def test_detects_the_planted_switch():
    ws = windowed_at(planted_switch_sequence(), 1)
    assert detect_change_points(ws) == (6,)


def test_constant_sequence_has_no_change_points():
    g = clique_edges(range(4))
    ws = windowed_at(seq_of(8, *([list(g)] * 8)), 1)
    assert detect_change_points(ws) == ()


def test_single_window_has_no_change_points():
    ws = windowed_at(seq_of(4, [(0, 1), (2, 3)]), 1)
    assert detect_change_points(ws) == ()


def test_detection_is_deterministic():
    rng = np.random.default_rng(13)
    graphs = []
    for t in range(12):
        p = 0.5 if t < 6 else 0.1
        edges = {
            (u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < p
        }
        graphs.append(graph(8, edges))
    seq = GraphSequence(8, tuple(graphs), 1)
    a = detect_change_points(windowed_at(seq, 1))
    b = detect_change_points(windowed_at(seq, 1))
    assert a == b


def test_change_time_is_the_new_windows_first_step():
    # windows of size 2 over 10 steps; regime flips at step 7 (window 4)
    first = clique_edges(range(5))
    second = clique_edges(range(5, 10))
    seq = seq_of(10, *([list(first)] * 6 + [list(second)] * 4))
    assert detect_change_points(windowed_at(seq, 2)) == (7,)


def test_search_reports_the_sweep_cap(monkeypatch, caplog):
    # two 6-cliques, searched from a split of vertices 0..2 from the rest:
    # the first sweep moves 0..2 and only a second sweep finds no move
    g = graph(12, clique_edges(range(6)) | clique_edges(range(6, 12)))
    start = (np.arange(12) < 3).astype(int)
    caplog.set_level(logging.WARNING, logger="graphwin.changepoint")
    converged = changepoint._SegmentState([g], start)
    converged.search()
    assert caplog.records == []
    monkeypatch.setattr(changepoint, "_MAX_SWEEPS", 1)
    capped = changepoint._SegmentState([g], start)
    capped.search()
    assert [r.getMessage() for r in caplog.records] == [
        "MDL search on 12 vertices stopped at the 1-sweep cap before converging"
    ]
    assert capped.assign.tolist() == converged.assign.tolist() == [0] * 6 + [1] * 6


# --------------------------------------------------------------------------
# distance-curve PR-AUC


def test_cp_pr_auc_identical_sets():
    assert cp_pr_auc([2], [2], 10) == 1.0
    assert cp_pr_auc([1, 5, 9], [1, 5, 9], 12) == 1.0


def test_cp_pr_auc_half_recalled():
    # truth {2, 8}, proposal {2}: recall reaches 1 only at distance 6
    assert cp_pr_auc([2], [2, 8], 10) == pytest.approx(0.7, abs=1e-12)


def test_cp_pr_auc_empty_sets_score_zero():
    assert cp_pr_auc([], [3], 10) == 0.0
    assert cp_pr_auc([3], [], 10) == 0.0
    assert cp_pr_auc([], [], 10) == 0.0


def test_cp_pr_auc_validation():
    with pytest.raises(ValueError):
        cp_pr_auc([1], [1], 0)


def test_cp_pr_auc_role_swap_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        a = sorted(set(rng.integers(1, n + 1, size=rng.integers(1, 6)).tolist()))
        b = sorted(set(rng.integers(1, n + 1, size=rng.integers(1, 6)).tolist()))
        assert cp_pr_auc(a, b, n) == pytest.approx(cp_pr_auc(b, a, n), abs=1e-12)


def riemann_oracle(proposed, truth, n: int) -> float:
    """Unit-step Riemann sum of precision(d) * recall(d) over d in {0..n-1};
    exact for integer time stamps."""
    if not proposed or not truth:
        return 0.0
    total = 0.0
    for d in range(n):
        precision = sum(
            1 for s in proposed if min(abs(s - t) for t in truth) <= d
        ) / len(proposed)
        recall = sum(
            1 for t in truth if min(abs(s - t) for s in proposed) <= d
        ) / len(truth)
        total += precision * recall
    return total / n


def test_cp_pr_auc_riemann_oracle_spot_checks():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = sorted(set(rng.integers(1, n + 1, size=rng.integers(1, 5)).tolist()))
        b = sorted(set(rng.integers(1, n + 1, size=rng.integers(1, 5)).tolist()))
        assert cp_pr_auc(a, b, n) == pytest.approx(riemann_oracle(a, b, n), abs=1e-12)


def test_add_graph_gives_the_counts_of_a_state_built_from_scratch():
    """`add_graph` adds a graph's edges to the blocks they touch; the blocks,
    sizes and assignment then equal those of a state built from all graphs."""
    rng = np.random.default_rng(11)
    for n, p in ((1, 0.5), (6, 0.0), (9, 0.4), (12, 0.7)):
        seq = random_sequence(rng, n, 6, p)
        for start in (np.zeros(n, dtype=int), rng.integers(0, 5, n), np.arange(n)[::-1]):
            state = changepoint._SegmentState(seq.graphs[:1], start)
            for k in range(1, seq.length):
                state.add_graph(seq.graphs[k])
                scratch = changepoint._SegmentState(seq.graphs[: k + 1], state.assign)
                assert state.blocks.tolist() == scratch.blocks.tolist()
                assert state.sizes == scratch.sizes
                assert state.assign.tolist() == scratch.assign.tolist()
                assert state.contacts.tolist() == scratch.contacts.tolist()
                assert state.cost() == scratch.cost()
                state.search()  # moves vertices, then compacts, as detection does
