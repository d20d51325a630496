"""Damped path-count link scoring and ranking average precision."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from graphwin import (
    KatzParams,
    average_precision,
    katz_matrix,
    katz_scores,
    linkpred,
    online_step_score,
    windowed_at,
)

from helpers import clique_edges, graph, random_graph, seq_of


def walk_sum_oracle(adj: np.ndarray, beta: float, max_len: int) -> np.ndarray:
    """sum_{l=1..max_len} beta^l * (#walks of length l), via exact integer
    matrix powers."""
    a = adj.astype(np.int64)
    power = np.eye(a.shape[0], dtype=np.int64)
    total = np.zeros(a.shape, dtype=float)
    for length in range(1, max_len + 1):
        power = power @ a
        total += beta**length * power
    return total


def test_params_validation():
    with pytest.raises(ValueError):
        KatzParams(beta=0.0)
    with pytest.raises(ValueError):
        KatzParams(beta=1.0)


def test_single_edge_closed_form():
    g = graph(2, [(0, 1)])
    for beta in (0.005, 0.1, 0.3):
        m = katz_matrix(g, KatzParams(beta=beta))
        # walks alternate endpoints: score = beta + beta^3 + ... = beta/(1-beta^2)
        assert m[0, 1] == pytest.approx(beta / (1 - beta**2), abs=1e-12)
        assert m[0, 1] == m[1, 0]


def test_exact_solve_matches_walk_enumeration():
    rng = np.random.default_rng(7)
    beta = 0.005
    for _ in range(25):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, 0.4)
        exact = katz_matrix(g, KatzParams(beta=beta))
        # beta * spectral radius <= 0.06 here, so 40 terms leave a tail
        # far below 1e-12
        oracle = walk_sum_oracle(g.adjacency(), beta, 40)
        assert np.max(np.abs(exact - oracle)) < 1e-12


def test_truncation_fallback_when_series_diverges():
    g = graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])  # K6, radius 5
    m = katz_matrix(g, KatzParams(beta=0.25))  # 0.25 * 5 >= 1
    oracle = walk_sum_oracle(g.adjacency(), 0.25, 8)
    assert np.max(np.abs(m - oracle)) < 1e-9


@pytest.mark.parametrize(
    "g, beta",
    [
        (graph(3, clique_edges(range(3))), 0.5),  # K3, radius 2
        (graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 0.5),  # C5, radius 2
        (graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 0.5),  # star K1,4, radius 2
        (graph(7, clique_edges(range(5))), 0.25),  # K5 plus two isolated, radius 4
    ],
)
def test_series_at_the_convergence_bound_truncates(g, beta):
    # beta * radius = 1: I - beta*A is singular, and a computed radius a few
    # ulps low must not send it to the closed-form solve
    m = katz_matrix(g, KatzParams(beta=beta))
    assert np.max(np.abs(m - walk_sum_oracle(g.adjacency(), beta, 8))) < 1e-9


def test_degree_bound_skips_the_eigen_solve(monkeypatch):
    def no_eigen_solve(a):
        raise AssertionError("eigvalsh called under the degree bound")

    monkeypatch.setattr(linkpred.np.linalg, "eigvalsh", no_eigen_solve)
    g = graph(6, clique_edges(range(6)))  # max degree 5, beta * 5 = 0.5
    exact = katz_matrix(g, KatzParams(beta=0.1))
    series = linkpred._truncated_matrix(g.adjacency(), 0.1, 80)
    assert np.max(np.abs(exact - series)) < 1e-12


def test_divergence_fallback_warns_once_per_process(caplog, monkeypatch):
    monkeypatch.setattr(linkpred, "_fallback_warned", False)
    params = KatzParams(beta=0.5)
    k5 = graph(5, clique_edges(range(5)))
    with caplog.at_level(logging.DEBUG, logger="graphwin.linkpred"):
        m = katz_matrix(k5, params)
        katz_matrix(graph(6, clique_edges(range(6))), params)
    fallbacks = [r for r in caplog.records if "diverges" in r.getMessage()]
    assert [r.levelno for r in fallbacks] == [logging.WARNING, logging.DEBUG]
    # the one truncation path: the series' first 8 terms
    assert np.array_equal(m, linkpred._truncated_matrix(k5.adjacency(), 0.5, 8))


def test_truncation_error_bound():
    """|exact - truncated_L| stays within beta^(L+1) * n * radius^(L+1) / (1 - beta*radius)."""
    rng = np.random.default_rng(21)
    beta = 0.005
    max_len = 8
    for _ in range(10):
        n = int(rng.integers(3, 15))
        g = random_graph(rng, n, 0.5)
        if g.edge_count == 0:
            continue
        exact = katz_matrix(g, KatzParams(beta=beta))
        truncated = linkpred._truncated_matrix(g.adjacency(), beta, max_len)
        radius = float(np.max(np.abs(np.linalg.eigvalsh(g.adjacency()))))
        bound = beta ** (max_len + 1) * n * radius ** (max_len + 1) / (1 - beta * radius)
        assert np.max(np.abs(exact - truncated)) <= bound + 1e-15


def test_empty_graph_scores_zero():
    g = graph(4, [])
    assert np.all(katz_matrix(g) == 0)
    assert katz_scores(g) == []


def test_scores_exclude_edges_and_isolated_vertices():
    g = graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    ranking = katz_scores(g)
    pairs = [p for p, _ in ranking]
    assert pairs == [(0, 2)]  # only non-edge among non-isolated vertices


def test_scores_tie_break_lexicographically():
    # path 1-0-2-3: pairs (1,2) and (0,3) both join via one 2-walk and
    # symmetric longer walks, but (1,3) differs; isolate an exact tie instead
    # with two disjoint stars.
    g = graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    ranking = katz_scores(g)
    scores = dict(ranking)
    assert scores[(1, 2)] == scores[(4, 5)]
    assert ranking.index(((1, 2), scores[(1, 2)])) < ranking.index(((4, 5), scores[(4, 5)]))


def test_ranking_is_sorted_by_score_then_pair():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 10, 0.3)
    ranking = katz_scores(g)
    for (pa, sa), (pb, sb) in zip(ranking, ranking[1:]):
        assert sa > sb or (sa == sb and pa < pb)


def test_memoised_ranking_is_read_only():
    g = random_graph(np.random.default_rng(5), 10, 0.3)
    u, v, score = linkpred._ranked(g, KatzParams())
    assert len(score) > 0
    for arr in (u, v, score):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_katz_scores_returns_a_fresh_list():
    g = random_graph(np.random.default_rng(5), 10, 0.3)
    first = katz_scores(g)
    want = list(first)
    first.reverse()
    first[0] = ((0, 0), 1.0)
    first.append(((1, 1), 2.0))
    assert katz_scores(g) == want


def test_ranking_memo_is_bounded():
    rng = np.random.default_rng(8)
    for _ in range(20):
        katz_scores(random_graph(rng, 8, 0.4))
    info = linkpred._ranked.cache_info()
    assert info.maxsize == 16
    assert info.currsize <= 16


# --------------------------------------------------------------------------
# average precision


def test_ap_perfect_ranking():
    ranking = [((0, 1), 0.9), ((0, 2), 0.8), ((1, 2), 0.1)]
    assert average_precision(ranking, [(0, 1), (0, 2)]) == 1.0


def test_ap_single_positive_at_rank_two():
    ranking = [((0, 1), 0.9), ((0, 2), 0.8), ((1, 2), 0.7), ((1, 3), 0.6)]
    assert average_precision(ranking, [(0, 2)]) == 0.5


def test_ap_unretrieved_positive_penalizes():
    ranking = [((0, 1), 0.9), ((0, 2), 0.8)]
    # (5, 6) never appears in the ranking
    assert average_precision(ranking, [(0, 1), (5, 6)]) == 0.5


def test_ap_accepts_bare_pairs_and_normalizes_order():
    assert average_precision([((1, 0), 0.5)], [(0, 1)]) == 1.0


def test_ap_requires_positives():
    with pytest.raises(ValueError):
        average_precision([((0, 1), 0.9)], [])


def test_ap_direct_definition_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        ranking = [((0, i), float(rng.random())) for i in range(1, m + 1)]
        k = int(rng.integers(1, m + 1))
        chosen = rng.choice(m, size=k, replace=False)
        positives = [ranking[i][0] for i in chosen]
        # direct definition: mean over positives of precision at their ranks
        pos_set = set(positives)
        hits = 0
        terms = []
        for rank, (pair, _) in enumerate(ranking, start=1):
            if pair in pos_set:
                hits += 1
                terms.append(hits / rank)
        oracle = math.fsum(terms) / len(pos_set)
        assert average_precision(ranking, positives) == oracle


# --------------------------------------------------------------------------
# one-step-ahead scoring


def test_online_step_score_none_without_new_links():
    seq = seq_of(3, [(0, 1)], [(0, 1)])
    ws = windowed_at(seq, 1)
    assert online_step_score(ws.last_graph(), seq.step(2)) is None


def test_online_step_score_scores_new_links():
    # history: star 0-1, 0-2; incoming closes (1, 2), the only candidate
    history = seq_of(3, [(0, 1), (0, 2)])
    ws = windowed_at(history, 1)
    incoming = graph(3, [(0, 1), (1, 2)])
    assert online_step_score(ws.last_graph(), incoming) == 1.0


def test_online_step_score_partial_rank():
    # candidates of the history graph: (1,2) tied with nothing else relevant;
    # make the new link appear at rank 2 among three candidates
    history = seq_of(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
    ws = windowed_at(history, 1)
    ranking = katz_scores(ws.last_graph())
    # pick the pair ranked second as the sole new link
    second = ranking[1][0]
    incoming = graph(5, list(ws.last_graph().edges | {second}))
    assert online_step_score(ws.last_graph(), incoming) == 0.5
