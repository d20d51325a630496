"""Link prediction over windowed graphs: path-sum scoring and ranking quality.

Pairs are scored by the damped path-count sum S = sum_{l>=1} beta^l * A^l,
solved in closed form as (I - beta*A)^{-1} - I whenever beta times the
spectral radius is below one. Only where the series diverges (beta times the
radius is at least one) is it truncated instead, at its first 8 terms. The
spectral radius never exceeds the largest degree, so when beta times the
largest degree is below one the closed form is used without an eigen-solve.
Prediction quality is ranking average precision against the new links of
the next step.

A graph's ranking is computed once as three read-only arrays (pair ends and
score, in rank order) and memoised per (graph, params) in a least-recently
used cache of 16 entries. The callers keep each window span's score in a
span table (`selectors.SpanScores`); the memo serves the rankings a table
does not hold. A step's prediction ranks the window its selector has just
scored, and an online suite advances its selectors in lockstep, so the
graphs they share at one step stay memoised. `online_step_score` reads the
arrays directly; `katz_scores` returns a fresh list built from them.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .temporal import StaticGraph

__all__ = [
    "KatzParams",
    "ScoredPairs",
    "katz_matrix",
    "katz_scores",
    "average_precision",
    "online_step_score",
]

log = logging.getLogger(__name__)

# ((u, v), score) in descending score order, lexicographic pair order on ties.
ScoredPairs = list[tuple[tuple[int, int], float]]

_EPS = float(np.finfo(float).eps)

# terms of the series kept where it diverges
_MAX_PATH_LEN = 8

# the divergence fallback warns once per process, later hits log at debug
_fallback_warned = False


@dataclass(frozen=True)
class KatzParams:
    """Damped path-sum parameters.

    beta: per-edge damping factor in (0, 1). The scores are the closed-form
        solve; only where the series diverges (beta * spectral radius >= 1)
        are they its first 8 terms instead.
    """

    beta: float = 0.005

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")


def _truncated_matrix(a: np.ndarray, beta: float, max_len: int) -> np.ndarray:
    # Horner form of sum_{l=1..L} beta^l A^l.
    s = beta * a
    for _ in range(max_len - 1):
        s = beta * (a + a @ s)
    return s


def katz_matrix(graph: StaticGraph, params: KatzParams = KatzParams()) -> np.ndarray:
    """Dense matrix of damped path-count scores between all vertex pairs."""
    global _fallback_warned
    a = graph.adjacency()
    if graph.edge_count == 0:
        return np.zeros_like(a)
    # spectral radius <= max degree, so under the degree bound the series
    # converges without an eigen-solve
    bound = params.beta * float(a.sum(axis=1).max())
    if bound >= 1.0:
        # eigvalsh is backward stable: the true radius lies within about
        # n*eps (relative) of the computed one, and where beta * radius is 1
        # within that error, I - beta*A is singular to working precision and
        # the series diverges
        radius = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        bound = params.beta * radius * (1.0 + graph.n * _EPS)
    if bound < 1.0:
        m = np.eye(graph.n) - params.beta * a
        return np.linalg.solve(m, np.eye(graph.n)) - np.eye(graph.n)
    log.log(
        logging.DEBUG if _fallback_warned else logging.WARNING,
        "series diverges (beta*radius = %.4f >= 1); falling back to truncation at %d",
        bound,
        _MAX_PATH_LEN,
    )
    _fallback_warned = True
    return _truncated_matrix(a, params.beta, _MAX_PATH_LEN)


# every pair u < v of n vertices in (u, v) order, shared by all rankings
_pairs = functools.lru_cache(maxsize=8)(functools.partial(np.triu_indices, k=1))


@functools.lru_cache(maxsize=16)
def _ranked(
    graph: StaticGraph, params: KatzParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs (u < v, both endpoints with an edge, not joined) as
    read-only arrays u, v, score, by descending score, then by pair."""
    s = katz_matrix(graph, params)
    n = graph.n
    ends = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2)
    iu, iv = _pairs(n)
    active = np.bincount(ends.ravel(), minlength=n) > 0
    keep = active[iu] & active[iv]
    # an edge (u, v) is pair u*n - u*(u+1)/2 + v - u - 1 of the triangle
    u0 = ends[:, 0]
    keep[u0 * n - u0 * (u0 + 1) // 2 + ends[:, 1] - u0 - 1] = False
    u, v = iu[keep], iv[keep]
    score = s[u, v]
    # the pairs are in (u, v) order, so a stable sort breaks ties by pair
    order = np.argsort(-score, kind="stable")
    out = (u[order], v[order], score[order])
    for arr in out:
        arr.flags.writeable = False
    return out


def katz_scores(graph: StaticGraph, params: KatzParams = KatzParams()) -> ScoredPairs:
    """Ranked candidate pairs of `graph` by damped path-count score.

    Only pairs whose endpoints both have non-zero degree are scored, and pairs
    already joined by an edge are excluded. Ties break lexicographically by
    pair, so the ranking is total and deterministic. Each call returns a new
    list.
    """
    u, v, score = _ranked(graph, params)
    return list(zip(zip(u.tolist(), v.tolist()), score.tolist()))


def _ap(ranks: Sequence[int] | np.ndarray, positive_count: int) -> float:
    # precision at the i-th hit is i / its rank; fsum is exactly rounded, so
    # the sum is the same however the terms were gathered
    terms = np.arange(1, len(ranks) + 1) / np.asarray(ranks, dtype=float)
    return math.fsum(terms.tolist()) / positive_count


def average_precision(
    ranking: Sequence[tuple[tuple[int, int], float]],
    positives: Iterable[tuple[int, int]],
) -> float:
    """Average precision of a ranked list of (pair, score) items against a
    positive set; pairs match in either vertex order.

    AP = (1/|positives|) * sum over ranks r holding a positive of
    precision@r. Positives never retrieved contribute zero, so the score
    is penalised for pairs the ranking cannot see.
    """
    pos = {(a, b) if a <= b else (b, a) for a, b in positives}
    if not pos:
        raise ValueError("average precision needs at least one positive pair")
    either = pos | {(b, a) for a, b in pos}
    ranks = [r for r, (pair, _) in enumerate(ranking, start=1) if pair in either]
    return _ap(ranks, len(pos))


def online_step_score(
    last: StaticGraph,
    incoming: StaticGraph,
    params: KatzParams = KatzParams(),
) -> float | None:
    """Score a one-step-ahead prediction made from the last windowed graph.

    Positives are the incoming step's edges absent from `last`. Returns None
    when there are none (the step is skipped).
    """
    positives = incoming.edges - last.edges
    if not positives:
        return None
    u, v, _ = _ranked(last, params)
    ends = np.array(list(positives), dtype=np.intp)
    hit = np.zeros((last.n, last.n), dtype=bool)
    hit[ends[:, 0], ends[:, 1]] = True
    return _ap(np.flatnonzero(hit[u, v]) + 1, len(positives))
