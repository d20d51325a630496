"""Link prediction over windowed graphs: path-sum scoring and ranking quality.

Pairs are scored by the damped path-count sum S = sum_{l>=1} beta^l * A^l,
solved in closed form as (I - beta*A)^{-1} - I whenever beta times the
spectral radius is below one. Only where the series diverges (beta times the
radius is at least one) is it truncated instead, at its first 8 terms. The
spectral radius never exceeds the largest degree, so when beta times the
largest degree is below one the closed form is used without an eigen-solve.
Prediction quality is ranking average precision against the new links of
the next step.

A graph's ranking is one numpy record array with fields u, v and score,
in rank order, computed on each call: nothing here memoises it. Its length
is the number of candidate pairs. The callers keep each window span's score
in a span table (`selectors.SpanScores`), so a span is ranked once per
table; `online_step_score` reads the ranking's u and v columns.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .temporal import StaticGraph

__all__ = [
    "katz_matrix",
    "katz_scores",
    "average_precision",
    "online_step_score",
]

log = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)

# terms of the series kept where it diverges
_MAX_PATH_LEN = 8

# the divergence fallback warns once per process, later hits log at debug
_fallback_warned = False

# a ranking's records: the pair's ends u < v, then its score
_RANKING = np.dtype([("u", np.int64), ("v", np.int64), ("score", np.float64)])


def _truncated_matrix(a: np.ndarray, beta: float, max_len: int) -> np.ndarray:
    # Horner form of sum_{l=1..L} beta^l A^l.
    s = beta * a
    for _ in range(max_len - 1):
        s = beta * (a + a @ s)
    return s


def katz_matrix(graph: StaticGraph, beta: float) -> np.ndarray:
    """Dense matrix of damped path-count scores between all vertex pairs,
    with per-edge damping `beta` in (0, 1)."""
    global _fallback_warned
    a = graph.adjacency()
    if graph.edge_count == 0:
        return np.zeros_like(a)
    # spectral radius <= max degree, so under the degree bound the series
    # converges without an eigen-solve
    bound = beta * float(a.sum(axis=1).max())
    if bound >= 1.0:
        # eigvalsh is backward stable: the true radius lies within about
        # n*eps (relative) of the computed one, and where beta * radius is 1
        # within that error, I - beta*A is singular to working precision and
        # the series diverges
        radius = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        bound = beta * radius * (1.0 + graph.n * _EPS)
    if bound < 1.0:
        # one identity and an in-place subtraction: every n-by-n temporary is
        # memory the allocator may hand back to the system and fault in again
        eye = np.eye(graph.n)
        s = np.linalg.solve(eye - beta * a, eye)
        s -= eye
        return s
    log.log(
        logging.DEBUG if _fallback_warned else logging.WARNING,
        "series diverges (beta*radius = %.4f >= 1); falling back to truncation at %d",
        bound,
        _MAX_PATH_LEN,
    )
    _fallback_warned = True
    return _truncated_matrix(a, beta, _MAX_PATH_LEN)


def katz_scores(graph: StaticGraph, beta: float) -> np.recarray:
    """Ranked candidate pairs of `graph` by damped path-count score, as a
    record array of (u, v, score) records.

    Only pairs whose endpoints both have non-zero degree are scored, and pairs
    already joined by an edge are excluded. Ties break lexicographically by
    pair, so the ranking is total and deterministic.
    """
    s = katz_matrix(graph, beta)
    active = graph.degrees() > 0
    candidate = np.triu(active[:, None] & active, 1)
    candidate[graph.ends()] = False
    u, v = np.nonzero(candidate)
    score = s[u, v]
    # nonzero yields the pairs in (u, v) order, so a stable sort breaks ties by pair
    order = np.argsort(-score, kind="stable")
    return np.rec.fromarrays((u[order], v[order], score[order]), dtype=_RANKING)


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
    beta: float,
) -> float | None:
    """Score a one-step-ahead prediction made from the last windowed graph.

    Positives are the incoming step's edges absent from `last`. Returns None
    when there are none (the step is skipped).
    """
    hit = np.zeros((last.n, last.n), dtype=bool)
    hit[incoming.ends()] = True
    hit[last.ends()] = False
    positives = int(np.count_nonzero(hit))
    if not positives:
        return None
    ranking = katz_scores(last, beta)
    return _ap(np.flatnonzero(hit[ranking.u, ranking.v]) + 1, positives)
