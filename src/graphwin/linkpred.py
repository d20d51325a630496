"""Link prediction over windowed graphs: path-sum scoring and ranking quality.

Pairs are scored by the damped path-count sum S = sum_{l>=1} beta^l * A^l,
solved in closed form as (I - beta*A)^{-1} - I whenever beta times the
spectral radius is below one, else by truncating the series. Prediction
quality is ranking average precision against the new links of the next step.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class KatzParams:
    """Damped path-sum parameters.

    beta: per-edge damping factor in (0, 1).
    exact: prefer the closed-form solve; falls back to truncation when the
        series does not converge (beta * spectral radius >= 1).
    max_path_len: truncation length for the series fallback.
    """

    beta: float = 0.005
    exact: bool = True
    max_path_len: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.max_path_len < 1:
            raise ValueError("max_path_len must be >= 1")


def _truncated_matrix(a: np.ndarray, beta: float, max_len: int) -> np.ndarray:
    # Horner form of sum_{l=1..L} beta^l A^l.
    s = beta * a
    for _ in range(max_len - 1):
        s = beta * (a + a @ s)
    return s


def katz_matrix(graph: StaticGraph, params: KatzParams = KatzParams()) -> np.ndarray:
    """Dense matrix of damped path-count scores between all vertex pairs."""
    a = graph.adjacency()
    if params.exact:
        if graph.edge_count == 0:
            return np.zeros_like(a)
        radius = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        if params.beta * radius < 1.0:
            m = np.eye(graph.n) - params.beta * a
            s = np.linalg.solve(m, np.eye(graph.n)) - np.eye(graph.n)
            return s
        log.warning(
            "series diverges (beta*radius = %.4f >= 1); falling back to truncation at %d",
            params.beta * radius,
            params.max_path_len,
        )
    return _truncated_matrix(a, params.beta, params.max_path_len)


def katz_scores(graph: StaticGraph, params: KatzParams = KatzParams()) -> ScoredPairs:
    """Ranked candidate pairs of `graph` by damped path-count score.

    Only pairs whose endpoints both have non-zero degree are scored, and pairs
    already joined by an edge are excluded. Ties break lexicographically by
    pair, so the ranking is total and deterministic.
    """
    s = katz_matrix(graph, params)
    deg = graph.degrees()
    active = [v for v in range(graph.n) if deg[v] > 0]
    out: ScoredPairs = []
    for ia, u in enumerate(active):
        for v in active[ia + 1 :]:
            if (u, v) in graph.edges:
                continue
            out.append(((u, v), float(s[u, v])))
    out.sort(key=lambda item: (-item[1], item[0]))
    return out


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
    pos = {tuple(sorted(p)) for p in positives}
    if not pos:
        raise ValueError("average precision needs at least one positive pair")
    precisions: list[float] = []
    hits = 0
    for rank, (pair, _) in enumerate(ranking, start=1):
        if tuple(sorted(pair)) in pos:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / len(pos)


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
    ranking = katz_scores(last, params)
    return average_precision(ranking, positives)
