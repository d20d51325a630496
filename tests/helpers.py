"""Shared helpers for the test suite: graph building."""
from __future__ import annotations

import numpy as np

from graphwin import GraphSequence, StaticGraph


def graph(n: int, edges) -> StaticGraph:
    return StaticGraph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))


def seq_of(n: int, *edge_lists, resolution: int = 1) -> GraphSequence:
    return GraphSequence(n, tuple(graph(n, e) for e in edge_lists), resolution)


def random_graph(rng: np.random.Generator, n: int, p: float) -> StaticGraph:
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }
    return StaticGraph(n, frozenset(edges))


def random_sequence(rng: np.random.Generator, n: int, length: int, p: float) -> GraphSequence:
    return GraphSequence(n, tuple(random_graph(rng, n, p) for _ in range(length)), 1)


def clique_edges(vertices) -> set[tuple[int, int]]:
    vs = sorted(vertices)
    return {(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]}

