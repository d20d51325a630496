"""Shared helpers for the test suite: graph and stream building, and
rankings as items."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from graphwin import GraphSequence, StaticGraph


def graph(n: int, edges) -> StaticGraph:
    """The graph on vertices 0..n-1 with these edges, each given in either order."""
    return StaticGraph(n, sorted({min(u, v) * n + max(u, v) for u, v in edges}))


def edge_set(g: StaticGraph) -> frozenset[tuple[int, int]]:
    """The (u, v) pairs, u < v, of g's edges."""
    u, v = g.ends()
    return frozenset(zip(u.tolist(), v.tolist()))


def seq_of(n: int, *edge_lists, resolution: int = 1) -> GraphSequence:
    return GraphSequence(n, tuple(graph(n, e) for e in edge_lists), resolution)


def random_graph(rng: np.random.Generator, n: int, p: float) -> StaticGraph:
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }
    return graph(n, edges)


def random_sequence(rng: np.random.Generator, n: int, length: int, p: float) -> GraphSequence:
    return GraphSequence(n, tuple(random_graph(rng, n, p) for _ in range(length)), 1)


def items(ranking) -> list[tuple[tuple[int, int], float]]:
    """A `katz_scores` ranking as ((u, v), score) items, in rank order."""
    return list(zip(zip(ranking.u.tolist(), ranking.v.tolist()), ranking.score.tolist()))


def clique_edges(vertices) -> set[tuple[int, int]]:
    vs = sorted(vertices)
    return {(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]}



def trace_streams() -> list[GraphSequence]:
    """A scripted 4-step stream, four rotating split-stars and a random one."""
    rng = np.random.default_rng(8)
    scripted = seq_of(4, [(0, 1)], [(0, 1), (0, 2)], [(1, 2)], [(0, 3)])
    star_steps = []
    for p in range(4):
        h = (2 * p) % 10
        ls = [(h + i) % 10 for i in (1, 2, 3, 4)]
        star_steps.append([(h, ls[0]), (h, ls[1])])
        star_steps.append([(h, ls[2]), (h, ls[3])])
        star_steps.append([(a, b) for i, a in enumerate(ls) for b in ls[i + 1 :]])
    return [scripted, seq_of(10, *star_steps), random_sequence(rng, 8, 10, 0.3)]


def planted_sequence(seed: int = 0, copies: int = 2) -> GraphSequence:
    """The bundled demo's planted 36-step stream, its 30-vertex block
    repeated `copies` times on disjoint vertices, so Katz scores tie."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_demo.py"
    spec = importlib.util.spec_from_file_location("make_demo", path)
    make_demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_demo)
    block = make_demo.N
    steps = [
        [(u + c * block, v + c * block) for u, v in edges for c in range(copies)]
        for edges in make_demo.demo_edges(seed)
    ]
    return seq_of(block * copies, *steps)
