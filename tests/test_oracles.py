"""Differential tests: the package's kernels against the plain references
in `oracles.py`, with exact equality on random graphs and windowings."""
from __future__ import annotations

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphwin import (
    GraphSequence,
    KernelParams,
    StaticGraph,
    VertexAttributes,
    Windowing,
    apply_windowing,
    detect_change_points,
    leave_out_scores,
)

import oracles


def community_sequence(rng: np.random.Generator, n: int, length: int) -> GraphSequence:
    """Steps drawn from two random planted partitions, switching at a random
    step, so the MDL search has groups to find and changes to detect."""
    partitions = [rng.integers(0, int(rng.integers(1, 4)), n) for _ in range(2)]
    switch = int(rng.integers(1, length + 1))
    p_in, p_out = rng.uniform(0.3, 0.9), rng.uniform(0.0, 0.2)
    graphs = []
    for t in range(length):
        groups = partitions[t >= switch]
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < (p_in if groups[u] == groups[v] else p_out)
        }
        graphs.append(StaticGraph(n, frozenset(edges)))
    return GraphSequence(n, tuple(graphs))


def random_windowing(rng: np.random.Generator, length: int) -> Windowing:
    cuts = [k for k in range(1, length) if rng.random() < 0.4]
    return Windowing(length, tuple(cuts))


def random_attributes(rng: np.random.Generator, n: int) -> VertexAttributes:
    """A binary target on a random subset (both classes present) plus one
    categorical and one continuous feature, each sometimes missing."""
    labelled = rng.permutation(n)[: int(rng.integers(2, n + 1))]
    rows: list[dict] = [{} for _ in range(n)]
    for i, v in enumerate(labelled):
        rows[v]["y"] = "a" if i == 0 else "b" if i == 1 else str(rng.choice(["a", "b"]))
    for row in rows:
        if rng.random() < 0.8:
            row["col"] = str(rng.choice(["p", "q", "r"]))
        if rng.random() < 0.8:
            row["z"] = float(rng.normal())
    types = {"y": "categorical", "col": "categorical", "z": "continuous"}
    return VertexAttributes(n, "y", types, tuple(rows))


@seed(1702)
@settings(max_examples=60, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=12),
    length=st.integers(min_value=1, max_value=7),
)
def test_detect_change_points_matches_oracle(draw_seed, n, length):
    rng = np.random.default_rng(draw_seed)
    seq = community_sequence(rng, n, length)
    ws = apply_windowing(seq, random_windowing(rng, length))
    assert detect_change_points(ws) == oracles.detect_change_points(ws)


@seed(1702)
@settings(max_examples=60, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=3, max_value=12),
    length=st.integers(min_value=1, max_value=5),
    theta=st.floats(min_value=0.05, max_value=0.95),
    split=st.booleans(),
)
def test_leave_out_scores_match_oracle(draw_seed, n, length, theta, split):
    rng = np.random.default_rng(draw_seed)
    attrs = random_attributes(rng, n)
    ws = apply_windowing(community_sequence(rng, n, length), random_windowing(rng, length))
    eval_ws = None
    if split:  # prediction evidence from another windowed sequence
        other = int(rng.integers(1, 6))
        eval_ws = apply_windowing(community_sequence(rng, n, other), random_windowing(rng, other))
    labelled = len(attrs.labeled())
    batch_size = None if rng.random() < 0.3 else int(rng.integers(1, labelled))
    kernel = KernelParams(theta)
    assert leave_out_scores(ws, attrs, batch_size, kernel, eval_ws) == oracles.leave_out_scores(
        ws, attrs, batch_size, kernel, eval_ws
    )
