"""Windowing algebra: cuts, spans, uniform layouts, composition, serialization."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwin import (
    GraphSequence,
    Windowing,
    apply_windowing,
    uniform_windowing,
    windowed_at,
)

from helpers import graph, seq_of


def test_windowing_validation():
    Windowing(5, (1, 3))  # fine
    Windowing(1, ())
    with pytest.raises(ValueError):
        Windowing(5, (3, 1))  # not increasing
    with pytest.raises(ValueError):
        Windowing(5, (3, 3))  # not strictly
    with pytest.raises(ValueError):
        Windowing(5, (5,))  # cut at the end is no cut
    with pytest.raises(ValueError):
        Windowing(5, (0,))
    with pytest.raises(ValueError):
        Windowing(0, ())


def test_spans_and_sizes():
    w = Windowing(7, (2, 5))
    assert w.spans() == ((1, 2), (3, 5), (6, 7))
    assert w.sizes() == (2, 3, 2)
    assert w.segment_count == 3
    assert Windowing(4, ()).spans() == ((1, 4),)


def test_uniform_windowing_layouts():
    assert uniform_windowing(10, 3).cuts == (3, 6, 9)
    assert uniform_windowing(10, 3).sizes() == (3, 3, 3, 1)
    assert uniform_windowing(6, 2).sizes() == (2, 2, 2)
    assert uniform_windowing(5, 5).cuts == ()
    assert uniform_windowing(5, 1).cuts == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        uniform_windowing(5, 6)
    with pytest.raises(ValueError):
        uniform_windowing(5, 0)


def test_json_round_trip_is_a_bare_cut_array():
    w = Windowing(10, (3, 6, 9))
    text = w.to_json()
    assert json.loads(text) == [3, 6, 9]
    assert Windowing.from_json(text, 10) == w
    assert Windowing.from_json("[]", 4) == Windowing(4, ())
    with pytest.raises(ValueError):
        Windowing.from_json("[12]", 10)


def test_apply_windowing_unions_each_span():
    seq = seq_of(4, [(0, 1)], [(1, 2)], [(2, 3)], [(0, 3)])
    ws = apply_windowing(seq, Windowing(4, (2,)))
    assert ws.window_count == 2
    assert ws.graphs[0].edges == frozenset({(0, 1), (1, 2)})
    assert ws.graphs[1].edges == frozenset({(2, 3), (0, 3)})
    assert ws.last_graph().edges == ws.graphs[1].edges
    assert ws.spans == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        apply_windowing(seq, Windowing(3, ()))  # length mismatch


def test_windowed_at_collapses_to_one_window_at_full_length():
    seq = seq_of(3, [(0, 1)], [(1, 2)])
    ws = windowed_at(seq, 2)
    assert ws.window_count == 1
    assert ws.graphs[0].edges == frozenset({(0, 1), (1, 2)})


def test_to_graph_sequence_keeps_content_and_scales_resolution():
    seq = seq_of(3, [(0, 1)], [(1, 2)], [(0, 2)], resolution=2)
    ws = windowed_at(seq, 2)
    out = ws.to_graph_sequence()
    assert (out.length, out.resolution) == (2, 2)
    assert out.step(1).edges == frozenset({(0, 1), (1, 2)})
    assert out.step(2).edges == frozenset({(0, 2)})


cut_sets = st.integers(min_value=1, max_value=12).flatmap(
    lambda t: st.tuples(
        st.just(t),
        st.lists(st.integers(min_value=1, max_value=max(1, t - 1)), unique=True).map(
            lambda c: tuple(sorted(x for x in c if x < t))
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(cut_sets)
def test_coverage_property(tc):
    """Spans tile [1, T] exactly: consecutive, non-overlapping, sizes sum to T."""
    t, cuts = tc
    w = Windowing(t, cuts)
    spans = w.spans()
    assert spans[0][0] == 1
    assert spans[-1][1] == t
    for (a0, b0), (a1, _) in zip(spans, spans[1:]):
        assert a1 == b0 + 1
        assert b0 >= a0
    assert sum(w.sizes()) == t
    assert Windowing.from_json(w.to_json(), t) == w


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=24),
    w1=st.integers(min_value=1, max_value=6),
    w2=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_uniform_composition_property(t, w1, w2, seed):
    """Windowing at w1 then at w2 equals windowing at w1*w2 directly whenever
    w1 divides T and w2 divides T/w1 (graph content equality)."""
    if t % w1 != 0 or (t // w1) % w2 != 0:
        return
    import numpy as np

    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(t):
        edges = {(int(u), int(v)) for u, v in rng.integers(0, 5, size=(3, 2)) if u < v}
        graphs.append(graph(5, edges))
    seq = GraphSequence(5, tuple(graphs), 1)
    once = windowed_at(seq, w1 * w2)
    twice = windowed_at(windowed_at(seq, w1).to_graph_sequence(), w2)
    assert twice.window_count == once.window_count
    for a, b in zip(twice.graphs, once.graphs):
        assert a.edges == b.edges
