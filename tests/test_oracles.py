"""Differential tests: the package's kernels and its quality table against
the plain references in `oracles.py`, with exact equality on random graphs
and windowings, and its numpy statistics against the scipy-backed ones."""
from __future__ import annotations

import itertools
import math
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from graphwin import (
    OFFLINE_SELECTORS,
    ONLINE_SELECTORS,
    TASKS,
    ChangePointLabels,
    DataFormatError,
    EvalParams,
    GraphSequence,
    QualityTable,
    ScoreLedger,
    StaticGraph,
    VertexAttributes,
    Windowing,
    apply_windowing,
    average_precision,
    bin_initial,
    default_batch_size,
    detect_change_points,
    katz_scores,
    leave_out_scores,
    online_step_score,
    parse_edge_stream,
    run_online,
    run_suite,
    score_curves,
    split_intervals,
    union_graphs,
    windowed_at,
)
from graphwin import selectors, temporal
from graphwin._numeric import zeta
from graphwin.attrpred import roc_auc
from graphwin.changepoint import _SegmentState
from graphwin.harness import spearman
from graphwin.selectors import adage_select, powerlaw_exponent

import oracles
from helpers import edge_set, graph, items, planted_sequence, random_sequence, trace_streams


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
        graphs.append(graph(n, edges))
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


def katz_graph(rng: np.random.Generator, kind: str, n: int) -> StaticGraph:
    """A graph of one family whose rankings tie in a different way:
    random; disconnected (components plus isolated vertices, so every pair
    across components scores exactly zero); regular (a relabelled
    circulant, every vertex alike); complete; empty."""
    if kind == "random":
        p = rng.uniform(0.05, 0.7)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    elif kind == "disconnected":
        block = rng.integers(0, int(rng.integers(2, 5)), n)  # block 0 stays isolated
        p = rng.uniform(0.3, 1.0)
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if block[u] == block[v] != 0 and rng.random() < p
        }
    elif kind == "regular":
        offsets = [k for k in range(1, n // 2 + 1) if rng.random() < 0.5] or [1]
        label = rng.permutation(n)
        edges = {
            tuple(sorted((int(label[u]), int(label[(u + k) % n]))))
            for u in range(n)
            for k in offsets
            if (u + k) % n != u
        }
    elif kind == "complete":
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)}
    else:
        edges = set()
    return graph(n, edges)


def diverges(g: StaticGraph, beta: float) -> bool:
    """Whether the package truncates the series on `g`, so the oracle must too.

    That is wherever beta * radius >= 1, and also where beta * radius is 1
    up to the eigen-solve's rounding: there the plain closed form solves a
    system singular to working precision, and raises LinAlgError or ranks
    rounding noise."""
    if not g.edge_count:
        return False
    radius = float(np.max(np.abs(np.linalg.eigvalsh(g.adjacency()))))
    return beta * radius * (1.0 + g.n * np.finfo(float).eps) >= 1.0


KATZ_KINDS_LIST = ["random", "disconnected", "regular", "complete", "empty"]
KATZ_KINDS = st.sampled_from(KATZ_KINDS_LIST)
# the larger betas put beta * max degree >= 1 on most graphs here: the
# eigen-solve decides, and often falls back to truncation
KATZ_BETAS = st.sampled_from([0.005, 0.05, 0.25, 0.5])


@seed(1702)
@settings(max_examples=200, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=KATZ_KINDS,
    n=st.integers(min_value=1, max_value=12),
    beta=KATZ_BETAS,
)
def test_katz_ranking_matches_oracle(draw_seed, kind, n, beta):
    g = katz_graph(np.random.default_rng(draw_seed), kind, n)
    assert items(katz_scores(g, beta)) == oracles.katz_scores(g, beta, diverges(g, beta))


@seed(1702)
@settings(max_examples=200, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=KATZ_KINDS,
    n=st.integers(min_value=2, max_value=12),
    beta=KATZ_BETAS,
)
def test_link_scoring_matches_oracle(draw_seed, kind, n, beta):
    rng = np.random.default_rng(draw_seed)
    last = katz_graph(rng, kind, n)
    # the incoming step keeps some old links and adds some new ones
    kept = {e for e in edge_set(last) if rng.random() < 0.5}
    fresh = {e for e in edge_set(katz_graph(rng, "random", n)) if rng.random() < 0.3}
    incoming = graph(n, kept | fresh)
    assert online_step_score(last, incoming, beta) == oracles.online_step_score(
        last, incoming, beta, diverges(last, beta)
    )
    # either vertex order, duplicates, and pairs the ranking never holds
    ranking = [
        ((v, u) if rng.random() < 0.3 else (u, v), s)
        for (u, v), s in items(katz_scores(last, beta))
    ]
    positives = [
        (v, u) if rng.random() < 0.5 else (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.2
    ]
    if positives:
        positives.append(positives[0][::-1])
        assert average_precision(ranking, positives) == oracles.average_precision(
            ranking, positives
        )


@seed(1702)
@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), data=st.data())
def test_graph_core_matches_set_oracle(n, data):
    """Id-array graphs against the frozenset reference: views, unions,
    equality and hash, overlap and link scoring, empty graphs included."""
    vertex = st.integers(min_value=0, max_value=n - 1)
    raw = data.draw(st.lists(st.lists(st.tuples(vertex, vertex), max_size=30), min_size=2, max_size=4))
    steps = [[(min(a, b), max(a, b)) for a, b in pairs if a != b] for pairs in raw]
    ours = [graph(n, pairs) for pairs in steps]
    refs = [oracles.SetGraph(n, frozenset(pairs)) for pairs in steps]
    for g, ref in zip(ours, refs):
        assert oracles.SetGraph.of(g) == ref
        assert g.edge_count == ref.edge_count
        assert g.adjacency().tolist() == ref.adjacency().tolist()
        assert g.degrees().tolist() == ref.degrees().tolist()
        assert g.neighbor_lists() == ref.neighbor_lists()
    union = union_graphs(ours)
    assert oracles.SetGraph.of(union) == oracles.union_set_graphs(refs)
    # the same edge set built in other orders: pairs reversed, unions nested or reversed
    rebuilt = [
        graph(n, [(b, a) for pairs in reversed(steps) for a, b in reversed(pairs)]),
        union_graphs(ours[::-1]),
        union_graphs([union_graphs(ours[:1]), union_graphs(ours[1:])]),
        union_graphs([union, *ours]),
    ]
    graphs = ours + rebuilt + [union]
    for a, ra in zip(graphs, map(oracles.SetGraph.of, graphs)):
        for b, rb in zip(graphs, map(oracles.SetGraph.of, graphs)):
            assert (a == b) == (ra == rb)
            if a == b:
                assert hash(a) == hash(b)
            assert selectors._jaccard(a, b) == oracles.jaccard(ra, rb)
    assert all(g == union and hash(g) == hash(union) for g in rebuilt)
    assert graph(n, []) != graph(n + 1, [])
    for last, incoming in zip(ours + [union], ours[1:] + ours[:1]):
        assert online_step_score(last, incoming, 0.005) == oracles.online_step_score(
            last, incoming, 0.005
        )


def test_ranking_arrays_match_lexsort_oracle():
    """Tie-rich graphs: every window of the planted stream at three sizes
    (its block repeated, so pairs across copies tie at zero), and each
    family of `katz_graph`."""
    seq = planted_sequence(copies=3)
    graphs = [g for size in (1, 3, 12) for g in windowed_at(seq, size).graphs]
    rng = np.random.default_rng(4)
    graphs += [katz_graph(rng, kind, n) for kind in KATZ_KINDS_LIST for n in (1, 2, 7, 12)]
    for g in graphs:
        for beta in (0.005, 0.25):
            got, want = katz_scores(g, beta), oracles.ranked(g, beta)
            assert all(np.array_equal(a, b) for a, b in zip((got.u, got.v, got.score), want))


def test_online_suite_matches_sequential_oracle():
    """An online suite runs its selectors over one span table; each
    selector's report equals the one of that selector run alone with a table
    of its own, pair by pair, scoring each test step against the last window
    of the previous step's windowing, built from the steps."""
    streams = [(seq, 2) for seq in trace_streams()] + [(planted_sequence(), 3)]
    knobs = [EvalParams(), EvalParams(min_tests=2, top_count=4, alpha=0.5)]
    for (seq, count), params in itertools.product(streams, knobs):
        plan = split_intervals(seq.length, count)
        table = QualityTable(seq, None, None, params)
        suite = run_suite(table, plan, "online", ONLINE_SELECTORS, "linkpred", seed=5)
        want = [oracles.run_online(seq, plan, name, params, 5) for name in ONLINE_SELECTORS]
        assert suite.to_dict()["cells"] == [c for rep in want for c in rep.to_dict()["cells"]]
        assert suite.aggregates == {
            name: rep.aggregates[name] for name, rep in zip(ONLINE_SELECTORS, want)
        }
        for name, rep in zip(ONLINE_SELECTORS, want):
            assert run_online(seq, plan, name, params=params, seed=5).to_dict() == rep.to_dict()


# AP-like scores: exact ties, and no score so small that a weight of at
# least 2^-1000 times it is subnormal
LEDGER_SCORES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(min_value=2**-20, max_value=1.0)
)
LEDGER_COUNTS = st.one_of(st.integers(min_value=1, max_value=7), st.just(math.inf))


@st.composite
def ledger_appends(draw, max_age: int) -> list[tuple[int, int, float]]:
    """(size, step, score) in step order, no step `max_age` or more behind
    the newest."""
    first = draw(st.integers(min_value=1, max_value=10**6))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=first, max_value=first + max_age - 1),
                LEDGER_SCORES,
            ),
            min_size=1,
            max_size=30,
        )
    )
    return sorted(rows, key=lambda r: r[1])


def ledgers_after_each_append(alpha: float, appends):
    """The package's ledger and the oracle after each append, and the step."""
    ours, oracle = ScoreLedger(alpha), oracles.ScoreLedger()
    for size, step, score in appends:
        ours.append(size, step, score)
        oracle.append(size, step, score)
        yield ours, oracle, step


@seed(1702)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), alpha=st.sampled_from([0.5, 1.0]), count=LEDGER_COUNTS)
def test_ledger_matches_clock_relative_oracle_exactly(data, alpha, count):
    """At alpha 0.5 and 1 every weight is a power of two, so the means
    weighed from each size's newest step and from the clock are equal."""
    appends = data.draw(ledger_appends(max_age=1000))
    for ours, oracle, now in ledgers_after_each_append(alpha, appends):
        assert ours.ranked() == oracle.ranked(now, alpha)
        assert ours.argmax() == oracle.argmax(now, alpha)
        assert ours.top_sizes(count) == oracle.top_sizes(now, alpha, count)


@seed(1702)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), alpha=st.floats(min_value=0.05, max_value=1.0, exclude_max=True))
def test_ledger_matches_clock_relative_oracle_to_rounding(data, alpha):
    """Ages up to where a weight reaches 2^-1000; the means move by the
    rounding of `alpha ** age` only."""
    max_age = min(int(1000 / -math.log2(alpha)) + 1, 10**6)
    appends = data.draw(ledger_appends(max_age))
    for ours, oracle, now in ledgers_after_each_append(alpha, appends):
        want = oracle.ranked(now, alpha)
        got = dict(ours.ranked())
        assert got.keys() == dict(want).keys()
        for w, mean in want:
            assert math.isclose(got[w], mean, rel_tol=1e-12, abs_tol=0.0)
        near_tie = len(want) > 1 and math.isclose(want[0][1], want[1][1], rel_tol=1e-12)
        if not near_tie:
            assert ours.argmax() == oracle.argmax(now, alpha)


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
@settings(max_examples=300, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=KATZ_KINDS,
    n=st.integers(min_value=1, max_value=12),
    length=st.integers(min_value=1, max_value=4),
    singletons=st.booleans(),
    repeat=st.booleans(),
)
def test_segment_search_matches_oracle(draw_seed, kind, n, length, singletons, repeat):
    """The search from starts with many groups: singletons, whose emptied
    slots come back as the spare, or a random split; on graph families
    whose symmetric groups tie exactly between targets, repeated or not.
    Besides the result, the group slots the search leaves before it
    compacts them must match, so each spare went to the same slot."""
    rng = np.random.default_rng(draw_seed)
    graphs = [katz_graph(rng, kind, n) for _ in range(1 if repeat else length)]
    graphs *= length if repeat else 1
    start = rng.permutation(n) if singletons else rng.integers(0, int(rng.integers(1, n + 1)), n)
    search_against_oracle(_SegmentState(graphs, start), graphs, start)


def test_segment_search_into_an_emptied_middle_slot_matches_oracle():
    """A fixed search over three copies of one graph in which vertex 4
    leaves slot 3 of 5, emptying it, and in the next sweep vertex 0 moves
    into it as the spare while three groups are live: the candidate costs
    then add per-candidate block terms (the moved rows) between scalar ones,
    in the order `_code_length` fixes for both. Adding each row's blocks in
    reverse order changes the cost in its last bits here."""
    edges = [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
             (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5)]
    graphs = [graph(7, edges)] * 3
    start = np.array([1, 2, 0, 1, 4, 0, 1])  # compacts to slots 0, 1, 2, 0, 3, 2, 0
    ours = _SegmentState(graphs, start)
    reused = []
    shift = ours._shift

    def record_then_shift(v, src, dst, contact):
        if ours.sizes[dst] == 0:
            reused.append((v, dst, len(ours.sizes), sum(size > 0 for size in ours.sizes)))
        shift(v, src, dst, contact)

    ours._shift = record_then_shift
    assert search_against_oracle(ours, graphs, start) == 3
    assert (0, 3, 5, 3) in reused  # (vertex, slot, slots, live groups)
    assert ours.assign.tolist() == [0, 1, 2, 1, 3, 3, 4]


def test_segment_search_breaks_exact_ties_as_the_oracle_does():
    """K5 from singletons: the targets of each move tie in exact arithmetic,
    so the one taken rests on how each candidate cost rounds (vertex 0 goes
    to slot 2, not 1). Adding a candidate's scalar block terms before its
    per-candidate ones, against `cost()`'s order, takes other slots here."""
    graphs = [graph(5, itertools.combinations(range(5), 2))]
    ours = _SegmentState(graphs, np.arange(5))
    assert search_against_oracle(ours, graphs, np.arange(5)) == 2
    assert ours.assign.tolist() == [0] * 5


def search_against_oracle(ours: _SegmentState, graphs, start) -> int:
    """Search from `start` with ours and with the oracle, and check they agree:
    the sweeps, the group slots left before compaction (so each spare went
    to the same slot), the assignment and the cost. Returns the sweeps."""
    plain = oracles._SegmentState.build(graphs, start)
    slots = []

    def record_then_compact(state):
        compact = state._set_assignment
        return lambda assign: (slots.append(list(state.sizes)), compact(assign))

    for state in (ours, plain):
        state._set_assignment = record_then_compact(state)
    sweeps = ours.search(), plain.search()
    assert slots[0] == slots[1]
    assert sweeps[0] == sweeps[1]
    assert ours.assign.tolist() == plain.assign.tolist()
    assert ours.cost() == plain.cost()
    return sweeps[0]


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
    assert leave_out_scores(ws, attrs, batch_size, theta, eval_ws) == oracles.leave_out_scores(
        ws, attrs, batch_size, theta, eval_ws
    )


def test_leave_out_scores_match_oracle_at_benchmark_scale():
    """n = 150 with labelled ids up to 149, at the default batch size: every
    fitting set, which `fit_model` holds as a Python set, then iterates out
    of id order, as at the offline benchmark's inputs, so a kernel that sums
    in id order would differ in the last bits."""
    rng = np.random.default_rng(1)
    attrs = random_attributes(rng, 150)
    ws = apply_windowing(community_sequence(rng, 150, 4), random_windowing(rng, 4))
    labelled = list(attrs.labeled())
    assert max(labelled) >= 128
    b = default_batch_size(len(labelled))
    for start in range(0, len(labelled), b):
        known = [v for v in labelled if v not in labelled[start : start + b]]
        assert list({v for v in known}) != known
    assert leave_out_scores(ws, attrs, None, 0.5) == oracles.leave_out_scores(ws, attrs, None, 0.5)


def test_quality_table_matches_cell_oracles():
    """Offline suites and score curves read one quality table; every cell,
    aggregate and curve equals the cell that scored its own windowings."""
    rng = np.random.default_rng(31)
    n, length = 10, 18
    seq = community_sequence(rng, n, length)
    attrs = VertexAttributes(
        n, "y", {"y": "categorical"}, tuple({"y": "ab"[v % 2]} for v in range(n))
    )
    truth = ChangePointLabels((4, 9, 10, 16))
    plan = split_intervals(length, 3)
    params = EvalParams(batch_size=2)
    for task in ("attribute", "changepoint"):
        table = QualityTable(seq, attrs, truth, params)
        report = run_suite(table, plan, "offline", OFFLINE_SELECTORS, task, seed=11)
        for name in OFFLINE_SELECTORS:
            want = [
                oracles.offline_cell(seq, plan, task, attrs, truth, params, 11, (name, idx))
                for idx in range(len(plan.pairs))
            ]
            got = [(c.score, c.detail) for c in report.cells if c.selector == name]
            assert got == want
            assert report.aggregates[name][task] == oracles.offline_aggregate(task, attrs, want)
    curves = score_curves(QualityTable(seq, attrs, truth, params), plan, TASKS)
    for task in TASKS:
        assert curves.values[task] == tuple(
            oracles.curve_cell(seq, plan, curves.sizes, attrs, truth, params, (task, idx))
            for idx in range(len(plan.spans))
        )


# --------------------------------------------------------------------------
# numpy statistics against scipy


def same_float(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


@seed(1702)
@settings(max_examples=300, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=400),
    levels=st.sampled_from([1, 2, 5, 40, None]),
    with_nan=st.booleans(),
)
def test_roc_auc_matches_scipy_oracle(draw_seed, n, levels, with_nan):
    rng = np.random.default_rng(draw_seed)
    # `levels` distinct values give heavy ties; None gives (almost) none
    scores = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) / levels
    if with_nan:
        scores[rng.integers(0, n)] = np.nan
    labels = [bool(b) for b in rng.random(n) < rng.uniform(0.1, 0.9)]
    labels[0], labels[-1] = True, False  # both classes
    got, want = roc_auc(list(scores), labels), oracles.roc_auc(list(scores), labels)
    assert same_float(got, want)
    assert math.isnan(got) == with_nan


@seed(1702)
@settings(max_examples=400, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=3, max_value=400),
    kind=st.sampled_from(["noisy", "noisy", "ties", "constant", "monotone", "reversed", "nan"]),
)
def test_spearman_matches_scipy_oracle(draw_seed, n, kind):
    rng = np.random.default_rng(draw_seed)
    xs = rng.normal(size=n)
    # noise from 1e-3 to 3 times the signal: p from about 1 down past 1e-300
    ys = rng.uniform(-1.0, 1.0) * xs + rng.normal(size=n) * 10 ** rng.uniform(-3.0, 0.5)
    if kind == "ties":
        xs, ys = np.round(xs * 2) / 2, np.round(ys * 2) / 2
    elif kind == "constant":
        (xs if rng.random() < 0.5 else ys)[:] = 0.25
    elif kind == "monotone":
        ys = np.exp(xs)
    elif kind == "reversed":
        ys = -(xs**3)
    elif kind == "nan":
        (xs if rng.random() < 0.5 else ys)[rng.integers(0, n)] = np.nan
    (rho, p), (want_rho, want_p) = spearman(list(xs), list(ys)), oracles.spearman(list(xs), list(ys))
    assert same_float(rho, want_rho)
    if math.isnan(want_p):
        assert math.isnan(p)
    else:
        assert p == pytest.approx(want_p, rel=1e-12, abs=1e-300)
    if kind in ("monotone", "reversed"):  # |rho| = 1 up to corrcoef's rounding
        assert abs(rho) == pytest.approx(1.0) and p < 1e-300


@seed(1702)
@settings(max_examples=500, deadline=None)
@given(s=st.floats(min_value=1.00999, max_value=20.00001))
def test_zeta_matches_scipy_oracle(s):
    assert zeta(s) == pytest.approx(oracles.zeta(s), rel=1e-14)


def zipf_degrees(rng: np.random.Generator) -> list[int]:
    count = int(rng.integers(1, 300))
    degrees = rng.zipf(rng.uniform(1.3, 6.0), count).tolist()
    return [int(d) for d in degrees] + [0] * int(rng.integers(0, 5))


@seed(1702)
@settings(max_examples=300, deadline=None)
@given(draw_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_powerlaw_exponent_matches_scipy_oracle(draw_seed):
    degrees = zipf_degrees(np.random.default_rng(draw_seed))
    assert powerlaw_exponent(degrees) == pytest.approx(
        oracles.powerlaw_exponent(degrees), rel=1e-9
    )


@seed(1702)
@settings(max_examples=60, deadline=None)
@given(
    draw_seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=3, max_value=60),
    length=st.integers(min_value=1, max_value=20),
    tol_patience=st.sampled_from([(0.01, 3), (0.05, 2), (0.1, 2), (0.3, 1)]),
)
def test_adage_select_matches_scipy_oracle(draw_seed, n, length, tol_patience):
    rng = np.random.default_rng(draw_seed)
    seq = random_sequence(rng, n, length, float(rng.uniform(0.01, 0.3)))
    prefixes = [seq.slice_steps(1, k) for k in range(1, length + 1)]
    got = [adage_select(prefix, *tol_patience) for prefix in prefixes]
    with mock.patch.object(selectors, "powerlaw_exponent", oracles.powerlaw_exponent):
        want = [adage_select(prefix, *tol_patience) for prefix in prefixes]
    assert got == want


# --------------------------------------------------------------------------
# edge-stream ingest

STREAM_LABELS = st.sampled_from(["a", "b", "c", "node 4", "é"])
PADDING = st.sampled_from(["", " ", "  ", "\u00a0"])
BAD_ROWS = st.sampled_from(
    ["a,b", "a,b,c,1", "a,,1", " ,b,2", "a,b,x", "a,b,1.5", "a,b,", "a,b,-3", "a,b,3:"]
)


@st.composite
def raw_streams(draw, malformed: bool) -> tuple[list[str], str]:
    """The lines (without endings) and delimiter of a raw edge stream: rows
    with padded fields, among comments and blank lines, and bad rows when
    `malformed`. Few labels and times give self-loops and duplicate contacts."""
    delimiter = draw(st.sampled_from([",", "\t", "::"]))
    kinds = ["row"] * 12 + ["loop", "comment", "blank"] + ["bad"] * 2 * malformed
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        if kind in ("row", "loop"):
            t = draw(st.integers(min_value=0, max_value=12))
            stamp = draw(st.sampled_from([str(t), f"0{t}", f"+{t}"]))
            src = draw(STREAM_LABELS)
            dst = src if kind == "loop" else draw(STREAM_LABELS.filter(lambda x: x != src))
            fields = (src, dst, stamp)
            lines.append(delimiter.join(draw(PADDING) + f + draw(PADDING) for f in fields))
        elif kind == "comment":
            lines.append(draw(PADDING) + "# " + draw(STREAM_LABELS))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "\u3000"])))
        else:
            lines.append(draw(BAD_ROWS).replace(",", delimiter))
    return lines, delimiter


def ingest_outcome(parse, bin_, source, delimiter, policy, resolution, shift):
    """(labels, event rows, binned sequence), or the `DataFormatError`
    message, of one parse-and-bin implementation; `shift` puts an explicit
    origin that many time units before the earliest event."""
    try:
        events, labels = parse(source, delimiter, policy)
        rows = [[e.u, e.v, e.t] for e in events] if isinstance(events, tuple) else events.tolist()
        origin = None if shift is None or not rows else min(r[2] for r in rows) - shift
        return labels, rows, bin_(events, resolution, n=len(labels), origin=origin)
    except DataFormatError as exc:
        return str(exc)


def parse_columns(source, delimiter, policy):
    parsed = parse_edge_stream(source, delimiter, policy)
    assert parsed.events.dtype == np.int64 and parsed.events.shape == (len(parsed.events), 3)
    return parsed.events, parsed.labels


@seed(1702)
@settings(max_examples=200, deadline=None)
@given(
    stream=st.one_of(raw_streams(malformed=False), raw_streams(malformed=True)),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    form=st.sampled_from(["text", "lines", "file", "file with mark"]),
    policy=st.sampled_from(["error", "drop"]),
    resolution=st.integers(min_value=1, max_value=7),
    shift=st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    block=st.sampled_from([1, 2, 5, temporal._BLOCK]),
)
def test_ingest_matches_oracle(stream, ending, form, policy, resolution, shift, block):
    """Also with lines parsed in blocks of `block`, so that errors, self-loops
    and labels cross block boundaries."""
    lines, delimiter = stream
    text = "".join(line + ending for line in lines)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(temporal, "_BLOCK", block):
        if form == "text":
            source = text
        elif form == "lines":
            source = [line + ending for line in lines]
        else:
            source = Path(tmp) / "stream.csv"
            source.write_bytes(b"\xef\xbb\xbf" * (form == "file with mark") + text.encode())
        got = ingest_outcome(parse_columns, bin_initial, source, delimiter, policy, resolution, shift)
        want = ingest_outcome(
            oracles.parse_edge_stream, oracles.bin_initial, source, delimiter, policy,
            resolution, shift,
        )
    assert got == want


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    """Under this repo's pytest settings a failing `@given` test reports its
    example: a warning raised in Hypothesis's report hook must not replace
    the report with an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_fails(x):
                assert x < 3
            """
        )
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
    assert run.returncode == 1
