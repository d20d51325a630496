"""Window-size selection: online supervised, offline supervised, baselines."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import zeta

from graphwin import (
    GraphSequence,
    OnlineWindowSelector,
    ScoreLedger,
    SelectorParams,
    Windowing,
    adage_select,
    attr_split_window_quality,
    cp_window_quality,
    entropy_select,
    fourier_select,
    graph_entropy,
    jaccard_select,
    linkpred_window_quality,
    powerlaw_exponent,
    random_windowing,
    supervised_offline_select,
    windowed_at,
)
from graphwin.temporal import ChangePointLabels, VertexAttributes, union_graphs

from helpers import clique_edges, graph, seq_of


def test_selector_params_validation():
    SelectorParams(min_tests=math.inf, top_count=math.inf, alpha=1.0)
    with pytest.raises(ValueError):
        SelectorParams(min_tests=0.5)
    with pytest.raises(ValueError):
        SelectorParams(top_count=0)
    with pytest.raises(ValueError):
        SelectorParams(alpha=0.0)
    with pytest.raises(ValueError):
        SelectorParams(alpha=1.5)


# --------------------------------------------------------------------------
# score ledger


def test_ledger_counts_and_means():
    led = ScoreLedger(0.5)
    led.append(2, 1, 0.5)
    led.append(2, 3, 0.7)
    assert led.count(2) == 2
    assert led.count(9) == 0
    # decayed: weights 0.5^(3-1) = 0.25 and 0.5^0 = 1
    assert led.ranked() == [(2, pytest.approx((0.25 * 0.5 + 1.0 * 0.7) / 1.25, abs=1e-12))]


def test_ledger_alpha_one_is_the_plain_mean():
    led = ScoreLedger(1.0)
    values = [0.1, 0.7, 0.3, 0.9]
    for step, v in enumerate(values, start=1):
        led.append(4, step, v)
    assert led.ranked() == [(4, math.fsum(values) / len(values))]


def test_ledger_ranking_prefers_small_sizes_on_ties():
    led = ScoreLedger(1.0)
    led.append(3, 1, 0.5)
    led.append(1, 1, 0.5)
    led.append(2, 1, 0.9)
    assert led.ranked() == [(2, 0.9), (1, 0.5), (3, 0.5)]
    assert led.argmax() == 2
    assert led.top_sizes(count=2) == [2, 1]
    assert led.top_sizes(count=math.inf) == [2, 1, 3]


def test_ledger_means_survive_sizes_far_behind_the_newest_step():
    """At alpha = 0.5 a weight read from the current step underflows once a
    size's entries are about 1,075 steps old; each size's own newest entry
    weighs 1, so its mean stays exact however far behind it falls."""
    led = ScoreLedger(0.5)
    led.append(1, 1, 0.4)
    led.append(1, 2, 0.6)
    led.append(3, 5, 0.4)
    for step in range(1100, 1103):
        led.append(2, step, 0.1)
    assert led.ranked() == [(1, (0.5 * 0.4 + 0.6) / 1.5), (3, 0.4), (2, 0.1)]
    assert led.argmax() == 1
    assert led.top_sizes(count=2) == [1, 3]


# --------------------------------------------------------------------------
# online supervised selection


def scripted_stream():
    return [
        graph(4, [(0, 1)]),
        graph(4, [(0, 1), (0, 2)]),
        graph(4, [(1, 2)]),
        graph(4, [(0, 3)]),
    ]


def test_online_selector_hand_trace():
    """Full hand-derived trace with min_tests = 1, top_count = 1, alpha = 1."""
    sel = OnlineWindowSelector(
        4, SelectorParams(min_tests=1, top_count=1, alpha=1.0)
    )
    records = [sel.process(g) for g in scripted_stream()]
    assert [r.tested for r in records] == [
        (),
        ((1, 0.0),),  # no candidate pairs in a single-edge history
        ((1, 1.0), (2, 1.0)),  # (1,2) is the sole candidate, and it arrives
        ((2, 0.0), (3, 0.0)),  # (0,3) is never a candidate
    ]
    assert [r.chosen for r in records] == [1, 1, 2, 1]
    assert sel.ledger.snapshot() == {
        1: ((2, 0.0), (3, 1.0)),
        2: ((3, 1.0), (4, 0.0)),
        3: ((4, 0.0),),
    }


def test_online_selector_first_step_defaults_to_one():
    sel = OnlineWindowSelector(3)
    rec = sel.process(graph(3, [(0, 1)]))
    assert rec.step == 1
    assert rec.tested == ()
    assert rec.chosen == 1
    assert rec.windowing == Windowing(1, ())
    assert rec.last_graph.edges == frozenset({(0, 1)})


def test_online_selector_empty_ledger_sticks_to_one():
    # identical graphs: never any new links, so nothing is ever scored
    sel = OnlineWindowSelector(3)
    for _ in range(4):
        rec = sel.process(graph(3, [(0, 1)]))
        assert rec.chosen == 1
    assert sel.ledger.snapshot() == {}


def test_online_selector_skipped_steps_append_nothing():
    sel = OnlineWindowSelector(
        4, SelectorParams(min_tests=math.inf, top_count=math.inf, alpha=1.0)
    )
    sel.process(graph(4, [(0, 1)]))
    rec = sel.process(graph(4, [(0, 1)]))  # no new links
    assert rec.tested == ((1, None),)
    assert sel.ledger.count(1) == 0


def test_online_selector_exhaustive_tests_every_size():
    sel = OnlineWindowSelector(
        4, SelectorParams(min_tests=math.inf, top_count=math.inf, alpha=1.0)
    )
    for i, g in enumerate(scripted_stream(), start=1):
        rec = sel.process(g)
        assert [w for w, _ in rec.tested] == list(range(1, i))


def test_training_only_freeze():
    stream = scripted_stream()
    sel = OnlineWindowSelector(
        4,
        SelectorParams(min_tests=1, top_count=1, alpha=1.0),
        freeze_after=3,
    )
    records = [sel.process(g) for g in stream]
    assert records[2].chosen == 2  # decided while still testing
    assert records[3].tested == ()  # frozen: no more tests
    assert records[3].chosen == 2  # pinned to the step-3 choice
    snapshot = sel.ledger.snapshot()
    assert all(step <= 3 for entries in snapshot.values() for step, _ in entries)


def test_freeze_after_zero_never_tests():
    sel = OnlineWindowSelector(4, freeze_after=0)
    for g in scripted_stream():
        rec = sel.process(g)
        assert rec.tested == ()
        assert rec.chosen == 1


def test_fixed_online_selector():
    sel = OnlineWindowSelector(4, policy=lambda history: 2)
    recs = [sel.process(g) for g in scripted_stream()]
    assert [r.chosen for r in recs] == [1, 2, 2, 2]  # clamped on the first step
    assert recs[3].windowing == Windowing(4, (2,))
    assert all(r.tested == () for r in recs)
    assert sel.ledger.snapshot() == {}


def random_online_selector(seed: int) -> OnlineWindowSelector:
    rng = np.random.default_rng(seed)
    return OnlineWindowSelector(
        4, policy=lambda history: random_windowing(history.length, rng)
    )


def test_random_online_selector_is_seeded():
    a = random_online_selector(5)
    b = random_online_selector(5)
    stream = scripted_stream()
    wa = [a.process(g).windowing for g in stream]
    wb = [b.process(g).windowing for g in stream]
    assert wa == wb
    # chosen is None for a policy that returns a windowing, even a uniform one
    c = random_online_selector(5)
    for g in stream:
        assert c.process(g).chosen is None


def test_adage_online_selector_uses_history():
    sel = OnlineWindowSelector(6, policy=adage_select)
    rec = sel.process(graph(6, [(0, 1)]))
    assert rec.chosen == 1  # too short to fit anything
    rec = sel.process(graph(6, [(1, 2)]))
    assert rec.chosen is not None


# --------------------------------------------------------------------------
# offline supervised selection


def test_supervised_offline_select_picks_best_smallest():
    table = {1: 0.4, 2: 0.9, 3: 0.9, 4: 0.1}
    sel = supervised_offline_select(
        seq_of(3, [(0, 1)], [(1, 2)], [(0, 2)], resolution=1).slice_steps(1, 3),
        lambda seq, w: table[w],
    )
    assert sel.chosen == 2  # ties go to the smaller size
    assert sel.scores == {1: 0.4, 2: 0.9, 3: 0.9}
    assert sel.failures == {}


def test_supervised_offline_select_records_failures():
    def quality(seq, w):
        if w >= 2:
            raise ValueError("too big")
        return 0.5

    sel = supervised_offline_select(seq_of(3, [(0, 1)], [(1, 2)], [(0, 2)]), quality)
    assert sel.chosen == 1
    assert set(sel.failures) == {2, 3}

    def always_fails(seq, w):
        raise ValueError("no")

    with pytest.raises(ValueError, match="every candidate"):
        supervised_offline_select(seq_of(3, [(0, 1)], [(1, 2)]), always_fails)


def split_star_stream(periods: int, n: int = 10) -> GraphSequence:
    """Period-3 pattern: two half-stars, then the closure of all leaf pairs.
    Only a window covering a whole period unions both halves, so size 3 wins
    the one-step-ahead AP scan."""
    steps = []
    for p in range(periods):
        h = (2 * p) % n
        leaves = [(h + i) % n for i in (1, 2, 3, 4)]
        steps.append([(h, leaves[0]), (h, leaves[1])])
        steps.append([(h, leaves[2]), (h, leaves[3])])
        steps.append(
            [(min(a, b), max(a, b)) for i, a in enumerate(leaves) for b in leaves[i + 1 :]]
        )
    return seq_of(n, *steps)


def test_linkpred_window_quality_peaks_at_the_planted_period():
    seq = split_star_stream(6)
    q = {w: linkpred_window_quality(seq, w) for w in (1, 2, 3, 6)}
    assert q[3] > q[1]
    assert q[3] > q[2]
    assert q[3] > q[6]
    sel = supervised_offline_select(seq, lambda s, w: linkpred_window_quality(s, w))
    assert sel.chosen == 3
    with pytest.raises(ValueError, match="window size 0 must be >= 1"):
        linkpred_window_quality(seq, 0)


def test_cp_window_quality_peaks_at_the_aligned_size():
    first = clique_edges(range(5))
    second = clique_edges(range(5, 10))
    seq = seq_of(10, *([list(first)] * 6 + [list(second)] * 6))
    truth = ChangePointLabels((7,))
    q1 = cp_window_quality(seq, 1, truth)
    q2 = cp_window_quality(seq, 2, truth)
    assert q1 == 1.0
    assert q2 == 1.0  # windows of 2 still cut exactly at step 7
    q12 = cp_window_quality(seq, 12, truth)
    assert q12 == 0.0  # one window, nothing detected


def test_attr_split_window_quality_rejects_oversized_windows():
    attrs = VertexAttributes(
        4,
        "y",
        {"y": "categorical"},
        ({"y": "a"}, {"y": "b"}, {"y": "a"}, {"y": "b"}),
    )
    seq = seq_of(4, [(0, 2)], [(1, 3)], [(0, 2)], [(1, 3)])
    assert 0.0 <= attr_split_window_quality(seq, 1, attrs, batch_size=2) <= 1.0
    assert 0.0 <= attr_split_window_quality(seq, 2, attrs, batch_size=2) <= 1.0
    with pytest.raises(ValueError, match="exceeds"):
        attr_split_window_quality(seq, 3, attrs, batch_size=2)


# --------------------------------------------------------------------------
# structural baselines


EDGE_POOL = [(u, v) for u in range(14) for v in range(u + 1, 14)]


def graph_with_count(k: int):
    return graph(14, EDGE_POOL[:k])


def test_fourier_constant_series_falls_back_to_one():
    seq = GraphSequence(14, tuple(graph_with_count(5) for _ in range(16)), 1)
    assert fourier_select(seq) == 1


def test_fourier_finds_a_planted_period():
    counts = [10 if (t % 8) < 4 else 2 for t in range(64)]
    seq = GraphSequence(14, tuple(graph_with_count(c) for c in counts), 1)
    assert fourier_select(seq) == 8


def test_fourier_prefers_the_dominant_period():
    counts = [
        10 + 6 * (1 if t % 4 < 2 else -1) + 2 * (1 if t % 16 < 8 else -1)
        for t in range(64)
    ]
    seq = GraphSequence(14, tuple(graph_with_count(c) for c in counts), 1)
    assert fourier_select(seq) == 4


def test_fourier_needs_two_steps():
    with pytest.raises(ValueError):
        fourier_select(seq_of(2, [(0, 1)]))


def test_jaccard_identical_graphs_select_one():
    seq = seq_of(8, *([[(0, 1), (2, 3)]] * 6))
    assert jaccard_select(seq) == 1


def test_jaccard_disjoint_alternation_selects_two():
    a = [(0, 1), (2, 3)]
    b = [(4, 5), (6, 7)]
    seq = seq_of(8, *([a, b] * 4))
    assert jaccard_select(seq) == 2


def test_jaccard_scan_oracle():
    """Independent reimplementation of the saturation scan."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        t = int(rng.integers(4, 10))
        graphs = []
        for _ in range(t):
            edges = {
                (u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.3
            }
            graphs.append(graph(6, edges))
        seq = GraphSequence(6, tuple(graphs), 1)

        def jac(a, b):
            if not a and not b:
                return 1.0
            return len(a & b) / len(a | b)

        means = []
        for w in range(1, t):
            ws = windowed_at(seq, w)
            sims = [
                jac(ws.graphs[i].edges, ws.graphs[i + 1].edges)
                for i in range(ws.window_count - 1)
            ]
            means.append(math.fsum(sims) / len(sims))
        rise = max(means) - means[0]
        expected = t - 1
        for idx in range(len(means) - 1):
            if means[idx + 1] - means[idx] <= 0.05 * rise:
                expected = idx + 1
                break
        assert jaccard_select(seq) == expected


def test_graph_entropy_hand_values():
    assert graph_entropy(graph(3, [])) == 0.0
    assert graph_entropy(graph(2, [(0, 1)])) == 0.0
    assert graph_entropy(graph(4, [(0, 1), (2, 3)])) == pytest.approx(math.log(2), abs=1e-12)
    assert graph_entropy(graph(3, [(0, 1), (1, 2), (0, 2)])) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_entropy_select_trivial_cases():
    assert entropy_select(seq_of(3, [(0, 1)])).cuts == ()
    identical = seq_of(6, *([list(clique_edges(range(4)))] * 5))
    assert entropy_select(identical).cuts == ()  # merges all the way down


def test_entropy_select_keeps_the_midpoint_between_halves():
    c5a = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    c5b = [(5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]
    seq = seq_of(10, c5a, c5a, c5a, c5b, c5b, c5b)
    assert entropy_select(seq).cuts == (3,)


def test_powerlaw_exponent_matches_grid_search():
    def grid_oracle(degrees, lo=1.5, hi=4.5, step=1e-3):
        xs = [d for d in degrees if d >= 1]
        slog = math.fsum(math.log(x) for x in xs)
        best, best_ll = None, -math.inf
        g = lo
        while g <= hi + 1e-12:
            ll = -g * slog - len(xs) * math.log(zeta(g))
            if ll > best_ll:
                best, best_ll = g, ll
            g += step
        return best

    rng = np.random.default_rng(2)
    samples = [
        [1, 1, 1, 2, 2, 3, 5, 8],
        [1, 2, 1, 1, 4, 1, 9, 2, 1, 3, 1, 1],
        [int(x) for x in rng.zipf(2.5, 60)],
    ]
    for sample in samples:
        assert powerlaw_exponent(sample) == pytest.approx(grid_oracle(sample), abs=1e-3)


def test_powerlaw_exponent_degenerate_sample_clamps_high():
    assert powerlaw_exponent([1, 1, 1, 1]) == 20.0
    with pytest.raises(ValueError):
        powerlaw_exponent([0, 0])


def test_adage_converges_shortly_after_the_union_stabilizes():
    rng = np.random.default_rng(4)

    def rnd(p):
        return graph(30, {(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < p})

    grow = [rnd(0.08) for _ in range(5)]
    quiet = [graph(30, [])] * 7
    seq = GraphSequence(30, tuple(grow + quiet), 1)
    assert adage_select(seq) <= 5 + 3  # stabilization point plus patience


def test_adage_never_converging_returns_full_length():
    steps = []
    used = 0
    for i in range(1, 9):
        m = 2 ** (i + 1)
        if i % 2 == 1:
            vs = list(range(used, used + m))
            used += m
            steps.append(list(clique_edges(vs)))
        else:
            vs = list(range(used, used + 2 * m))
            used += 2 * m
            steps.append([(vs[2 * j], vs[2 * j + 1]) for j in range(m)])
    seq = GraphSequence(used, tuple(graph(used, e) for e in steps), 1)
    assert adage_select(seq) == seq.length


def test_adage_skips_empty_prefixes():
    seq = seq_of(4, [], [], [(0, 1), (1, 2), (0, 3)], [(0, 1)])
    # degree-zero unions are skipped; convergence may never happen here
    assert adage_select(seq) == seq.length


def test_adage_exponent_matches_direct_computation():
    rng = np.random.default_rng(8)
    graphs = [
        graph(20, {(u, v) for u in range(20) for v in range(u + 1, 20) if rng.random() < 0.15})
        for _ in range(6)
    ]
    seq = GraphSequence(20, tuple(graphs), 1)
    w = adage_select(seq)
    union = union_graphs(seq.graphs[:w])
    degs = [d for d in union.degrees() if d >= 1]
    # the returned size's exponent is reproducible from the same prefix
    assert powerlaw_exponent(degs) == powerlaw_exponent(degs)
    assert 1 <= w <= seq.length


# --------------------------------------------------------------------------
# random and fixed


def test_random_windowing_is_deterministic_per_seed():
    a = random_windowing(12, np.random.default_rng(42))
    b = random_windowing(12, np.random.default_rng(42))
    assert a == b
    assert random_windowing(12, 42) == a  # int seeds work too


def test_random_windowing_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = int(rng.integers(1, 20))
        w = random_windowing(t, rng)
        assert w.length == t
        assert sum(w.sizes()) == t


def test_random_windowing_first_segment_is_uniform():
    """First segment length is uniform on [1, T]; its empirical mean over
    100k draws must sit within 3 standard errors of (1 + T) / 2."""
    rng = np.random.default_rng(0)
    draws = 100_000
    total = 0
    for _ in range(draws):
        total += random_windowing(10, rng).sizes()[0]
    mean = total / draws
    sigma = math.sqrt((10**2 - 1) / 12 / draws)
    assert abs(mean - 5.5) <= 3 * sigma

