"""Kernel-weighted relational classifier and ROC-AUC scoring."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwin import (
    VertexAttributes,
    default_batch_size,
    edge_weight,
    fit_model,
    leave_out_scores,
    load_attributes,
    pairs_auc,
    predict_attribute,
    roc_auc,
    windowed_at,
)

from helpers import seq_of


def test_edge_weight_values():
    assert edge_weight(1, 1, 0.5) == 0.5
    assert edge_weight(3, 1, 0.5) == 0.125
    assert edge_weight(3, 3, 0.5) == 0.5
    theta = 0.3
    assert edge_weight(5, 2, theta) == pytest.approx((1 - theta) ** 3 * theta, abs=1e-15)
    with pytest.raises(ValueError):
        edge_weight(3, 0, 0.5)
    with pytest.raises(ValueError):
        edge_weight(3, 4, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=30),
    theta=st.floats(min_value=0.01, max_value=0.99),
)
def test_kernel_weights_sum_and_monotonicity(t, theta):
    weights = [edge_weight(t, i, theta) for i in range(1, t + 1)]
    assert math.fsum(weights) == pytest.approx(1 - (1 - theta) ** t, abs=1e-12)
    for a, b in zip(weights, weights[1:]):
        assert b > a  # recent windows weigh more


# --------------------------------------------------------------------------
# a fully hand-computed fitting instance
#
# vertices 0..4; labels a, a, b, b, unlabeled
# categorical col: x, y, x, x, y; continuous z: 1, 3, 2, 2, missing
# window 1 edges {(0,1), (2,3)}, window 2 edges {(0,1), (0,4)}; theta = 0.5


def hand_instance():
    attrs = VertexAttributes(
        5,
        "y",
        {"y": "categorical", "col": "categorical", "z": "continuous"},
        (
            {"y": "a", "col": "x", "z": 1.0},
            {"y": "a", "col": "y", "z": 3.0},
            {"y": "b", "col": "x", "z": 2.0},
            {"y": "b", "col": "x", "z": 2.0},
            {"col": "y"},
        ),
    )
    seq = seq_of(5, [(0, 1), (2, 3)], [(0, 1), (0, 4)])
    return attrs, windowed_at(seq, 1)


def test_fit_model_hand_oracle():
    attrs, ws = hand_instance()
    model = fit_model(ws, attrs, known=[0, 1, 2, 3], theta=0.5)
    assert model.classes == ("a", "b")
    # add-one priors: (2+1)/(4+2) each
    assert model.log_priors["a"] == pytest.approx(math.log(0.5), abs=1e-12)
    assert model.log_priors["b"] == pytest.approx(math.log(0.5), abs=1e-12)
    # categorical over domain {x, y}: class a saw [x, y], class b saw [x, x]
    col = model.categorical["col"]
    assert col["a"]["x"] == pytest.approx(math.log(2 / 4), abs=1e-12)
    assert col["a"]["y"] == pytest.approx(math.log(2 / 4), abs=1e-12)
    assert col["b"]["x"] == pytest.approx(math.log(3 / 4), abs=1e-12)
    assert col["b"]["y"] == pytest.approx(math.log(1 / 4), abs=1e-12)
    # gaussians: a from {1, 3} -> (2, 1); b from {2, 2} -> (2, floor)
    assert model.gaussian["z"]["a"] == (2.0, 1.0)
    assert model.gaussian["z"]["b"][0] == 2.0
    assert model.gaussian["z"]["b"][1] == 1e-9
    # neighbour conditionals: window weights 0.25 then 0.5; edge (0,1) both
    # windows (labels a-a, both directions), edge (2,3) window 1 (b-b),
    # edge (0,4) skipped (4 unlabelled).
    # raw[a][a] = 2*0.25 + 2*0.5 = 1.5, raw[b][b] = 2*0.25 = 0.5
    assert model.neighbor["a"]["a"] == pytest.approx(math.log(2.5 / 3.5), abs=1e-12)
    assert model.neighbor["a"]["b"] == pytest.approx(math.log(1.0 / 3.5), abs=1e-12)
    assert model.neighbor["b"]["b"] == pytest.approx(math.log(1.5 / 2.5), abs=1e-12)
    assert model.neighbor["b"]["a"] == pytest.approx(math.log(1.0 / 2.5), abs=1e-12)


def test_predict_hand_oracle():
    attrs, ws = hand_instance()
    model = fit_model(ws, attrs, known=[0, 1, 2, 3], theta=0.5)
    # vertex 4: col = y, no z, one known neighbour (0, label a) in window 2
    lp_a = math.log(0.5) + math.log(2 / 4) + 0.5 * math.log(2.5 / 3.5)
    lp_b = math.log(0.5) + math.log(1 / 4) + 0.5 * math.log(1.0 / 2.5)
    expected = math.exp(lp_b) / (math.exp(lp_a) + math.exp(lp_b))
    label, posterior = predict_attribute(model, ws, attrs, 4)
    assert posterior == pytest.approx(expected, abs=1e-12)
    assert label == ("b" if lp_b > lp_a else "a")


def test_predict_degenerate_variance_dominates():
    attrs, ws = hand_instance()
    model = fit_model(ws, attrs, known=[0, 1, 2, 3], theta=0.5)
    # vertex 0 has z = 1.0; class b's variance floor makes its density vanish
    label, posterior = predict_attribute(model, ws, attrs, 0)
    assert label == "a"
    assert posterior < 1e-6  # posterior is for the positive class "b"


def test_largest_continuous_values_keep_every_posterior_finite():
    # load_attributes accepts |x| <= 1e100, and a squared gap over the
    # variance floor (4e200 / 2e-9) stays finite, so no log-likelihood is -inf
    zs = ("1e100", "-1e100", "1e100", "-1e100", "-1e100", "1e100")  # both signs per class
    rows = "".join(f"{v},{'ab'[v % 2]},{z}\n" for v, z in enumerate(zs))
    text = "vertex,y,z\n#types: categorical, continuous\n" + rows
    attrs = load_attributes(text, "y", [str(v) for v in range(6)])
    assert [row["z"] for row in attrs.rows] == [float(z) for z in zs]
    ws = windowed_at(seq_of(6, [(0, 1), (2, 3)], [(4, 5)]), 1)
    scores = leave_out_scores(ws, attrs, 1, 0.5)
    assert len(scores) == 6
    assert all(math.isfinite(posterior) for posterior, _ in scores)


def test_fit_model_requires_labelled_vertices():
    attrs, ws = hand_instance()
    with pytest.raises(ValueError):
        fit_model(ws, attrs, known=[4], theta=0.5)
    with pytest.raises(ValueError):
        fit_model(ws, attrs, known=[], theta=0.5)


def test_default_batch_size():
    assert default_batch_size(25) == 3
    assert default_batch_size(10) == 1
    assert default_batch_size(11) == 2
    assert default_batch_size(100) == 10


# --------------------------------------------------------------------------
# leave-out evaluation


def test_leave_out_scores_shape_and_labels():
    attrs, ws = hand_instance()
    pairs = leave_out_scores(ws, attrs, batch_size=1, theta=0.5)
    assert len(pairs) == 4
    assert [lab for _, lab in pairs] == ["a", "a", "b", "b"]
    for score, _ in pairs:
        assert 0.0 <= score <= 1.0


def test_leave_out_never_sees_its_own_label():
    """Flipping a vertex's own label cannot move that vertex's score when it
    is alone in its evaluation batch."""
    attrs, ws = hand_instance()
    flipped = VertexAttributes(
        5,
        "y",
        attrs.types,
        tuple(
            {**row, "y": "b"} if v == 0 else dict(row)
            for v, row in enumerate(attrs.rows)
        ),
    )
    base = leave_out_scores(ws, attrs, batch_size=1, theta=0.5)
    swapped = leave_out_scores(ws, flipped, batch_size=1, theta=0.5)
    assert base[0][0] == swapped[0][0]
    assert base[0][1] == "a" and swapped[0][1] == "b"


def test_leave_out_eval_evidence_decouples():
    attrs, ws = hand_instance()
    empty_ws = windowed_at(seq_of(5, [], []), 1)
    with_graph = leave_out_scores(ws, attrs, batch_size=1, theta=0.5)
    without_graph = leave_out_scores(ws, attrs, batch_size=1, theta=0.5, eval_ws=empty_ws)
    defaulted = leave_out_scores(ws, attrs, batch_size=1, theta=0.5, eval_ws=ws)
    assert with_graph == defaulted
    assert with_graph != without_graph


def test_leave_out_validation():
    attrs, ws = hand_instance()
    with pytest.raises(ValueError, match="batch size"):
        leave_out_scores(ws, attrs, batch_size=4, theta=0.5)  # fitting set would be empty
    with pytest.raises(ValueError, match="batch size"):
        leave_out_scores(ws, attrs, batch_size=0, theta=0.5)
    single = VertexAttributes(
        2,
        "y",
        {"y": "categorical"},
        ({"y": "a"}, {"y": "b"}),
    )
    ws2 = windowed_at(seq_of(2, [(0, 1)]), 1)
    assert len(leave_out_scores(ws2, single, batch_size=1, theta=0.5)) == 2


# --------------------------------------------------------------------------
# ROC-AUC


def test_roc_auc_known_values():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [True, True, False, False]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5
    # one discordant pair among 2x2: 3 wins + 0 ties -> 0.75
    assert roc_auc([0.9, 0.4, 0.6, 0.1], [True, True, False, False]) == 0.75


def test_roc_auc_label_flip_mirrors():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = int(rng.integers(4, 40))
        scores = [float(x) for x in rng.integers(0, 6, size=m) / 5.0]  # plenty of ties
        labels = [bool(b) for b in rng.integers(0, 2, size=m)]
        if not (any(labels) and not all(labels)):
            continue
        flipped = [not b for b in labels]
        # 1 - w/d and (d-w)/d can differ in the last ulp
        assert roc_auc(scores, flipped) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12
        )


def test_roc_auc_pairwise_oracle_exact():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(2, 60))
        scores = [float(x) for x in rng.integers(0, 8, size=m) / 7.0]
        labels = [bool(b) for b in rng.integers(0, 2, size=m)]
        if not (any(labels) and not all(labels)):
            continue
        pos = [s for s, b in zip(scores, labels) if b]
        neg = [s for s, b in zip(scores, labels) if not b]
        wins = sum(1 for p in pos for q in neg if p > q)
        ties = sum(1 for p in pos for q in neg if p == q)
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert roc_auc(scores, labels) == oracle


def test_roc_auc_validation():
    with pytest.raises(ValueError):
        roc_auc([0.5], [True])
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.4], [True, True])
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.4], [True])


def test_symmetric_evidence_gives_half():
    """When every fitting set is class-balanced and no other evidence exists,
    every posterior is exactly 0.5; midranks then make the AUC exactly 0.5."""
    attrs = VertexAttributes(
        4,
        "y",
        {"y": "categorical"},
        ({"y": "a"}, {"y": "b"}, {"y": "a"}, {"y": "b"}),
    )
    ws = windowed_at(seq_of(4, [], [], []), 1)  # no edges, no features
    pairs = leave_out_scores(ws, attrs, batch_size=2, theta=0.5)
    assert all(s == 0.5 for s, _ in pairs)
    assert pairs_auc(pairs, attrs) == 0.5


def test_leave_out_auc_matches_components():
    attrs, ws = hand_instance()
    pairs = leave_out_scores(ws, attrs, batch_size=1, theta=0.5)
    expected = roc_auc([s for s, _ in pairs], [lab == "b" for _, lab in pairs])
    assert pairs_auc(pairs, attrs) == expected
    assert pairs_auc([[s, lab] for s, lab in pairs], attrs) == expected  # as reports hold them
