"""Vertex attribute prediction from windowed graphs.

A naive-Bayes relational classifier over a binary target: class priors and
vertex-local feature likelihoods come from the labelled fitting set, and each
windowed graph contributes neighbour-label evidence weighted by an exponential
recency kernel, so contacts in recent windows count more than old ones.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._numeric import midranks
from .temporal import CATEGORICAL, VertexAttributes
from .windows import WindowedSequence

__all__ = [
    "AttributeModel",
    "edge_weight",
    "fit_model",
    "predict_attribute",
    "leave_out_scores",
    "roc_auc",
    "pairs_auc",
    "default_batch_size",
]

log = logging.getLogger(__name__)

VARIANCE_FLOOR = 1e-9


def edge_weight(window_count: int, window_index: int, theta: float) -> float:
    """Weight of a contact observed in window `window_index` (1-based) of
    `window_count` windows: (1-theta)^(count-index) * theta."""
    if not 1 <= window_index <= window_count:
        raise ValueError(f"window index {window_index} outside [1, {window_count}]")
    return (1.0 - theta) ** (window_count - window_index) * theta


@dataclass(frozen=True)
class AttributeModel:
    """Fitted classifier state.

    classes: the two target values, (negative, positive).
    log_priors: add-one-smoothed class log priors.
    categorical: feature -> class -> value -> log likelihood (add-one smoothed
        over the feature's observed domain).
    gaussian: feature -> class -> (mean, variance) with a variance floor.
    neighbor: class -> neighbour-label -> log conditional (kernel-weighted,
        add-one smoothed).
    known_labels: the labels available as evidence at prediction time.
    """

    classes: tuple[str, str]
    log_priors: Mapping[str, float]
    categorical: Mapping[str, Mapping[str, Mapping[str, float]]]
    gaussian: Mapping[str, Mapping[str, tuple[float, float]]]
    neighbor: Mapping[str, Mapping[str, float]]
    known_labels: Mapping[int, str]
    theta: float


def fit_model(
    ws: WindowedSequence,
    attrs: VertexAttributes,
    known: Iterable[int],
    theta: float,
) -> AttributeModel:
    """Fit the classifier on the labelled vertices in `known`.

    Local features contribute unweighted; neighbour-label evidence from
    window i of m carries edge_weight(m, i, theta), an exponential recency
    kernel with `theta` in (0, 1). Only neighbours that are themselves in
    `known` contribute label evidence.
    """
    known_set = {v for v in known if attrs.target_of(v) is not None}
    if not known_set:
        raise ValueError("fitting set has no labelled vertices")
    classes = attrs.classes
    labels = {v: attrs.target_of(v) for v in known_set}
    counts = {c: sum(1 for lab in labels.values() if lab == c) for c in classes}
    for c in classes:
        if counts[c] == 0:
            log.warning("class %r absent from the fitting set; prior rests on smoothing", c)
    total = len(known_set)
    log_priors = {
        c: math.log((counts[c] + 1) / (total + len(classes))) for c in classes
    }

    # Local features: categorical tables over each feature's observed domain,
    # Gaussian (mean, floored variance) for continuous ones.
    categorical: dict[str, dict[str, dict[str, float]]] = {}
    gaussian: dict[str, dict[str, tuple[float, float]]] = {}
    for name in attrs.feature_names:
        if attrs.types[name] == CATEGORICAL:
            domain = sorted(
                {str(r[name]) for r in attrs.rows if name in r}
            )
            if not domain:
                continue
            table: dict[str, dict[str, float]] = {}
            for c in classes:
                vals = [
                    str(attrs.rows[v][name])
                    for v in known_set
                    if labels[v] == c and name in attrs.rows[v]
                ]
                denom = len(vals) + len(domain)
                table[c] = {
                    d: math.log((vals.count(d) + 1) / denom) for d in domain
                }
            categorical[name] = table
        else:
            per_class: dict[str, tuple[float, float]] = {}
            for c in classes:
                xs = [
                    float(attrs.rows[v][name])
                    for v in known_set
                    if labels[v] == c and name in attrs.rows[v]
                ]
                if not xs:
                    continue
                mean = float(np.mean(xs))
                var = max(float(np.var(xs)), VARIANCE_FLOOR)
                per_class[c] = (mean, var)
            if per_class:
                gaussian[name] = per_class

    # Neighbour-label conditionals, kernel-weighted over windows.
    raw = {c: {d: 0.0 for d in classes} for c in classes}
    for v in known_set:
        c = labels[v]
        for w, lab in _neighbor_evidence(ws, v, labels, theta):
            raw[c][lab] += w
    neighbor: dict[str, dict[str, float]] = {}
    for c in classes:
        denom = sum(raw[c].values()) + len(classes)
        neighbor[c] = {d: math.log((raw[c][d] + 1) / denom) for d in classes}

    return AttributeModel(
        classes=classes,
        log_priors=log_priors,
        categorical=categorical,
        gaussian=gaussian,
        neighbor=neighbor,
        known_labels=dict(labels),
        theta=theta,
    )


def _neighbor_evidence(
    ws: WindowedSequence, vertex: int, labels: Mapping[int, str], theta: float
) -> Iterator[tuple[float, str]]:
    """(kernel weight, label) of each neighbour of `vertex` with a label in
    `labels`, window by window, in neighbour-id order within a window."""
    m = ws.window_count
    for i, nbrs in enumerate(ws.neighbor_lists, start=1):
        w = edge_weight(m, i, theta)
        for u in nbrs[vertex]:
            lab = labels.get(u)
            if lab is not None and u != vertex:
                yield w, lab


def _gaussian_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def predict_attribute(
    model: AttributeModel,
    ws: WindowedSequence,
    attrs: VertexAttributes,
    vertex: int,
) -> tuple[str, float]:
    """Predict `vertex`'s target value; returns (label, positive-class posterior).

    Evidence: the vertex's own features plus, for each window i of `ws`, its
    neighbours whose labels the model knows, each log-conditional scaled by
    edge_weight(m, i, theta). A vertex with no edges and no features receives
    the prior.
    """
    row = attrs.rows[vertex]
    evidence = list(_neighbor_evidence(ws, vertex, model.known_labels, model.theta))
    log_post = {}
    for c in model.classes:
        lp = model.log_priors[c]
        for name, table in model.categorical.items():
            if name in row:
                val = str(row[name])
                if val in table[c]:
                    lp += table[c][val]
        for name, per_class in model.gaussian.items():
            if name in row and c in per_class:
                mean, var = per_class[c]
                lp += _gaussian_logpdf(float(row[name]), mean, var)
        for w, lab in evidence:
            lp += w * model.neighbor[c][lab]
        log_post[c] = lp
    neg, pos = model.classes
    denom = np.logaddexp(log_post[neg], log_post[pos])
    posterior_pos = float(np.exp(log_post[pos] - denom))
    label = pos if log_post[pos] > log_post[neg] else neg
    return label, posterior_pos


def default_batch_size(labelled_count: int) -> int:
    return math.ceil(labelled_count / 10)


def leave_out_scores(
    ws: WindowedSequence,
    attrs: VertexAttributes,
    batch_size: int | None,
    theta: float,
    eval_ws: WindowedSequence | None = None,
) -> list[tuple[float, str]]:
    """(positive posterior, true label) for every labelled vertex, leave-out style.

    Labelled vertices are batched by ascending id, `batch_size` at a time
    (None = `default_batch_size`); each batch is predicted by a model fitted
    on the remaining labelled vertices, so no vertex's label ever informs
    its own prediction. `eval_ws` supplies prediction-time graph
    evidence when it should differ from the fitting evidence (defaults to
    `ws`).
    """
    labelled = list(attrs.labeled())
    if len(labelled) < 2:
        raise ValueError("leave-out evaluation needs at least two labelled vertices")
    values = {attrs.target_of(v) for v in labelled}
    if len(values) < 2:
        raise ValueError("single-class population: AUC is undefined")
    b = default_batch_size(len(labelled)) if batch_size is None else batch_size
    if not 1 <= b < len(labelled):
        raise ValueError(
            f"batch size {b} must lie in [1, {len(labelled) - 1}] so the fitting set is nonempty"
        )
    predict_evidence = eval_ws if eval_ws is not None else ws
    out: list[tuple[float, str]] = []
    for start in range(0, len(labelled), b):
        batch = labelled[start : start + b]
        known = [v for v in labelled if v not in set(batch)]
        model = fit_model(ws, attrs, known, theta)
        for v in batch:
            _, posterior = predict_attribute(model, predict_evidence, attrs, v)
            out.append((posterior, attrs.target_of(v)))
    return out


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """ROC-AUC via the rank-sum form with midrank tie handling; a NaN score
    gives a NaN AUC."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    pos = sum(1 for b in labels if b)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise ValueError("single-class population: AUC is undefined")
    ranks = midranks(scores)
    rank_sum = float(sum(r for r, b in zip(ranks, labels) if b))
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def pairs_auc(pairs: Sequence[Sequence], attrs: VertexAttributes) -> float:
    """ROC-AUC of (positive posterior, true label) pairs, as `leave_out_scores`
    returns them, with `attrs`' positive class as the positive label."""
    _, positive = attrs.classes
    return roc_auc([s for s, _ in pairs], [lab == positive for _, lab in pairs])
