"""Plain reference implementations kept as differential oracles.

These are the straightforward versions of kernels the package now computes
in another form: the relational classifier's neighbour-evidence loops
(rebuilding each window's neighbour lists at every use), the MDL segment
state (one neighbour-count dict per vertex, float block counts, a Python
loop per block update) and damped path-sum link ranking (an eigen-solve on
every graph, a Python loop over candidate pairs, a sort on tuple keys and a
per-item pair normalisation in average precision; also the package's own
solve ranked by a 3-key lexsort with an n-by-n linked matrix), the offline
cell and score-curve cell that each scored their own windowings (supervised
selection calling a task-quality function per training size), the window
quality that builds every history's last window, and the online runner that
drives one selector at a time, refitting the adage baseline on every
history, with the score ledger that reweighs every size's mean from the
current step at each ranking; edge-stream ingest with one event object per contact, parsed
line by line and binned in a Python loop; and the graph core as a frozenset
of (u, v) pairs, unioned as sets. Tests check that the package gives exactly
equal results on random inputs.
"""
from __future__ import annotations

import io
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import stats as scipy_stats
from scipy.optimize import bisect
from scipy.special import zeta

from graphwin.attrpred import (
    VARIANCE_FLOOR,
    AttributeModel,
    _gaussian_logpdf,
    default_batch_size,
    edge_weight,
)
import graphwin
from graphwin import harness, linkpred, selectors
from graphwin.changepoint import _block_bits, cp_pr_auc, log_star
from graphwin.harness import CellResult, EvalParams, ExperimentReport, IntervalPlan, derive_seed
from graphwin.linkpred import _truncated_matrix
from graphwin.selectors import (
    OnlineWindowSelector,
    SpanScores,
    attr_split_window_quality,
    attr_window_quality,
    cp_window_quality,
    random_windowing,
    supervised_offline_select,
)
from graphwin.temporal import (
    CATEGORICAL,
    ChangePointLabels,
    DataFormatError,
    GraphSequence,
    StaticGraph,
    VertexAttributes,
    union_graphs,
)
from graphwin.windows import (
    WindowedSequence,
    Windowing,
    apply_windowing,
    uniform_windowing,
)
from helpers import edge_set, graph

log = logging.getLogger(__name__)

_IMPROVEMENT_EPS = 1e-9
_MAX_SWEEPS = 60


# --------------------------------------------------------------------------
# the graph core as a set of pairs


@dataclass(frozen=True)
class SetGraph:
    """An undirected simple graph as a frozenset of (u, v) pairs, u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) not canonical for n={self.n}")

    @classmethod
    def of(cls, g: StaticGraph) -> "SetGraph":
        return cls(g.n, edge_set(g))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=float)
        ends = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
        a[ends[:, 0], ends[:, 1]] = a[ends[:, 1], ends[:, 0]] = 1.0
        return a

    def degrees(self) -> np.ndarray:
        ends = np.array(list(self.edges), dtype=np.intp).reshape(-1)
        return np.bincount(ends, minlength=self.n)

    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbrs)


def union_set_graphs(graphs: Sequence[SetGraph]) -> SetGraph:
    """Edge-set union of graphs over a common vertex set."""
    if not graphs:
        raise ValueError("cannot union zero graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs have mismatched vertex counts")
    return SetGraph(n, frozenset().union(*(g.edges for g in graphs)))


def jaccard(a: SetGraph, b: SetGraph) -> float:
    """Jaccard similarity of two edge sets; two empty sets score 1."""
    if not a.edges and not b.edges:
        return 1.0
    return len(a.edges & b.edges) / len(a.edges | b.edges)


# --------------------------------------------------------------------------
# scipy-backed statistics


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """ROC-AUC via the rank-sum form with midrank tie handling."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    pos = sum(1 for b in labels if b)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise ValueError("single-class population: AUC is undefined")
    ranks = scipy_stats.rankdata(scores)
    rank_sum = float(sum(r for r, b in zip(ranks, labels) if b))
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Rank correlation with a two-sided t-test p-value; (nan, nan) where
    scipy finds it undefined."""
    if len(xs) != len(ys):
        raise ValueError("paired samples must align")
    if len(xs) < 3:
        raise ValueError("rank correlation needs at least 3 pairs")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input
        rho, p = scipy_stats.spearmanr(xs, ys)
    if math.isnan(rho):
        return (float("nan"), float("nan"))
    return float(rho), float(p)


def powerlaw_exponent(degrees: Sequence[int], lo: float = 1.01, hi: float = 20.0) -> float:
    """Discrete power-law MLE exponent with minimum value 1, clamped to [lo, hi]."""
    xs = np.asarray([d for d in degrees if d >= 1], dtype=float)
    if xs.size == 0:
        raise ValueError("no positive degrees to fit")
    mean_log = float(np.mean(np.log(xs)))
    if mean_log == 0.0:
        return hi

    def dlog_zeta(s: float, h: float = 1e-5) -> float:
        return (math.log(zeta(s + h)) - math.log(zeta(s - h))) / (2 * h)

    def objective(s: float) -> float:
        return dlog_zeta(s) + mean_log

    if objective(lo) >= 0.0:
        return lo
    if objective(hi) <= 0.0:
        return hi
    return float(bisect(objective, lo, hi, xtol=1e-10))


# --------------------------------------------------------------------------
# relational naive Bayes


def fit_model(
    ws: WindowedSequence,
    attrs: VertexAttributes,
    known: Iterable[int],
    theta: float,
) -> AttributeModel:
    """Fit the classifier on the labelled vertices in `known`."""
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
    m = ws.window_count
    nbr_lists = [g.neighbor_lists() for g in ws.graphs]
    weights = [edge_weight(m, i, theta) for i in range(1, m + 1)]
    raw = {c: {d: 0.0 for d in classes} for c in classes}
    for v in known_set:
        c = labels[v]
        for idx in range(m):
            w = weights[idx]
            for u in nbr_lists[idx][v]:
                if u in known_set and u != v:
                    raw[c][labels[u]] += w
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


def predict_attribute(
    model: AttributeModel,
    ws: WindowedSequence,
    attrs: VertexAttributes,
    vertex: int,
) -> tuple[str, float]:
    """Predict `vertex`'s target value; returns (label, positive-class posterior)."""
    row = attrs.rows[vertex]
    m = ws.window_count
    weights = [edge_weight(m, i, model.theta) for i in range(1, m + 1)]
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
        for idx in range(m):
            w = weights[idx]
            for u in ws.graphs[idx].neighbor_lists()[vertex]:
                lab = model.known_labels.get(u)
                if lab is not None and u != vertex:
                    lp += w * model.neighbor[c][lab]
        log_post[c] = lp
    neg, pos = model.classes
    denom = np.logaddexp(log_post[neg], log_post[pos])
    posterior_pos = float(np.exp(log_post[pos] - denom))
    label = pos if log_post[pos] > log_post[neg] else neg
    return label, posterior_pos


def leave_out_scores(
    ws: WindowedSequence,
    attrs: VertexAttributes,
    batch_size: int | None,
    theta: float,
    eval_ws: WindowedSequence | None = None,
) -> list[tuple[float, str]]:
    """(positive posterior, true label) for every labelled vertex, leave-out style."""
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


# --------------------------------------------------------------------------
# MDL segmentation


class _SegmentState:
    """Incrementally maintained segment encoding for the local search."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.graph_count = 0
        self.nbr_weight: list[dict[int, int]] = [dict() for _ in range(n)]
        self.assign = np.zeros(n, dtype=int)
        self.sizes: list[int] = [n]
        self.blocks = np.zeros((1, 1), dtype=float)

    @classmethod
    def build(cls, graphs: Sequence[StaticGraph], assign: np.ndarray) -> "_SegmentState":
        st = cls(graphs[0].n)
        st._set_assignment(assign)
        for g in graphs:
            st.add_graph(g)
        return st

    def _set_assignment(self, assign: np.ndarray) -> None:
        # Compact group indices, preserving first-appearance order.
        remap: dict[int, int] = {}
        out = np.empty(self.n, dtype=int)
        for v in range(self.n):
            g = int(assign[v])
            if g not in remap:
                remap[g] = len(remap)
            out[v] = remap[g]
        k = len(remap)
        self.assign = out
        self.sizes = [0] * k
        for v in range(self.n):
            self.sizes[out[v]] += 1
        self.blocks = np.zeros((k, k), dtype=float)
        for v in range(self.n):
            for u, w in self.nbr_weight[v].items():
                if u > v:
                    a, b = out[v], out[u]
                    self.blocks[a, b] += w
                    if a != b:
                        self.blocks[b, a] += w

    def clone(self) -> "_SegmentState":
        st = _SegmentState.__new__(_SegmentState)
        st.n = self.n
        st.graph_count = self.graph_count
        st.nbr_weight = [dict(d) for d in self.nbr_weight]
        st.assign = self.assign.copy()
        st.sizes = list(self.sizes)
        st.blocks = self.blocks.copy()
        return st

    def add_graph(self, g: StaticGraph) -> None:
        if g.n != self.n:
            raise ValueError("graph vertex count mismatch")
        self.graph_count += 1
        for u, v in edge_set(g):
            self.nbr_weight[u][v] = self.nbr_weight[u].get(v, 0) + 1
            self.nbr_weight[v][u] = self.nbr_weight[v].get(u, 0) + 1
            a, b = self.assign[u], self.assign[v]
            self.blocks[a, b] += 1
            if a != b:
                self.blocks[b, a] += 1

    def _contact(self, v: int) -> np.ndarray:
        k = len(self.sizes)
        c = np.zeros(k, dtype=float)
        for u, w in self.nbr_weight[v].items():
            c[self.assign[u]] += w
        return c

    def _shift(self, v: int, src: int, dst: int, contact: np.ndarray) -> None:
        # Re-home v's block contributions from group src to group dst. The
        # contact vector depends only on other vertices, so the same vector
        # reverses the move.
        k = len(self.sizes)
        for h in range(k):
            if h == src or h == dst:
                continue
            self.blocks[src, h] -= contact[h]
            self.blocks[h, src] = self.blocks[src, h]
            self.blocks[dst, h] += contact[h]
            self.blocks[h, dst] = self.blocks[dst, h]
        self.blocks[src, src] -= contact[src]
        self.blocks[src, dst] += contact[src] - contact[dst]
        self.blocks[dst, src] = self.blocks[src, dst]
        self.blocks[dst, dst] += contact[dst]
        self.sizes[src] -= 1
        self.sizes[dst] += 1
        self.assign[v] = dst

    def cost(self) -> float:
        k_all = len(self.sizes)
        live = [g for g in range(k_all) if self.sizes[g] > 0]
        seg_len = self.graph_count
        total = log_star(len(live))
        for a in live:
            total += log_star(self.sizes[a])
        for ia, a in enumerate(live):
            total += _block_bits(
                self.sizes[a] * (self.sizes[a] - 1) // 2 * seg_len,
                int(round(self.blocks[a, a])),
            )
            for b in live[ia + 1 :]:
                total += _block_bits(
                    self.sizes[a] * self.sizes[b] * seg_len,
                    int(round(self.blocks[a, b])),
                )
        return total

    def _ensure_spare(self) -> int:
        """Index of an empty group slot, appending one if needed."""
        for g, s in enumerate(self.sizes):
            if s == 0:
                return g
        k = len(self.sizes)
        self.sizes.append(0)
        grown = np.zeros((k + 1, k + 1), dtype=float)
        grown[:k, :k] = self.blocks
        self.blocks = grown
        return k

    def search(self) -> int:
        """Greedy local moves to a cost minimum; returns the sweeps run."""
        for sweeps in range(1, _MAX_SWEEPS + 1):
            improved = False
            for v in range(self.n):
                src = int(self.assign[v])
                spare = self._ensure_spare()
                contact = self._contact(v)
                base = self.cost()
                best_gain = _IMPROVEMENT_EPS
                best_dst = None
                targets = [g for g in range(len(self.sizes)) if g != src and self.sizes[g] > 0]
                if self.sizes[src] > 1:
                    targets.append(spare)  # a lone vertex moving to a new group is a no-op
                for dst in targets:
                    self._shift(v, src, dst, contact)
                    gain = base - self.cost()
                    self._shift(v, dst, src, contact)
                    if gain > best_gain:
                        best_gain = gain
                        best_dst = dst
                if best_dst is not None:
                    self._shift(v, src, best_dst, contact)
                    improved = True
            if not improved:
                break
        self._set_assignment(self.assign)  # compact away emptied groups
        return sweeps


def detect_change_points(ws: WindowedSequence) -> tuple[int, ...]:
    """Online MDL segmentation of a windowed sequence."""
    graphs = ws.graphs
    spans = ws.spans
    state = _SegmentState.build([graphs[0]], np.zeros(ws.n, dtype=int))
    state.search()
    times: list[int] = []
    for p in range(2, len(graphs) + 1):
        g = graphs[p - 1]
        extended = state.clone()
        extended.add_graph(g)
        extended.search()
        fresh = _SegmentState.build([g], state.assign.copy())
        fresh.search()
        if extended.cost() <= state.cost() + fresh.cost():
            state = extended
        else:
            times.append(spans[p - 1][0])
            state = fresh
    return tuple(times)



# --------------------------------------------------------------------------
# damped path-sum link prediction


def katz_matrix(graph: StaticGraph, beta: float, truncate: bool = False) -> np.ndarray:
    """(I - beta*A)^{-1} - I, or with `truncate` the series' first 8 terms."""
    a = graph.adjacency()
    if truncate:
        return _truncated_matrix(a, beta, 8)
    m = np.eye(graph.n) - beta * a
    return np.linalg.solve(m, np.eye(graph.n)) - np.eye(graph.n)


def katz_scores(
    graph: StaticGraph, beta: float, truncate: bool = False
) -> list[tuple[tuple[int, int], float]]:
    s = katz_matrix(graph, beta, truncate)
    deg = graph.degrees()
    active = [v for v in range(graph.n) if deg[v] > 0]
    out: list[tuple[tuple[int, int], float]] = []
    edges = edge_set(graph)
    for ia, u in enumerate(active):
        for v in active[ia + 1 :]:
            if (u, v) in edges:
                continue
            out.append(((u, v), float(s[u, v])))
    out.sort(key=lambda item: (-item[1], item[0]))
    return out


def average_precision(
    ranking: Sequence[tuple[tuple[int, int], float]],
    positives: Iterable[tuple[int, int]],
) -> float:
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
    beta: float,
    truncate: bool = False,
) -> float | None:
    positives = edge_set(incoming) - edge_set(last)
    if not positives:
        return None
    ranking = katz_scores(last, beta, truncate)
    return average_precision(ranking, positives)


def ranked(graph: StaticGraph, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The package's candidate pairs and scores in rank order: pairs of the
    active vertices, an n-by-n matrix of linked pairs, a 3-key lexsort."""
    s = linkpred.katz_matrix(graph, beta)
    linked = np.zeros((graph.n, graph.n), dtype=bool)
    linked[graph.ends()] = True
    active = np.flatnonzero(graph.degrees())
    iu, iv = np.triu_indices(len(active), k=1)
    u, v = active[iu], active[iv]
    open_ = ~linked[u, v]
    u, v = u[open_], v[open_]
    score = s[u, v]
    order = np.lexsort((v, u, -score))
    return u[order], v[order], score[order]


def last_window(seq: GraphSequence, windowing: Windowing) -> StaticGraph:
    """The final windowed graph of `seq` under `windowing`, built alone."""
    if windowing.length != seq.length:
        raise ValueError(
            f"windowing over {windowing.length} steps applied to a {seq.length}-step sequence"
        )
    start = windowing.cuts[-1] if windowing.cuts else 0
    return union_graphs(seq.graphs[start:])


def linkpred_window_quality(seq: GraphSequence, size: int, beta: float) -> float:
    """Mean one-step-ahead AP, each history sliced and its last window built."""
    scores: list[float] = []
    for i in range(2, seq.length + 1):
        history = seq.slice_steps(1, i - 1)
        last = last_window(history, uniform_windowing(i - 1, min(size, i - 1)))
        s = graphwin.online_step_score(last, seq.step(i), beta)
        if s is not None:
            scores.append(s)
    return math.fsum(scores) / len(scores) if scores else 0.0


# --------------------------------------------------------------------------
# the online ledger weighed from the current step


class ScoreLedger:
    """Per-size (step, score) lists; every ranking recomputes each size's
    mean with weights alpha ** (now - step), and alpha = 1 takes the plain
    mean."""

    def __init__(self) -> None:
        self._entries: dict[int, list[tuple[int, float]]] = {}

    def append(self, size: int, step: int, score: float) -> None:
        self._entries.setdefault(size, []).append((step, score))

    def sizes(self) -> list[int]:
        return sorted(w for w, entries in self._entries.items() if entries)

    def mean(self, size: int, now: int, alpha: float) -> float:
        entries = self._entries[size]
        if alpha == 1.0:
            return math.fsum(s for _, s in entries) / len(entries)
        num = math.fsum(alpha ** (now - step) * s for step, s in entries)
        den = math.fsum(alpha ** (now - step) for step, _ in entries)
        return num / den

    def ranked(self, now: int, alpha: float) -> list[tuple[int, float]]:
        rows = [(w, self.mean(w, now, alpha)) for w in self.sizes()]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    def top_sizes(self, now: int, alpha: float, count: float) -> list[int]:
        rows = self.ranked(now, alpha)
        if math.isinf(count):
            return [w for w, _ in rows]
        return [w for w, _ in rows[: int(count)]]

    def argmax(self, now: int, alpha: float) -> int | None:
        rows = self.ranked(now, alpha)
        return rows[0][0] if rows else None


# --------------------------------------------------------------------------
# the online runner, one selector and one pair at a time


def adage_select(seq: GraphSequence, rel_tol: float, patience: int) -> int:
    """The adage baseline fitted from step 1 on every call."""
    previous: float | None = None
    run = 0
    seen: set[tuple[int, int]] = set()
    degree = [0] * seq.n
    for w, g in enumerate(seq.graphs, start=1):
        for u, v in edge_set(g) - seen:
            degree[u] += 1
            degree[v] += 1
        seen |= edge_set(g)
        degs = [d for d in degree if d >= 1]
        if not degs:
            previous, run = None, 0
            continue
        gamma = selectors.powerlaw_exponent(degs)
        if previous is not None:
            run = run + 1 if abs(gamma - previous) / previous < rel_tol else 0
            if run >= patience:
                return w
        previous = gamma
    return seq.length


def online_selector(
    name: str, n: int, params: EvalParams, train_span: tuple[int, int], seed: int
) -> OnlineWindowSelector:
    """The harness's online selector `name`, with a span table of its own."""
    rng = np.random.default_rng(seed)

    def adage(history: list[StaticGraph]) -> int:
        seq = GraphSequence(n, tuple(history))
        return adage_select(seq, params.adage_tol, params.adage_patience)

    policy, alpha, freeze_after = {
        "online": (None, 1.0, None),
        "online-weighted": (None, params.alpha, None),
        "training-only": (None, 1.0, train_span[1] - train_span[0] + 1),
        "hand-picked": (lambda history: 1, params.alpha, None),
        "random": (lambda history: random_windowing(len(history), rng), params.alpha, None),
        "adage": (adage, params.alpha, None),
    }[name]
    return OnlineWindowSelector(
        n,
        SpanScores(params.beta),
        min_tests=params.min_tests,
        top_count=params.top_count,
        alpha=alpha,
        freeze_after=freeze_after,
        policy=policy,
        first_step=train_span[0],
    )


def run_online(
    seq: GraphSequence, plan: IntervalPlan, selector: str, params: EvalParams, seed: int
) -> ExperimentReport:
    """One selector through each interval pair in turn; each test step is
    scored against the last window of the previous step's windowing."""
    cells = []
    for idx, (a, b) in enumerate(plan.pairs):
        train_span, test_span = plan.spans[a], plan.spans[b]
        stream = seq.slice_steps(train_span[0], test_span[1])
        train_length = train_span[1] - train_span[0] + 1
        pair_seed = derive_seed(seed, selector, "linkpred", idx)
        sel = online_selector(selector, seq.n, params, train_span, pair_seed)
        scores, scored, run_log, previous = [], [], [], None
        for local, g in enumerate(stream.graphs, start=1):
            if previous is not None and local > train_length:
                history = stream.slice_steps(1, local - 1)
                last = last_window(history, previous.windowing)
                ap = graphwin.online_step_score(last, g, params.beta)
                if ap is not None:
                    scores.append(ap)
                scored.append({"target_step": local, "chosen": previous.chosen, "score": ap})
            previous = sel.process(g)
            tested = [[w, s] for w, s in previous.tested]
            run_log.append({"step": local, "tested": tested, "chosen": previous.chosen})
        detail = {"scored": scored, "log": run_log}
        score = math.fsum(scores) / len(scores) if scores else None
        cells.append(CellResult(selector, "linkpred", idx, train_span, test_span, score, detail))
    means = [c.score for c in cells if c.score is not None]
    metadata = {
        "mode": "online",
        "selectors": [selector],
        "task": "linkpred",
        "seed": seed,
        "intervals": [list(s) for s in plan.spans],
    }
    aggregate = math.fsum(means) / len(means) if means else None
    return ExperimentReport(
        metadata, cells, {selector: {"linkpred": {"score": aggregate, "method": "mean"}}}
    )


# --------------------------------------------------------------------------
# offline cells and score curves, each scoring its own windowings


def choose_test_windowing(
    selector: str,
    train: GraphSequence,
    test: GraphSequence,
    *,
    task: str | None = None,
    train_cp: ChangePointLabels | None = None,
    attrs: VertexAttributes | None = None,
    params: EvalParams = EvalParams(),
    seed: int = 0,
) -> Windowing:
    """Supervised selection calls its task's quality function on every
    training size; the baselines are the package's."""
    if selector != "supervised":
        return harness._baseline_windowing(selector, test, params, seed)
    if task == "changepoint":
        selection = supervised_offline_select(
            train, lambda s, w: cp_window_quality(s, w, train_cp)
        )
    else:
        selection = supervised_offline_select(
            train,
            lambda s, w: attr_split_window_quality(s, w, attrs, params.theta, params.batch_size),
        )
    return uniform_windowing(test.length, min(selection.chosen, test.length))


def offline_cell(
    seq: GraphSequence,
    plan: IntervalPlan,
    task: str,
    attrs: VertexAttributes | None,
    cp_truth: ChangePointLabels | None,
    params: EvalParams,
    seed: int,
    cell: tuple[str, int],
) -> tuple[float | None, dict]:
    """One (selector, pair) cell: its (score, detail), from the package's
    segmentation and leave-out kernels."""
    selector, pair_index = cell
    a, b = plan.pairs[pair_index]
    train_span, test_span = plan.spans[a], plan.spans[b]
    train = seq.slice_steps(*train_span)
    test = seq.slice_steps(*test_span)
    train_cp = cp_truth.restrict(*train_span) if cp_truth is not None else None
    test_cp = cp_truth.restrict(*test_span) if cp_truth is not None else None
    windowing = choose_test_windowing(
        selector,
        train,
        test,
        task=task,
        train_cp=train_cp,
        attrs=attrs,
        params=params,
        seed=derive_seed(seed, selector, task, pair_index),
    )
    ws = apply_windowing(test, windowing)
    detail: dict = {"windowing": list(windowing.cuts), "window_sizes": list(windowing.sizes())}
    if task == "changepoint":
        detected = graphwin.detect_change_points(ws)
        score = cp_pr_auc(detected, test_cp.times, test.length)
        detail["detected"] = list(detected)
        detail["truth"] = list(test_cp.times)
        return score, detail
    pairs = graphwin.leave_out_scores(ws, attrs, params.batch_size, params.theta)
    _, positive = attrs.classes
    flags = [lab == positive for _, lab in pairs]
    score = roc_auc([s for s, _ in pairs], flags)
    detail["pairs"] = [[s, lab] for s, lab in pairs]
    return score, detail


def offline_aggregate(task: str, attrs: VertexAttributes | None, results: list) -> dict:
    """A selector's aggregate over its cells' (score, detail) results:
    the mean change-point score, or the AUC of the pooled attribute pairs."""
    if task == "changepoint":
        scores = [score for score, _ in results if score is not None]
        aggregate = math.fsum(scores) / len(scores) if scores else None
        return {"score": aggregate, "method": "mean"}
    _, positive = attrs.classes
    pooled = [(s, lab == positive) for _, detail in results for s, lab in detail["pairs"]]
    return {"score": roc_auc([s for s, _ in pooled], [b for _, b in pooled]), "method": "pooled"}


def curve_cell(
    seq: GraphSequence,
    plan: IntervalPlan,
    sizes: tuple[int, ...],
    attrs: VertexAttributes | None,
    cp_truth: ChangePointLabels | None,
    params: EvalParams,
    cell: tuple[str, int],
) -> tuple[float, ...]:
    """One (task, interval) curve: the task's quality at every size."""
    task, interval = cell
    span = plan.spans[interval]
    segment = seq.slice_steps(*span)
    if task == "linkpred":
        return tuple(linkpred_window_quality(segment, w, params.beta) for w in sizes)
    if task == "attribute":
        return tuple(
            attr_window_quality(segment, w, attrs, params.theta, params.batch_size)
            for w in sizes
        )
    local_truth = cp_truth.restrict(*span)
    return tuple(cp_window_quality(segment, w, local_truth) for w in sizes)


# --------------------------------------------------------------------------
# edge-stream ingest, one object per event


@dataclass(frozen=True)
class EdgeEvent:
    """One undirected contact between two vertices at an integer time stamp."""

    u: int
    v: int
    t: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise DataFormatError(f"self-loop event on vertex {self.u}")
        if self.t < 0:
            raise DataFormatError(f"negative timestamp {self.t}")


def _iter_lines(source: str | Path | Iterable[str] | io.TextIOBase) -> Iterable[str]:
    if isinstance(source, Path):
        with open(source, encoding="utf-8-sig") as fh:
            yield from fh
    elif isinstance(source, str):
        yield from source.splitlines()
    else:
        yield from source


def parse_edge_stream(
    source: str | Path | Iterable[str] | io.TextIOBase,
    delimiter: str = ",",
    on_self_loop: str = "error",
) -> tuple[tuple[EdgeEvent, ...], tuple[str, ...]]:
    """The events and label table of a `src,dst,timestamp` stream, one
    line and one `EdgeEvent` at a time."""
    if on_self_loop not in ("error", "drop"):
        raise ValueError("on_self_loop must be 'error' or 'drop'")
    labels: dict[str, int] = {}
    events: list[EdgeEvent] = []
    loop_count = 0
    first_loop_line = None
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            raise DataFormatError(
                f"line {lineno}: expected 3 fields separated by {delimiter!r}, got {len(parts)}"
            )
        src, dst, ts = (p.strip() for p in parts)
        if not src or not dst:
            raise DataFormatError(f"line {lineno}: empty vertex label")
        try:
            t = int(ts)
        except ValueError:
            raise DataFormatError(f"line {lineno}: timestamp {ts!r} is not an integer") from None
        if t < 0:
            raise DataFormatError(f"line {lineno}: negative timestamp {t}")
        for lab in (src, dst):
            if lab not in labels:
                labels[lab] = len(labels)
        if src == dst:
            loop_count += 1
            if first_loop_line is None:
                first_loop_line = lineno
            continue
        u, v = sorted((labels[src], labels[dst]))
        events.append(EdgeEvent(u, v, t))
    if loop_count and on_self_loop == "error":
        raise DataFormatError(
            f"{loop_count} self-loop event(s), first at line {first_loop_line}"
        )
    return tuple(events), tuple(labels)


def bin_initial(
    events: Sequence[EdgeEvent],
    resolution: int,
    n: int | None = None,
    origin: int | None = None,
) -> GraphSequence:
    """Bin events into a graph sequence, one Python set per step."""
    if not events:
        raise DataFormatError("cannot bin an empty event stream")
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    t_min = min(e.t for e in events)
    t_max = max(e.t for e in events)
    if origin is None:
        origin = t_min
    elif origin > t_min:
        raise ValueError(f"origin {origin} is later than the earliest event {t_min}")
    if n is None:
        n = 1 + max(max(e.u, e.v) for e in events)
    length = (t_max - origin) // resolution + 1
    bins: list[set[tuple[int, int]]] = [set() for _ in range(length)]
    for e in events:
        bins[(e.t - origin) // resolution].add((e.u, e.v))
    graphs = tuple(graph(n, b) for b in bins)
    return GraphSequence(n, graphs, resolution)
