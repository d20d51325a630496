"""Window-size selection: task-supervised (offline and online) and baselines.

The online selector keeps a ledger of one-step-ahead prediction scores per
candidate window size, retests sizes that are under-sampled or currently
top-ranked, and emits each step's prediction from the best size so far.
Offline selection scores every uniform size on training data with a
task-quality callable. Baselines pick sizes from structural signals alone:
edge-count periodicity, neighbourhood overlap saturation, spectral-entropy
redundancy, or degree-exponent convergence.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._numeric import bisect, zeta
from .attrpred import KernelParams, leave_out_scores, pairs_auc
from .changepoint import cp_pr_auc, detect_change_points
from .linkpred import KatzParams, ScoredPairs, katz_scores, online_step_score
from .temporal import ChangePointLabels, GraphSequence, StaticGraph, VertexAttributes, union_graphs
from .windows import Windowing, last_window, uniform_windowing, windowed_at

__all__ = [
    "SelectorParams",
    "SpanScores",
    "ScoreLedger",
    "StepRecord",
    "OnlineWindowSelector",
    "OfflineSelection",
    "supervised_offline_select",
    "linkpred_window_quality",
    "attr_window_quality",
    "attr_split_window_quality",
    "cp_window_quality",
    "fourier_select",
    "jaccard_select",
    "entropy_select",
    "adage_select",
    "AdagePolicy",
    "random_windowing",
    "graph_entropy",
    "powerlaw_exponent",
]

log = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# Online supervised selection


@dataclass(frozen=True)
class SelectorParams:
    """Online-selector knobs.

    min_tests: retest any size scored fewer than this many times (inf = always).
    top_count: how many of the best-scoring sizes to retest each step (inf = all).
    alpha: per-step decay of a size's older scores in its ledger mean, each
        weighed by alpha ** (steps behind that size's newest score); 1 = plain
        mean.
    """

    min_tests: float = 10.0
    top_count: float = 10.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not (self.min_tests >= 1):
            raise ValueError("min_tests must be >= 1")
        if not (self.top_count >= 1):
            raise ValueError("top_count must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


class SpanScores:
    """One-step-ahead link-prediction scores by absolute step span.

    Entry (a, b) is `online_step_score` of the union of steps a..b against
    step b + 1 (None where that step adds no new link). A table belongs to
    one sequence, whose step numbers key it, and one `KatzParams`, and holds
    these values only, never a graph: the readers of a stage share one.
    """

    def __init__(self, katz: KatzParams = KatzParams()) -> None:
        self.katz = katz
        self.values: dict[tuple[int, int], float | None] = {}

    def score(
        self, steps: Sequence[StaticGraph], first_step: int, a: int, b: int
    ) -> float | None:
        """Entry (a, b), scored from `steps` when missing: `steps[k]` is step
        `first_step + k`, and they run through step b + 1."""
        if (a, b) not in self.values:
            window = union_graphs(steps[a - first_step : b - first_step + 1])
            self.values[a, b] = online_step_score(window, steps[b - first_step + 1], self.katz)
        return self.values[a, b]


class ScoreLedger:
    """Per-size lists of (step, score) pairs, ranked by a decayed mean.

    A size's entry at step s weighs `alpha ** (newest - s)`, where `newest`
    is the step of that size's newest entry; entries arrive in step order.
    Only relative weights enter a mean, so in exact arithmetic it equals the
    mean weighed from any later clock, and it changes only when its size
    gets a new entry: it is computed then, once, and kept. The newest entry
    weighs 1, so no stream is long enough to underflow every weight. At
    alpha = 1 it is the plain mean.
    """

    def __init__(self, alpha: float) -> None:
        self._alpha = alpha
        self._entries: dict[int, list[tuple[int, float]]] = {}
        self._means: dict[int, float] = {}

    def append(self, size: int, step: int, score: float) -> None:
        """Record the score of `size` at `step`; every append is one more entry."""
        entries = self._entries.setdefault(size, [])
        entries.append((step, score))
        num = math.fsum(self._alpha ** (step - s) * x for s, x in entries)
        den = math.fsum(self._alpha ** (step - s) for s, _ in entries)
        self._means[size] = num / den

    def count(self, size: int) -> int:
        return len(self._entries.get(size, ()))

    def ranked(self) -> list[tuple[int, float]]:
        """(size, mean) best-first; ties prefer the smaller size."""
        return sorted(self._means.items(), key=lambda r: (-r[1], r[0]))

    def top_sizes(self, count: float) -> list[int]:
        rows = self.ranked()
        if math.isinf(count):
            return [w for w, _ in rows]
        return [w for w, _ in rows[: int(count)]]

    def argmax(self) -> int | None:
        rows = self.ranked()
        return rows[0][0] if rows else None

    def snapshot(self) -> dict[int, tuple[tuple[int, float], ...]]:
        return {w: tuple(entries) for w, entries in self._entries.items()}


@dataclass(frozen=True)
class StepRecord:
    """What an online selector did at one step.

    tested: (size, score-or-None) for each size tried against the incoming
        graph (None = no new links at that size, nothing appended).
    chosen: the uniform size behind `windowing`, or None when a policy
        returned a windowing (the random baseline), even a uniform one.
    last_graph: final window of the emitted windowing; the next step's new
        links are measured against it.
    prediction: read-only view of the memoised Katz ranking of `last_graph`.
    """

    step: int
    tested: tuple[tuple[int, float | None], ...]
    chosen: int | None
    windowing: Windowing
    last_graph: StaticGraph
    prediction: ScoredPairs


# history (incoming graph included) -> a uniform size or a windowing
Policy = Callable[[GraphSequence], "int | Windowing"]


class OnlineWindowSelector:
    """Online size selection, one step per incoming graph.

    Without a `policy` the selection is ledger-driven. On each incoming
    graph, every size seen fewer than `min_tests` times and the current
    `top_count` best sizes are retested by ranking pairs of the history's
    last window at that size with `katz`; scores append to the ledger
    (steps without new links at a size append nothing). A test reads its
    score from `spans`, a table of `katz` on the ledger clock that scores
    (and builds the window) only on a miss; selectors on one stream may be
    given one table to share. The emitted prediction uses the size with the
    best (decayed) ledger mean, smallest size on ties, size 1 before any
    score exists. `freeze_after=k` stops all testing after step k for
    training-only selection: the ledger then stops changing, and so the
    size chosen at step k stays pinned.

    A `policy` replaces the ledger and nothing is tested. It is called on
    the history, incoming graph included, and returns either a uniform size,
    which is clamped to the history and reported as `chosen`, or a
    `Windowing`, which is used as it is and reported as `chosen=None`.

    `first_step` numbers the first graph on the ledger clock, so the keys
    of `spans` are absolute steps of the stream. Each selector starts from
    an empty ledger.
    """

    def __init__(
        self,
        n: int,
        params: SelectorParams = SelectorParams(),
        freeze_after: int | None = None,
        *,
        katz: KatzParams = KatzParams(),
        policy: Policy | None = None,
        first_step: int = 1,
    ) -> None:
        self.n = n
        self.params = params
        self.freeze_after = freeze_after
        self.katz = katz
        self.policy = policy
        self.first_step = first_step
        self.spans = SpanScores(katz)
        self.history: list[StaticGraph] = []
        self.ledger = ScoreLedger(params.alpha)

    def process(self, incoming: StaticGraph) -> StepRecord:
        self.history.append(incoming)
        i = len(self.history)
        now = self.first_step + i - 1
        tested: list[tuple[int, float | None]] = []
        ledger_driven = self.policy is None
        testing = ledger_driven and (self.freeze_after is None or i <= self.freeze_after)
        if i >= 2 and testing:
            fresh = {w for w in range(1, i) if self.ledger.count(w) < self.params.min_tests}
            best = set(self.ledger.top_sizes(self.params.top_count))
            # the history before `incoming` ends at step `end`
            end = self.first_step + i - 2
            for w in sorted(fresh | best):
                score = self.spans.score(self.history, self.first_step, end - (i - 2) % w, end)
                if score is not None:
                    self.ledger.append(w, now, score)
                tested.append((w, score))
        full = GraphSequence(self.n, tuple(self.history))
        if ledger_driven:
            choice = self.ledger.argmax() or 1
        else:
            choice = self.policy(full)
        if isinstance(choice, Windowing):
            chosen, windowing = None, choice
        else:
            # a policy may return a size beyond the history
            chosen = min(choice, i)
            windowing = uniform_windowing(i, chosen)
        last = last_window(full, windowing)
        return StepRecord(
            step=i,
            tested=tuple(tested),
            chosen=chosen,
            windowing=windowing,
            last_graph=last,
            prediction=katz_scores(last, self.katz),
        )


# --------------------------------------------------------------------------
# Offline supervised selection

QualityFn = Callable[[GraphSequence, int], float]


@dataclass(frozen=True)
class OfflineSelection:
    """Chosen size plus the full score table (and any skipped sizes)."""

    chosen: int
    scores: Mapping[int, float]
    failures: Mapping[int, str]


def supervised_offline_select(seq: GraphSequence, quality: QualityFn) -> OfflineSelection:
    """Evaluate every uniform size on training data; best score wins, ties to
    the smallest size. Sizes whose quality call fails are skipped and logged."""
    scores: dict[int, float] = {}
    failures: dict[int, str] = {}
    for w in range(1, seq.length + 1):
        try:
            scores[w] = quality(seq, w)
        except ValueError as exc:
            failures[w] = str(exc)
            log.info("size %d skipped: %s", w, exc)
    if not scores:
        raise ValueError("every candidate window size failed")
    chosen = min(scores, key=lambda w: (-scores[w], w))
    return OfflineSelection(chosen, scores, failures)


def linkpred_window_quality(
    seq: GraphSequence,
    size: int,
    params: KatzParams = KatzParams(),
    spans: SpanScores | None = None,
    first_step: int = 1,
) -> float:
    """Mean one-step-ahead AP inside `seq` with histories windowed at `size`.

    Histories shorter than `size` collapse to a single window. Steps with no
    new links are skipped; if no step is scoreable the quality is 0. Scores
    are read from `spans`, a table of `params` on whose clock `seq` starts
    at `first_step` (a table of its own by default).
    """
    if size < 1:
        raise ValueError(f"window size {size} must be >= 1")
    spans = SpanScores(params) if spans is None else spans
    scores: list[float] = []
    for end in range(first_step, first_step + seq.length - 1):
        s = spans.score(seq.graphs, first_step, end - (end - first_step) % size, end)
        if s is not None:
            scores.append(s)
    if not scores:
        log.info("no scoreable steps at size %d; quality 0", size)
        return 0.0
    return math.fsum(scores) / len(scores)


def cp_window_quality(
    seq: GraphSequence,
    size: int,
    truth: ChangePointLabels,
) -> float:
    """Detection quality (distance-curve PR-AUC) at one uniform size."""
    result = detect_change_points(windowed_at(seq, size))
    return cp_pr_auc(result.times, truth.times, seq.length)


def attr_window_quality(
    seq: GraphSequence,
    size: int,
    attrs: VertexAttributes,
    kernel: KernelParams = KernelParams(),
    batch_size: int | None = None,
) -> float:
    """Leave-out attribute AUC with the whole segment windowed at `size`."""
    return pairs_auc(leave_out_scores(windowed_at(seq, size), attrs, batch_size, kernel), attrs)


def attr_split_window_quality(
    seq: GraphSequence,
    size: int,
    attrs: VertexAttributes,
    kernel: KernelParams = KernelParams(),
    batch_size: int | None = None,
) -> float:
    """Attribute quality with fitting and scoring evidence decoupled in time.

    The training span is halved; models fit on the first half windowed at
    `size` while predictions draw their graph evidence from the second half
    windowed at `size`. Sizes exceeding either half are rejected (the caller
    skips them).
    """
    if seq.length < 2:
        raise ValueError("attribute selection needs at least 2 training steps")
    half = math.ceil(seq.length / 2)
    first = seq.slice_steps(1, half)
    second = seq.slice_steps(half + 1, seq.length)
    if size > first.length or size > second.length:
        raise ValueError(f"size {size} exceeds a training half, cannot decouple")
    ws_fit = windowed_at(first, size)
    ws_eval = windowed_at(second, size)
    return pairs_auc(leave_out_scores(ws_fit, attrs, batch_size, kernel, eval_ws=ws_eval), attrs)


# --------------------------------------------------------------------------
# Structural baselines


def fourier_select(seq: GraphSequence) -> int:
    """Dominant edge-count period via a Hann-tapered DFT.

    The per-step edge-count series is mean-centred (so the taper's DC lobe
    cannot masquerade as a period), tapered, and transformed; each DFT index
    k in [1, T/2] proposes the size round(T/k), scored by its amplitude. The
    best-scoring size wins (smallest on ties); an all-zero spectrum falls
    back to size 1.
    """
    if seq.length < 2:
        raise ValueError("period detection needs at least 2 steps")
    counts = np.array([g.edge_count for g in seq.graphs], dtype=float)
    centred = counts - counts.mean()
    tapered = centred * np.hanning(seq.length)
    amplitudes = np.abs(np.fft.rfft(tapered))
    tol = 1e-12 * max(1.0, float(np.abs(tapered).sum()))
    scores: dict[int, float] = {}
    for k in range(1, seq.length // 2 + 1):
        size = int(round(seq.length / k))
        if size < 2:
            continue
        amp = float(amplitudes[k])
        if amp > scores.get(size, 0.0):
            scores[size] = amp
    if not scores or max(scores.values()) <= tol:
        return 1
    return min(scores, key=lambda w: (-scores[w], w))


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def jaccard_select(seq: GraphSequence, tau: float = 0.05) -> int:
    """Smallest size where consecutive-window overlap stops rising.

    For each candidate size the mean Jaccard similarity of consecutive
    windowed graphs is computed; the first size whose forward increase falls
    to at most `tau` of the total rise is selected (the last candidate if
    none qualifies).
    """
    if seq.length < 2:
        raise ValueError("overlap scanning needs at least 2 steps")
    candidates = list(range(1, seq.length))  # >= 2 windows each
    means: list[float] = []
    for w in candidates:
        ws = windowed_at(seq, w)
        sims = [
            _jaccard(ws.graphs[i].edges, ws.graphs[i + 1].edges)
            for i in range(ws.window_count - 1)
        ]
        means.append(math.fsum(sims) / len(sims))
    rise = max(means) - means[0]
    threshold = tau * rise
    for idx in range(len(candidates) - 1):
        if means[idx + 1] - means[idx] <= threshold:
            return candidates[idx]
    return candidates[-1]


def graph_entropy(g: StaticGraph) -> float:
    """Von Neumann entropy of the trace-rescaled Laplacian; eigenvalues below
    1e-12 contribute zero, and an empty graph has entropy 0."""
    if g.edge_count == 0:
        return 0.0
    a = g.adjacency()
    lap = np.diag(a.sum(axis=1)) - a
    lap = lap / np.trace(lap)
    eigs = np.linalg.eigvalsh(lap)
    return float(-sum(lam * math.log(lam) for lam in eigs if lam > 1e-12))


def entropy_select(seq: GraphSequence) -> Windowing:
    """Merge adjacent windows while spectral redundancy allows.

    Quality = mean per-window entropy minus the whole-union entropy. The
    adjacent merge that lowers quality most is applied repeatedly; merges
    that leave it unchanged (fully redundant neighbours, e.g. duplicates)
    are also taken, and the search stops when every merge would raise it.
    Returns a (generally non-uniform) windowing.
    """
    edge_sets: list[frozenset] = [g.edges for g in seq.graphs]
    entropies: list[float] = [graph_entropy(g) for g in seq.graphs]
    bounds: list[int] = list(range(1, seq.length + 1))  # segment end indices
    n = seq.n

    def merged_entropy(i: int) -> float:
        return graph_entropy(StaticGraph(n, edge_sets[i] | edge_sets[i + 1]))

    candidate: list[float] = [merged_entropy(i) for i in range(len(edge_sets) - 1)]
    while len(edge_sets) > 1:
        m = len(edge_sets)
        mean_now = math.fsum(entropies) / m
        deltas = [
            (math.fsum(entropies) - entropies[i] - entropies[i + 1] + candidate[i]) / (m - 1)
            - mean_now
            for i in range(m - 1)
        ]
        best = min(range(m - 1), key=lambda i: (deltas[i], i))
        if deltas[best] > 1e-12:
            break
        edge_sets[best] = edge_sets[best] | edge_sets[best + 1]
        entropies[best] = candidate[best]
        del edge_sets[best + 1], entropies[best + 1], bounds[best]
        del candidate[best]
        if best < len(candidate):
            candidate[best] = merged_entropy(best)
        if best > 0:
            candidate[best - 1] = merged_entropy(best - 1)
    return Windowing(seq.length, tuple(bounds[:-1]))


def powerlaw_exponent(degrees: Sequence[int]) -> float:
    """Discrete power-law MLE exponent with minimum value 1.

    Solves zeta'(g)/zeta(g) = -mean(log x) by bisection in [1.01, 20], and
    clamps at those ends. A degenerate sample (all values 1) pushes the
    likelihood maximum to infinity; the exponent is clamped at 20.
    """
    lo, hi = 1.01, 20.0
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


def adage_select(seq: GraphSequence, rel_tol: float = 0.01, patience: int = 3) -> int:
    """Smallest size where the opening window's degree exponent has converged.

    The first window's union graph grows with the candidate size; once the
    fitted power-law exponent moves by less than `rel_tol` (relatively) for
    `patience` consecutive increments, that size is returned. Sizes whose
    degree sequence is all zero are skipped and break the run. Returns the
    full length if convergence never happens.
    """
    return AdagePolicy(seq.n, rel_tol, patience)(seq)


class AdagePolicy:
    """`adage_select` as an online policy: each call's history must extend
    the previous call's. The opening window's degrees, the last exponent and
    the run length carry over, so each step is fitted once."""

    def __init__(self, n: int, rel_tol: float = 0.01, patience: int = 3) -> None:
        self.rel_tol, self.patience = rel_tol, patience
        self.seen: set[tuple[int, int]] = set()  # the opening window's edges
        self.degree = [0] * n
        self.previous: float | None = None
        self.run = self.size = 0  # size: steps in the opening window
        self.converged: int | None = None

    def __call__(self, history: GraphSequence) -> int:
        while self.converged is None and self.size < history.length:
            g = history.graphs[self.size]
            self.size += 1
            for u, v in g.edges - self.seen:
                self.degree[u] += 1
                self.degree[v] += 1
            self.seen |= g.edges
            degs = [d for d in self.degree if d >= 1]
            if not degs:
                self.previous, self.run = None, 0
                log.info("size %d skipped: degree sequence all zero", self.size)
                continue
            gamma = powerlaw_exponent(degs)
            if self.previous is not None:
                close = abs(gamma - self.previous) / self.previous < self.rel_tol
                self.run = self.run + 1 if close else 0
                if self.run >= self.patience:
                    self.converged = self.size
            self.previous = gamma
        return history.length if self.converged is None else self.converged


def random_windowing(length: int, rng: int | np.random.Generator) -> Windowing:
    """Random segmentation: segment lengths drawn left to right, each uniform
    on [1, steps remaining]. Deterministic for a given seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    cuts: list[int] = []
    pos = 0
    while pos < length:
        pos += int(gen.integers(1, length - pos, endpoint=True))
        if pos < length:
            cuts.append(pos)
    return Windowing(length, tuple(cuts))

