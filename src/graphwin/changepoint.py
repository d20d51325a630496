"""Change-point detection over windowed graphs by MDL segmentation.

Each segment of consecutive windowed graphs is encoded with a two-part code:
a vertex partition (universal integer codes for the group count and sizes)
plus, for every group pair, the bits to transmit that block's cells across
the whole segment at its aggregated edge density. A new window either extends
the running segment (partition re-searched locally from the current one) or
closes it and starts fresh; a fresh start is a detected change point.

The local search scores a whole sweep in one vectorised pass: every
remaining vertex's cost after a move to every target group, from the
vertex's contact counts per group. Each candidate cost adds the same float
terms in the same order as a full `cost()` after the move, so the moves, the
tie-breaks and the reported costs are those of trying each move in turn.
A pass stops at the first vertex with an improving move, which is applied
before the sweep goes on from the next vertex; most sweeps move nothing.
"""
from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .temporal import StaticGraph
from .windows import WindowedSequence

__all__ = [
    "log_star",
    "binary_entropy",
    "DetectionResult",
    "detect_change_points",
    "cp_pr_auc",
]

# Normalising constant of the universal code for positive integers, base 2.
_LOG_STAR_C = math.log2(2.865064)

# A move must beat the incumbent by this much to count as an improvement,
# so float jitter cannot cycle the local search.
_IMPROVEMENT_EPS = 1e-9

_MAX_SWEEPS = 60

log = logging.getLogger(__name__)


def log_star(x: int) -> float:
    """Universal code length (bits) for a positive integer."""
    if x < 1:
        raise ValueError("log_star is defined for integers >= 1")
    total = _LOG_STAR_C
    v = math.log2(x)
    while v > 0:
        total += v
        v = math.log2(v) if v > 1 else 0.0
    return total


def binary_entropy(p: float) -> float:
    """H(p) in bits, with H(0) = H(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _block_bits(cells: int, ones: int) -> float:
    # Cost of one block spanning the segment: a count header plus the cells
    # at the block's aggregated density.
    if cells == 0:
        return 0.0
    return math.log2(cells + 1) + cells * binary_entropy(ones / cells)


class _SegmentState:
    """Segment encoding for the local search.

    Holds the segment's aggregated multigraph as a dense symmetric n x n
    contact-count matrix, the group assignment, group sizes, and the
    symmetric block-count matrix (diagonal = within-group edge totals).
    """

    def __init__(self, graphs: Sequence[StaticGraph], assign: np.ndarray) -> None:
        self.n = graphs[0].n
        self.graph_count = 0
        self.contacts = np.zeros((self.n, self.n), dtype=np.int64)
        for g in graphs:
            self._add_contacts(g)
        self._set_assignment(assign)

    def _add_contacts(self, g: StaticGraph) -> None:
        if g.n != self.n:
            raise ValueError("graph vertex count mismatch")
        self.graph_count += 1
        if g.edges:
            u, v = np.array(list(g.edges)).T
            self.contacts[u, v] += 1
            self.contacts[v, u] += 1

    def _set_assignment(self, assign: np.ndarray) -> None:
        # Compact group indices, preserving first-appearance order.
        values, first = np.unique(assign, return_index=True)
        remap = np.empty(int(values[-1]) + 1, dtype=int)
        remap[values[np.argsort(first)]] = np.arange(len(values))
        self.assign = remap[assign]
        self.sizes: list[int] = np.bincount(self.assign).tolist()
        onehot = np.zeros((self.n, len(values)), dtype=np.int64)
        onehot[np.arange(self.n), self.assign] = 1
        self.blocks = onehot.T @ self.contacts @ onehot
        self.blocks[np.diag_indices_from(self.blocks)] //= 2  # each pair seen twice

    def clone(self) -> "_SegmentState":
        st = copy.copy(self)
        st.contacts = self.contacts.copy()
        st.assign = self.assign.copy()
        st.sizes = list(self.sizes)
        st.blocks = self.blocks.copy()
        return st

    def add_graph(self, g: StaticGraph) -> None:
        self._add_contacts(g)
        self._set_assignment(self.assign)

    def _shift(self, v: int, src: int, dst: int, contact: np.ndarray) -> None:
        # Re-home v's block contributions from group src to group dst. The
        # contact vector depends only on other vertices, so the same vector
        # reverses the move.
        b = self.blocks
        cross = b[src, dst] + contact[src] - contact[dst]
        b[src] -= contact
        b[dst] += contact
        b[src, dst] = cross
        b[:, src] = b[src]
        b[:, dst] = b[dst]
        self.sizes[src] -= 1
        self.sizes[dst] += 1
        self.assign[v] = dst

    def cost(self) -> float:
        sizes = self.sizes
        blocks = self.blocks.tolist()
        live = [g for g in range(len(sizes)) if sizes[g] > 0]
        seg_len = self.graph_count
        total = log_star(len(live))
        for a in live:
            total += log_star(sizes[a])
        for ia, a in enumerate(live):
            total += _block_bits(sizes[a] * (sizes[a] - 1) // 2 * seg_len, blocks[a][a])
            for b in live[ia + 1 :]:
                total += _block_bits(sizes[a] * sizes[b] * seg_len, blocks[a][b])
        return total

    def _ensure_spare(self) -> int:
        """Index of an empty group slot, appending one if needed."""
        for g, s in enumerate(self.sizes):
            if s == 0:
                return g
        k = len(self.sizes)
        self.sizes.append(0)
        self.blocks = np.pad(self.blocks, ((0, 1), (0, 1)))
        return k

    def search(self) -> int:
        """Greedy local moves to a cost minimum; returns the sweeps run.

        Deterministic: vertices are swept in id order; each considers moving
        to every other live group (in index order) and, unless it is alone,
        to a fresh singleton (the spare slot, last), and takes the best move
        that improves the cost by more than `_IMPROVEMENT_EPS`, the first
        target on a tie. A sweep scores all vertices from the current one on
        in one vectorised pass, each gain bit-identical to `cost()` before
        the move minus `cost()` after it; it applies the first vertex's move
        and scores again from the next vertex. Stopping at the sweep cap
        before a sweep without moves is logged.
        """
        for sweeps in range(1, _MAX_SWEEPS + 1):
            improved = False
            lo = 0
            while lo < self.n and (move := self._first_move(lo)) is not None:
                v, dst, contact = move
                self._shift(v, int(self.assign[v]), dst, contact)
                improved = True
                lo = v + 1
            if not improved:
                break
        else:
            log.warning(
                "MDL search on %d vertices stopped at the %d-sweep cap before converging",
                self.n,
                _MAX_SWEEPS,
            )
        self._set_assignment(self.assign)  # compact away emptied groups
        return sweeps

    def _first_move(self, lo: int) -> tuple[int, int, np.ndarray] | None:
        """The first vertex v >= lo with an improving move, its best target
        and its contact counts per group; None if there is none. All gains
        come from one cost array per (source group, target) pair."""
        spare = self._ensure_spare()
        live = [g for g, size in enumerate(self.sizes) if size > 0]
        targets = live + [spare]
        onehot = np.zeros((self.n, len(self.sizes)), dtype=np.int64)
        onehot[np.arange(self.n), self.assign] = 1
        contacts = self.contacts[lo:] @ onehot
        srcs = self.assign[lo:]
        base = self.cost()
        gains = np.full((len(srcs), len(targets)), -np.inf)
        for src in live:
            rows = np.flatnonzero(srcs == src)
            if rows.size == 0:
                continue
            for col, dst in enumerate(targets):
                # a lone vertex moving to a new group is a no-op
                if dst != src and (dst != spare or self.sizes[src] > 1):
                    gains[rows, col] = base - self._move_costs(src, dst, contacts[rows])
        hits = np.flatnonzero(gains.max(axis=1) > _IMPROVEMENT_EPS)
        if hits.size == 0:
            return None
        i = int(hits[0])
        return lo + i, targets[int(gains[i].argmax())], contacts[i]  # first target on a tie

    def _move_costs(self, src: int, dst: int, contact: np.ndarray) -> np.ndarray:
        """cost() after moving each vertex of group src to group dst, given
        each one's contact counts per group (one row each).

        The terms are cost()'s, added in its order: the code of the group
        count and sizes as one float, then each block term across all rows.
        """
        sizes = list(self.sizes)
        sizes[src] -= 1
        sizes[dst] += 1
        live = [g for g, size in enumerate(sizes) if size > 0]
        total = log_star(len(live))
        for a in live:
            total += log_star(sizes[a])
        # rows src and dst of the block counts after each move, as in _shift
        moved = {src: self.blocks[src] - contact, dst: self.blocks[dst] + contact}
        cross = self.blocks[src, dst] + contact[:, src] - contact[:, dst]
        moved[src][:, dst] = cross
        moved[dst][:, src] = cross
        out = np.full(len(contact), total)
        for ia, a in enumerate(live):
            for b in live[ia:]:
                cells = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
                cells *= self.graph_count
                if a in moved:
                    out += _bits(cells, moved[a][:, b])
                elif b in moved:
                    out += _bits(cells, moved[b][:, a])
                else:
                    out += _block_bits(cells, int(self.blocks[a, b]))
        return out


def _bits(cells: int, ones: np.ndarray) -> np.ndarray:
    """`_block_bits` of each count in ones, one call per distinct count."""
    low = int(ones.min())
    offsets = ones - low
    counts = np.bincount(offsets)
    table = np.zeros(len(counts))
    seen = np.flatnonzero(counts)
    table[seen] = [_block_bits(cells, low + x) for x in seen.tolist()]
    return table[offsets]


@dataclass(frozen=True)
class DetectionResult:
    """Detected change points (1-based initial-resolution step indices) plus
    the window index at which each new segment began."""

    times: tuple[int, ...]
    segment_starts: tuple[int, ...]


def detect_change_points(ws: WindowedSequence) -> DetectionResult:
    """Online MDL segmentation of a windowed sequence.

    For each incoming window the encoder compares extending the current
    segment (re-searching the partition from the current one) against closing
    it and opening a fresh segment seeded from the same partition. Ties prefer
    extension. A fresh segment at window p reports a change point at that
    window's first underlying step index.
    """
    graphs = ws.graphs
    spans = ws.spans
    state = _SegmentState([graphs[0]], np.zeros(ws.n, dtype=int))
    state.search()
    times: list[int] = []
    starts: list[int] = [1]
    for p in range(2, len(graphs) + 1):
        g = graphs[p - 1]
        extended = state.clone()
        extended.add_graph(g)
        extended.search()
        fresh = _SegmentState([g], state.assign)
        fresh.search()
        if extended.cost() <= state.cost() + fresh.cost():
            state = extended
        else:
            times.append(spans[p - 1][0])
            starts.append(p)
            state = fresh
    return DetectionResult(tuple(times), tuple(starts))


def cp_pr_auc(
    proposed: Sequence[int],
    truth: Sequence[int],
    length: int,
) -> float:
    """Area under the distance-thresholded precision/recall curve.

    At tolerance d, a proposed point is precise if some true point lies within
    d, and a true point is recalled if some proposed point lies within d. The
    curve is integrated exactly over d in [0, length] at its breakpoints
    (every observed proposed/truth distance, plus 0 and length) and normalised
    by length. Empty proposed or truth sets score 0.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    ell, k = len(proposed), len(truth)
    if ell == 0 or k == 0:
        return 0.0
    prop_min = [min(abs(s - t) for t in truth) for s in proposed]
    true_min = [min(abs(s - t) for s in proposed) for t in truth]
    breakpoints = sorted({abs(s - t) for s in proposed for t in truth} | {0, length})
    area = 0.0
    for d, d_next in zip(breakpoints, breakpoints[1:]):
        precision = sum(1 for x in prop_min if x <= d) / ell
        recall = sum(1 for x in true_min if x <= d) / k
        area += (d_next - d) * precision * recall
    return area / length
