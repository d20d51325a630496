"""Segmentations of graph sequences into contiguous windows.

A windowing of a length-T sequence is a set of cut indices; segment i unions
the step graphs it covers into one windowed graph. Windowings are immutable;
reports record a windowing as the list of its cut indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .temporal import GraphSequence, StaticGraph, union_graphs

__all__ = [
    "Windowing",
    "WindowedSequence",
    "uniform_windowing",
    "apply_windowing",
    "windowed_at",
]


@dataclass(frozen=True)
class Windowing:
    """Cut indices `cuts` (strictly increasing, each in [1, length-1]) over a
    length-`length` sequence. A cut at k ends a segment after step k, so the
    segments are [1..k1], [k1+1..k2], ..., [k_last+1..length]."""

    length: int
    cuts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("windowing length must be >= 1")
        prev = 0
        for k in self.cuts:
            if not (1 <= k <= self.length - 1):
                raise ValueError(f"cut {k} outside [1, {self.length - 1}]")
            if k <= prev:
                raise ValueError("cuts must be strictly increasing")
            prev = k

    def spans(self) -> tuple[tuple[int, int], ...]:
        """1-based inclusive (start, end) of each segment."""
        bounds = (0,) + self.cuts + (self.length,)
        return tuple((a + 1, b) for a, b in zip(bounds, bounds[1:]))

    def sizes(self) -> tuple[int, ...]:
        return tuple(end - start + 1 for start, end in self.spans())


def uniform_windowing(length: int, size: int) -> Windowing:
    """Segments of `size` steps each; the final segment may be shorter."""
    if not 1 <= size <= length:
        raise ValueError(f"window size {size} outside [1, {length}]")
    cuts = tuple(range(size, length, size))
    return Windowing(length, cuts)


@dataclass(frozen=True)
class WindowedSequence:
    """The windowed graphs of a source sequence under a windowing.

    `graphs[i]` is the edge-set union of the source steps in segment i;
    `spans[i]` is that segment's 1-based inclusive step span in the source.
    """

    source: GraphSequence
    windowing: Windowing
    graphs: tuple[StaticGraph, ...]
    spans: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def window_count(self) -> int:
        return len(self.graphs)

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each windowed graph's neighbour lists, built once per sequence."""
        return tuple(g.neighbor_lists() for g in self.graphs)


def apply_windowing(seq: GraphSequence, windowing: Windowing) -> WindowedSequence:
    """Union each segment of `seq` into one windowed graph."""
    if windowing.length != seq.length:
        raise ValueError(
            f"windowing over {windowing.length} steps applied to a {seq.length}-step sequence"
        )
    spans = windowing.spans()
    graphs = tuple(
        union_graphs(seq.graphs[start - 1 : end]) for start, end in spans
    )
    return WindowedSequence(seq, windowing, graphs, spans)


def windowed_at(seq: GraphSequence, size: int) -> WindowedSequence:
    """Uniform windowing of `seq` at the given window size."""
    return apply_windowing(seq, uniform_windowing(seq.length, size))

