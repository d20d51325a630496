"""Shared helpers for the test suite: graph building, and numpy's BLAS thread count."""
from __future__ import annotations

import ctypes
import multiprocessing
from contextlib import contextmanager

import numpy as np
import pytest

from graphwin import GraphSequence, StaticGraph


def graph(n: int, edges) -> StaticGraph:
    return StaticGraph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))


def seq_of(n: int, *edge_lists, resolution: int = 1) -> GraphSequence:
    return GraphSequence(n, tuple(graph(n, e) for e in edge_lists), resolution)


def random_graph(rng: np.random.Generator, n: int, p: float) -> StaticGraph:
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }
    return StaticGraph(n, frozenset(edges))


def random_sequence(rng: np.random.Generator, n: int, length: int, p: float) -> GraphSequence:
    return GraphSequence(n, tuple(random_graph(rng, n, p) for _ in range(length)), 1)


def clique_edges(vertices) -> set[tuple[int, int]]:
    vs = sorted(vertices)
    return {(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]}


def _blas(name: str):
    """Function `name` of the OpenBLAS that numpy wheels bundle
    (`scipy-openblas64`); AttributeError or OSError on other builds."""
    return getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), f"scipy_openblas_{name}64_")


def blas_threads(_: object = None) -> int:
    """The thread count of numpy's BLAS in the calling process."""
    getter = _blas("get_num_threads")
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


@contextmanager
def parent_blas_threads(count: int):
    """Run numpy's BLAS on `count` threads in this process, and restore its
    count afterwards. Skips the test where the thread setter is missing, or
    where pool workers are not forked and so cannot inherit the setting."""
    try:
        before = blas_threads()
        setter = _blas("set_num_threads")
    except (AttributeError, OSError):
        pytest.skip("numpy's BLAS has no scipy-openblas64 thread setter")
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers are not forked, so a runtime BLAS setting does not reach them")
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(count)
    try:
        yield
    finally:
        setter(before)
