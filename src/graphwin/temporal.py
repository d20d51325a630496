"""Edge-stream ingestion, initial binning, attributes, and on-disk archives.

A raw dataset is a stream of `(src, dst, timestamp)` records over an undirected
simple graph. Ingestion maps vertex labels to dense integer ids, parses events
into an (m, 3) int64 `(u, v, t)` array, bins them with numpy into a sequence of
static graphs at a chosen time resolution, and saves a deterministic archive.
Attribute tables and change-point files ride along as sidecars keyed by the
same labels. Every input file is UTF-8 text, with or without a byte-order mark.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, cycle, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "DataFormatError",
    "StaticGraph",
    "GraphSequence",
    "VertexAttributes",
    "ChangePointLabels",
    "ParsedStream",
    "parse_edge_stream",
    "bin_initial",
    "load_attributes",
    "load_change_points",
    "union_graphs",
    "save_archive",
    "load_archive",
    "LoadedArchive",
]

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

ARCHIVE_FORMAT = 1
_BLOCK = 1 << 12  # lines parsed at once: bounds the memory of their strings, and is cache-sized


class DataFormatError(ValueError):
    """An input file violates its declared format."""


@dataclass(frozen=True)
class StaticGraph:
    """An undirected simple graph on vertices 0..n-1 with canonical edges.

    Edges are stored as a frozenset of (u, v) pairs with u < v. Instances are
    immutable and hashable; helper views (adjacency matrix, degree vector,
    neighbour lists) are rebuilt on demand.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) not canonical for n={self.n}")

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


def union_graphs(graphs: Sequence[StaticGraph]) -> StaticGraph:
    """Edge-set union of graphs over a common vertex set."""
    if not graphs:
        raise ValueError("cannot union zero graphs")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("graphs have mismatched vertex counts")
    return StaticGraph(n, frozenset().union(*(g.edges for g in graphs)))


@dataclass(frozen=True)
class GraphSequence:
    """A sequence of static graphs over a fixed vertex set.

    `resolution` records how many raw time units each step spans; step i
    (1-based) covers the half-open interval [origin + (i-1)*resolution,
    origin + i*resolution).
    """

    n: int
    graphs: tuple[StaticGraph, ...]
    resolution: int = 1

    def __post_init__(self) -> None:
        if len(self.graphs) < 1:
            raise ValueError("a graph sequence needs at least one step")
        if self.resolution < 1:
            raise ValueError("resolution must be a positive integer")
        if any(g.n != self.n for g in self.graphs):
            raise ValueError("step graph vertex count mismatch")

    @property
    def length(self) -> int:
        return len(self.graphs)

    def step(self, i: int) -> StaticGraph:
        """1-based step access."""
        if not 1 <= i <= self.length:
            raise IndexError(f"step {i} outside [1, {self.length}]")
        return self.graphs[i - 1]

    def slice_steps(self, start: int, end: int) -> "GraphSequence":
        """Sub-sequence over 1-based inclusive step span [start, end]."""
        if not (1 <= start <= end <= self.length):
            raise ValueError(f"bad span [{start}, {end}] for length {self.length}")
        return GraphSequence(self.n, self.graphs[start - 1 : end], self.resolution)


@dataclass(frozen=True, eq=False)
class ParsedStream:
    """Event columns plus the label table assigning dense ids in first-appearance order:
    `events` is an (m, 3) int64 array of `(u, v, t)` rows, u < v, in stream order."""

    events: np.ndarray
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def _lines(source: str | Path | Iterable[str] | io.TextIOBase) -> Iterator[str]:
    if isinstance(source, Path):
        # utf-8-sig drops a leading byte-order mark, which would join the first label
        with open(source, encoding="utf-8-sig") as fh:
            yield from fh
    else:
        # a str breaks only at \n, \r\n and \r, as a file does, not at
        # the other breaks that str.splitlines knows (\x0c, \u2028, ...)
        yield from io.StringIO(source, newline=None) if isinstance(source, str) else source


def _scan(lines: list[str], delimiter: str, offset: int) -> int | None:
    """The first self-loop's line number, lines[0] being line offset + 1; a bad line raises."""
    first_loop = None
    for lineno, raw in enumerate(lines, start=offset + 1):
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
        if t >= 2**63:
            raise DataFormatError(f"line {lineno}: timestamp {t} does not fit in 64 bits")
        if src == dst and first_loop is None:
            first_loop = lineno
    return first_loop


def _columns(lines: list[str], delimiter: str, ids: defaultdict[str, int]) -> np.ndarray | None:
    """The canonical `(u, v, t)` rows of `lines`, their labels numbered through
    `ids` (a new one gets the next id); None if a line fails a check."""
    rows = [line for line in filter(None, map(str.strip, lines)) if line[0] != "#"]
    # one split over all rows; row i holds fields 3i..3i+2 if they and 2 delimiters span it
    fields = delimiter.join(rows).split(delimiter) if rows else []
    labels = list(map(str.strip, compress(fields, cycle((True, True, False)))))
    try:
        widths = np.fromiter(map(len, fields), np.int64, len(fields)).reshape(-1, 3).sum(axis=1)
        row_widths = np.fromiter(map(len, rows), np.int64, len(rows)) - 2 * len(delimiter)
        if not (all(labels) and np.array_equal(widths, row_widths)):
            return None
        times = np.fromiter(map(int, fields[2::3]), np.int64, len(rows))
    except (ValueError, OverflowError):
        return None
    a, b = np.fromiter(map(ids.__getitem__, labels), np.int64, len(labels)).reshape(-1, 2).T
    return np.column_stack((np.minimum(a, b), np.maximum(a, b), times))


def parse_edge_stream(
    source: str | Path | Iterable[str] | io.TextIOBase,
    delimiter: str = ",",
    on_self_loop: str = "error",
) -> ParsedStream:
    """Parse a delimited `src,dst,timestamp` stream into event columns and a label table.

    Lines that are empty or start with ``#`` are skipped. Vertex labels get
    dense ids in order of first appearance. Timestamps must be integers in
    [0, 2**63). Self-loop records are rejected with a count and the first
    offending line number, unless ``on_self_loop="drop"`` silently discards
    them (their endpoints still enter the label table). Blocks of lines are
    checked column by column, and one that fails is rescanned line by line; a
    delimiter holds no digit, so no valid row ends in a part of it.
    """
    if on_self_loop not in ("error", "drop"):
        raise ValueError("on_self_loop must be 'error' or 'drop'")
    if any(c.isdecimal() for c in delimiter):
        raise ValueError(f"delimiter {delimiter!r} must not contain a digit")
    lines, ids, blocks, loop_count, first_loop = _lines(source), defaultdict(), [], 0, None
    ids.default_factory = ids.__len__  # a label not yet seen gets the next id
    while chunk := list(islice(lines, _BLOCK)):
        block = _columns(chunk, delimiter, ids)
        if block is None or (block[:, 2] < 0).any():
            _scan(chunk, delimiter, _BLOCK * len(blocks))  # raises the first bad line's error
        loops = block[:, 0] == block[:, 1]
        if on_self_loop == "error" and loops.any():
            loop_count += int(loops.sum())
            first_loop = first_loop or _scan(chunk, delimiter, _BLOCK * len(blocks))
        blocks.append(block[~loops])
    if loop_count:
        raise DataFormatError(f"{loop_count} self-loop event(s), first at line {first_loop}")
    return ParsedStream(np.concatenate([np.empty((0, 3), np.int64), *blocks]), tuple(ids))


def bin_initial(
    events: np.ndarray | Sequence[tuple[int, int, int]],
    resolution: int,
    n: int | None = None,
    origin: int | None = None,
) -> GraphSequence:
    """Bin `(u, v, t)` event rows into a graph sequence at the given time resolution.

    Step i (1-based) collects every event with timestamp in the half-open
    interval [origin + (i-1)*resolution, origin + i*resolution). The origin
    defaults to the earliest timestamp; passing an explicit one (e.g. a
    midnight epoch) aligns bins to calendar boundaries. Duplicate edges within
    a bin collapse. Rows must be canonical (0 <= u < v < n) with t >= 0.
    """
    if len(events) == 0:
        raise DataFormatError("cannot bin an empty event stream")
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    rows = np.asarray(events)
    if rows.ndim != 2 or rows.shape[1] != 3 or rows.dtype.kind not in "iu":
        raise ValueError(f"events must be (m, 3) integer rows, not {rows.dtype} {rows.shape}")
    u, v, t = rows.astype(np.int64).T
    if (u == v).any():
        raise DataFormatError(f"self-loop event on vertex {u[np.argmax(u == v)]}")
    if (t < 0).any():
        raise DataFormatError(f"negative timestamp {t[np.argmax(t < 0)]}")
    origin = int(t.min()) if origin is None else origin
    if origin > t.min():
        raise ValueError(f"origin {origin} is later than the earliest event {t.min()}")
    n = 1 + int(rows[:, :2].max()) if n is None else n
    if (int(t.max()) - origin) // resolution >= 2**63 // (n * n):
        raise ValueError(f"too many steps to bin {n} vertices with int64 (step, u, v) keys")
    bad = np.flatnonzero((u < 0) | (u > v) | (v >= n))
    if bad.size:
        raise ValueError(f"edge ({u[bad[0]]}, {v[bad[0]]}) not canonical for n={n}")
    # sorted distinct (step, u, v) keys; each step's edges are one run of them
    step, pair = np.divmod(np.unique(((t - origin) // resolution * n + u) * n + v), n * n)
    bounds = np.searchsorted(step, np.arange(int(step[-1]) + 2)).tolist()
    edges = list(zip(*(x.tolist() for x in np.divmod(pair, n))))
    graphs = tuple(StaticGraph(n, frozenset(edges[a:b])) for a, b in zip(bounds, bounds[1:]))
    return GraphSequence(n, graphs, resolution)


@dataclass(frozen=True)
class VertexAttributes:
    """Static per-vertex feature records with one designated binary target.

    `rows[v]` maps feature name -> value (str for categorical, float for
    continuous); missing features are simply absent. The target column is
    categorical with exactly two distinct values across the population;
    vertices without a target value are unlabeled.
    """

    n: int
    target: str
    types: Mapping[str, str]
    rows: tuple[Mapping[str, object], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError("one row per vertex required")
        observed = sorted({str(r[self.target]) for r in self.rows if self.target in r})
        if len(observed) != 2:
            raise DataFormatError(
                f"target {self.target!r} must take exactly 2 distinct values, saw {observed}"
            )

    @property
    def classes(self) -> tuple[str, str]:
        """(negative, positive) target values in lexicographic order."""
        return tuple(sorted({str(r[self.target]) for r in self.rows if self.target in r}))

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(name for name in self.types if name != self.target)

    def target_of(self, vertex: int) -> str | None:
        row = self.rows[vertex]
        return str(row[self.target]) if self.target in row else None

    def labeled(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.target in self.rows[v])


def _parse_types_line(line: str, feature_cols: Sequence[str]) -> dict[str, str]:
    body = line.split(":", 1)[1]
    kinds = [k.strip() for k in body.split(",")]
    if len(kinds) != len(feature_cols):
        raise DataFormatError(
            f"#types line declares {len(kinds)} kinds for {len(feature_cols)} columns"
        )
    for col, kind in zip(feature_cols, kinds):
        if kind not in (CATEGORICAL, CONTINUOUS):
            raise DataFormatError(f"unknown column kind {kind!r} for {col!r}")
    return dict(zip(feature_cols, kinds))


def load_attributes(
    source: str | Path | Iterable[str] | io.TextIOBase,
    target: str,
    labels: Sequence[str],
) -> VertexAttributes:
    """Load a comma-separated attribute table keyed by edge-stream vertex labels.

    The first row is a header whose first column holds the vertex label; the
    remaining columns are features. The file declares every feature column
    categorical or continuous in a `#types:` line after the header (kinds in
    column order, e.g. `#types: categorical, continuous`). Empty cells are
    missing values. Vertices absent from the file carry empty records;
    labels absent from the edge stream are an error.
    """
    ids = {lab: i for i, lab in enumerate(labels)}
    header: list[str] | None = None
    types: dict[str, str] | None = None  # feature column -> kind, in column order
    # each vertex's cells, kept as text until the column kinds are known
    cells: list[list[str] | None] = [None] * len(labels)
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith("#types"):
                if header is None:
                    raise DataFormatError(f"line {lineno}: #types must follow the header")
                types = _parse_types_line(line, header[1:])
            continue
        parts = [p.strip() for p in line.split(",")]
        if header is None:
            header = parts
            if len(header) < 2:
                raise DataFormatError("attribute header needs a label column and features")
            continue
        if len(parts) != len(header):
            raise DataFormatError(
                f"line {lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        lab = parts[0]
        if lab not in ids:
            raise DataFormatError(f"line {lineno}: vertex label {lab!r} not in the edge stream")
        if cells[ids[lab]] is not None:
            raise DataFormatError(f"line {lineno}: duplicate record for vertex {lab!r}")
        cells[ids[lab]] = parts[1:]
    if header is None:
        raise DataFormatError("attribute file has no header row")
    feature_cols = header[1:]
    if target not in feature_cols:
        raise DataFormatError(f"target column {target!r} not among {feature_cols}")
    if types is None:
        raise DataFormatError(f"column kinds undeclared for {feature_cols}; add a #types line")
    if types[target] != CATEGORICAL:
        raise DataFormatError(f"target column {target!r} must be categorical")
    final_rows: list[dict[str, object]] = []
    for v, row in enumerate(cells):
        rec: dict[str, object] = {}
        for col, cell in zip(feature_cols, row or ()):
            if cell == "":
                continue
            if types[col] == CONTINUOUS:
                try:
                    rec[col] = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"vertex {labels[v]!r}: non-numeric value {cell!r} in continuous column {col!r}"
                    ) from None
            else:
                rec[col] = cell
        final_rows.append(rec)
    return VertexAttributes(len(labels), target, types, tuple(final_rows))


@dataclass(frozen=True)
class ChangePointLabels:
    """Ground-truth change points as strictly increasing 1-based step indices."""

    times: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("change-point times must be strictly increasing")

    def restrict(self, start: int, end: int) -> "ChangePointLabels":
        """Times within 1-based inclusive [start, end], re-indexed to the span."""
        return ChangePointLabels(
            tuple(t - start + 1 for t in self.times if start <= t <= end)
        )


def load_change_points(
    source: str | Path | Iterable[str] | io.TextIOBase,
    length: int,
) -> ChangePointLabels:
    """Load change-point step indices (one per line), validated against `length`."""
    times: list[int] = []
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            t = int(line)
        except ValueError:
            raise DataFormatError(f"line {lineno}: change point {line!r} is not an integer") from None
        if not 1 <= t <= length:
            raise DataFormatError(f"line {lineno}: change point {t} outside [1, {length}]")
        times.append(t)
    if len(set(times)) != len(times):
        raise DataFormatError("duplicate change-point times")
    return ChangePointLabels(tuple(sorted(times)))


@dataclass(frozen=True)
class LoadedArchive:
    sequence: GraphSequence
    labels: tuple[str, ...]
    dataset_id: str


def _archive_payload(seq: GraphSequence, labels: Sequence[str]) -> tuple[str, str, str]:
    """The manifest (without its id) and steps.csv texts, and the dataset id they hash to."""
    manifest = {
        "format_version": ARCHIVE_FORMAT,
        "n": seq.n,
        "length": seq.length,
        "resolution": seq.resolution,
        "labels": list(labels),
    }
    rows = (f"{i},{u},{v}\n" for i, g in enumerate(seq.graphs, 1) for u, v in sorted(g.edges))
    steps_csv = "step,u,v\n" + "".join(rows)
    manifest_json = json.dumps(manifest, sort_keys=True, indent=2)
    digest = hashlib.sha256((manifest_json + steps_csv).encode()).hexdigest()
    return manifest_json, steps_csv, digest


def save_archive(seq: GraphSequence, labels: Sequence[str], directory: str | Path) -> str:
    """Persist a sequence as a deterministic archive directory; returns the dataset id.

    Layout: `manifest.json` (counts, resolution, label table, dataset id) and
    `steps.csv` with sorted `step,u,v` rows. Identical inputs produce
    byte-identical files.
    """
    if len(labels) != seq.n:
        raise ValueError("label table size must match vertex count")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_json, steps_csv, dataset_id = _archive_payload(seq, labels)
    manifest = {**json.loads(manifest_json), "dataset_id": dataset_id}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (directory / "steps.csv").write_text(steps_csv, encoding="utf-8")
    return dataset_id


def load_archive(directory: str | Path) -> LoadedArchive:
    """Load an archive directory back into a sequence, verifying its dataset
    id; a malformed archive raises DataFormatError naming its file and key or line."""
    directory = Path(directory)
    manifest_path, steps_path = directory / "manifest.json", directory / "steps.csv"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        steps_text = steps_path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        missing = Path(exc.filename).name
        raise DataFormatError(f"{directory} is not an archive (missing {missing})") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: not a JSON object")
    version = manifest.get("format_version")
    if version != ARCHIVE_FORMAT:
        raise DataFormatError(f"{manifest_path}: unsupported archive format {version!r}")
    for key in ("n", "length", "resolution"):
        value = manifest.get(key)
        if type(value) is not int or value < 1:
            raise DataFormatError(f"{manifest_path}: {key!r} must be an integer >= 1, not {value!r}")
    n, length, resolution = manifest["n"], manifest["length"], manifest["resolution"]
    labels = manifest.get("labels")
    if not isinstance(labels, list) or len(labels) != n:
        raise DataFormatError(f"{manifest_path}: 'labels' must list {n} vertex labels")
    bins: list[set[tuple[int, int]]] = [set() for _ in range(length)]
    # read_text turned \r\n and \r into \n, so this splits as a file is split
    rows = steps_text.split("\n")
    if rows[:1] != ["step,u,v"]:
        raise DataFormatError(f"{steps_path} line 1: header mismatch")
    for lineno, line in enumerate(rows[1:], start=2):
        if not line:
            continue
        try:
            step, u, v = map(int, line.split(","))
        except ValueError:
            raise DataFormatError(f"{steps_path} line {lineno}: malformed row {line!r}") from None
        if not 1 <= step <= length:
            raise DataFormatError(f"{steps_path} line {lineno}: step {step} outside [1, {length}]")
        if not 0 <= u < v < n:
            raise DataFormatError(f"{steps_path} line {lineno}: edge ({u}, {v}) not canonical, n={n}")
        bins[step - 1].add((u, v))
    seq = GraphSequence(n, tuple(StaticGraph(n, frozenset(b)) for b in bins), resolution)
    dataset_id = _archive_payload(seq, labels)[2]
    recorded = manifest.get("dataset_id")
    if recorded is not None and recorded != dataset_id:
        raise DataFormatError("archive content does not match its recorded dataset id")
    return LoadedArchive(seq, tuple(labels), dataset_id)
