"""Edge-stream ingestion, initial binning, attributes, and on-disk archives.

A raw dataset is a stream of `(src, dst, timestamp)` records over an undirected
simple graph. Ingestion maps vertex labels to dense integer ids, bins events
into a sequence of static graphs at a chosen time resolution, and persists the
result as a deterministic archive directory. Vertex attribute tables and
change-point label files ride along as sidecars keyed by the same labels.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DataFormatError",
    "EdgeEvent",
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


class DataFormatError(ValueError):
    """An input file violates its declared format."""


def _canonical_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


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
        d = np.zeros(self.n, dtype=int)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

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
    acc: set[tuple[int, int]] = set()
    for g in graphs:
        if g.n != n:
            raise ValueError("graphs have mismatched vertex counts")
        acc |= g.edges
    return StaticGraph(n, frozenset(acc))


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
        for g in self.graphs:
            if g.n != self.n:
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


@dataclass(frozen=True)
class ParsedStream:
    """Events plus the label table assigning dense ids in first-appearance order."""

    events: tuple[EdgeEvent, ...]
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def label_ids(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


def _iter_lines(source: str | Path | Iterable[str] | io.TextIOBase) -> Iterable[str]:
    if isinstance(source, Path):
        with open(source, encoding="utf-8") as fh:
            yield from fh
    elif isinstance(source, str):
        yield from source.splitlines()
    else:
        yield from source


def parse_edge_stream(
    source: str | Path | Iterable[str] | io.TextIOBase,
    delimiter: str = ",",
    on_self_loop: str = "error",
) -> ParsedStream:
    """Parse a delimited `src,dst,timestamp` stream into events and a label table.

    Lines that are empty or start with ``#`` are skipped. Vertex labels get
    dense ids in order of first appearance. Timestamps must be non-negative
    integers. Self-loop records are rejected with a count and the first
    offending line number, unless ``on_self_loop="drop"`` silently discards
    them (their endpoints still enter the label table).
    """
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
        u, v = _canonical_pair(labels[src], labels[dst])
        events.append(EdgeEvent(u, v, t))
    if loop_count and on_self_loop == "error":
        raise DataFormatError(
            f"{loop_count} self-loop event(s), first at line {first_loop_line}"
        )
    return ParsedStream(tuple(events), tuple(labels))


def bin_initial(
    events: Sequence[EdgeEvent],
    resolution: int,
    n: int | None = None,
    origin: int | None = None,
) -> GraphSequence:
    """Bin events into a graph sequence at the given time resolution.

    Step i (1-based) collects every event with timestamp in the half-open
    interval [origin + (i-1)*resolution, origin + i*resolution). The origin
    defaults to the earliest timestamp; passing an explicit one (e.g. a
    midnight epoch) aligns bins to calendar boundaries. Duplicate edges within
    a bin collapse.
    """
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
    graphs = tuple(StaticGraph(n, frozenset(b)) for b in bins)
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
        vals = sorted({str(r[self.target]) for r in self.rows if self.target in r})
        return (vals[0], vals[1])

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
    out = {}
    for col, kind in zip(feature_cols, kinds):
        if kind not in (CATEGORICAL, CONTINUOUS):
            raise DataFormatError(f"unknown column kind {kind!r} for {col!r}")
        out[col] = kind
    return out


def load_attributes(
    source: str | Path | Iterable[str] | io.TextIOBase,
    target: str,
    labels: Sequence[str],
    column_types: Mapping[str, str] | None = None,
    delimiter: str = ",",
) -> VertexAttributes:
    """Load a delimited attribute table keyed by edge-stream vertex labels.

    The first row is a header whose first column holds the vertex label; the
    remaining columns are features. Every feature column must be declared
    categorical or continuous, either via `column_types` or a `#types:` line
    (kinds in column order) anywhere before the data rows. Empty cells are
    missing values. Vertices absent from the file carry empty records;
    labels absent from the edge stream are an error.
    """
    ids = {lab: i for i, lab in enumerate(labels)}
    header: list[str] | None = None
    types_line: dict[str, str] | None = None
    rows: list[dict[str, object]] = [dict() for _ in labels]
    seen: set[int] = set()
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith("#types"):
                if header is None:
                    raise DataFormatError(f"line {lineno}: #types must follow the header")
                types_line = _parse_types_line(line, header[1:])
            continue
        parts = [p.strip() for p in line.split(delimiter)]
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
        v = ids[lab]
        if v in seen:
            raise DataFormatError(f"line {lineno}: duplicate record for vertex {lab!r}")
        seen.add(v)
        rows[v] = {"_parts": parts}  # finalized below once types are known
    if header is None:
        raise DataFormatError("attribute file has no header row")
    feature_cols = header[1:]
    if target not in feature_cols:
        raise DataFormatError(f"target column {target!r} not among {feature_cols}")
    types: dict[str, str] = dict(column_types) if column_types else (types_line or {})
    missing_decl = [c for c in feature_cols if c not in types]
    if missing_decl:
        raise DataFormatError(
            f"column kinds undeclared for {missing_decl}; add a #types line or pass column_types"
        )
    if types[target] != CATEGORICAL:
        raise DataFormatError(f"target column {target!r} must be categorical")
    final_rows: list[dict[str, object]] = []
    for v in range(len(labels)):
        rec: dict[str, object] = {}
        raw_row = rows[v]
        if raw_row:
            parts = raw_row["_parts"]
            for col, cell in zip(feature_cols, parts[1:]):
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
    types = {c: types[c] for c in feature_cols}
    return VertexAttributes(len(labels), target, types, tuple(final_rows))


@dataclass(frozen=True)
class ChangePointLabels:
    """Ground-truth change points as strictly increasing 1-based step indices."""

    times: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.times, self.times[1:]):
            if a >= b:
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
    for lineno, raw in enumerate(_iter_lines(source), start=1):
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


def _archive_payload(seq: GraphSequence, labels: Sequence[str]) -> tuple[str, str]:
    manifest = {
        "format_version": ARCHIVE_FORMAT,
        "n": seq.n,
        "length": seq.length,
        "resolution": seq.resolution,
        "labels": list(labels),
    }
    steps_lines = ["step,u,v"]
    for i, g in enumerate(seq.graphs, start=1):
        for u, v in sorted(g.edges):
            steps_lines.append(f"{i},{u},{v}")
    steps_csv = "\n".join(steps_lines) + "\n"
    manifest_json = json.dumps(manifest, sort_keys=True, indent=2)
    return manifest_json, steps_csv


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
    manifest_json, steps_csv = _archive_payload(seq, labels)
    dataset_id = hashlib.sha256((manifest_json + steps_csv).encode()).hexdigest()
    manifest = json.loads(manifest_json)
    manifest["dataset_id"] = dataset_id
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
    for lineno, line in enumerate(steps_text.splitlines(), start=1):
        if lineno == 1:
            if line != "step,u,v":
                raise DataFormatError(f"{steps_path} line 1: header mismatch")
            continue
        if not line:
            continue
        try:
            step_s, u_s, v_s = line.split(",")
            step, u, v = int(step_s), int(u_s), int(v_s)
        except ValueError:
            raise DataFormatError(f"{steps_path} line {lineno}: malformed row {line!r}") from None
        if not 1 <= step <= length:
            raise DataFormatError(f"{steps_path} line {lineno}: step {step} outside [1, {length}]")
        if not 0 <= u < v < n:
            raise DataFormatError(f"{steps_path} line {lineno}: edge ({u}, {v}) not canonical, n={n}")
        bins[step - 1].add((u, v))
    seq = GraphSequence(n, tuple(StaticGraph(n, frozenset(b)) for b in bins), resolution)
    manifest_json, steps_csv = _archive_payload(seq, labels)
    dataset_id = hashlib.sha256((manifest_json + steps_csv).encode()).hexdigest()
    recorded = manifest.get("dataset_id")
    if recorded is not None and recorded != dataset_id:
        raise DataFormatError("archive content does not match its recorded dataset id")
    return LoadedArchive(seq, tuple(labels), dataset_id)
