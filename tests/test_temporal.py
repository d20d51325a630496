"""Ingestion: stream parsing, binning, sidecar loaders, archives."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwin import (
    ChangePointLabels,
    DataFormatError,
    GraphSequence,
    StaticGraph,
    VertexAttributes,
    bin_initial,
    load_archive,
    load_attributes,
    load_change_points,
    parse_edge_stream,
    save_archive,
    union_graphs,
    windowed_at,
)

from helpers import graph, seq_of


# --------------------------------------------------------------------------
# parsing


def test_parse_assigns_dense_ids_by_first_appearance():
    text = "b,a,0\nc,a,1\na,c,2\n"
    parsed = parse_edge_stream(text)
    assert parsed.labels == ("b", "a", "c")
    # pairs are canonicalized u < v
    assert parsed.events.tolist() == [[0, 1, 0], [1, 2, 1], [1, 2, 2]]


def test_parse_returns_int64_columns():
    for text, m in (("a,b,0\nb,c,7\n", 2), ("# nothing here\n", 0), ("a,a,3\n", 0)):
        parsed = parse_edge_stream(text, on_self_loop="drop")
        assert parsed.events.dtype == np.int64 and parsed.events.shape == (m, 3)
        assert len(parsed.events) == m


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\na,b,3\n   \n# tail\nb,c,4\n"
    parsed = parse_edge_stream(text)
    assert len(parsed.events) == 2


def test_parse_rejects_malformed_lines():
    with pytest.raises(DataFormatError, match="line 1"):
        parse_edge_stream("a,b\n")
    with pytest.raises(DataFormatError, match="not an integer"):
        parse_edge_stream("a,b,x\n")
    with pytest.raises(DataFormatError, match="negative"):
        parse_edge_stream("a,b,-1\n")
    with pytest.raises(DataFormatError, match="empty vertex label"):
        parse_edge_stream("a,,1\n")


def test_parse_self_loop_policy():
    text = "a,a,0\nb,c,1\na,a,2\n"
    with pytest.raises(DataFormatError, match=r"2 self-loop event\(s\), first at line 1"):
        parse_edge_stream(text)
    parsed = parse_edge_stream(text, on_self_loop="drop")
    assert len(parsed.events) == 1
    # dropped endpoints still claim label ids
    assert parsed.labels == ("a", "b", "c")
    with pytest.raises(ValueError):
        parse_edge_stream(text, on_self_loop="whatever")


def test_parse_custom_delimiter():
    parsed = parse_edge_stream("a\tb\t5\n", delimiter="\t")
    assert parsed.events.tolist() == [[0, 1, 5]]
    # a multi-character delimiter, and a row whose timestamp ends in part of it
    assert parse_edge_stream("a :: b :: 5\n", delimiter="::").events.tolist() == [[0, 1, 5]]
    with pytest.raises(DataFormatError, match=r"line 1: timestamp '5:' is not an integer"):
        parse_edge_stream("a::b::5:\nc::d::1\n", delimiter="::")


def test_parse_rejects_delimiters_with_digits_and_huge_timestamps():
    with pytest.raises(ValueError, match="must not contain a digit"):
        parse_edge_stream("a5b51\n", delimiter="5")
    with pytest.raises(DataFormatError, match=r"line 2: timestamp 9223372036854775808 does not fit"):
        parse_edge_stream(f"a,b,1\nb,c,{2**63}\n")
    assert parse_edge_stream(f"a,b,{2**63 - 1}\n").events.tolist() == [[0, 1, 2**63 - 1]]


def test_byte_order_mark_is_not_part_of_the_first_label(tmp_path):
    text = "a,b,0\nb,a,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for path in (plain, marked):
        parsed = parse_edge_stream(path)
        assert parsed.labels == ("a", "b")
        save_archive(bin_initial(parsed.events, 1, n=parsed.n), parsed.labels, tmp_path / path.stem)
    for name in ("manifest.json", "steps.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "marked" / name).read_bytes()
    sidecar = tmp_path / "attributes.csv"
    # behind a mark, the opening comment would be read as the header
    sidecar.write_bytes(b"\xef\xbb\xbf# export\nvertex,group\n#types: categorical\na,x\nb,y\n")
    assert load_attributes(sidecar, "group", ("a", "b")).target_of(0) == "x"
    sidecar = tmp_path / "changepoints.txt"
    sidecar.write_bytes(b"\xef\xbb\xbf2\n")
    assert load_change_points(sidecar, 3).times == (2,)


def _outcome(load, source):
    """What a loader makes of a source: its result, or its error message."""
    try:
        out = load(source)
    except DataFormatError as exc:
        return str(exc)
    return (out.events.tolist(), out.labels) if hasattr(out, "events") else out


@pytest.mark.parametrize(
    "load, text",
    [
        # each break str.splitlines knows beyond \n, \r\n and \r sits inside a label
        (parse_edge_stream, "a\x0bb,c\x0cd,1\r\ne\x1cf,g\x1dh,2\ri\x1ej,k\x85l,3\nm\u2028n,o\u2029p,4\n"),
        (
            lambda src: load_attributes(src, "grp", ("a\x0cb", "c")),
            "vertex,grp\r\n#types: categorical\ra\x0cb,x\nc,y\u2028z\n",
        ),
        (lambda src: load_change_points(src, 10), "2\r\n# a note\x0cwith a break\r7\n"),
        (lambda src: load_change_points(src, 10), "3\u20285\n"),
    ],
    ids=["stream", "attributes", "change-points", "change-point-error"],
)
def test_str_source_splits_lines_as_a_file_does(tmp_path, load, text):
    path = tmp_path / "source.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(load, text) == _outcome(load, path)


# --------------------------------------------------------------------------
# binning


def test_bin_initial_basic_layout():
    events = [(0, 1, 10), (1, 2, 11), (0, 2, 15)]
    seq = bin_initial(events, resolution=3)
    # origin 10; bins [10,13), [13,16)
    assert seq.length == 2
    assert seq.resolution == 3
    assert seq.step(1).edges == frozenset({(0, 1), (1, 2)})
    assert seq.step(2).edges == frozenset({(0, 2)})


def test_bin_initial_duplicates_collapse():
    events = np.array([(0, 1, 0), (0, 1, 0), (0, 1, 1)])
    seq = bin_initial(events, resolution=2)
    assert seq.length == 1
    assert seq.step(1).edge_count == 1


def test_bin_initial_explicit_origin_alignment():
    events = [(0, 1, 5)]
    seq = bin_initial(events, resolution=4, origin=0)
    assert seq.length == 2
    assert seq.step(1).edge_count == 0
    assert seq.step(2).edges == frozenset({(0, 1)})
    with pytest.raises(ValueError, match="later than the earliest"):
        bin_initial(events, resolution=4, origin=6)


def test_bin_initial_rejects_bad_input():
    with pytest.raises(DataFormatError):
        bin_initial([], resolution=1)
    with pytest.raises(ValueError):
        bin_initial([(0, 1, 0)], resolution=0)


def test_bin_initial_checks_event_rows():
    # every row is checked, and the first bad one is named
    with pytest.raises(DataFormatError, match="self-loop event on vertex 2"):
        bin_initial([(0, 1, 0), (2, 2, 1)], resolution=1)
    with pytest.raises(DataFormatError, match="negative timestamp -4"):
        bin_initial([(0, 1, 0), (1, 2, -4)], resolution=1)
    with pytest.raises(ValueError, match=r"edge \(2, 1\) not canonical for n=3"):
        bin_initial([(0, 1, 0), (2, 1, 1)], resolution=1)
    with pytest.raises(ValueError, match=r"edge \(0, 3\) not canonical for n=3"):
        bin_initial([(0, 1, 0), (0, 3, 1)], resolution=1, n=3)
    with pytest.raises(ValueError, match=r"edge \(-1, 1\) not canonical for n=2"):
        bin_initial([(-1, 1, 0)], resolution=1)
    with pytest.raises(ValueError, match="too many steps to bin 4 vertices"):
        bin_initial([(0, 1, 0), (0, 1, 2**62)], resolution=1, n=4)
    for bad in ([(0, 1)], [(0.0, 1.0, 2.0)], np.zeros((2, 3, 1), dtype=int)):
        with pytest.raises(ValueError, match="events must be"):
            bin_initial(bad, resolution=1)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=40),
        ).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=30,
    ),
    resolution=st.integers(min_value=1, max_value=4),
    factor=st.integers(min_value=1, max_value=4),
)
def test_binning_then_windowing_equals_coarser_binning(events, resolution, factor):
    """Binning at r then windowing at w gives the graphs of binning at r*w
    directly, when both share the same origin."""
    evs = [(min(u, v), max(u, v), t) for u, v, t in events]
    origin = min(t for _, _, t in evs)
    fine = bin_initial(evs, resolution, n=6, origin=origin)
    factor = min(factor, fine.length)  # a window cannot outgrow the sequence
    coarse = bin_initial(evs, resolution * factor, n=6, origin=origin)
    rewindowed = windowed_at(fine, factor).to_graph_sequence()
    assert rewindowed.length == coarse.length
    for i in range(1, coarse.length + 1):
        assert rewindowed.step(i).edges == coarse.step(i).edges


# --------------------------------------------------------------------------
# static graphs and sequences


def test_static_graph_invariants():
    g = graph(4, [(2, 1), (0, 3)])
    assert g.edges == frozenset({(1, 2), (0, 3)})
    assert g.edge_count == 2
    assert list(g.degrees()) == [1, 1, 1, 1]
    a = g.adjacency()
    assert a[1, 2] == a[2, 1] == 1
    assert a[0, 1] == 0
    assert g.neighbor_lists()[1] == (2,)
    with pytest.raises(ValueError):
        StaticGraph(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        StaticGraph(3, frozenset({(2, 1)}))  # not canonical u < v


def test_union_graphs():
    u = union_graphs([graph(3, [(0, 1)]), graph(3, [(1, 2)]), graph(3, [(0, 1)])])
    assert u.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        union_graphs([])


def test_sequence_step_indexing_and_slices():
    seq = seq_of(3, [(0, 1)], [(1, 2)], [(0, 2)])
    assert seq.length == 3
    assert seq.step(1).edges == frozenset({(0, 1)})
    assert seq.step(3).edges == frozenset({(0, 2)})
    sl = seq.slice_steps(2, 3)
    assert sl.length == 2
    assert sl.step(1).edges == frozenset({(1, 2)})
    with pytest.raises(IndexError):
        seq.step(0)
    with pytest.raises(IndexError):
        seq.step(4)
    with pytest.raises(ValueError):
        seq.slice_steps(3, 2)


# --------------------------------------------------------------------------
# attributes


ATTR_CSV = """vertex,grp,age
#types: categorical, continuous
a,x,10
b,x,12
c,y,
d,y,9
"""


def test_load_attributes_round_trip():
    attrs = load_attributes(ATTR_CSV, "grp", ("a", "b", "c", "d", "e"))
    assert attrs.n == 5
    assert attrs.classes == ("x", "y")
    assert attrs.target_of(0) == "x"
    assert attrs.target_of(4) is None  # absent vertex -> empty record
    assert attrs.labeled() == (0, 1, 2, 3)
    assert attrs.rows[3]["age"] == 9.0
    assert "age" not in attrs.rows[2]  # empty cell is missing
    assert attrs.feature_names == ("age",)  # target column is not a feature


def test_load_attributes_errors():
    with pytest.raises(DataFormatError, match="not in the edge stream"):
        load_attributes(ATTR_CSV, "grp", ("a", "b", "c"))
    with pytest.raises(DataFormatError, match="target column"):
        load_attributes(ATTR_CSV, "height", ("a", "b", "c", "d"))
    no_types = "vertex,grp\na,x\nb,y\n"
    with pytest.raises(DataFormatError, match="undeclared"):
        load_attributes(no_types, "grp", ("a", "b"))
    dup = "vertex,grp\n#types: categorical\na,x\na,y\n"
    with pytest.raises(DataFormatError, match="duplicate record"):
        load_attributes(dup, "grp", ("a", "b"))
    three = "vertex,grp\n#types: categorical\na,x\nb,y\nc,z\n"
    with pytest.raises(DataFormatError, match="exactly 2 distinct values"):
        load_attributes(three, "grp", ("a", "b", "c"))
    cont_target = "vertex,grp\n#types: continuous\na,1\nb,2\n"
    with pytest.raises(DataFormatError, match="must be categorical"):
        load_attributes(cont_target, "grp", ("a", "b"))


def test_attributes_validation_direct():
    with pytest.raises(ValueError, match="one row per vertex"):
        VertexAttributes(3, "y", {"y": "categorical"}, ({"y": "a"}, {"y": "b"}))
    with pytest.raises(DataFormatError):
        VertexAttributes(2, "y", {"y": "categorical"}, ({"y": "a"}, {"y": "a"}))


# --------------------------------------------------------------------------
# change points


def test_load_change_points():
    labels = load_change_points("3\n# note\n7\n", length=10)
    assert labels.times == (3, 7)
    with pytest.raises(DataFormatError, match="outside"):
        load_change_points("11\n", length=10)
    with pytest.raises(DataFormatError, match="not an integer"):
        load_change_points("x\n", length=10)
    with pytest.raises(DataFormatError, match="duplicate"):
        load_change_points("3\n3\n", length=10)


def test_change_point_restrict_reindexes():
    labels = ChangePointLabels((3, 7, 9))
    assert labels.restrict(5, 10).times == (3, 5)  # 7 -> 3, 9 -> 5
    assert labels.restrict(1, 2).times == ()
    with pytest.raises(ValueError):
        ChangePointLabels((4, 4))


# --------------------------------------------------------------------------
# archives


def test_archive_round_trip(tmp_path: Path):
    seq = seq_of(3, [(0, 1)], [], [(1, 2), (0, 2)], resolution=2)
    labels = ("u", "v", "w")
    dataset_id = save_archive(seq, labels, tmp_path / "arch")
    loaded = load_archive(tmp_path / "arch")
    assert loaded.dataset_id == dataset_id
    assert loaded.labels == labels
    assert loaded.sequence.n == 3
    assert loaded.sequence.resolution == 2
    assert loaded.sequence.length == 3
    for i in range(1, 4):
        assert loaded.sequence.step(i).edges == seq.step(i).edges


def test_archive_is_deterministic(tmp_path: Path):
    seq = seq_of(4, [(0, 1), (2, 3)], [(1, 2)])
    id_a = save_archive(seq, ("a", "b", "c", "d"), tmp_path / "one")
    id_b = save_archive(seq, ("a", "b", "c", "d"), tmp_path / "two")
    assert id_a == id_b
    for name in ("manifest.json", "steps.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_archive_id_tracks_content(tmp_path: Path):
    seq_a = seq_of(3, [(0, 1)], [(1, 2)])
    seq_b = seq_of(3, [(0, 1)], [(0, 2)])
    id_a = save_archive(seq_a, ("a", "b", "c"), tmp_path / "a")
    id_b = save_archive(seq_b, ("a", "b", "c"), tmp_path / "b")
    assert id_a != id_b


def test_archive_manifest_is_json(tmp_path: Path):
    seq = seq_of(2, [(0, 1)])
    save_archive(seq, ("a", "b"), tmp_path / "arch")
    manifest = json.loads((tmp_path / "arch" / "manifest.json").read_text())
    assert manifest["n"] == 2
    assert manifest["length"] == 1
    assert "dataset_id" in manifest


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,1,0", r"steps\.csv line 3: edge \(1, 0\) not canonical"),
        ("1,0,3", r"steps\.csv line 3: edge \(0, 3\) not canonical, n=3"),
        ("1,0,1,2", r"steps\.csv line 3: malformed row"),
        ("1,0,1\x0c2,1,2", r"steps\.csv line 3: malformed row"),
        ("4,0,1", r"steps\.csv line 3: step 4 outside \[1, 3\]"),
    ],
)
def test_archive_bad_steps_row_names_the_line(tmp_path: Path, row, message):
    save_archive(seq_of(3, [(0, 1)], [], [(1, 2)]), ("a", "b", "c"), tmp_path)
    steps = tmp_path / "steps.csv"
    lines = steps.read_text().splitlines()
    steps.write_text("\n".join([*lines[:2], row, *lines[2:]]) + "\n")
    with pytest.raises(DataFormatError, match=message):
        load_archive(tmp_path)


def test_archive_missing_steps_file_is_a_format_error(tmp_path: Path):
    save_archive(seq_of(2, [(0, 1)]), ("a", "b"), tmp_path)
    (tmp_path / "steps.csv").unlink()
    with pytest.raises(DataFormatError, match=r"not an archive \(missing steps\.csv\)"):
        load_archive(tmp_path)


@pytest.mark.parametrize("key", ["n", "length", "resolution", "labels"])
def test_archive_manifest_without_a_key_names_it(tmp_path: Path, key):
    save_archive(seq_of(2, [(0, 1)]), ("a", "b"), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=rf"manifest\.json: '{key}' must"):
        load_archive(tmp_path)


def test_archive_manifest_wrong_types_name_the_key(tmp_path: Path):
    save_archive(seq_of(2, [(0, 1)]), ("a", "b"), tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    for key, value, message in [
        ("n", "2", r"'n' must be an integer >= 1, not '2'"),
        ("length", True, r"'length' must be an integer >= 1, not True"),
        ("resolution", 0, r"'resolution' must be an integer >= 1, not 0"),
        ("labels", ["a"], r"'labels' must list 2 vertex labels"),
    ]:
        path.write_text(json.dumps({**manifest, key: value}))
        with pytest.raises(DataFormatError, match=message):
            load_archive(tmp_path)
    path.write_text("[1, 2]")
    with pytest.raises(DataFormatError, match="not a JSON object"):
        load_archive(tmp_path)
    path.write_text("{oops")
    with pytest.raises(DataFormatError, match="manifest.json: invalid JSON"):
        load_archive(tmp_path)
