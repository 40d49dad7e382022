"""Benchmark-format ingestion, stats checking, and the synthetic motif corpus."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import _tu_oracle as oracle
from asap_pool.datasets import (
    KNOWN_DATASET_STATS,
    DatasetStats,
    TUFormatError,
    check_stats,
    dataset_stats,
    load_tu_dataset,
    synthetic_motif_dataset,
    write_tu_dataset,
)
from asap_pool.graphs import Dataset, graph_from_edges


def write_fixture(root, name, files):
    d = root / name
    d.mkdir()
    for suffix, lines in files.items():
        (d / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n")
    return root


BASE_FILES = {
    # Graph 1: triangle on nodes 1-3. Graph 2: single edge on nodes 4-5.
    "A": ["1, 2", "2, 1", "1, 3", "3, 1", "2, 3", "3, 2", "4, 5", "5, 4"],
    "graph_indicator": ["1", "1", "1", "2", "2"],
    "graph_labels": ["1", "-1"],
}


def test_load_basic_structure(tmp_path):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    ds = load_tu_dataset(tmp_path, "TOY")
    assert len(ds.graphs) == 2
    assert ds.n_classes == 2
    tri, pair = ds.graphs
    np.testing.assert_allclose(
        tri.adjacency.to_dense(), np.ones((3, 3)) - np.eye(3)
    )
    np.testing.assert_allclose(pair.adjacency.to_dense(), [[0, 1], [1, 0]])
    # labels remapped to 0..n_classes-1 in sorted order: -1 -> 0, 1 -> 1
    assert (tri.label, pair.label) == (1, 0)


def test_load_degree_features_when_no_annotations(tmp_path):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    ds = load_tu_dataset(tmp_path, "TOY")
    # degree / max-degree-in-dataset (max = 2 from the triangle)
    np.testing.assert_allclose(ds.graphs[0].features.data, np.full((3, 1), 1.0))
    np.testing.assert_allclose(ds.graphs[1].features.data, np.full((2, 1), 0.5))

    # A repeated edge, one listed in one direction only, a self loop, and an
    # edge listed tail first: each undirected edge counts once, loops never.
    files = dict(BASE_FILES, A=["1, 2", "1, 2", "2, 1", "3, 1", "2, 2", "5, 4"])
    (tmp_path / "dup").mkdir()
    write_fixture(tmp_path / "dup", "TOY", files)
    ds = load_tu_dataset(tmp_path / "dup", "TOY")
    np.testing.assert_array_equal(ds.graphs[0].features.data, [[1.0], [0.5], [0.5]])
    np.testing.assert_array_equal(ds.graphs[1].features.data, [[0.5], [0.5]])


def test_load_one_hot_node_labels(tmp_path):
    files = dict(BASE_FILES)
    files["node_labels"] = ["7", "5", "7", "5", "5"]
    write_fixture(tmp_path, "TOY", files)
    ds = load_tu_dataset(tmp_path, "TOY")
    # two distinct labels -> 2 columns, sorted label order (5 -> col 0, 7 -> col 1)
    np.testing.assert_allclose(
        ds.graphs[0].features.data, [[0, 1], [1, 0], [0, 1]]
    )
    np.testing.assert_allclose(ds.graphs[1].features.data, [[1, 0], [1, 0]])


def test_load_attributes_take_priority_over_labels(tmp_path):
    files = dict(BASE_FILES)
    files["node_labels"] = ["1", "1", "1", "1", "1"]
    files["node_attributes"] = ["1.5, 2.0", "0.5, 1.0", "0.0, 0.0", "3.0, 4.0", "5.0, 6.0"]
    write_fixture(tmp_path, "TOY", files)
    ds = load_tu_dataset(tmp_path, "TOY")
    np.testing.assert_allclose(
        ds.graphs[0].features.data, [[1.5, 2.0], [0.5, 1.0], [0.0, 0.0]]
    )
    np.testing.assert_allclose(ds.graphs[1].features.data, [[3.0, 4.0], [5.0, 6.0]])


def test_load_drops_self_loops(tmp_path):
    files = dict(BASE_FILES)
    files["A"] = BASE_FILES["A"] + ["1, 1"]
    write_fixture(tmp_path, "TOY", files)
    ds = load_tu_dataset(tmp_path, "TOY")
    assert ds.graphs[0].adjacency.to_dense()[0, 0] == 0.0


def test_load_rejects_cross_graph_edge(tmp_path):
    files = dict(BASE_FILES)
    files["A"] = BASE_FILES["A"] + ["3, 4", "4, 3"]
    write_fixture(tmp_path, "TOY", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "TOY")
    assert exc.value.line_no == 9
    assert "TOY_A.txt:9: edge (3, 4) crosses graphs" in str(exc.value)


def test_load_reports_line_numbers_for_bad_input(tmp_path):
    files = dict(BASE_FILES)
    files["A"] = ["1, 2", "garbage"]
    write_fixture(tmp_path, "TOY", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "TOY")
    assert exc.value.line_no == 2


def test_load_reports_line_of_skipped_graph_id(tmp_path):
    files = dict(BASE_FILES)
    # Graph 2 has no nodes; line 4 (after a blank line) is the first to skip past it.
    files["graph_indicator"] = ["1", "1", "", "3", "3", "3"]
    files["graph_labels"] = ["1", "-1", "1"]
    files["A"] = ["1, 2", "2, 1", "3, 4", "4, 3"]
    write_fixture(tmp_path, "TOY", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "TOY")
    assert exc.value.line_no == 4
    assert "TOY_graph_indicator.txt:4: graph 2 has no nodes" in str(exc.value)


def test_load_reports_line_of_nonpositive_graph_id(tmp_path):
    files = dict(BASE_FILES)
    files["graph_indicator"] = ["1", "1", "0", "2", "2"]
    write_fixture(tmp_path, "TOY", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "TOY")
    assert exc.value.line_no == 3


def test_load_reports_line_of_inconsistent_attribute_width(tmp_path):
    files = dict(BASE_FILES)
    files["node_attributes"] = ["1.0, 2.0", "3.0, 4.0", "5.0", "6.0, 7.0", "8.0, 9.0"]
    write_fixture(tmp_path, "TOY", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "TOY")
    assert exc.value.line_no == 3
    assert "TOY_node_attributes.txt:3: inconsistent attribute widths" in str(exc.value)


def test_load_reports_real_line_of_bad_graph_label_after_blank_line(tmp_path):
    files = dict(BASE_FILES)
    files["graph_labels"] = ["0", "", "x"]
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "T")
    assert exc.value.line_no == 3
    assert "T_graph_labels.txt:3: bad graph label" in str(exc.value)


def test_load_reports_real_line_of_bad_node_label_after_blank_line(tmp_path):
    files = {
        "A": ["1, 2", "2, 1"],
        "graph_indicator": ["1", "1", "1"],
        "graph_labels": ["0"],
        "node_labels": ["1", "", "2", "q"],
    }
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "T")
    assert exc.value.line_no == 4
    assert "T_node_labels.txt:4: bad node label" in str(exc.value)


def test_load_reports_line_of_surplus_graph_label(tmp_path):
    files = dict(BASE_FILES)
    files["graph_labels"] = ["0", "", "1", "1"]
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "T")
    assert exc.value.line_no == 4
    assert "T_graph_labels.txt:4: expected 2 graph labels, got 3" in str(exc.value)


def test_load_reports_last_line_when_node_labels_are_missing(tmp_path):
    files = dict(BASE_FILES)
    files["node_labels"] = ["7", "5", "", "7", "5"]
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "T")
    assert exc.value.line_no == 5
    assert "T_node_labels.txt:5: expected 5 node labels, got 4" in str(exc.value)


def test_load_reports_line_of_surplus_attribute_row(tmp_path):
    files = dict(BASE_FILES)
    files["node_attributes"] = ["1.0", "", "2.0", "3.0", "4.0", "5.0", "6.0"]
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "T")
    assert exc.value.line_no == 7
    assert "T_node_attributes.txt:7: expected 5 attribute rows, got 6" in str(exc.value)


def test_load_interleaved_graph_indicator(tmp_path):
    # Graph 1 holds nodes 1, 3, 5 and graph 2 nodes 2, 4, 6; the edge lines mix both graphs.
    files = {
        "A": ["6, 2", "1, 3", "4, 6", "3, 5", "2, 6", "3, 1", "6, 4", "5, 3"],
        "graph_indicator": ["1", "2", "1", "2", "1", "2"],
        "graph_labels": ["0", "1"],
        "node_attributes": ["1.0", "2.0", "3.0", "4.0", "5.0", "6.0"],
    }
    write_fixture(tmp_path, "T", files)
    first, second = load_tu_dataset(tmp_path, "T").graphs
    np.testing.assert_array_equal(first.features.data, [[1.0], [3.0], [5.0]])
    np.testing.assert_array_equal(second.features.data, [[2.0], [4.0], [6.0]])
    np.testing.assert_array_equal(
        first.adjacency.to_dense(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    )
    np.testing.assert_array_equal(
        second.adjacency.to_dense(), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )
    assert (first.label, second.label) == (0, 1)


def test_load_missing_file(tmp_path):
    (tmp_path / "TOY").mkdir()
    with pytest.raises(FileNotFoundError):
        load_tu_dataset(tmp_path, "TOY")


def test_write_then_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    graphs = []
    for label in (0, 1, 1):
        n = int(rng.integers(3, 6))
        edges = [(i, i + 1) for i in range(n - 1)]
        graphs.append(
            graph_from_edges(n, edges, features=rng.standard_normal((n, 2)), label=label)
        )
    from asap_pool.graphs import Dataset

    original = Dataset(name="RT", graphs=graphs, n_classes=2)
    write_tu_dataset(original, tmp_path)
    reloaded = load_tu_dataset(tmp_path, "RT")
    assert len(reloaded.graphs) == 3
    for a, b in zip(original.graphs, reloaded.graphs):
        np.testing.assert_allclose(a.adjacency.to_dense(), b.adjacency.to_dense())
        np.testing.assert_allclose(a.features.data, b.features.data, atol=1e-12)
        assert a.label == b.label


@pytest.mark.parametrize(
    "suffix, what, value",
    [
        ("graph_indicator", "graph id", "99999999999999999999"),
        ("graph_labels", "graph label", "-9223372036854775809"),
        ("node_labels", "node label", "99999999999999999999"),
    ],
)
def test_load_reports_line_of_integer_outside_int64(tmp_path, suffix, what, value):
    files = dict(BASE_FILES, node_labels=["7", "5", "7", "5", "5"])
    files[suffix] = list(files[suffix])
    files[suffix][1] = value
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError) as exc:
        load_tu_dataset(tmp_path, "T")
    assert str(exc.value) == f"{tmp_path}/T/T_{suffix}.txt:2: bad {what}: {value!r} is outside int64"


def test_load_reports_an_edge_id_outside_int64_as_out_of_range(tmp_path):
    files = dict(BASE_FILES, A=["1, 2", "2, 99999999999999999999"])
    write_fixture(tmp_path, "T", files)
    with pytest.raises(TUFormatError, match=r"T_A.txt:2: node id outside 1\.\.5$"):
        load_tu_dataset(tmp_path, "T")


def test_load_reads_other_line_breaks_and_whitespace_as_str_does(tmp_path):
    # CRLF and form-feed line breaks, no-break spaces, Arabic-Indic digits, a
    # sign, an underscore and a leading zero all read as splitlines()/int() do.
    d = tmp_path / "U"
    d.mkdir()
    (d / "U_A.txt").write_bytes("1, 2\r\n2 ,1\x0c\u0663,\xa004\n".encode())
    (d / "U_graph_indicator.txt").write_bytes("1\r\n+1\r\n\r\n0_2\r\n\u0662\n".encode())
    (d / "U_graph_labels.txt").write_bytes("4\xa0\n\n5\n".encode())
    first, second = load_tu_dataset(tmp_path, "U").graphs
    for g in (first, second):
        np.testing.assert_array_equal(g.adjacency.to_dense(), [[0, 1], [1, 0]])
    assert (first.label, second.label) == (0, 1)
    assert_same_outcome(tmp_path, "U")


# ---------------------------------------------------------------------------
# The bulk loader against the line-by-line oracle


def outcome(load, root, name):
    """Every graph's raw arrays, or the type and text of the error loading raised."""
    try:
        ds = load(root, name)
    except Exception as exc:  # the oracle's own errors are the expectation
        return type(exc), str(exc)
    graphs = [
        (g.label, type(g.label), g.adjacency.shape, g.features.data.shape, g.features.data.dtype,
         g.adjacency.rows.tobytes(), g.adjacency.cols.tobytes(), g.adjacency.values.tobytes(),
         g.features.data.tobytes())
        for g in ds.graphs
    ]
    return ds.name, ds.n_classes, graphs


def assert_same_outcome(root, name):
    expected = outcome(oracle.load_tu_dataset, root, name)
    assert outcome(load_tu_dataset, root, name) == expected
    return expected


ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


@st.composite
def int_text(draw, value, fancy):
    """A spelling of ``value`` that ``int()`` reads back."""
    text = str(value)
    if fancy and value >= 0:
        text = draw(st.sampled_from([text, "+" + text, "00" + text, text.translate(ARABIC_INDIC)]))
        if len(text) > 1 and text[-1].isdigit() and text[-2].isdigit() and draw(st.booleans()):
            text = text[:-1] + "_" + text[-1]
    return draw(st.sampled_from(["", " ", "\t"] + ["  "] * fancy)) + text + draw(st.sampled_from(["", " "]))


@st.composite
def collections(draw):
    """Files of a valid collection as lists of lines, with what corruptions need to know."""
    fancy = draw(st.booleans())
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    node_graph = draw(st.permutations([g + 1 for g, k in enumerate(sizes) for _ in range(k)]))
    members = [[i + 1 for i, x in enumerate(node_graph) if x == g + 1] for g in range(len(sizes))]
    edge = st.sampled_from(members).flatmap(lambda m: st.tuples(st.sampled_from(m), st.sampled_from(m)))
    edges = draw(st.lists(edge, max_size=12))
    edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=4))] if edges else []
    separator = st.sampled_from([", ", ",", " ,", "\t,\t"] + [",　"] * fancy)
    files = {
        "graph_indicator": [draw(int_text(g, fancy)) for g in node_graph],
        "graph_labels": [draw(int_text(v, fancy)) for v in draw(st.lists(
            st.integers(-2, 3) | st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
            min_size=len(sizes), max_size=len(sizes)))],
        "A": [draw(int_text(u, fancy)) + draw(separator) + draw(int_text(v, fancy)) for u, v in edges],
    }
    kind = draw(st.sampled_from(["attributes", "labels", "both", "degree"]))
    if kind in ("labels", "both"):
        files["node_labels"] = [draw(int_text(v, fancy)) for v in draw(st.lists(
            st.integers(-3, 3), min_size=len(node_graph), max_size=len(node_graph)))]
    if kind in ("attributes", "both"):
        width = draw(st.integers(1, 3))
        value = st.floats(width=64).map(repr) | st.sampled_from(["1", " .5", "-0.0", "1e308", "nan", "-inf", "2_5.0"])
        files["node_attributes"] = [
            draw(separator).join(draw(st.lists(value, min_size=width, max_size=width))) for _ in node_graph]
    # Blank lines anywhere, of any whitespace.
    blank = st.sampled_from(["", "  ", "\t"] + ["　", "  "] * fancy)
    for suffix, lines in files.items():
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(blank))
    return {"files": files, "members": members, "fancy": fancy}


def write_collection(root: Path, name: str, files: dict, newline: str = "\n", final: bool = True) -> None:
    d = root / name
    d.mkdir(parents=True)
    for suffix, lines in files.items():
        text = newline.join(lines) + (newline if final else "")
        (d / f"{name}_{suffix}.txt").write_bytes(text.encode())


@given(collection=collections(), newline=st.sampled_from(["\n", "\r\n", "\r"]), final=st.booleans())
@settings(max_examples=120, deadline=None)
def test_bulk_loader_matches_the_oracle_on_valid_collections(collection, newline, final):
    with tempfile.TemporaryDirectory() as root:
        write_collection(Path(root), "C", collection["files"], newline, final)
        expected = assert_same_outcome(Path(root), "C")
    assert expected[0] == "C", expected


def _nonblank(lines):
    return [i for i, line in enumerate(lines) if line.strip()]


@st.composite
def corrupted(draw):
    """A valid collection with one corruption the oracle rejects, and the corruption's name."""
    collection = draw(collections())
    files = {k: list(v) for k, v in collection["files"].items()}
    members = collection["members"]
    n_nodes = sum(len(m) for m in members)
    kinds = ["bad token", "non-positive graph id", "surplus entry", "missing entry", "overflow"]
    if _nonblank(files["A"]):
        kinds += ["missing comma", "extra comma", "out-of-range id"] * 2
    if len(members) >= 2:
        kinds += ["cross-graph edge", "skipped graph id"]
    if len(members) >= 2 or len(members[0]) >= 2:
        kinds += ["ragged attribute row"] * ("node_attributes" in files)
    kind = draw(st.sampled_from(kinds))

    def pick(suffix):
        lines = files[suffix]
        return lines, draw(st.sampled_from(_nonblank(lines)))

    if kind == "bad token":
        suffix = draw(st.sampled_from([k for k in sorted(files) if _nonblank(files[k])
                                       and not (k == "node_labels" and "node_attributes" in files)]))
        lines, i = pick(suffix)
        parts = lines[i].split(",")
        j = draw(st.integers(0, len(parts) - 1))
        parts[j] = draw(st.sampled_from(["x", "1.0.0", "0x1", "1 2", "−3", "_1"]
                                        + ([] if suffix == "node_attributes" else ["1.5", "1e3", "nan"])))
        lines[i] = ",".join(parts)
    elif kind == "non-positive graph id":
        lines, i = pick("graph_indicator")
        lines[i] = draw(st.sampled_from(["0", "-2", " -0 "]))
    elif kind in ("surplus entry", "missing entry"):
        # Node labels are not read when there are attributes.
        feature_file = "node_attributes" if "node_attributes" in files else "node_labels"
        suffix = draw(st.sampled_from([k for k in ("graph_labels", feature_file) if k in files]))
        lines, i = pick(suffix)
        if kind == "surplus entry":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            del lines[i]
    elif kind == "overflow":
        suffix = draw(st.sampled_from([k for k in ("graph_indicator", "graph_labels", "node_labels", "A")
                                       if k in files and _nonblank(files[k])
                                       and not (k == "node_labels" and "node_attributes" in files)]))
        lines, i = pick(suffix)
        big = draw(st.sampled_from(["99999999999999999999", "-9223372036854775809", "9223372036854775808"]))
        lines[i] = big if suffix != "A" else lines[i].split(",")[0] + ", " + big
    elif kind == "missing comma":
        lines, i = pick("A")
        lines[i] = lines[i].replace(",", " ")
    elif kind == "extra comma":
        lines, i = pick("A")
        lines[i] = draw(st.sampled_from(["{},", ",{}", "{},,1", "{}, 1, 2", "{},1,"])).format(lines[i])
    elif kind == "out-of-range id":
        lines, i = pick("A")
        u, v = lines[i].split(",")
        bad = str(draw(st.sampled_from([0, -1, n_nodes + 1])))
        lines[i] = draw(st.sampled_from([f"{bad},{v}", f"{u}, {bad}"]))
    elif kind == "cross-graph edge":
        g, h = draw(st.permutations(range(len(members))))[:2]
        files["A"].insert(draw(st.integers(0, len(files["A"]))),
                          f"{draw(st.sampled_from(members[g]))}, {draw(st.sampled_from(members[h]))}")
    elif kind == "skipped graph id":
        # Every node of graph k moves to a new last graph, which gets a label.
        moved, node = set(members[draw(st.integers(0, len(members) - 2))]), 0
        for i, line in enumerate(files["graph_indicator"]):
            if line.strip():
                node += 1
                if node in moved:
                    files["graph_indicator"][i] = str(len(members) + 1)
        files["graph_labels"].append("0")
    elif kind == "ragged attribute row":
        lines, i = pick("node_attributes")
        parts = lines[i].split(",")
        lines[i] = ",".join(parts[:-1]) if len(parts) > 1 else lines[i] + ", 1.0"
    return files, kind


@given(case=corrupted(), newline=st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=200, deadline=None)
def test_bulk_loader_raises_the_oracle_error_on_each_corruption(case, newline):
    files, kind = case
    event(kind)
    with tempfile.TemporaryDirectory() as root:
        write_collection(Path(root), "C", files, newline)
        expected = assert_same_outcome(Path(root), "C")
    assert expected[0] is TUFormatError, (kind, expected)
    event(re.sub(r"[-\d'].*", "", expected[1].split(": ", 1)[1]))


@st.composite
def datasets(draw):
    n_classes = draw(st.integers(1, 3))
    graphs = []
    for g in range(draw(st.integers(n_classes, 5))):
        n = draw(st.integers(1, 6))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pairs, max_size=10)) if n > 1 else []
        width = 2
        features = np.array(draw(st.lists(st.floats(allow_nan=False, width=64), min_size=n * width,
                                          max_size=n * width))).reshape(n, width)
        graphs.append(graph_from_edges(n, edges, features=features, label=g % n_classes))
    return Dataset(name="RT", graphs=graphs, n_classes=n_classes)


@given(dataset=datasets())
@settings(max_examples=60, deadline=None)
def test_write_then_load_gives_back_the_same_bits(dataset):
    with tempfile.TemporaryDirectory() as root:
        write_tu_dataset(dataset, root)
        reloaded = load_tu_dataset(root, "RT")
    assert reloaded.n_classes == dataset.n_classes
    for a, b in zip(dataset.graphs, reloaded.graphs, strict=True):
        assert a.label == b.label
        for x, y in ((a.adjacency.rows, b.adjacency.rows), (a.adjacency.cols, b.adjacency.cols),
                     (a.adjacency.values, b.adjacency.values), (a.features.data, b.features.data)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# Stats


def test_dataset_stats_counts_undirected_edges(tmp_path):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    stats = dataset_stats(load_tu_dataset(tmp_path, "TOY"))
    assert stats == DatasetStats(n_graphs=2, mean_nodes=2.5, mean_edges=2.0, n_classes=2)


def test_check_stats_within_tolerance(tmp_path, monkeypatch):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    ds = load_tu_dataset(tmp_path, "TOY")
    monkeypatch.setitem(
        KNOWN_DATASET_STATS, "TOY", DatasetStats(2, 2.509, 1.991, 2)
    )
    ok, checks = check_stats(ds, "TOY")
    assert ok
    assert all(c.ok for c in checks)


def test_check_stats_flags_mismatch(tmp_path, monkeypatch):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    ds = load_tu_dataset(tmp_path, "TOY")
    monkeypatch.setitem(
        KNOWN_DATASET_STATS, "TOY", DatasetStats(3, 2.5, 2.0, 2)
    )
    ok, checks = check_stats(ds, "TOY")
    assert not ok
    failed = [c for c in checks if not c.ok]
    assert [c.field for c in failed] == ["n_graphs"]


def test_check_stats_unknown_name(tmp_path):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    ds = load_tu_dataset(tmp_path, "TOY")
    with pytest.raises(KeyError):
        check_stats(ds, "NO_SUCH_COLLECTION")


def test_check_stats_resolves_dataset_name_alias(tmp_path):
    write_fixture(tmp_path, "TOY", BASE_FILES)
    ds = load_tu_dataset(tmp_path, "TOY")
    ok_alias, checks_alias = check_stats(ds, "D&D")
    ok_direct, checks_direct = check_stats(ds, "DD")
    assert ok_alias == ok_direct
    assert [(c.field, c.expected) for c in checks_alias] == [
        (c.field, c.expected) for c in checks_direct
    ]


def test_frozen_stats_table_values():
    expected = {
        "PROTEINS": (1113, 39.06, 72.82, 2),
        "NCI1": (4110, 29.87, 32.30, 2),
        "NCI109": (4127, 29.68, 32.13, 2),
        "FRANKENSTEIN": (4337, 16.90, 17.88, 2),
        "DD": (1178, 284.32, 715.66, 2),
    }
    for name, (g, n, e, c) in expected.items():
        stats = KNOWN_DATASET_STATS[name]
        assert (stats.n_graphs, stats.mean_nodes, stats.mean_edges, stats.n_classes) == (
            g,
            n,
            e,
            c,
        )


# ---------------------------------------------------------------------------
# Synthetic motif corpus


def test_synthetic_deterministic_and_paired():
    a = synthetic_motif_dataset(40, seed=7)
    b = synthetic_motif_dataset(40, seed=7)
    for ga, gb in zip(a.graphs, b.graphs):
        assert ga.label == gb.label
        np.testing.assert_array_equal(ga.features.data, gb.features.data)
        np.testing.assert_array_equal(ga.adjacency.rows, gb.adjacency.rows)
        np.testing.assert_array_equal(ga.adjacency.cols, gb.adjacency.cols)
    labels = [g.label for g in a.graphs]
    assert labels == [0, 1] * 20


def test_synthetic_pairs_share_tree_and_add_motif():
    ds = synthetic_motif_dataset(20, seed=3)
    for tree, motif in zip(ds.graphs[0::2], ds.graphs[1::2]):
        n = tree.n_nodes
        assert motif.n_nodes == n + 3
        # Tree edges are a subset of the motif graph's edges.
        t = set(zip(tree.adjacency.rows.tolist(), tree.adjacency.cols.tolist()))
        m = set(zip(motif.adjacency.rows.tolist(), motif.adjacency.cols.tolist()))
        assert t <= m
        assert len(m) - len(t) == 12  # six undirected edges stored twice
        # Trees have n-1 undirected edges.
        assert tree.adjacency.nnz == 2 * (n - 1)


def test_synthetic_mean_degree_separates_classes():
    ds = synthetic_motif_dataset(60, seed=11)
    for g in ds.graphs:
        mean_degree = g.adjacency.nnz / g.n_nodes
        if g.label == 0:
            assert mean_degree < 2.0
        else:
            assert mean_degree > 2.0


def test_synthetic_features_are_normalized_degree():
    ds = synthetic_motif_dataset(10, seed=2)
    top = max(
        np.bincount(g.adjacency.rows, minlength=g.n_nodes).max() for g in ds.graphs
    )
    for g in ds.graphs:
        deg = np.bincount(g.adjacency.rows, minlength=g.n_nodes)
        np.testing.assert_allclose(g.features.data.ravel(), deg / top)
    assert max(g.features.data.max() for g in ds.graphs) == 1.0


def test_synthetic_node_range_respected():
    ds = synthetic_motif_dataset(30, seed=5, min_nodes=6, max_nodes=9)
    for tree in ds.graphs[0::2]:
        assert 6 <= tree.n_nodes <= 9


def test_synthetic_odd_count_rejected():
    with pytest.raises(ValueError):
        synthetic_motif_dataset(7)
