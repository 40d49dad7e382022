"""Benchmark-format ingestion, stats checking, and the synthetic motif corpus."""

import numpy as np
import pytest

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
from asap_pool.graphs import graph_from_edges


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
