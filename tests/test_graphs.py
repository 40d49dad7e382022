"""Graph containers and neighborhood utilities against hand-rolled oracles."""

from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asap_pool.graphs import (
    Dataset,
    Graph,
    batch_graphs,
    bfs_distances,
    graph_from_edges,
    graph_power,
    h_hop_membership,
    normalize_gcn,
    permute_graph,
    prufer_to_edges,
    random_tree_edges,
)
from asap_pool.engine import SparseMatrix, Tensor
from _tu_oracle import graph_from_edges as oracle_graph_from_edges


def bfs_oracle(n, edge_list, directed=False):
    """Plain queue-based all-pairs BFS; -1 marks unreachable pairs.

    With ``directed``, an edge ``(u, v)`` leads from ``u`` to ``v`` only.
    """
    adj = [[] for _ in range(n)]
    for u, v in edge_list:
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[s, w] < 0:
                    dist[s, w] = dist[s, u] + 1
                    queue.append(w)
    return dist


def random_graph(rng, n, p=0.35):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges), edges


# ---------------------------------------------------------------------------
# Construction and invariants


def test_graph_from_edges_symmetrizes_and_deduplicates():
    g = graph_from_edges(3, [(0, 1), (1, 0), (1, 2)])
    dense = g.adjacency.to_dense()
    np.testing.assert_allclose(dense, dense.T)
    np.testing.assert_allclose(dense, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_graph_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        graph_from_edges(2, [(1, 1)])


def test_graph_from_edges_unit_weights_and_custom_features():
    feats = np.array([[1.0], [2.0]])
    g = graph_from_edges(2, [(0, 1), (1, 0)], features=feats, label=1)
    np.testing.assert_array_equal(g.adjacency.to_dense(), [[0, 1.0], [1.0, 0]])
    np.testing.assert_allclose(g.features.data, feats)
    assert g.label == 1


def test_graph_invariants_rejected():
    with pytest.raises(ValueError):  # asymmetric values
        Graph(
            SparseMatrix.from_coo((2, 2), [0, 1], [1, 0], [1.0, 2.0]),
            Tensor(np.zeros((2, 1))),
        )
    with pytest.raises(ValueError):  # negative weight
        Graph(
            SparseMatrix.from_coo((2, 2), [0, 1], [1, 0], [-1.0, -1.0]),
            Tensor(np.zeros((2, 1))),
        )
    with pytest.raises(ValueError):  # stored diagonal
        Graph(SparseMatrix((2, 2), [0, 1], [0, 1], [1.0, 1.0]), Tensor(np.zeros((2, 1))))
    with pytest.raises(ValueError):  # feature row count
        Graph(SparseMatrix((2, 2), [], [], []), Tensor(np.zeros((3, 1))))


@pytest.mark.parametrize(
    "rows, cols, values, message",
    [
        ([0, 0], [1, 2], [1.0, 1.0], "adjacency pattern must be symmetric"),
        ([0, 1], [1, 0], [1.0, 2.0], "adjacency weights must be symmetric"),
        ([0, 1], [1, 0], [np.nan, np.nan], "adjacency weights must be symmetric"),
        ([0, 2], [2, 0], [np.inf, 1.0], "adjacency weights must be symmetric"),
    ],
)
def test_graph_rejects_asymmetry_and_nan_weights(rows, cols, values, message):
    with pytest.raises(ValueError) as exc:
        Graph(SparseMatrix.from_coo((3, 3), rows, cols, values), Tensor(np.zeros((3, 1))))
    assert str(exc.value) == message


def test_graph_accepts_infinite_and_signed_zero_weights_that_mirror():
    for values in ([np.inf, np.inf], [0.0, -0.0]):
        g = Graph(SparseMatrix.from_coo((2, 2), [0, 1], [1, 0], values), Tensor(np.zeros((2, 1))))
        assert g.n_edges == 1


def _built(build, *args, **kwargs):
    """A graph's raw arrays, or the type and text of the error building it raised."""
    try:
        g = build(*args, **kwargs)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    a = g.adjacency
    return a.shape, a.rows.dtype, a.values.dtype, a.rows.tobytes(), a.cols.tobytes(), a.values.tobytes(), \
        g.features.data.tobytes(), g.label


@given(n=st.integers(0, 6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_graph_from_edges_matches_the_dict_oracle(n, data):
    edges = data.draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=14))
    assert _built(graph_from_edges, n, edges, label=1) == _built(oracle_graph_from_edges, n, edges, label=1)


def test_dataset_validates_labels_and_feature_dim():
    g_ok = graph_from_edges(2, [(0, 1)], label=0)
    g_bad_label = graph_from_edges(2, [(0, 1)], label=7)
    with pytest.raises(ValueError):
        Dataset(name="x", graphs=[g_ok, g_bad_label], n_classes=2)
    g_wide = graph_from_edges(2, [(0, 1)], features=np.ones((2, 3)), label=0)
    with pytest.raises(ValueError):
        Dataset(name="x", graphs=[g_ok, g_wide], n_classes=2)


# ---------------------------------------------------------------------------
# Batching


def test_batch_graphs_block_diagonal():
    a = graph_from_edges(2, [(0, 1)], label=0)
    b = graph_from_edges(3, [(0, 2), (1, 2)], label=1)
    batch = batch_graphs([a, b])
    expected = np.zeros((5, 5))
    expected[0, 1] = expected[1, 0] = 1
    expected[2 + 0, 2 + 2] = expected[2 + 2, 2 + 0] = 1
    expected[2 + 1, 2 + 2] = expected[2 + 2, 2 + 1] = 1
    np.testing.assert_allclose(batch.adjacency.to_dense(), expected)
    assert batch.node_graph_ids.tolist() == [0, 0, 1, 1, 1]
    assert batch.n_graphs == 2
    assert batch.labels.tolist() == [0, 1]
    assert batch.features.data.shape == (5, 1)


def test_batch_graphs_requires_nonempty():
    with pytest.raises(ValueError):
        batch_graphs([])


# ---------------------------------------------------------------------------
# Permutation


def test_permute_graph_matches_dense_conjugation():
    rng = np.random.default_rng(0)
    g, _ = random_graph(rng, 6)
    g = graph_from_edges(
        6,
        [(int(r), int(c)) for r, c in zip(*np.nonzero(np.triu(g.adjacency.to_dense())))],
        features=rng.standard_normal((6, 2)),
    )
    perm = rng.permutation(6)
    pg = permute_graph(g, perm)
    p = np.zeros((6, 6))
    p[perm, np.arange(6)] = 1.0  # column j of the original moves to row perm[j]
    np.testing.assert_allclose(
        pg.adjacency.to_dense(), p @ g.adjacency.to_dense() @ p.T
    )
    np.testing.assert_allclose(pg.features.data[perm], g.features.data)


# ---------------------------------------------------------------------------
# Distances, hop membership, powers


@pytest.mark.parametrize("seed", range(5))
def test_bfs_distances_matches_queue_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    g, edges = random_graph(rng, n)
    np.testing.assert_array_equal(bfs_distances(g.adjacency), bfs_oracle(n, edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.integers(0, 10**6))
@example(0, 0.0, 0.0, 0)
@example(1, 0.0, 0.0, 0)
@example(1, 1.0, 0.0, 0)
@example(6, 0.0, 0.0, 0)
@example(30, 0.5, 1.0, 0)
def test_property_bfs_distances_matches_queue_oracle_on_directed_patterns(n, edge_prob, zero_prob, seed):
    # Asymmetric patterns with self loops, isolated nodes and explicit 0.0
    # values (all of them at zero_prob 1): every stored entry (u, v) is an
    # edge from u to v.
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, n)) < edge_prob)
    values = np.where(rng.random(rows.size) < zero_prob, 0.0, rng.random(rows.size) + 0.5)
    a = SparseMatrix((n, n), rows, cols, values)
    dist = bfs_distances(a)
    assert dist.dtype == np.int64 and dist.flags.c_contiguous
    np.testing.assert_array_equal(dist, bfs_oracle(n, zip(rows.tolist(), cols.tolist()), directed=True))


def scipy_reach_oracle(a, steps):
    """Pattern within ``steps`` hops as scipy's boolean matrix power builds it, with 1.0 entries."""
    n = a.shape[0]
    indices, indptr = a.csr_index()
    base = sp.csr_matrix((np.ones(a.nnz, dtype=bool), indices, indptr), shape=a.shape)
    base = base + sp.identity(n, dtype=bool, format="csr")
    reach = base
    for _ in range(steps - 1):
        reach = (reach @ base).astype(bool)
    reach = reach.tocsr()
    reach.sum_duplicates()
    reach.sort_indices()
    coo = reach.tocoo()
    return SparseMatrix((n, n), coo.row, coo.col, np.ones(coo.nnz))


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    for part in ("rows", "cols", "values"):
        g, w = getattr(got, part), getattr(want, part)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), part


def test_h_hop_membership_is_distance_ball():
    for seed in range(12):
        rng = np.random.default_rng(42 + seed)
        n = int(rng.integers(1, 16))
        g, edges = random_graph(rng, n, p=rng.uniform(0.05, 0.5))
        dist = bfs_oracle(n, edges)
        # A directed pattern with self loops and explicit 0.0 values: every stored entry is an edge.
        rows, cols = np.nonzero(rng.random((n, n)) < 0.2)
        directed = SparseMatrix((n, n), rows, cols, np.where(rng.random(rows.size) < 0.5, 0.0, 2.0))
        for h in (1, 2, 3, 4):
            membership = h_hop_membership(g.adjacency, h)
            np.testing.assert_array_equal(membership.to_dense() > 0, (dist >= 0) & (dist <= h))
            assert_same_arrays(membership, scipy_reach_oracle(g.adjacency, h))
            assert_same_arrays(h_hop_membership(directed, h), scipy_reach_oracle(directed, h))


def test_h_hop_membership_includes_isolated_self():
    g = graph_from_edges(3, [(0, 1)])
    got = h_hop_membership(g.adjacency, 1).to_dense()
    assert got[2, 2] == 1.0  # isolated node is its own cluster


def test_h_hop_membership_rejects_nonpositive_h():
    g = graph_from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        h_hop_membership(g.adjacency, 0)


def test_graph_power_is_punctured_distance_ball():
    rng = np.random.default_rng(7)
    n = 8
    g, edges = random_graph(rng, n)
    dist = bfs_oracle(n, edges)
    for p in (1, 2, 3, 4):
        power = graph_power(g.adjacency, p)
        np.testing.assert_array_equal(power.to_dense() > 0, (dist >= 1) & (dist <= p))
        reach = scipy_reach_oracle(g.adjacency, p)
        off_diagonal = reach.rows != reach.cols
        assert_same_arrays(power, SparseMatrix(
            reach.shape, reach.rows[off_diagonal], reach.cols[off_diagonal], reach.values[off_diagonal]))


def test_normalize_gcn_matches_dense_formula():
    rng = np.random.default_rng(3)
    g, _ = random_graph(rng, 7)
    a = g.adjacency.to_dense() + np.eye(7)
    d = np.diag(a.sum(axis=1) ** -0.5)
    np.testing.assert_allclose(
        normalize_gcn(g.adjacency).to_dense(), d @ a @ d, atol=1e-12
    )


def test_normalize_gcn_entries_nonnegative():
    rng = np.random.default_rng(4)
    for seed in range(5):
        g, _ = random_graph(np.random.default_rng(seed), 8)
        assert normalize_gcn(g.adjacency).values.min() >= 0.0


# ---------------------------------------------------------------------------
# Trees


def test_prufer_decode_known_example():
    # Sequence (3, 3, 3, 4) on 6 nodes: the classic star-of-stars example.
    edges = prufer_to_edges([3, 3, 3, 4], 6)
    expected = {(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)}
    assert {tuple(sorted(e)) for e in edges} == expected


def assert_is_tree(n, edges):
    assert len(edges) == n - 1
    dist = bfs_oracle(n, edges)
    assert (dist >= 0).all()


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 12))
@settings(max_examples=40, deadline=None)
def test_property_prufer_decode_yields_tree(seed, n):
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, n, n - 2)
    assert_is_tree(n, prufer_to_edges(seq, n))


def test_prufer_round_trips_through_degree_signature():
    # Node degree in the decoded tree = multiplicity in sequence + 1.
    seq = [0, 5, 2, 5, 3]
    edges = prufer_to_edges(seq, 7)
    deg = np.zeros(7, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    expected = np.bincount(seq, minlength=7) + 1
    np.testing.assert_array_equal(deg, expected)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_property_random_tree_is_tree(seed, n):
    rng = np.random.default_rng(seed)
    edges = random_tree_edges(n, rng)
    assert_is_tree(n, edges)


def test_random_tree_deterministic_for_same_rng_state():
    a = random_tree_edges(12, np.random.default_rng(9))
    b = random_tree_edges(12, np.random.default_rng(9))
    assert a == b
