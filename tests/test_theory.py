"""Connectivity lab: exact optima, sampling bounds, tree sweeps, equivariance."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asap_pool.graphs import (
    bfs_distances,
    graph_from_edges,
    prufer_to_edges,
    random_tree_edges,
)
from asap_pool.pool import PoolConfig
from asap_pool.theory import (
    balanced_starlike_tree,
    closed_form_optimum,
    closed_form_path_ratio,
    edge_reach,
    enumerate_trees,
    min_sampling_ratio,
    optimum_nodes,
    path_graph,
    star_graph,
    tie_counterexample,
    tree_canonical_code,
    verify_equivariance,
    verify_graph_power,
    verify_tree_bounds,
)


# ---------------------------------------------------------------------------
# Independent oracles


def spread_oracle(a, h):
    """Largest node set pairwise >= h hops apart, by scanning all subsets."""
    n = a.shape[0]
    dist = bfs_distances(a)
    best = 0
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            ok = all(
                dist[u, v] < 0 or dist[u, v] >= h
                for u, v in itertools.combinations(subset, 2)
            )
            if ok:
                return size
    return best


def enumerate_trees_prufer(n):
    """Tree enumeration by decoding every Prüfer sequence (small ``n`` only).

    Exponentially slower than ``enumerate_trees``; an independent cross-check
    of the generator.
    """
    if n == 1:
        return [[]]
    if n == 2:
        return [[(0, 1)]]
    seen = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = prufer_to_edges(seq, n)
        code = tree_canonical_code(n, edges)
        if code not in seen:
            seen[code] = edges
    return [seen[code] for code in sorted(seen)]


def ascending_mask_scan(a, reach):
    """``(max_spread_size, spread_witness, ratio)`` by the one-mask-at-a-time scan.

    Each mask in ascending order is edge-free when the mask without its lowest
    node ``v`` is, and no other node of it lies within ``reach`` hops of
    ``v``; the first mask of the largest size found is the witness.
    """
    n = a.shape[0]
    dist = bfs_distances(a)
    close = [
        sum(1 << v for v in range(n) if u != v and 0 <= dist[u, v] <= reach) for u in range(n)
    ]
    edge_free = [True] * (1 << n)
    best_size, best_mask = 0, 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        edge_free[mask] = edge_free[rest] and not close[v] & rest
        size = bin(mask).count("1")
        if edge_free[mask] and size > best_size:
            best_size, best_mask = size, mask
    witness = tuple(v for v in range(n) if best_mask >> v & 1)
    return best_size, witness, Fraction(best_size + 1, n)


def random_graph(rng, n, edge_prob):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# Graph families


def test_path_and_star_shapes():
    path = path_graph(5)
    assert path.n_nodes == 5
    degrees = np.asarray(path.adjacency.to_dense()).sum(axis=1)
    assert sorted(degrees.tolist()) == [1, 1, 2, 2, 2]
    star = star_graph(6)
    degrees = np.asarray(star.adjacency.to_dense()).sum(axis=1)
    assert degrees[0] == 5
    assert all(d == 1 for d in degrees[1:])


def test_balanced_starlike_branch_heights():
    g = balanced_starlike_tree(13, 4)  # branches of height 2
    dist = bfs_distances(g.adjacency)
    assert g.n_nodes == 13
    assert dist[0].max() == 2  # every node within branch height of the root
    # Six full branches -> six tips pairwise 4 apart.
    tips = [v for v in range(13) if dist[0, v] == 2]
    assert len(tips) == 6
    assert all(dist[u, v] == 4 for u, v in itertools.combinations(tips, 2))


def test_balanced_starlike_rejects_odd_h():
    with pytest.raises(ValueError):
        balanced_starlike_tree(9, 3)
    with pytest.raises(ValueError):
        closed_form_optimum("balanced_starlike", 9, 3)


# ---------------------------------------------------------------------------
# Exact optimum node sets


def test_optimum_matches_subset_oracle_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n, edge_prob=0.4)
        for h in (1, 2, 3):
            assert optimum_nodes(g.adjacency, h).size == spread_oracle(g.adjacency, h)


def test_optimum_witness_is_valid_and_maximum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, edge_prob=0.35)
        result = optimum_nodes(g.adjacency, 2)
        dist = bfs_distances(g.adjacency)
        for u, v in itertools.combinations(result.witness, 2):
            assert dist[u, v] < 0 or dist[u, v] >= 2
        assert len(result.witness) == result.size


def test_path_optimum_matches_closed_form():
    for n in range(2, 21):
        g = path_graph(n)
        for h in (1, 2, 3, 4):
            expected = closed_form_optimum("path", n, h)
            assert expected == -(-n // h)  # ceil(n / h)
            assert optimum_nodes(g.adjacency, h).size == expected


def test_star_optimum_is_leaf_count():
    for n in (3, 5, 8):
        assert optimum_nodes(star_graph(n).adjacency, 2).size == n - 1


def test_balanced_starlike_optimum_matches_closed_form():
    for n, h in [(13, 4), (9, 2), (10, 4), (15, 6), (7, 2), (11, 4)]:
        g = balanced_starlike_tree(n, h)
        expected = closed_form_optimum("balanced_starlike", n, h)
        assert expected == (n - 1) // (h // 2)
        assert optimum_nodes(g.adjacency, h).size == expected


def test_optimum_rejects_bad_arguments():
    g = path_graph(4)
    with pytest.raises(ValueError):
        optimum_nodes(g.adjacency, 0)
    big = path_graph(40)
    with pytest.raises(ValueError):
        optimum_nodes(big.adjacency, 2)


# ---------------------------------------------------------------------------
# Sampling ratios


def test_edge_reach_values():
    assert edge_reach("ASAP", 1) == 3
    assert edge_reach("ASAP", 2) == 5
    assert edge_reach("TopK", 1) == 1
    assert edge_reach("TopK", 3) == 3
    with pytest.raises(ValueError):
        edge_reach("ASAP", 0)
    with pytest.raises(ValueError):
        edge_reach("DiffPool", 1)


def test_min_sampling_matches_spread_optimum():
    # The largest edge-free selection is exactly the largest (reach+1)-spread
    # set, computed here by an unrelated branch-and-bound.
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, edge_prob=0.4)
        for reach in (1, 2, 3):
            result = min_sampling_ratio(g.adjacency, reach)
            assert result.max_spread_size == optimum_nodes(g.adjacency, reach + 1).size
            assert result.min_count == result.max_spread_size + 1
            assert result.ratio == Fraction(result.min_count, n)


def test_min_sampling_witness_has_no_close_pair():
    g = path_graph(11)
    result = min_sampling_ratio(g.adjacency, 2)
    dist = bfs_distances(g.adjacency)
    for u, v in itertools.combinations(result.spread_witness, 2):
        assert dist[u, v] > 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6), st.integers(1, 4))
def test_min_sampling_matches_ascending_mask_scan(n, edge_prob, seed, reach):
    g = random_graph(np.random.default_rng(seed), n, edge_prob)
    result = min_sampling_ratio(g.adjacency, reach)
    assert (result.max_spread_size, result.spread_witness, result.ratio) == ascending_mask_scan(g.adjacency, reach)


@pytest.mark.parametrize("reach", [1, 2, 3, 4])
def test_min_sampling_matches_ascending_mask_scan_at_the_node_limit(reach):
    a = path_graph(16).adjacency
    result = min_sampling_ratio(a, reach)
    assert (result.max_spread_size, result.spread_witness, result.ratio) == ascending_mask_scan(a, reach)


def test_path_sampling_matches_closed_form():
    for n in range(3, 17):
        g = path_graph(n)
        for reach in (1, 2, 3):
            assert min_sampling_ratio(g.adjacency, reach).ratio == closed_form_path_ratio(n, reach)


def test_path_ratio_limit_on_divisible_lengths():
    for reach in (1, 2, 3):
        n = 4 * (reach + 1)
        assert closed_form_path_ratio(n, reach) == Fraction(1, reach + 1) + Fraction(1, n)


# ---------------------------------------------------------------------------
# Tree enumeration


def test_tree_counts_match_known_sequence():
    assert [len(enumerate_trees(n)) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_tree_enumerations_agree():
    for n in range(1, 8):
        fast = {tree_canonical_code(n, edges) for edges in enumerate_trees(n)}
        slow = {tree_canonical_code(n, edges) for edges in enumerate_trees_prufer(n)}
        assert fast == slow


def test_canonical_code_is_relabel_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        edges = random_tree_edges(n, rng)
        perm = rng.permutation(n)
        relabeled = [(int(perm[u]), int(perm[v])) for u, v in edges]
        assert tree_canonical_code(n, edges) == tree_canonical_code(n, relabeled)


def test_canonical_code_separates_path_and_star():
    n = 5
    path = [(i, i + 1) for i in range(n - 1)]
    star = [(0, leaf) for leaf in range(1, n)]
    assert tree_canonical_code(n, path) != tree_canonical_code(n, star)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_prufer_trees_have_canonical_partner(n, raw_seed):
    rng = np.random.default_rng(raw_seed)
    seq = tuple(int(rng.integers(0, n)) for _ in range(n - 2))
    code = tree_canonical_code(n, prufer_to_edges(seq, n))
    catalog = {tree_canonical_code(n, edges) for edges in enumerate_trees(n)}
    assert code in catalog


# ---------------------------------------------------------------------------
# Worst-case bounds over all trees


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_tree_bounds_cluster_pooling_never_needs_more(n):
    row = verify_tree_bounds(n, h=1)
    assert row.asap_never_worse
    assert row.worst_asap <= row.worst_topk


@pytest.mark.parametrize("n", [5, 6, 7])
def test_tree_bounds_starlike_family_is_extremal(n):
    row = verify_tree_bounds(n, h=1)
    assert row.worst_cases_match
    assert row.n_trees == len(enumerate_trees(n))


# ---------------------------------------------------------------------------
# Graph powers


def test_graph_power_reach_with_and_without_clusters():
    rng = np.random.default_rng(4)
    for trial in range(6):
        n = int(rng.integers(5, 10))
        g = graph_from_edges(n, random_tree_edges(n, rng))
        for p, h in [(1, 1), (2, 1), (3, 2)]:
            result = verify_graph_power(g, p, h)
            assert result.plain_reach_ok
            assert result.pooled_reach_ok
            assert result.max_plain_distance <= p
            assert result.max_pooled_distance <= p + 2 * h
            assert result.max_pooled_distance >= result.max_plain_distance


def test_graph_power_reaches_bound_on_long_path():
    result = verify_graph_power(path_graph(12), 2, 1)
    assert result.max_plain_distance == 2
    assert result.max_pooled_distance == 4


# ---------------------------------------------------------------------------
# Permutation equivariance


def test_equivariance_holds_on_random_graphs():
    report = verify_equivariance(n_trials=20, seed=0)
    assert report.all_passed, report.failures
    assert report.max_feature_error < 1e-8
    assert report.max_adjacency_error < 1e-8
    assert report.max_fitness_error < 1e-8


def test_equivariance_other_pool_settings():
    config = PoolConfig(k=0.75, h=2, attention="S2T", fitness="GCN")
    report = verify_equivariance(n_trials=10, seed=1, config=config)
    assert report.all_passed, report.failures


def test_tie_counterexample_breaks_equivariance():
    pooled, pooled_perm, perm = tie_counterexample()
    # Both labelings keep "node 0" -- i.e. different original nodes.
    assert not np.array_equal(perm[pooled.selected], pooled_perm.selected)
    assert not np.allclose(pooled.features.data, pooled_perm.features.data)
