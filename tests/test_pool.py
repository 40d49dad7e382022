"""The pooling operator: hand oracles, dense-reference agreement, edge cases."""

import numpy as np
import pytest

from _dense_reference import dense_pool
from asap_pool import pool as pool_module
from asap_pool.datasets import synthetic_motif_dataset
from asap_pool.engine import (
    ClusterLayout,
    SparseMatrix,
    Tape,
    Tensor,
    cluster_sum,
    gather_rows,
    grad_check,
    hadamard,
    reduce_sum,
    spmm,
)
from asap_pool.graphs import batch_graphs, graph_from_edges, h_hop_membership, normalize_gcn
from asap_pool.layers import AttentionParams, GCNParams, LEConvParams
from asap_pool.pool import (
    AGGREGATION_MODES,
    FITNESS_KINDS,
    PoolConfig,
    PoolParams,
    asap_pool,
    asap_pool_batch,
    form_clusters,
    select_top,
    top_count,
)
from asap_pool.layers import ATTENTION_KINDS


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


def star_params():
    """Attention score vector zero -> uniform membership; fitness = sigmoid(x)."""
    return PoolParams(
        intra_gcn=GCNParams(Tensor([[1.0]])),
        attention=AttentionParams(
            kind="M2T", weight=Tensor([[1.0]]), score=Tensor(np.zeros((2, 1)))
        ),
        fitness=LEConvParams(
            Tensor([[1.0]]), Tensor([[0.0]]), Tensor([[0.0]])
        ),
    )


def star_graph_fixture():
    return graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], features=[[2.0], [1.0], [1.0], [1.0]])


def reference_params(rng, dim, config):
    """Pool parameters plus the raw arrays the dense reference consumes."""
    params = PoolParams.init(rng, dim, config)
    if config.fitness == "LEConv":
        fitness_weights = (
            params.fitness.weight_self.data,
            params.fitness.weight_center.data,
            params.fitness.weight_neighbor.data,
        )
    else:
        fitness_weights = (params.fitness.weight.data,)
    arrays = {
        "intra_weight": params.intra_gcn.weight.data,
        "attn_weight": params.attention.weight.data,
        "attn_score": params.attention.score.data[:, 0],
        "fitness_weights": fitness_weights,
    }
    return params, arrays


# ---------------------------------------------------------------------------
# Selection


def test_top_count_ceiling():
    assert top_count(0.5, 5) == 3
    assert top_count(0.5, 4) == 2
    assert top_count(1.0, 7) == 7
    assert top_count(0.1, 3) == 1
    assert top_count(0.01, 1) == 1  # never empty


def test_select_top_rank_order_and_ties():
    phi = Tensor([[0.3], [0.9], [0.9], [0.1]])
    selected, pooled_ids = select_top(phi, 0.75, np.zeros(4, dtype=np.int64), 1)
    assert selected.tolist() == [1, 2, 0]  # descending fitness, tie keeps lower index
    assert pooled_ids.tolist() == [0, 0, 0]


def test_select_top_per_graph():
    phi = Tensor([[0.1], [0.5], [0.9], [0.2], [0.8]])
    ids = np.array([0, 0, 0, 1, 1])
    selected, pooled_ids = select_top(phi, 0.5, ids, 2)
    assert selected.tolist() == [2, 1, 4]
    assert pooled_ids.tolist() == [0, 0, 1]

    # Exact ties inside and across graphs keep the lower index; a one-node
    # graph keeps its node.
    phi = Tensor([[0.7], [0.4], [0.7], [0.4], [0.4], [0.7], [0.7], [0.7], [0.4], [0.4]])
    ids = np.array([0, 0, 0, 0, 1, 1, 1, 2, 3, 3])
    selected, pooled_ids = select_top(phi, 0.5, ids, 4)
    assert selected.tolist() == [0, 2, 5, 6, 7, 8]
    assert pooled_ids.tolist() == [0, 0, 1, 1, 2, 3]

    # Same answer as ranking each graph on its own, on tie-heavy inputs.
    rng = np.random.default_rng(4)
    sizes = rng.integers(1, 6, size=9)
    ids = np.repeat(np.arange(9), sizes)
    phi = Tensor(rng.integers(0, 3, size=(ids.shape[0], 1)) / 4.0)
    expected = []
    for g, lo in enumerate(np.concatenate(([0], np.cumsum(sizes)[:-1]))):
        order = np.argsort(-phi.data[lo : lo + sizes[g], 0], kind="stable")
        expected.extend((lo + order[: top_count(0.4, int(sizes[g]))]).tolist())
    selected, pooled_ids = select_top(phi, 0.4, ids, 9)
    assert selected.tolist() == expected
    assert pooled_ids.tolist() == ids[expected].tolist()


# ---------------------------------------------------------------------------
# Star fixture, fully hand-computed


def test_star_membership_and_cluster_features():
    pooled = asap_pool(star_graph_fixture(), star_params(), PoolConfig())
    s = pooled.membership.to_dense().T
    # Cluster 0 covers everything uniformly; leaf clusters average with the hub.
    np.testing.assert_allclose(s[:, 0], 0.25)
    np.testing.assert_allclose(s[:, 1], [0.5, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(s[:, 2], [0.5, 0.0, 0.5, 0.0])
    np.testing.assert_allclose(
        pooled.clusters.data.ravel(), [1.25, 1.5, 1.5, 1.5]
    )


def test_star_fitness_selection_and_features():
    pooled = asap_pool(star_graph_fixture(), star_params(), PoolConfig())
    np.testing.assert_allclose(
        pooled.fitness.data.ravel(), sigmoid([1.25, 1.5, 1.5, 1.5]), atol=1e-12
    )
    # Three-way tie among the leaves: lower indices win, in rank order.
    assert pooled.selected.tolist() == [1, 2]
    np.testing.assert_allclose(
        pooled.features.data.ravel(), sigmoid(1.5) * np.array([1.5, 1.5]), atol=1e-12
    )


def test_star_soft_coarsening_hand_computed():
    pooled = asap_pool(star_graph_fixture(), star_params(), PoolConfig())
    np.testing.assert_allclose(
        pooled.adjacency.to_dense(), [[0.0, 0.75], [0.75, 0.0]], atol=1e-12
    )


def test_star_hard_coarsening_drops_unlinked_survivors():
    pooled = asap_pool(
        star_graph_fixture(), star_params(), PoolConfig(soft_edges=False)
    )
    np.testing.assert_allclose(pooled.adjacency.to_dense(), np.zeros((2, 2)))


def test_star_aggregation_none_carries_raw_features():
    pooled = asap_pool(
        star_graph_fixture(), star_params(), PoolConfig(aggregation="None")
    )
    assert pooled.clusters is None
    # Fitness still comes from raw features: sigmoid([2,1,1,1]) -> hub wins.
    assert pooled.selected.tolist() == [0, 1]
    np.testing.assert_allclose(
        pooled.features.data.ravel(),
        [sigmoid(2.0) * 2.0, sigmoid(1.0) * 1.0],
        atol=1e-12,
    )


def test_star_aggregation_only_cluster():
    pooled = asap_pool(
        star_graph_fixture(), star_params(), PoolConfig(aggregation="OnlyCluster")
    )
    # Fitness from raw x (hub highest), carried features from cluster averages.
    assert pooled.selected.tolist() == [0, 1]
    np.testing.assert_allclose(
        pooled.features.data.ravel(),
        [sigmoid(2.0) * 1.25, sigmoid(1.0) * 1.5],
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# Dense-reference agreement across every variant


def random_connected_graph(rng, n):
    edges = {(i - 1, i) for i in range(1, n)}  # path backbone keeps it connected
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.add((i, j))
    feats = rng.standard_normal((n, 3))
    return graph_from_edges(n, sorted(edges), features=feats)


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
@pytest.mark.parametrize("fitness", FITNESS_KINDS)
def test_matches_dense_reference_attention_fitness(attention, fitness):
    rng = np.random.default_rng(hash((attention, fitness)) % 2**32)
    config = PoolConfig(k=0.5, h=1, attention=attention, fitness=fitness)
    graph = random_connected_graph(rng, 9)
    params, arrays = reference_params(rng, 3, config)
    pooled = asap_pool(graph, params, config)
    ref = dense_pool(
        graph.adjacency.to_dense(),
        graph.features.data,
        k=config.k,
        h=config.h,
        attention=attention,
        fitness=fitness,
        aggregation=config.aggregation,
        soft_edges=config.soft_edges,
        **arrays,
    )
    np.testing.assert_array_equal(pooled.selected, ref["selected"])
    np.testing.assert_allclose(pooled.fitness.data, ref["fitness"], atol=1e-10)
    np.testing.assert_allclose(
        pooled.membership.to_dense().T, ref["membership"], atol=1e-10
    )
    np.testing.assert_allclose(pooled.features.data, ref["features"], atol=1e-10)
    np.testing.assert_allclose(
        pooled.adjacency.to_dense(), ref["adjacency"], atol=1e-10
    )


@pytest.mark.parametrize("aggregation", AGGREGATION_MODES)
@pytest.mark.parametrize("soft_edges", [True, False])
def test_matches_dense_reference_modes(aggregation, soft_edges):
    rng = np.random.default_rng(hash((aggregation, soft_edges)) % 2**32)
    config = PoolConfig(aggregation=aggregation, soft_edges=soft_edges)
    graph = random_connected_graph(rng, 8)
    params, arrays = reference_params(rng, 3, config)
    pooled = asap_pool(graph, params, config)
    ref = dense_pool(
        graph.adjacency.to_dense(),
        graph.features.data,
        k=config.k,
        h=config.h,
        attention=config.attention,
        fitness=config.fitness,
        aggregation=aggregation,
        soft_edges=soft_edges,
        **arrays,
    )
    np.testing.assert_array_equal(pooled.selected, ref["selected"])
    np.testing.assert_allclose(pooled.features.data, ref["features"], atol=1e-10)
    np.testing.assert_allclose(
        pooled.adjacency.to_dense(), ref["adjacency"], atol=1e-10
    )


def test_matches_dense_reference_wider_neighborhood():
    rng = np.random.default_rng(123)
    config = PoolConfig(k=0.75, h=2)
    graph = random_connected_graph(rng, 10)
    params, arrays = reference_params(rng, 3, config)
    pooled = asap_pool(graph, params, config)
    ref = dense_pool(
        graph.adjacency.to_dense(),
        graph.features.data,
        k=0.75,
        h=2,
        attention=config.attention,
        fitness=config.fitness,
        aggregation=config.aggregation,
        soft_edges=True,
        **arrays,
    )
    np.testing.assert_array_equal(pooled.selected, ref["selected"])
    np.testing.assert_allclose(pooled.features.data, ref["features"], atol=1e-10)
    np.testing.assert_allclose(
        pooled.adjacency.to_dense(), ref["adjacency"], atol=1e-10
    )


# ---------------------------------------------------------------------------
# Batch semantics


def test_batch_equals_per_graph_pooling():
    rng = np.random.default_rng(5)
    graphs = [random_connected_graph(rng, n) for n in (5, 8, 6)]
    config = PoolConfig()
    params = PoolParams.init(rng, 3, config)

    batch = batch_graphs(graphs)
    pooled = asap_pool_batch(
        batch.features, batch.adjacency, batch.node_graph_ids, batch.n_graphs, params, config
    )

    offset, pooled_offset = 0, 0
    for g in graphs:
        single = asap_pool(g, params, config)
        m = single.selected.size
        np.testing.assert_array_equal(
            pooled.selected[pooled_offset : pooled_offset + m] - offset, single.selected
        )
        np.testing.assert_allclose(
            pooled.features.data[pooled_offset : pooled_offset + m],
            single.features.data,
            atol=1e-12,
        )
        block = pooled.adjacency.to_dense()[
            pooled_offset : pooled_offset + m, pooled_offset : pooled_offset + m
        ]
        np.testing.assert_allclose(block, single.adjacency.to_dense(), atol=1e-12)
        offset += g.n_nodes
        pooled_offset += m


@pytest.mark.parametrize("soft_edges", [True, False])
def test_one_hop_membership_is_normalized_adjacency_pattern(soft_edges):
    rng = np.random.default_rng(8)
    graphs = [random_connected_graph(rng, n) for n in (6, 9, 1, 7)]
    batch = batch_graphs(graphs)
    config = PoolConfig(soft_edges=soft_edges)
    x, a, ids = batch.features, batch.adjacency, batch.node_graph_ids
    for _ in range(3):  # the input graphs, then two pooled levels
        reference = h_hop_membership(a, 1)
        a_norm = normalize_gcn(a)
        np.testing.assert_array_equal(a_norm.rows, reference.rows)
        np.testing.assert_array_equal(a_norm.cols, reference.cols)
        params = PoolParams.init(rng, x.data.shape[1], config)
        _, _, (cluster_ids, member_ids) = form_clusters(x, a, a_norm, params, config)
        np.testing.assert_array_equal(cluster_ids, reference.rows)
        np.testing.assert_array_equal(member_ids, reference.cols)
        pooled = asap_pool_batch(x, a, ids, batch.n_graphs, params, config, a_norm)
        x, a, ids = pooled.features, pooled.adjacency, pooled.node_graph_ids


@pytest.mark.parametrize("h", [1, 2])
def test_membership_shares_the_cluster_patterns_arrays_and_csr_index(h, monkeypatch):
    rng = np.random.default_rng(10)
    batch = batch_graphs([random_connected_graph(rng, n) for n in (6, 9, 1, 7)])
    a_norm = normalize_gcn(batch.adjacency)
    patterns = [a_norm]

    def recorded_membership(a, radius):
        patterns[0] = h_hop_membership(a, radius)
        return patterns[0]

    monkeypatch.setattr(pool_module, "h_hop_membership", recorded_membership)
    config = PoolConfig(h=h)
    params = PoolParams.init(rng, batch.features.data.shape[1], config)
    _, membership, _ = form_clusters(batch.features, batch.adjacency, a_norm, params, config)
    pattern = patterns[0]
    assert (pattern is a_norm) == (h == 1)
    assert np.shares_memory(membership.rows, pattern.rows) and np.shares_memory(membership.cols, pattern.cols)
    assert membership.csr_index() is pattern.csr_index()


@pytest.mark.parametrize("h", [1, 2])
def test_cluster_ops_match_unfused_chain_on_proteins_shaped_batch(h):
    # The gather / scale / per-cluster reduce chain the fused op replaces: a
    # product with a constant cluster-by-pair indicator.
    dataset = synthetic_motif_dataset(32, seed=4, min_nodes=20, max_nodes=57)
    a = batch_graphs(dataset.graphs).adjacency
    layout = ClusterLayout(normalize_gcn(a) if h == 1 else h_hop_membership(a, h))
    c, m = layout.cluster_ids, layout.member_ids
    n, pairs = a.shape[0], c.shape[0]
    indicator = SparseMatrix((n, pairs), c, np.arange(pairs), np.ones(pairs))
    rng = np.random.default_rng(9)
    x_data, w_data = rng.standard_normal((n, 64)), rng.random((pairs, 1))
    upstream = Tensor(rng.standard_normal((n, 64)))

    def run(fused):
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        with Tape() as tape:
            if fused:
                sums = cluster_sum(layout, w, x)
            else:
                sums = spmm(indicator, hadamard(w, gather_rows(x, m)))
            loss = reduce_sum(hadamard(sums, upstream))
        tape.backward(loss)
        return sums.data, x.grad, w.grad

    for fused, chain in zip(run(True), run(False)):
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Edge cases


def test_single_node_graph():
    g = graph_from_edges(1, [], features=[[3.0]])
    config = PoolConfig()
    params = PoolParams.init(np.random.default_rng(0), 1, config)
    pooled = asap_pool(g, params, config)
    assert pooled.selected.tolist() == [0]
    assert pooled.adjacency.shape == (1, 1)
    assert pooled.adjacency.nnz == 0
    np.testing.assert_allclose(pooled.membership.to_dense(), [[1.0]])


def test_edgeless_graph_pools_every_isolated_node_alone():
    g = graph_from_edges(3, [], features=[[1.0], [2.0], [3.0]])
    config = PoolConfig(k=1.0)
    params = PoolParams.init(np.random.default_rng(1), 1, config)
    pooled = asap_pool(g, params, config)
    np.testing.assert_allclose(pooled.membership.to_dense(), np.eye(3))
    assert pooled.adjacency.nnz == 0  # no clusters overlap


def test_k_one_keeps_all_nodes():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 6)
    config = PoolConfig(k=1.0)
    params = PoolParams.init(rng, 3, config)
    pooled = asap_pool(g, params, config)
    assert sorted(pooled.selected.tolist()) == list(range(6))


def test_pool_config_validation():
    with pytest.raises(ValueError):
        PoolConfig(k=0.0)
    with pytest.raises(ValueError):
        PoolConfig(k=1.5)
    with pytest.raises(ValueError):
        PoolConfig(h=0)
    with pytest.raises(ValueError):
        PoolConfig(attention="bogus")
    with pytest.raises(ValueError):
        PoolConfig(fitness="bogus")
    with pytest.raises(ValueError):
        PoolConfig(aggregation="bogus")


# ---------------------------------------------------------------------------
# Gradients through the whole operator


@pytest.mark.parametrize("attention", ATTENTION_KINDS)
def test_gradient_full_pool(attention):
    rng = np.random.default_rng(8)
    config = PoolConfig(attention=attention)
    g = random_connected_graph(rng, 6)
    params = PoolParams.init(rng, 3, config)
    x = Tensor(g.features.data.copy(), requires_grad=True)

    def f():
        pooled = asap_pool_batch(
            x, g.adjacency, np.zeros(6, dtype=np.int64), 1, params, config
        )
        return reduce_sum(pooled.features)

    err = grad_check(f, [x, *params.tensors().values()])
    assert err < 1e-4
