"""Message-passing layers against hand-computed and dense-formula oracles."""

import numpy as np
import pytest

from asap_pool.datasets import synthetic_motif_dataset
from asap_pool.engine import Tape, Tensor, grad_check, hadamard, reduce_sum, segment_softmax, sigmoid
from asap_pool.graphs import batch_graphs, graph_from_edges, normalize_gcn
from asap_pool.layers import (
    ATTENTION_KINDS,
    AttentionParams,
    GCNParams,
    LEConvParams,
    attention_scores,
    basic_leconv_forward,
    gcn_forward,
    glorot,
    leconv_forward,
)


def leaky(v):
    return np.where(v > 0, v, 0.2 * v)


# ---------------------------------------------------------------------------
# Initializers


def test_glorot_bounds_and_shape():
    rng = np.random.default_rng(0)
    w = glorot(rng, 30, 50)
    assert w.data.shape == (30, 50)
    assert w.requires_grad
    limit = np.sqrt(6.0 / 80.0)
    assert np.abs(w.data).max() <= limit


# ---------------------------------------------------------------------------
# GCN


def test_gcn_hand_computed_on_two_node_path():
    # Path 0-1 with unit features and W = [[2]]:
    # A_hat = A + I gives degree 2 everywhere, so D^-1/2 A_hat D^-1/2 = A_hat/2.
    g = graph_from_edges(2, [(0, 1)])
    x = Tensor(np.array([[1.0], [3.0]]))
    out = gcn_forward(x, normalize_gcn(g.adjacency), GCNParams(Tensor([[2.0]])))
    np.testing.assert_allclose(out.data, [[4.0], [4.0]])


def test_gcn_matches_dense_formula_random():
    rng = np.random.default_rng(1)
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 2))
    a_hat = g.adjacency.to_dense() + np.eye(5)
    d = np.diag(a_hat.sum(1) ** -0.5)
    expected = d @ a_hat @ d @ x @ w
    out = gcn_forward(Tensor(x), normalize_gcn(g.adjacency), GCNParams(Tensor(w)))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# LEConv


def test_leconv_matches_dense_formula_random():
    rng = np.random.default_rng(2)
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    x = rng.standard_normal((6, 2))
    w1, w2, w3 = (rng.standard_normal((2, 3)) for _ in range(3))
    a = g.adjacency.to_dense()
    deg = a.sum(1, keepdims=True)
    expected = x @ w1 + deg * (x @ w2) - a @ (x @ w3)
    out = leconv_forward(
        Tensor(x), g.adjacency, LEConvParams(Tensor(w1), Tensor(w2), Tensor(w3))
    )
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_leconv_three_node_path_hand_expanded():
    # Path 0-1-2, scalar features x = (1, 2, 4), W1 = 1, W2 = 2, W3 = 3.
    # Node 0: 1*1 + 1*(1*2) - 3*2      = 1 + 2 - 6       = -3
    # Node 1: 2*1 + 2*(2*2) - 3*(1+4)  = 2 + 8 - 15      = -5
    # Node 2: 4*1 + 1*(4*2) - 3*2      = 4 + 8 - 6       =  6
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    out = leconv_forward(
        Tensor([[1.0], [2.0], [4.0]]),
        g.adjacency,
        LEConvParams(Tensor([[1.0]]), Tensor([[2.0]]), Tensor([[3.0]])),
    )
    np.testing.assert_allclose(out.data, [[-3.0], [-5.0], [6.0]])


def test_basic_leconv_equals_tied_leconv():
    rng = np.random.default_rng(3)
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    x = Tensor(rng.standard_normal((5, 3)))
    w = Tensor(rng.standard_normal((3, 3)))
    tied = leconv_forward(x, g.adjacency, LEConvParams(w, w, w))
    basic = basic_leconv_forward(x, g.adjacency, w)
    np.testing.assert_allclose(basic.data, tied.data)


def test_leconv_isolated_node_reduces_to_self_term():
    g = graph_from_edges(3, [(0, 1)])
    x = Tensor(np.array([[1.0], [1.0], [5.0]]))
    out = leconv_forward(
        x,
        g.adjacency,
        LEConvParams(Tensor([[2.0]]), Tensor([[7.0]]), Tensor([[7.0]])),
    )
    assert out.data[2, 0] == 10.0  # zero degree: only x W_self survives


def test_leconv_activation_applied():
    g = graph_from_edges(2, [(0, 1)])
    x = Tensor(np.array([[1.0], [1.0]]))
    params = LEConvParams(Tensor([[1.0]]), Tensor([[0.0]]), Tensor([[0.0]]))
    out = leconv_forward(x, g.adjacency, params, activation=sigmoid)
    np.testing.assert_allclose(out.data, 1.0 / (1.0 + np.exp(-1.0)))


# ---------------------------------------------------------------------------
# Attention scores


def test_s2t_scores_hand_computed():
    cand = Tensor(np.array([[1.0, 0.0], [0.0, -1.0]]))
    params = AttentionParams(
        kind="S2T",
        weight=Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
        score=Tensor(np.array([[1.0], [-1.0]])),
    )
    # W x_0 = (1, 2) -> lrelu -> (1, 2) -> w^T = 1 - 2 = -1
    # W x_1 = (-3, -4) -> lrelu -> (-0.6, -0.8) -> w^T = -0.6 + 0.8 = 0.2
    out = attention_scores(params, cand, np.array([0, 0]), np.array([0, 1]))
    np.testing.assert_allclose(out.data, [[-1.0], [0.2]], atol=1e-12)


def test_s2t_scores_membership_independent():
    rng = np.random.default_rng(4)
    cand = Tensor(rng.standard_normal((5, 3)))
    params = AttentionParams(
        kind="S2T",
        weight=Tensor(rng.standard_normal((3, 3))),
        score=Tensor(rng.standard_normal((3, 1))),
    )
    clusters = np.array([0, 1, 2, 3, 4])
    out_a = attention_scores(params, cand, clusters, np.full(5, 2))
    out_b = attention_scores(params, cand, clusters[::-1], np.full(5, 2))
    np.testing.assert_allclose(out_a.data, out_b.data)


def test_m2t_scores_hand_computed():
    # One cluster centred on node 0 with query q = (1, -1); candidates raw.
    cand = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
    queries = Tensor(np.array([[1.0, -1.0], [0.0, 0.0]]))
    params = AttentionParams(
        kind="M2T",
        weight=Tensor(np.eye(2)),
        score=Tensor(np.array([[1.0], [1.0], [1.0], [1.0]])),
    )
    # W q = (1, -1); pair j: lrelu([1, -1, cand_j]) . w
    # j=0: lrelu([1, -1, 2, 0]) = [1, -0.2, 2, 0] -> 2.8
    # j=1: lrelu([1, -1, 0, 2]) = [1, -0.2, 0, 2] -> 2.8
    out = attention_scores(
        params, cand, np.array([0, 0]), np.array([0, 1]), queries=queries
    )
    np.testing.assert_allclose(out.data, [[2.8], [2.8]], atol=1e-12)


def test_t2t_scores_hand_computed():
    # Two clusters, each queried by its medoid's own row; W swaps columns.
    cand = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]))
    params = AttentionParams(
        kind="T2T",
        weight=Tensor(np.array([[0.0, 1.0], [1.0, 0.0]])),
        score=Tensor(np.array([[1.0], [2.0], [-1.0], [0.5]])),
    )
    # W q_0 = (-2, 1) -> lrelu (-0.4, 1)  . (1, 2)  = 1.6
    # W q_1 = (0.5, 3) -> lrelu (0.5, 3)  . (1, 2)  = 6.5
    # lrelu x_0 = (1, -0.4)                . (-1, 0.5) = -1.2
    # lrelu x_1 = (3, 0.5)                 . (-1, 0.5) = -2.75
    out = attention_scores(
        params, cand, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), queries=cand
    )
    np.testing.assert_allclose(
        out.data, [[1.6 - 1.2], [1.6 - 2.75], [6.5 - 1.2], [6.5 - 2.75]], atol=1e-12
    )


@pytest.mark.parametrize("kind", ["M2T", "T2T"])
def test_membership_weights_do_not_depend_on_the_query(kind):
    # w^T lrelu([W q_i ‖ x_j]) = (per-cluster term of q_i) + (per-member term
    # of x_j), and the first cancels in the per-cluster softmax: the
    # max-pooled master query, the medoid query and random queries give the
    # same weights, and the softmax sends attn.W and the query half of the
    # score vector no gradient beyond rounding.
    batch = batch_graphs(synthetic_motif_dataset(16, seed=3).graphs)
    pattern = normalize_gcn(batch.adjacency)
    c, m = pattern.rows, pattern.cols
    n, d = pattern.shape[0], 8
    rng = np.random.default_rng(12)
    x = rng.standard_normal((n, d))
    master = np.maximum.reduceat(x[m], np.searchsorted(c, np.arange(n)), axis=0)
    upstream = Tensor(rng.standard_normal((c.shape[0], 1)))
    weights, w_grads = [], []
    for q in (master, x, rng.standard_normal((n, d))):
        params = AttentionParams.init(np.random.default_rng(13), kind, d)
        with Tape() as tape:
            out = segment_softmax(attention_scores(params, Tensor(x), c, m, Tensor(q)), c, n)
            loss = reduce_sum(hadamard(out, upstream))
        grads = tape.backward(loss)
        weights.append(out.data)
        w_grads.append(max(np.abs(grads[params.weight]).max(), np.abs(grads[params.score][:d]).max()))
        assert np.abs(grads[params.score][d:]).max() > 1.0  # the member term does learn
    for other in weights[1:]:
        np.testing.assert_allclose(other, weights[0], rtol=0, atol=1e-13)
    assert max(w_grads) < 1e-13


def test_m2t_requires_queries():
    cand = Tensor(np.ones((2, 2)))
    params = AttentionParams(
        kind="M2T", weight=Tensor(np.eye(2)), score=Tensor(np.ones((4, 1)))
    )
    with pytest.raises(ValueError):
        attention_scores(params, cand, np.array([0]), np.array([1]))


def test_attention_rejects_out_of_range_pairs():
    cand = Tensor(np.ones((2, 2)))
    params = AttentionParams(
        kind="S2T", weight=Tensor(np.eye(2)), score=Tensor(np.ones((2, 1)))
    )
    with pytest.raises(IndexError):
        attention_scores(params, cand, np.array([0]), np.array([2]))


def test_attention_params_validate_score_shape():
    with pytest.raises(ValueError):
        AttentionParams(
            kind="M2T", weight=Tensor(np.eye(2)), score=Tensor(np.ones((2, 1)))
        )
    with pytest.raises(ValueError):
        AttentionParams(
            kind="S2T", weight=Tensor(np.eye(2)), score=Tensor(np.ones((4, 1)))
        )
    with pytest.raises(ValueError):
        AttentionParams(
            kind="BAD", weight=Tensor(np.eye(2)), score=Tensor(np.ones((4, 1)))
        )


# ---------------------------------------------------------------------------
# Gradient checks on every layer


def test_gradient_gcn():
    rng = np.random.default_rng(5)
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    params = GCNParams.init(rng, 3, 2)
    a_norm = normalize_gcn(g.adjacency)
    err = grad_check(
        lambda: reduce_sum(gcn_forward(x, a_norm, params)), [x, params.weight]
    )
    assert err < 1e-4


def test_gradient_leconv():
    rng = np.random.default_rng(6)
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
    x = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    params = LEConvParams.init(rng, 2, 3)
    err = grad_check(
        lambda: reduce_sum(leconv_forward(x, g.adjacency, params, activation=sigmoid)),
        [x, *params.tensors().values()],
    )
    assert err < 1e-4


@pytest.mark.parametrize("kind", ATTENTION_KINDS)
def test_gradient_attention(kind):
    rng = np.random.default_rng(7)
    cand = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    params = AttentionParams.init(rng, kind, 3)
    cluster_ids = np.array([0, 0, 1, 1, 2])
    member_ids = np.array([0, 1, 1, 2, 3])
    queries = None
    extra = []
    if kind != "S2T":
        queries = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        extra = [queries]

    def f():
        return reduce_sum(
            attention_scores(params, cand, cluster_ids, member_ids, queries=queries)
        )

    err = grad_check(f, [cand, params.weight, params.score, *extra])
    assert err < 1e-4
