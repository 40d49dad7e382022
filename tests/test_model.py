"""Classifier model: readout, invariances, loss oracle, checkpoints, training sanity."""

import numpy as np
import pytest
from scipy.special import log_softmax

import asap_pool.model as model_mod
import asap_pool.pool as pool_mod
from asap_pool.datasets import synthetic_motif_dataset
from asap_pool.engine import Tape, Tensor, grad_check, relu
from asap_pool.graphs import batch_graphs, graph_from_edges, normalize_gcn, permute_graph
from asap_pool.layers import gcn_forward
from asap_pool.model import (
    Model,
    ModelConfig,
    accuracy,
    cross_entropy,
    forward,
    init_model,
    load_checkpoint,
    readout,
    save_checkpoint,
)
from asap_pool.pool import PoolConfig, asap_pool_batch
from asap_pool.train import Adam, TrainConfig


def small_model(rng=None, **kwargs):
    config = ModelConfig(
        feature_dim=kwargs.pop("feature_dim", 2),
        n_classes=kwargs.pop("n_classes", 2),
        hidden=kwargs.pop("hidden", 8),
        n_blocks=kwargs.pop("n_blocks", 2),
        **kwargs,
    )
    return init_model(config, rng or np.random.default_rng(0)), config


def random_graph(rng, n, label=0):
    edges = sorted(
        {(i - 1, i) for i in range(1, n)}
        | {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    )
    return graph_from_edges(n, edges, features=rng.standard_normal((n, 2)), label=label)


# ---------------------------------------------------------------------------
# Readout


def test_readout_mean_and_max_oracle():
    x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0], [0.0, 10.0]]))
    out = readout(x, np.array([0, 0, 1]), 2)
    np.testing.assert_allclose(out.data, [[2.0, 1.0, 3.0, 4.0], [0.0, 10.0, 0.0, 10.0]])


# ---------------------------------------------------------------------------
# Forward pass


def test_forward_shape_and_determinism():
    rng = np.random.default_rng(1)
    m, _ = small_model()
    batch = batch_graphs([random_graph(rng, 6, 0), random_graph(rng, 5, 1)])
    a = forward(m, batch).data
    b = forward(m, batch).data
    assert a.shape == (2, 2)
    np.testing.assert_array_equal(a, b)


def test_forward_invariant_to_node_relabeling():
    rng = np.random.default_rng(2)
    m, _ = small_model()
    g = random_graph(rng, 7)
    logits = forward(m, batch_graphs([g])).data
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(7)
        permuted_logits = forward(m, batch_graphs([permute_graph(g, perm)])).data
        np.testing.assert_allclose(permuted_logits, logits, atol=1e-8)


def test_forward_invariant_to_graph_order_in_batch():
    rng = np.random.default_rng(3)
    m, _ = small_model()
    g1, g2 = random_graph(rng, 6), random_graph(rng, 5)
    ab = forward(m, batch_graphs([g1, g2])).data
    ba = forward(m, batch_graphs([g2, g1])).data
    np.testing.assert_allclose(ab, ba[::-1], atol=1e-10)


@pytest.mark.parametrize("soft_edges", [True, False])
def test_forward_does_not_coarsen_after_the_last_block(monkeypatch, soft_edges):
    rng = np.random.default_rng(4)
    m, _ = small_model(n_blocks=3, pool=PoolConfig(soft_edges=soft_edges))
    batch = batch_graphs([random_graph(rng, 9, 0), random_graph(rng, 8, 1)])
    calls = []
    original = pool_mod.coarsen_adjacency

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pool_mod, "coarsen_adjacency", counted)
    forward(m, batch)
    assert len(calls) == 2


def test_pooling_without_coarsening_pools_the_same_bytes():
    rng = np.random.default_rng(5)
    m, config = small_model(n_blocks=3)
    batch = batch_graphs([random_graph(rng, 9, 0), random_graph(rng, 8, 1)])
    block = m.blocks[0]
    a_norm = normalize_gcn(batch.adjacency)
    x = gcn_forward(batch.features, a_norm, block.gcn, activation=relu)
    args = (x, batch.adjacency, batch.node_graph_ids, batch.n_graphs, block.pool, config.pool, a_norm)
    full = asap_pool_batch(*args)
    bare = asap_pool_batch(*args, coarsen=False)
    assert full.adjacency is not None and bare.adjacency is None
    assert bare.selected.tobytes() == full.selected.tobytes()
    for field in ("features", "fitness"):
        assert getattr(bare, field).data.tobytes() == getattr(full, field).data.tobytes()


def test_parameter_names_are_dotted_paths():
    m, _ = small_model()
    names = set(m.parameters())
    assert "block1.gcn.W" in names
    assert "block2.pool.attn.w" in names
    assert "head.out.W" in names and "head.out.b" in names


# ---------------------------------------------------------------------------
# Dropout semantics


def test_dropout_requires_rng_in_training():
    m, _ = small_model(dropout=0.5)
    batch = batch_graphs([random_graph(np.random.default_rng(4), 5)])
    with pytest.raises(ValueError):
        forward(m, batch, training=True)


def test_dropout_changes_training_outputs_only():
    rng = np.random.default_rng(5)
    m, _ = small_model(dropout=0.5)
    batch = batch_graphs([random_graph(rng, 6)])
    t1 = forward(m, batch, training=True, rng=np.random.default_rng(0)).data
    t2 = forward(m, batch, training=True, rng=np.random.default_rng(1)).data
    assert not np.allclose(t1, t2)
    e1 = forward(m, batch).data
    e2 = forward(m, batch).data
    np.testing.assert_array_equal(e1, e2)


def test_training_forward_without_dropout_equals_eval():
    rng = np.random.default_rng(6)
    m, _ = small_model(dropout=0.0)
    batch = batch_graphs([random_graph(rng, 6)])
    train_out = forward(m, batch, training=True, rng=np.random.default_rng(0)).data
    eval_out = forward(m, batch).data
    np.testing.assert_array_equal(train_out, eval_out)


# ---------------------------------------------------------------------------
# Loss and accuracy


def test_cross_entropy_matches_scipy_log_softmax():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((6, 3)) * 5
    labels = rng.integers(0, 3, 6)
    expected = -log_softmax(logits, axis=1)[np.arange(6), labels].mean()
    assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_uniform_logits_is_log_classes():
    loss = cross_entropy(Tensor(np.zeros((4, 3))), [0, 1, 2, 0])
    assert loss.item() == pytest.approx(np.log(3.0))


def test_cross_entropy_stable_at_extreme_logits():
    logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    loss = cross_entropy(logits, [0, 1])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 2))), [0, 2])
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 2))), [0])


def test_cross_entropy_gradient():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    labels = rng.integers(0, 3, 5)
    assert grad_check(lambda: cross_entropy(logits, labels), [logits]) < 1e-7


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]), requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy(logits, [0, 1])
    tape.backward(loss)
    soft = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
    onehot = np.eye(2)[[0, 1]]
    np.testing.assert_allclose(logits.grad, (soft - onehot) / 2.0, atol=1e-12)


def test_accuracy_counts_argmax_matches():
    logits = Tensor(np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]]))
    assert accuracy(logits, [0, 1, 1]) == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# Gradients through the full model


def test_gradient_full_model():
    rng = np.random.default_rng(9)
    m, _ = small_model()
    batch = batch_graphs([random_graph(rng, 6, 0), random_graph(rng, 5, 1)])

    def f():
        return cross_entropy(forward(m, batch), batch.labels)

    err = grad_check(f, list(m.parameters().values()))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    m, config = small_model(dropout=0.25)
    batch = batch_graphs([random_graph(rng, 6)])
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, extra={"epoch": 3, "note": "best"})
    loaded, extra = load_checkpoint(path)
    assert extra == {"epoch": 3, "note": "best"}
    assert loaded.config == config
    np.testing.assert_array_equal(forward(loaded, batch).data, forward(m, batch).data)


def test_checkpoint_restores_pool_config(tmp_path):
    m, _ = small_model(pool=PoolConfig(k=0.75, h=2, attention="T2T", soft_edges=False))
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.config.pool == PoolConfig(k=0.75, h=2, attention="T2T", soft_edges=False)


def test_checkpoint_version_mismatch_rejected(tmp_path, monkeypatch):
    m, _ = small_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path)
    monkeypatch.setattr(model_mod, "CHECKPOINT_VERSION", 999)
    with pytest.raises(ValueError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# End-to-end training sanity


def test_loss_strictly_decreases_over_first_twenty_steps():
    dataset = synthetic_motif_dataset(16, seed=0)
    config = TrainConfig(hidden=16)
    rng = np.random.default_rng(0)
    model = init_model(config.model_config(1, dataset.n_classes), rng)
    batch = batch_graphs(dataset.graphs)
    params = model.parameters()
    optimizer = Adam(params, lr=config.lr, weight_decay=0.0)
    losses = []
    for _ in range(21):
        with Tape() as tape:
            loss = cross_entropy(forward(model, batch), batch.labels)
        losses.append(loss.item())
        tape.backward(loss)
        optimizer.step({name: p.grad for name, p in params.items()})
    diffs = np.diff(losses)
    assert (diffs < 0).all(), f"loss did not strictly decrease: {losses}"
