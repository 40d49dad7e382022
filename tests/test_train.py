"""Training harness: optimizer oracle, CV splits, config files, determinism."""

import dataclasses

import numpy as np
import pytest

import asap_pool.train as tr
from asap_pool.datasets import synthetic_motif_dataset
from asap_pool.engine import Tensor
from asap_pool.train import Adam, TrainConfig, kfold_split, parse_grid, sweep, train


# ---------------------------------------------------------------------------
# Adam


def adam_oracle_steps(p0, grads, lr, wd=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled reference for a single scalar parameter."""
    p, m, v = float(p0), 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        g = g + wd * p
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(p)
    return trajectory


def test_adam_matches_hand_oracle():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    grads = [0.5, -0.3, 0.8]
    for g in grads:
        opt.step({"p": np.array([[g]])})
    expected = adam_oracle_steps(1.0, grads, lr=0.1)
    assert p.data[0, 0] == pytest.approx(expected[-1], abs=1e-14)


def test_adam_weight_decay_enters_gradient():
    p = Tensor(np.array([[2.0]]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05, weight_decay=0.01)
    steps = [0.1, 0.2]
    for g in steps:
        opt.step({"p": np.array([[g]])})
    expected = adam_oracle_steps(2.0, steps, lr=0.05, wd=0.01)
    assert p.data[0, 0] == pytest.approx(expected[-1], abs=1e-14)


def test_adam_missing_gradient_treated_as_zero_but_decays():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step({"p": None})
    expected = adam_oracle_steps(1.0, [0.0], lr=0.1, wd=0.5)
    assert p.data[0, 0] == pytest.approx(expected[-1], abs=1e-14)


def test_adam_lr_mutable_between_steps():
    p = Tensor(np.array([[0.0]]), requires_grad=True)
    opt = Adam({"p": p}, lr=1.0)
    opt.step({"p": np.array([[1.0]])})
    after_first = p.data[0, 0]
    opt.lr = 0.0
    opt.step({"p": np.array([[1.0]])})
    assert p.data[0, 0] == after_first


# ---------------------------------------------------------------------------
# Cross-validation splits


def test_kfold_partitions_are_disjoint_and_cover():
    splits = kfold_split(23, 5, seed=3)
    assert len(splits) == 5
    all_tests = np.concatenate([test for _, _, test in splits])
    assert sorted(all_tests.tolist()) == list(range(23))
    for train_idx, val_idx, test_idx in splits:
        combined = np.concatenate([train_idx, val_idx, test_idx])
        assert sorted(combined.tolist()) == list(range(23))


def test_kfold_validation_is_next_fold():
    splits = kfold_split(12, 4, seed=0)
    for f in range(4):
        np.testing.assert_array_equal(
            np.sort(splits[f][1]), np.sort(splits[(f + 1) % 4][2])
        )


def test_kfold_deterministic_by_seed():
    a = kfold_split(15, 3, seed=9)
    b = kfold_split(15, 3, seed=9)
    for (ta, va, sa), (tb, vb, sb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(sa, sb)


def test_kfold_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        kfold_split(10, 2, seed=0)
    with pytest.raises(ValueError):
        kfold_split(2, 3, seed=0)


# ---------------------------------------------------------------------------
# Config validation and files


def test_config_validates_grid_membership():
    with pytest.raises(ValueError):
        TrainConfig(hidden=17)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.5)
    with pytest.raises(ValueError):
        TrainConfig(dropout=0.75)
    with pytest.raises(ValueError):
        TrainConfig(folds=2)
    with pytest.raises(ValueError):
        TrainConfig(attention="bogus")


def test_config_file_round_trip(tmp_path):
    config = TrainConfig(
        hidden=32, lr=0.001, dropout=0.25, epochs=7, attention="T2T", soft_edges=False
    )
    path = tmp_path / "run.cfg"
    config.to_file(path)
    assert TrainConfig.from_file(path) == config


def test_config_from_file_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nhidden = 32\n\nlr = 0.001\nsoft_edges = false\n")
    config = TrainConfig.from_file(path)
    assert config.hidden == 32
    assert config.lr == 0.001
    assert config.soft_edges is False


def test_config_from_file_rejects_unknown_keys_at_their_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nhidden = 32\nnosuch = 1\n")
    with pytest.raises(ValueError, match="unknown config key 'nosuch'") as excinfo:
        TrainConfig.from_file(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("line, problem", [("hidden = x", "invalid literal"), ("hidden = 7", "hidden must be one of")])
def test_config_from_file_reports_the_line_of_a_bad_value(tmp_path, line, problem):
    path = tmp_path / "run.cfg"
    path.write_text(f"lr = 0.001\n\n{line}\n")
    with pytest.raises(ValueError, match=problem) as excinfo:
        TrainConfig.from_file(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")


def test_config_from_file_rejects_a_repeated_key_at_the_repeat(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("hidden = 16\nlr = 0.001\nhidden = 32\n")
    with pytest.raises(ValueError, match="'hidden' repeats line 1") as excinfo:
        TrainConfig.from_file(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")


def test_config_pool_and_model_views():
    config = TrainConfig(hidden=16, k=0.75, h=2, fitness="GCN")
    pool = config.pool_config()
    assert (pool.k, pool.h, pool.fitness) == (0.75, 2, "GCN")
    model = config.model_config(feature_dim=3, n_classes=4)
    assert (model.feature_dim, model.n_classes, model.hidden) == (3, 4, 16)
    assert model.pool == pool


# ---------------------------------------------------------------------------
# Training driver


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthetic_motif_dataset(24, seed=1)


def tiny_config(**overrides):
    base = dict(hidden=16, epochs=2, batch_size=16, folds=3)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_produces_records_and_summary(tiny_dataset, tmp_path):
    result = train(tiny_dataset, tiny_config(), seeds=[0], out_dir=tmp_path)
    assert len(result.folds) == 3
    assert len(result.records) == 3 * 2  # folds x epochs
    summary = result.summary()
    for key in ("test_acc_mean", "test_acc_std", "val_acc_mean", "val_acc_std"):
        assert key in summary
    assert "test_acc" in result.summary_line()
    assert (tmp_path / "metrics.csv").is_file()
    assert (tmp_path / "summary.txt").is_file()
    assert (tmp_path / "checkpoint_seed0_fold0.npz").is_file()


def test_train_metrics_file_deterministic(tiny_dataset, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    train(tiny_dataset, tiny_config(), seeds=[0], out_dir=a_dir)
    train(tiny_dataset, tiny_config(), seeds=[0], out_dir=b_dir)
    assert (a_dir / "metrics.csv").read_bytes() == (b_dir / "metrics.csv").read_bytes()


def test_train_lr_schedule_halves(tiny_dataset):
    config = tiny_config(epochs=4, lr_decay_every=2, lr_decay=0.5)
    result = train(tiny_dataset, config, seeds=[0])
    by_epoch = {r.epoch: r.lr for r in result.records if r.fold == 0}
    assert by_epoch[1] == config.lr
    assert by_epoch[2] == config.lr
    assert by_epoch[3] == config.lr * 0.5
    assert by_epoch[4] == config.lr * 0.5


def test_train_best_checkpoint_is_highest_validation(tiny_dataset, tmp_path):
    result = train(tiny_dataset, tiny_config(epochs=3), seeds=[0], out_dir=tmp_path)
    for fold_result in result.folds:
        fold_records = [r for r in result.records if r.fold == fold_result.fold]
        best = max(fold_records, key=lambda r: (r.val_acc, -r.epoch))
        assert fold_result.best_epoch == best.epoch
        assert fold_result.val_acc == pytest.approx(best.val_acc)


def test_train_divergence_recorded_not_fatal(tiny_dataset, monkeypatch):
    calls = {"n": 0}
    real = tr.cross_entropy

    def poisoned(logits, labels):
        calls["n"] += 1
        out = real(logits, labels)
        if calls["n"] == 1:
            out.data[0, 0] = np.nan
        return out

    monkeypatch.setattr(tr, "cross_entropy", poisoned)
    result = train(tiny_dataset, tiny_config(), seeds=[0])
    diverged = [f for f in result.folds if f.diverged]
    healthy = [f for f in result.folds if not f.diverged]
    assert len(diverged) == 1
    assert diverged[0].fold == 0
    assert len(healthy) == 2
    # Summary covers only completed folds.
    assert result.summary()["test_acc_mean"] == pytest.approx(
        np.mean([f.test_acc for f in healthy])
    )


def test_train_seed_changes_results(tiny_dataset):
    a = train(tiny_dataset, tiny_config(), seeds=[0])
    b = train(tiny_dataset, tiny_config(), seeds=[1])
    a_losses = [r.train_loss for r in a.records]
    b_losses = [r.train_loss for r in b.records]
    assert a_losses != b_losses


def test_metrics_csv_has_epoch_rows_and_summary_comment(tiny_dataset, tmp_path):
    result = train(tiny_dataset, tiny_config(), seeds=[0], out_dir=tmp_path)
    text = (tmp_path / "metrics.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("seed,fold,epoch")
    data_lines = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("seed")]
    assert len(data_lines) == len(result.records)
    assert any(ln.startswith("# summary") for ln in lines)


# ---------------------------------------------------------------------------
# Sweeps


def test_parse_grid(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# search space\nlr = 0.01, 0.001\nhidden = 16, 32\n")
    grid = parse_grid(path)
    assert grid == {"lr": [0.01, 0.001], "hidden": [16, 32]}


@pytest.mark.parametrize(
    "line, problem",
    [
        ("nosuch = 1, 2", "unknown config key 'nosuch'"),
        ("hidden = 16, x", "invalid literal"),
        ("k = 0.5, 2", "k must be"),
    ],
)
def test_parse_grid_reports_the_line_of_a_bad_key_or_value(tmp_path, line, problem):
    path = tmp_path / "grid.txt"
    path.write_text(f"# search space\nlr = 0.01, 0.001\n{line}\n")
    with pytest.raises(ValueError, match=problem) as excinfo:
        parse_grid(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")


def test_parse_grid_rejects_a_repeated_key_at_the_repeat(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("lr = 0.01, 0.001\n# again\nlr = 0.1\n")
    with pytest.raises(ValueError, match="'lr' repeats line 1") as excinfo:
        parse_grid(path)
    assert str(excinfo.value).startswith(f"{path}:3: ")


def test_sweep_orders_by_validation_accuracy(tiny_dataset, tmp_path):
    base = tiny_config(epochs=1)
    results = sweep(
        tiny_dataset,
        base,
        {"hidden": [16, 32]},
        seeds=[0],
        out_dir=tmp_path,
    )
    assert len(results) == 2
    val_means = [summary["val_acc_mean"] for _, summary in results]
    assert val_means == sorted(val_means, reverse=True)
    assert {point["hidden"] for point, _ in results} == {16, 32}
    assert (tmp_path / "sweep.csv").is_file()
