"""Training harness: optimizer, cross-validated protocol, metrics, sweeps.

The protocol is k-fold cross validation (fold ``f`` tests, fold ``f+1``
validates, the rest trains) with Adam, L2 weight decay folded into the
gradients, a step learning-rate schedule, and best-validation-accuracy
checkpointing (ties keep the earliest epoch). Every epoch of every fold is
recorded; runs are bit-reproducible for a given config and seed.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .engine import Tape, Tensor
from .graphs import Dataset, batch_graphs
from .model import Model, ModelConfig, accuracy, cross_entropy, forward, init_model, save_checkpoint
from .pool import AGGREGATION_MODES, FITNESS_KINDS, PoolConfig
from .layers import ATTENTION_KINDS

__all__ = [
    "LEARNING_RATES",
    "HIDDEN_WIDTHS",
    "TrainConfig",
    "Adam",
    "FoldDivergence",
    "EpochRecord",
    "FoldResult",
    "TrainResult",
    "kfold_split",
    "evaluate",
    "train",
    "sweep",
    "parse_grid",
]

# The hyperparameter ranges the protocol searches over.
LEARNING_RATES = (0.01, 0.001)
HIDDEN_WIDTHS = (16, 32, 64, 128)


@dataclass(frozen=True)
class TrainConfig:
    """Flat, file-loadable bundle of every training knob."""

    lr: float = 0.01
    hidden: int = 64
    dropout: float = 0.0
    weight_decay: float = 5e-4
    epochs: int = 100
    lr_decay: float = 0.5
    lr_decay_every: int = 50
    batch_size: int = 128
    n_blocks: int = 3
    k: float = 0.5
    h: int = 1
    attention: str = "M2T"
    fitness: str = "LEConv"
    aggregation: str = "Both"
    soft_edges: bool = True
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr not in LEARNING_RATES:
            raise ValueError(f"lr must be one of {LEARNING_RATES}, got {self.lr}")
        if self.hidden not in HIDDEN_WIDTHS:
            raise ValueError(f"hidden must be one of {HIDDEN_WIDTHS}, got {self.hidden}")
        if not 0.0 <= self.dropout <= 0.5:
            raise ValueError(f"dropout must be in [0, 0.5], got {self.dropout}")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if self.epochs < 1 or self.lr_decay_every < 1 or self.batch_size < 1 or self.n_blocks < 1:
            raise ValueError("epochs, lr_decay_every, batch_size and n_blocks must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.folds < 3:
            raise ValueError("need at least 3 folds (train/val/test must not overlap)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # Delegate the pooling-field checks.
        self.pool_config()

    def pool_config(self) -> PoolConfig:
        return PoolConfig(
            k=self.k,
            h=self.h,
            attention=self.attention,
            fitness=self.fitness,
            aggregation=self.aggregation,
            soft_edges=self.soft_edges,
        )

    def model_config(self, feature_dim: int, n_classes: int) -> ModelConfig:
        return ModelConfig(
            feature_dim=feature_dim,
            n_classes=n_classes,
            hidden=self.hidden,
            n_blocks=self.n_blocks,
            dropout=self.dropout,
            pool=self.pool_config(),
        )

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Parse a flat ``key = value`` text file (one pair per line, # comments); errors name ``path:line``."""
        lines = _key_value_lines(path, "key = value")
        return cls(**{key: _field_at(path, line_no, key, text) for line_no, key, text in lines})

    def to_file(self, path) -> None:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")


def _key_value_lines(path, expected: str):
    """``(line number, key, value)`` of each ``key = value`` line of a text file; ``#`` starts a comment.

    A key may appear once: a repeat is an error at its line.
    """
    seen = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected '{expected}', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ValueError(f"{path}:{line_no}: {key!r} repeats line {seen[key]}")
        seen[key] = line_no
        yield line_no, key, value


def _convert_field(cls, key: str, value: str):
    by_name = {f.name: f for f in fields(cls)}
    if key not in by_name:
        raise ValueError(f"unknown config key {key!r}")
    kind = by_name[key].type
    text = value.strip()
    if kind == "bool":
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {key!r} expects a boolean, got {text!r}")
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def _field_at(path, line_no: int, key: str, text: str):
    """Field ``key`` of a ``TrainConfig`` read from ``text``; a bad key or value raises ``ValueError`` at ``path:line``."""
    try:
        value = _convert_field(TrainConfig, key, text)
        replace(TrainConfig(), **{key: value})  # each of TrainConfig's checks reads one field
    except ValueError as err:
        raise ValueError(f"{path}:{line_no}: {err}") from None
    return value


class FoldDivergence(RuntimeError):
    """Raised when a training loss goes non-finite; identifies the fold."""

    def __init__(self, seed: int, fold: int, epoch: int, loss: float):
        self.seed, self.fold, self.epoch, self.loss = seed, fold, epoch, loss
        super().__init__(
            f"non-finite training loss {loss!r} at seed={seed} fold={fold} epoch={epoch}"
        )


# Adam's moment decay rates and denominator offset (Kingma and Ba's defaults).
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with L2 weight decay folded into the gradient.

    ``lr`` may be reassigned between steps (the schedule does).
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self, grads: dict[str, np.ndarray | None]) -> None:
        """Apply one update; parameters missing from ``grads`` see only decay."""
        self.step_count += 1
        bias1 = 1.0 - _BETA1 ** self.step_count
        bias2 = 1.0 - _BETA2 ** self.step_count
        for name, tensor in self.params.items():
            grad = grads.get(name)
            grad = np.zeros_like(tensor.data) if grad is None else np.asarray(grad)
            if self.weight_decay:
                grad = grad + self.weight_decay * tensor.data
            m = self._m[name]
            v = self._v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad * grad
            tensor.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + _EPS)


def kfold_split(n_items: int, n_folds: int, seed: int):
    """Disjoint (train, val, test) index triples: test = fold f, val = fold f+1."""
    if n_folds < 3:
        raise ValueError("need at least 3 folds")
    if n_items < n_folds:
        raise ValueError(f"cannot split {n_items} items into {n_folds} folds")
    order = np.random.default_rng(seed).permutation(n_items)
    folds = np.array_split(order, n_folds)
    out = []
    for f in range(n_folds):
        test = folds[f]
        val = folds[(f + 1) % n_folds]
        train = np.concatenate([folds[i] for i in range(n_folds) if i not in (f, (f + 1) % n_folds)])
        out.append((np.sort(train), np.sort(val), np.sort(test)))
    return out


@dataclass(frozen=True)
class EpochRecord:
    seed: int
    fold: int
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    test_loss: float
    test_acc: float


@dataclass(frozen=True)
class FoldResult:
    seed: int
    fold: int
    best_epoch: int
    val_acc: float
    test_acc: float
    diverged: bool = False
    note: str = ""


@dataclass
class TrainResult:
    config: TrainConfig
    records: list[EpochRecord] = field(default_factory=list)
    folds: list[FoldResult] = field(default_factory=list)

    def _completed(self) -> list[FoldResult]:
        return [f for f in self.folds if not f.diverged]

    def summary(self) -> dict[str, float]:
        done = self._completed()
        val = np.array([f.val_acc for f in done]) if done else np.zeros(0)
        test = np.array([f.test_acc for f in done]) if done else np.zeros(0)
        return {
            "folds": len(done),
            "val_acc_mean": float(val.mean()) if done else float("nan"),
            "val_acc_std": float(val.std()) if done else float("nan"),
            "test_acc_mean": float(test.mean()) if done else float("nan"),
            "test_acc_std": float(test.std()) if done else float("nan"),
        }

    def summary_line(self) -> str:
        s = self.summary()
        return (
            f"test_acc {s['test_acc_mean']:.4f}±{s['test_acc_std']:.4f} "
            f"val_acc {s['val_acc_mean']:.4f}±{s['val_acc_std']:.4f} "
            f"over {s['folds']} completed folds"
        )

    def to_csv(self, path) -> None:
        """One row per epoch per fold, then per-fold and overall summary comments."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        names = [f.name for f in fields(EpochRecord)]
        writer.writerow(names)
        for rec in self.records:
            writer.writerow([repr(getattr(rec, n)) for n in names])
        for f in self.folds:
            status = "diverged" if f.diverged else "ok"
            buffer.write(
                f"# fold seed={f.seed} fold={f.fold} status={status} "
                f"best_epoch={f.best_epoch} val_acc={f.val_acc!r} test_acc={f.test_acc!r}"
                + (f" note={f.note}" if f.note else "")
                + "\n"
            )
        buffer.write(f"# summary {self.summary_line()}\n")
        Path(path).write_text(buffer.getvalue())


# Graphs batched together by ``evaluate``.
_EVAL_CHUNK = 256


def evaluate(model: Model, dataset: Dataset, indices):
    """Mean loss and accuracy over the indexed graphs (no gradients, no dropout)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot evaluate on zero graphs")
    total_loss = 0.0
    total_correct = 0.0
    for start in range(0, indices.size, _EVAL_CHUNK):
        part = indices[start : start + _EVAL_CHUNK]
        batch = batch_graphs([dataset.graphs[i] for i in part])
        logits = forward(model, batch, training=False)
        total_loss += cross_entropy(logits, batch.labels).item() * part.size
        total_correct += accuracy(logits, batch.labels) * part.size
    return total_loss / indices.size, total_correct / indices.size


def _train_single_fold(
    dataset: Dataset,
    config: TrainConfig,
    seed: int,
    fold: int,
    split,
    checkpoint_path: Path | None,
):
    train_idx, val_idx, test_idx = split
    model_config = config.model_config(dataset.feature_dim, dataset.n_classes)
    model = init_model(model_config, np.random.default_rng([seed, fold, 1]))
    shuffle_rng = np.random.default_rng([seed, fold, 2])
    dropout_rng = np.random.default_rng([seed, fold, 3])
    params = model.parameters()
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)

    records: list[EpochRecord] = []
    best = {"epoch": 0, "val_acc": -1.0, "test_acc": float("nan"), "snapshot": None}
    for epoch in range(1, config.epochs + 1):
        optimizer.lr = config.lr * config.lr_decay ** ((epoch - 1) // config.lr_decay_every)
        order = shuffle_rng.permutation(train_idx)
        seen = 0
        loss_sum = 0.0
        correct_sum = 0.0
        for start in range(0, order.size, config.batch_size):
            part = order[start : start + config.batch_size]
            batch = batch_graphs([dataset.graphs[i] for i in part])
            with Tape() as tape:
                logits = forward(model, batch, training=True, rng=dropout_rng)
                loss = cross_entropy(logits, batch.labels)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise FoldDivergence(seed, fold, epoch, loss_value)
            grads = tape.backward(loss)
            optimizer.step({name: grads.get(t) for name, t in params.items()})
            loss_sum += loss_value * part.size
            correct_sum += accuracy(logits, batch.labels) * part.size
            seen += part.size

        val_loss, val_acc = evaluate(model, dataset, val_idx)
        test_loss, test_acc = evaluate(model, dataset, test_idx)
        records.append(
            EpochRecord(
                seed=seed,
                fold=fold,
                epoch=epoch,
                lr=optimizer.lr,
                train_loss=loss_sum / seen,
                train_acc=correct_sum / seen,
                val_loss=val_loss,
                val_acc=val_acc,
                test_loss=test_loss,
                test_acc=test_acc,
            )
        )
        if val_acc > best["val_acc"]:
            best = {
                "epoch": epoch,
                "val_acc": val_acc,
                "test_acc": test_acc,
                "snapshot": {name: t.data.copy() for name, t in params.items()},
            }

    if checkpoint_path is not None and best["snapshot"] is not None:
        for name, tensor in params.items():
            tensor.data = best["snapshot"][name]
        save_checkpoint(
            model,
            checkpoint_path,
            extra={"train_config": asdict(config), "seed": seed, "fold": fold, "best_epoch": best["epoch"]},
        )
    result = FoldResult(
        seed=seed, fold=fold, best_epoch=best["epoch"], val_acc=best["val_acc"], test_acc=best["test_acc"]
    )
    return records, result


def train(
    dataset: Dataset,
    config: TrainConfig,
    seeds=None,
    out_dir=None,
    log=None,
) -> TrainResult:
    """Cross-validated training over one or more seeds.

    ``out_dir`` (optional) receives ``metrics.csv``, ``summary.txt`` and one
    best-validation checkpoint per (seed, fold). A fold whose loss goes
    non-finite is recorded as diverged and the remaining folds continue.
    """
    seeds = [config.seed] if seeds is None else list(seeds)
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    result = TrainResult(config=config)
    for seed in seeds:
        splits = kfold_split(len(dataset), config.folds, seed)
        for fold, split in enumerate(splits):
            checkpoint = out_path / f"checkpoint_seed{seed}_fold{fold}.npz" if out_path else None
            try:
                records, fold_result = _train_single_fold(
                    dataset, config, seed, fold, split, checkpoint
                )
            except FoldDivergence as diverged:
                result.folds.append(
                    FoldResult(
                        seed=seed,
                        fold=fold,
                        best_epoch=diverged.epoch,
                        val_acc=float("nan"),
                        test_acc=float("nan"),
                        diverged=True,
                        note=str(diverged),
                    )
                )
                if log:
                    log(f"seed {seed} fold {fold}: {diverged}")
                continue
            result.records.extend(records)
            result.folds.append(fold_result)
            if log:
                log(
                    f"seed {seed} fold {fold}: best_epoch={fold_result.best_epoch} "
                    f"val_acc={fold_result.val_acc:.4f} test_acc={fold_result.test_acc:.4f}"
                )

    if out_path is not None:
        result.to_csv(out_path / "metrics.csv")
        (out_path / "summary.txt").write_text(result.summary_line() + "\n")
    return result


def parse_grid(path) -> dict[str, list]:
    """Parse a sweep grid file: ``key = v1, v2, v3`` per line, # comments."""
    grid: dict[str, list] = {}
    for line_no, key, rest in _key_value_lines(path, "key = v1, v2, ..."):
        values = [v.strip() for v in rest.split(",") if v.strip()]
        if not values:
            raise ValueError(f"{path}:{line_no}: no values for {key!r}")
        grid[key] = [_field_at(path, line_no, key, v) for v in values]
    if not grid:
        raise ValueError(f"{path}: empty grid")
    return grid


def sweep(
    dataset: Dataset,
    base_config: TrainConfig,
    grid: dict[str, list],
    seeds=None,
    out_dir=None,
    log=None,
) -> list[tuple[dict, dict]]:
    """Train every configuration in the cartesian product of ``grid``.

    Returns ``(overrides, summary)`` pairs sorted by mean validation accuracy
    (best first); optionally writes ``sweep.csv``.
    """
    keys = sorted(grid)
    combos = [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]
    outcomes = []
    for combo in combos:
        config = replace(base_config, **combo)
        if log:
            log("sweep config: " + ", ".join(f"{k}={v}" for k, v in combo.items()))
        result = train(dataset, config, seeds=seeds, log=log)
        outcomes.append((combo, result.summary()))
    outcomes.sort(key=lambda pair: (-(pair[1]["val_acc_mean"]), repr(pair[0])))

    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(keys + ["folds", "val_acc_mean", "val_acc_std", "test_acc_mean", "test_acc_std"])
        for combo, summary in outcomes:
            writer.writerow(
                [repr(combo[k]) for k in keys]
                + [
                    repr(summary["folds"]),
                    repr(summary["val_acc_mean"]),
                    repr(summary["val_acc_std"]),
                    repr(summary["test_acc_mean"]),
                    repr(summary["test_acc_std"]),
                ]
            )
        (out_path / "sweep.csv").write_text(buffer.getvalue())
    return outcomes
