"""Hierarchical graph classifier.

The network stacks ``n_blocks`` rounds of (graph convolution → pooling); after
every pooling step the surviving nodes are summarized per graph as
``[mean ‖ max]`` and the per-level summaries are summed into one fixed-size
readout. A two-layer head (relu, dropout between the layers) maps the readout
to class logits. Cross-entropy and accuracy live here too, as does a small
versioned checkpoint format.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .engine import (
    Tensor,
    add,
    concat_cols,
    hadamard,
    matmul,
    record,
    relu,
    segment_reduce,
)
from .graphs import GraphBatch, normalize_gcn
from .layers import GCNParams, gcn_forward, glorot
from .pool import PoolConfig, PoolParams, asap_pool_batch

__all__ = [
    "ModelConfig",
    "BlockParams",
    "Model",
    "init_model",
    "readout",
    "forward",
    "cross_entropy",
    "accuracy",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters."""

    feature_dim: int
    n_classes: int
    hidden: int = 64
    n_blocks: int = 3
    dropout: float = 0.0
    pool: PoolConfig = field(default_factory=PoolConfig)

    def __post_init__(self):
        if self.feature_dim < 1 or self.n_classes < 2:
            raise ValueError("need at least one feature and two classes")
        if self.hidden < 1 or self.n_blocks < 1:
            raise ValueError("hidden width and block count must be positive")
        if not 0.0 <= self.dropout <= 0.5:
            raise ValueError(f"dropout must be in [0, 0.5], got {self.dropout}")


@dataclass
class BlockParams:
    gcn: GCNParams
    pool: PoolParams


@dataclass
class Model:
    config: ModelConfig
    blocks: list[BlockParams]
    head_hidden_w: Tensor
    head_hidden_b: Tensor
    head_out_w: Tensor
    head_out_b: Tensor

    def parameters(self) -> dict[str, Tensor]:
        """All learnable tensors keyed by a stable dotted name."""
        out: dict[str, Tensor] = {}
        for i, block in enumerate(self.blocks, start=1):
            for k, v in block.gcn.tensors().items():
                out[f"block{i}.gcn.{k}"] = v
            for k, v in block.pool.tensors().items():
                out[f"block{i}.pool.{k}"] = v
        out["head.hidden.W"] = self.head_hidden_w
        out["head.hidden.b"] = self.head_hidden_b
        out["head.out.W"] = self.head_out_w
        out["head.out.b"] = self.head_out_b
        return out


def init_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Glorot-initialized model (biases start at zero)."""
    blocks = []
    in_dim = config.feature_dim
    for _ in range(config.n_blocks):
        blocks.append(
            BlockParams(
                gcn=GCNParams.init(rng, in_dim, config.hidden),
                pool=PoolParams.init(rng, config.hidden, config.pool),
            )
        )
        in_dim = config.hidden
    readout_dim = 2 * config.hidden
    return Model(
        config=config,
        blocks=blocks,
        head_hidden_w=glorot(rng, readout_dim, config.hidden),
        head_hidden_b=Tensor(np.zeros((1, config.hidden)), requires_grad=True),
        head_out_w=glorot(rng, config.hidden, config.n_classes),
        head_out_b=Tensor(np.zeros((1, config.n_classes)), requires_grad=True),
    )


def readout(x: Tensor, node_graph_ids: np.ndarray, n_graphs: int) -> Tensor:
    """Per-graph ``[mean ‖ max]`` summary of node features."""
    mean = segment_reduce("mean", x, node_graph_ids, n_graphs)
    peak = segment_reduce("max", x, node_graph_ids, n_graphs)
    return concat_cols(mean, peak)


def _broadcast_rows(bias: Tensor, n_rows: int) -> Tensor:
    return matmul(Tensor(np.ones((n_rows, 1))), bias)


def forward(
    model: Model,
    batch: GraphBatch,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Class logits, one row per graph in the batch.

    Dropout fires only with ``training=True`` (which then requires ``rng``)
    and uses inverted scaling so evaluation needs no correction. The last
    block's pooled adjacency is not built: nothing after the last readout
    reads it.
    """
    x, a = batch.features, batch.adjacency
    ids, n_graphs = batch.node_graph_ids, batch.n_graphs
    summary: Tensor | None = None
    last = len(model.blocks) - 1
    for i, block in enumerate(model.blocks):
        a_norm = normalize_gcn(a)  # shared by this level's convolution and pooling
        x = gcn_forward(x, a_norm, block.gcn, activation=relu)
        pooled = asap_pool_batch(x, a, ids, n_graphs, block.pool, model.config.pool, a_norm, coarsen=i < last)
        x, a, ids = pooled.features, pooled.adjacency, pooled.node_graph_ids
        level = readout(x, ids, n_graphs)
        summary = level if summary is None else add(summary, level)

    hidden = relu(add(matmul(summary, model.head_hidden_w), _broadcast_rows(model.head_hidden_b, n_graphs)))
    p = model.config.dropout
    if training and p > 0.0:
        if rng is None:
            raise ValueError("training-mode forward with dropout needs an rng")
        mask = (rng.random(hidden.data.shape) >= p) / (1.0 - p)
        hidden = hadamard(hidden, Tensor(mask))
    return add(matmul(hidden, model.head_out_w), _broadcast_rows(model.head_out_b, n_graphs))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under the logits."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    n, c = logits.data.shape
    if y.shape[0] != n:
        raise ValueError(f"{n} logit rows but {y.shape[0]} labels")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label outside 0..{c - 1}")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    out = Tensor(np.array([[-log_probs[np.arange(n), y].mean()]]))

    def backward(grad, accumulate):
        soft = np.exp(log_probs)
        soft[np.arange(n), y] -= 1.0
        accumulate(logits, soft * (grad[0, 0] / n))

    record(out, (logits,), backward)
    return out


def accuracy(logits: Tensor, labels) -> float:
    """Fraction of rows whose argmax matches the label (ties pick the lower class)."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    predictions = np.argmax(logits.data, axis=1)
    return float((predictions == y).mean())


def save_checkpoint(model: Model, path, extra: dict | None = None) -> None:
    """Serialize config + parameters into a single versioned binary file."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "extra": extra or {},
    }
    arrays = {f"param/{name}": t.data for name, t in model.parameters().items()}
    buffer = io.BytesIO()
    np.savez(buffer, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    with open(path, "wb") as fh:
        fh.write(buffer.getvalue())


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a model from :func:`save_checkpoint` output; returns (model, extra)."""
    with np.load(path) as payload:
        meta = json.loads(bytes(payload["meta"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        cfg = dict(meta["config"])
        cfg["pool"] = PoolConfig(**cfg["pool"])
        config = ModelConfig(**cfg)
        model = init_model(config, np.random.default_rng(0))
        params = model.parameters()
        stored = {k[len("param/") :] for k in payload.files if k.startswith("param/")}
        if stored != set(params):
            raise ValueError("checkpoint parameters do not match the architecture")
        for name, tensor in params.items():
            data = payload[f"param/{name}"]
            if data.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            tensor.data = data.astype(np.float64)
    return model, meta["extra"]
