"""Message-passing layers and attention scorers.

All layers are pure functions over engine tensors plus small parameter
dataclasses, so the same code runs per graph or on block-diagonal batches.

* ``gcn_forward`` — convolution over a symmetrically renormalized adjacency:
  ``act(Â_norm @ X @ W)``.
* ``leconv_forward`` — local-extrema convolution
  ``act(X W1 + deg ⊙ (X W2) - A @ (X W3))``, which scores each node against a
  weighted sum of differences from its neighbors and can therefore pick out
  local maxima/minima of a signal (constant signals cancel when the three
  weights are tied).
* ``basic_leconv_forward`` — the single-weight variant with W1 = W2 = W3.
* ``attention_scores`` — per-(cluster, member) logits for soft assignments,
  in three flavors: query-free (``S2T``), transformed-query against raw
  member representations (``T2T`` uses the cluster medoid's own
  representation as query, ``M2T`` a pooled master vector). The LeakyReLU
  has GAT's fixed negative slope, 0.2, and acts entry by entry, so
  ``w^T lrelu([W q_i ‖ x_j])`` splits into a per-cluster term plus a
  per-member term (the split GAT uses to score edges). Both terms are
  computed once per node and only two ``n x 1`` columns are gathered per
  pair, instead of building a ``pairs x 2d`` matrix. The per-cluster term
  cancels in the per-cluster softmax, so the pool runs ``M2T`` with the
  medoid query and ``M2T`` cannot differ from ``T2T`` beyond rounding
  (Brody et al., GATv2, arXiv:2105.14491).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    SparseMatrix,
    Tensor,
    add,
    gather_rows,
    hadamard,
    leaky_relu,
    matmul,
    spmm,
    sparse_row_sums,
    sub,
)

__all__ = [
    "ATTENTION_KINDS",
    "GCNParams",
    "LEConvParams",
    "AttentionParams",
    "glorot",
    "gcn_forward",
    "leconv_forward",
    "basic_leconv_forward",
    "attention_scores",
]

ATTENTION_KINDS = ("M2T", "T2T", "S2T")


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """Uniform Glorot-initialized ``fan_in x fan_out`` weight."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)


@dataclass
class GCNParams:
    weight: Tensor

    @classmethod
    def init(cls, rng, in_dim: int, out_dim: int) -> "GCNParams":
        return cls(weight=glorot(rng, in_dim, out_dim))

    def tensors(self) -> dict[str, Tensor]:
        return {"W": self.weight}


@dataclass
class LEConvParams:
    weight_self: Tensor
    weight_center: Tensor
    weight_neighbor: Tensor

    @classmethod
    def init(cls, rng, in_dim: int, out_dim: int) -> "LEConvParams":
        return cls(
            weight_self=glorot(rng, in_dim, out_dim),
            weight_center=glorot(rng, in_dim, out_dim),
            weight_neighbor=glorot(rng, in_dim, out_dim),
        )

    @classmethod
    def tied(cls, weight: Tensor) -> "LEConvParams":
        return cls(weight_self=weight, weight_center=weight, weight_neighbor=weight)

    def tensors(self) -> dict[str, Tensor]:
        return {"W1": self.weight_self, "W2": self.weight_center, "W3": self.weight_neighbor}


@dataclass
class AttentionParams:
    kind: str
    weight: Tensor  # d x d transform
    score: Tensor  # score vector: 2d x 1 (with query) or d x 1 (S2T)

    def __post_init__(self):
        if self.kind not in ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind {self.kind!r}")
        d = self.weight.data.shape[0]
        if self.weight.data.shape != (d, d):
            raise ValueError("attention transform must be square")
        expected = d if self.kind == "S2T" else 2 * d
        if self.score.data.shape != (expected, 1):
            raise ValueError(
                f"{self.kind} score vector must be {expected}x1, got {self.score.data.shape}"
            )

    @classmethod
    def init(cls, rng, kind: str, dim: int) -> "AttentionParams":
        score_rows = dim if kind == "S2T" else 2 * dim
        return cls(kind=kind, weight=glorot(rng, dim, dim), score=glorot(rng, score_rows, 1))

    def tensors(self) -> dict[str, Tensor]:
        return {"W": self.weight, "w": self.score}


def gcn_forward(x: Tensor, a_norm: SparseMatrix, params: GCNParams, activation=None) -> Tensor:
    """``act(a_norm @ x @ W)`` — ``a_norm`` should already be renormalized."""
    out = spmm(a_norm, matmul(x, params.weight))
    return activation(out) if activation is not None else out


def leconv_forward(x: Tensor, a: SparseMatrix, params: LEConvParams, activation=None) -> Tensor:
    """Local-extrema convolution over the raw (unnormalized) adjacency."""
    degrees = sparse_row_sums(a)
    centered = hadamard(degrees, matmul(x, params.weight_center))
    neighbors = spmm(a, matmul(x, params.weight_neighbor))
    out = add(matmul(x, params.weight_self), sub(centered, neighbors))
    return activation(out) if activation is not None else out


def basic_leconv_forward(x: Tensor, a: SparseMatrix, weight: Tensor, activation=None) -> Tensor:
    """Local-extrema convolution with all three weights tied to one matrix."""
    return leconv_forward(x, a, LEConvParams.tied(weight), activation=activation)


def attention_scores(
    params: AttentionParams,
    candidates: Tensor,
    cluster_ids: np.ndarray,
    member_ids: np.ndarray,
    queries: Tensor | None = None,
) -> Tensor:
    """Unnormalized assignment logits for (cluster, member) pairs.

    ``candidates`` holds one representation per node (keys); ``queries`` holds
    one query row per cluster (required unless ``kind == 'S2T'``). Pair ``k``
    scores membership of node ``member_ids[k]`` in the cluster centred on node
    ``cluster_ids[k]``:

    * ``S2T``: ``w^T lrelu(W x_j)`` — the cluster plays no role in the score.
    * ``T2T``/``M2T``: ``w^T lrelu([W q_i ‖ x_j])`` with ``q`` the medoid
      representation (T2T) or the cluster's max-pooled master vector (M2T).
      The ``q_i`` term cancels in a per-cluster softmax, so the pool passes
      the medoid rows for M2T too.

    Every score term depends on one node only, so it is computed once per
    node and gathered per pair: S2T gathers ``lrelu(W x)·w`` at ``j``;
    T2T/M2T add ``lrelu(W q)·w[:d]`` gathered at ``i`` to ``lrelu(x)·w[d:]``
    gathered at ``j``. Pairs outnumber nodes by the mean cluster size, so this
    keeps every ``d``-wide product off the pair axis.
    """
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64).ravel()
    member_ids = np.asarray(member_ids, dtype=np.int64).ravel()
    if cluster_ids.shape != member_ids.shape:
        raise ValueError("cluster and member id lists must align")
    n = candidates.data.shape[0]
    for ids in (cluster_ids, member_ids):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise IndexError("pair references a node outside the representation matrix")

    if params.kind == "S2T":
        keys = leaky_relu(matmul(candidates, params.weight))
        return gather_rows(matmul(keys, params.score), member_ids)

    if queries is None:
        raise ValueError(f"{params.kind} attention needs per-cluster queries")
    if queries.data.shape != candidates.data.shape:
        raise ValueError("queries must align with candidates row-for-row")
    d = params.weight.data.shape[0]
    per_cluster = matmul(leaky_relu(matmul(queries, params.weight)), gather_rows(params.score, np.arange(d)))
    per_member = matmul(leaky_relu(candidates), gather_rows(params.score, np.arange(d, 2 * d)))
    return add(gather_rows(per_cluster, cluster_ids), gather_rows(per_member, member_ids))
