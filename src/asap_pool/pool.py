"""Attention-based hierarchical pooling.

One pooling step shrinks a graph (or block-diagonal batch) in four stages:

1. **Cluster formation** — every node becomes the medoid of the cluster of
   all nodes within ``h`` hops. A dedicated linear convolution produces
   representations ``X'``; an attention scorer compares each member against
   its cluster's query (max-pooled master vector for ``M2T``, the medoid's
   own representation for ``T2T``, nothing for ``S2T``) and a per-cluster
   softmax turns the logits into membership weights. Cluster features are the
   weighted sum of the *raw* member features.
2. **Fitness scoring** — a local-extrema convolution (or the configured
   alternative) maps each cluster to a sigmoid fitness ``Φ``.
3. **Selection** — the top ``⌈k·N⌉`` clusters per graph survive (stable
   ranking; ties keep the lower node index) and their features are gated by
   their fitness.
4. **Coarsening** — with soft edges the pooled adjacency is
   ``Ŝᵀ (A + I) Ŝ`` over the surviving membership columns ``Ŝ``; without, it
   is the selected submatrix of ``A``. Either way the diagonal is dropped.

Every stage is differentiable through the engine tape (selection indices are
treated as constants, like any argmax).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    SparseMatrix,
    Tensor,
    gather_rows,
    hadamard,
    segment_reduce,
    segment_softmax,
    sigmoid,
    sparse_add_identity,
    sparse_make,
    sparse_select_columns,
    sparse_submatrix,
    sparse_transpose,
    sparse_zero_diagonal,
    spspmm,
)
from .graphs import Graph, h_hop_membership, normalize_gcn
from .layers import (
    ATTENTION_KINDS,
    AttentionParams,
    GCNParams,
    LEConvParams,
    attention_scores,
    gcn_forward,
    leconv_forward,
)

__all__ = [
    "FITNESS_KINDS",
    "AGGREGATION_MODES",
    "PoolConfig",
    "PoolParams",
    "PooledBatch",
    "form_clusters",
    "score_clusters",
    "select_top",
    "coarsen_adjacency",
    "asap_pool_batch",
    "asap_pool",
]

FITNESS_KINDS = ("LEConv", "BasicLEConv", "GCN")
# What feeds fitness scoring and the pooled features, respectively:
#   "None"        -> raw node features for both
#   "OnlyCluster" -> raw for fitness, cluster features carried forward
#   "Both"        -> cluster features for both
AGGREGATION_MODES = ("None", "OnlyCluster", "Both")


@dataclass(frozen=True)
class PoolConfig:
    """Hyperparameters of one pooling step."""

    k: float = 0.5
    h: int = 1
    attention: str = "M2T"
    fitness: str = "LEConv"
    aggregation: str = "Both"
    soft_edges: bool = True

    def __post_init__(self):
        if not 0.0 < self.k <= 1.0:
            raise ValueError(f"pooling ratio k must be in (0, 1], got {self.k}")
        if not (isinstance(self.h, int) and self.h >= 1):
            raise ValueError(f"cluster radius h must be an integer >= 1, got {self.h}")
        if self.attention not in ATTENTION_KINDS:
            raise ValueError(f"attention must be one of {ATTENTION_KINDS}, got {self.attention!r}")
        if self.fitness not in FITNESS_KINDS:
            raise ValueError(f"fitness must be one of {FITNESS_KINDS}, got {self.fitness!r}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, got {self.aggregation!r}"
            )


@dataclass
class PoolParams:
    """Learnable state of one pooling step."""

    intra_gcn: GCNParams
    attention: AttentionParams
    fitness: LEConvParams | GCNParams

    @classmethod
    def init(cls, rng: np.random.Generator, dim: int, config: PoolConfig) -> "PoolParams":
        if config.fitness == "LEConv":
            fitness = LEConvParams.init(rng, dim, 1)
        else:  # BasicLEConv and GCN each learn a single d x 1 weight
            fitness = GCNParams.init(rng, dim, 1)
        return cls(
            intra_gcn=GCNParams.init(rng, dim, dim),
            attention=AttentionParams.init(rng, config.attention, dim),
            fitness=fitness,
        )

    def tensors(self) -> dict[str, Tensor]:
        out = {f"intra.{k}": v for k, v in self.intra_gcn.tensors().items()}
        out.update({f"attn.{k}": v for k, v in self.attention.tensors().items()})
        out.update({f"fitness.{k}": v for k, v in self.fitness.tensors().items()})
        return out


@dataclass
class PooledBatch:
    """Result of pooling a batch: the shrunk batch plus the pooling internals."""

    features: Tensor  # ⌈kN⌉ x d pooled (fitness-gated) features, rank order per graph
    adjacency: SparseMatrix  # pooled adjacency, zero diagonal
    node_graph_ids: np.ndarray
    n_graphs: int
    selected: np.ndarray  # global indices of surviving cluster medoids
    fitness: Tensor  # N x 1 sigmoid fitness of every cluster
    assignment: SparseMatrix  # Ŝ: N x ⌈kN⌉ membership columns of the survivors
    membership: SparseMatrix  # S: N x N full membership (rows nodes, cols clusters)
    clusters: Tensor | None  # X^c when computed (aggregation != "None")


def form_clusters(
    x: Tensor,
    a: SparseMatrix,
    a_norm: SparseMatrix,
    params: PoolParams,
    config: PoolConfig,
    *,
    need_cluster_features: bool = True,
):
    """Soft membership weights and (optionally) weighted cluster features.

    ``a_norm`` is ``normalize_gcn(a)``. Returns ``(clusters, membership,
    pairs)`` where ``membership`` is the ``N x N`` matrix with
    ``membership[j, i]`` the weight of node ``j`` in the cluster centred on
    ``i`` (columns sum to one over members) and ``pairs`` is the underlying
    ``(cluster_ids, member_ids)`` pattern.
    """
    n = a.shape[0]
    if config.h == 1:
        # The 1-hop balls (self included) are exactly the pattern of A + I,
        # which the renormalized adjacency already stores.
        cluster_ids, member_ids = a_norm.rows, a_norm.cols
    else:
        pattern = h_hop_membership(a, config.h)
        cluster_ids, member_ids = pattern.rows, pattern.cols

    transformed = gcn_forward(x, a_norm, params.intra_gcn)
    if config.attention == "M2T":
        members = gather_rows(transformed, member_ids)
        queries = segment_reduce("max", members, cluster_ids, n)
    elif config.attention == "T2T":
        queries = transformed
    else:
        queries = None
    logits = attention_scores(params.attention, transformed, cluster_ids, member_ids, queries)
    weights = segment_softmax(logits, cluster_ids, n)

    clusters = None
    if need_cluster_features:
        # Keep this arithmetic (row scale, then a per-cluster sum in member
        # order): fitness of automorphic nodes ties exactly only because it
        # rounds like the dense reference, and selection breaks exact ties by
        # index. An spmm or any other summation order moves fitness by ~1e-16
        # and reorders the survivors.
        weighted = hadamard(weights, gather_rows(x, member_ids))
        clusters = segment_reduce("sum", weighted, cluster_ids, n)

    # Pattern sorted by (cluster, member) is exactly the transpose's canonical
    # order, so build S^T first and flip it.
    membership_t = sparse_make((n, n), cluster_ids, member_ids, weights)
    membership = sparse_transpose(membership_t)
    return clusters, membership, (cluster_ids, member_ids)


def score_clusters(
    x: Tensor, a: SparseMatrix, a_norm: SparseMatrix, params: PoolParams, config: PoolConfig
) -> Tensor:
    """Sigmoid fitness of each cluster from its representative features."""
    if config.fitness == "LEConv":
        return leconv_forward(x, a, params.fitness, activation=sigmoid)
    if config.fitness == "BasicLEConv":
        return leconv_forward(x, a, LEConvParams.tied(params.fitness.weight), activation=sigmoid)
    return gcn_forward(x, a_norm, params.fitness, activation=sigmoid)


def top_count(k: float, n):
    """⌈k·n⌉ with protection against float wobble, at least one (per entry if ``n`` is an array)."""
    count = np.maximum(1, np.minimum(n, np.ceil(k * np.asarray(n) - 1e-9))).astype(np.int64)
    return count if count.ndim else int(count)


def select_top(
    fitness: Tensor, k: float, node_graph_ids: np.ndarray, n_graphs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the top ``⌈k·n⌉`` nodes per graph, in descending-fitness order.

    Stable ranking: equal fitness keeps the lower original index first.
    Returns ``(selected_global_indices, pooled_node_graph_ids)``.
    """
    phi = fitness.data[:, 0]
    if phi.shape[0] != node_graph_ids.shape[0]:
        raise ValueError("fitness rows must match node count")
    counts = np.bincount(node_graph_ids, minlength=n_graphs)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # One sort for the whole batch: by graph, then fitness descending, then index.
    order = np.lexsort((np.arange(phi.shape[0]), -phi, node_graph_ids))
    keep = top_count(k, counts)
    graph_of = node_graph_ids[order]
    rank = np.arange(order.shape[0]) - offsets[graph_of]
    selected = order[rank < keep[graph_of]]
    return selected, node_graph_ids[selected]


def coarsen_adjacency(
    a: SparseMatrix, membership: SparseMatrix, selected: np.ndarray, soft_edges: bool
) -> tuple[SparseMatrix, SparseMatrix]:
    """Pooled adjacency (zero diagonal) plus the surviving membership columns Ŝ.

    Soft edges connect survivors whose clusters overlap or touch:
    ``Ŝᵀ (A + I) Ŝ``. Hard edges keep only original edges between survivors.
    """
    s_hat = sparse_select_columns(membership, selected)
    if soft_edges:
        augmented = sparse_add_identity(a)
        pooled = spspmm(spspmm(sparse_transpose(s_hat), augmented), s_hat)
        pooled = sparse_zero_diagonal(pooled)
    else:
        pooled = sparse_submatrix(a, selected, selected)
    return pooled, s_hat


def asap_pool_batch(
    x: Tensor,
    a: SparseMatrix,
    node_graph_ids: np.ndarray,
    n_graphs: int,
    params: PoolParams,
    config: PoolConfig,
    a_norm: SparseMatrix | None = None,
) -> PooledBatch:
    """One pooling step over a block-diagonal batch.

    ``a_norm`` is ``normalize_gcn(a)`` when the caller already has it (the
    model's convolution uses the same matrix); otherwise it is computed here.
    """
    node_graph_ids = np.asarray(node_graph_ids, dtype=np.int64).ravel()
    if x.data.shape[0] != a.shape[0] or a.shape[0] != node_graph_ids.shape[0]:
        raise ValueError("features, adjacency and graph ids must agree on node count")
    if a_norm is None:
        a_norm = normalize_gcn(a)

    need_clusters = config.aggregation != "None"
    clusters, membership, _ = form_clusters(
        x, a, a_norm, params, config, need_cluster_features=need_clusters
    )

    fitness_input = clusters if config.aggregation == "Both" else x
    carried = x if config.aggregation == "None" else clusters
    fitness = score_clusters(fitness_input, a, a_norm, params, config)

    selected, pooled_ids = select_top(fitness, config.k, node_graph_ids, n_graphs)
    gated = hadamard(fitness, carried)
    features = gather_rows(gated, selected)

    adjacency, s_hat = coarsen_adjacency(a, membership, selected, config.soft_edges)
    return PooledBatch(
        features=features,
        adjacency=adjacency,
        node_graph_ids=pooled_ids,
        n_graphs=n_graphs,
        selected=selected,
        fitness=fitness,
        assignment=s_hat,
        membership=membership,
        clusters=clusters,
    )


def asap_pool(graph: Graph, params: PoolParams, config: PoolConfig) -> PooledBatch:
    """One pooling step over a single graph (a batch of one)."""
    ids = np.zeros(graph.n_nodes, dtype=np.int64)
    return asap_pool_batch(graph.features, graph.adjacency, ids, 1, params, config)
