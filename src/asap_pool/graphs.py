"""Graph containers and structural utilities.

A :class:`Graph` couples a symmetric, non-negatively weighted adjacency matrix
(no self loops stored) with a constant node-feature matrix and an optional
class label. Batches stack graphs block-diagonally so the whole pipeline runs
on one adjacency; ``node_graph_ids`` (sorted, contiguous) maps rows back to
graphs for segment reductions.

Graphs built from edge lists (``graph_from_edges``, ``adjacency_blocks``)
have unit weights. Structural helpers here are shared by the layers, the
pooling operator and the verification lab: symmetric renormalization (the
engine's taped ``normalize_gcn``, exported from here), h-hop neighborhood
patterns, graph powers, breadth-first distances, permutation relabeling and
Prüfer sequence decoding for random trees. None builds a scipy matrix: the
h-hop patterns and graph powers take each hop as one call to scipy's compiled
sparse-times-sparse kernels (the engine's ``_csr_product``), and distances
come from one breadth-first search from every source at once, each step one
call to its sparse-times-dense kernel, both on the adjacency's CSR index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import _sparsetools

from .engine import SparseMatrix, Tensor, normalize_gcn
from .engine.sparse import _csr_product, _identity_merge

__all__ = [
    "Graph",
    "Dataset",
    "GraphBatch",
    "graph_from_edges",
    "adjacency_blocks",
    "batch_graphs",
    "permute_graph",
    "h_hop_membership",
    "graph_power",
    "normalize_gcn",
    "bfs_distances",
    "prufer_to_edges",
    "random_tree_edges",
]


@dataclass(frozen=True)
class Graph:
    """One graph: adjacency (symmetric, non-negative, zero diagonal), features, label."""

    adjacency: SparseMatrix
    features: Tensor
    label: int | None = None

    def __post_init__(self):
        a, x = self.adjacency, self.features
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got {a.shape}")
        if x.data.shape[0] != a.shape[0]:
            raise ValueError(
                f"feature rows ({x.data.shape[0]}) must match node count ({a.shape[0]})"
            )
        if a.nnz:
            if (a.values < 0.0).any():
                raise ValueError("adjacency weights must be non-negative")
            if (a.rows == a.cols).any():
                raise ValueError("adjacency must not store diagonal entries")
            # Sorted by (col, row), the entries must list the same keys and
            # weights as by (row, col); NaN never equals itself.
            transposed_keys = a.cols * a.shape[0] + a.rows
            order = np.argsort(transposed_keys, kind="stable")
            if not np.array_equal(transposed_keys[order], a.pattern_key()):
                raise ValueError("adjacency pattern must be symmetric")
            if not np.array_equal(a.values[order], a.values):
                raise ValueError("adjacency weights must be symmetric")

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Undirected edge count (each stored entry pair counts once)."""
        return self.adjacency.nnz // 2

    @property
    def feature_dim(self) -> int:
        return self.features.data.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A named collection of graphs sharing a feature space and label set."""

    name: str
    graphs: list[Graph] = field(default_factory=list)
    n_classes: int = 2

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("dataset needs at least one graph")
        dim = self.graphs[0].feature_dim
        for i, g in enumerate(self.graphs):
            if g.feature_dim != dim:
                raise ValueError(f"graph {i} has feature dim {g.feature_dim}, expected {dim}")
            if g.label is None:
                raise ValueError(f"graph {i} has no label")
            if not 0 <= g.label < self.n_classes:
                raise ValueError(f"graph {i} label {g.label} outside {self.n_classes} classes")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim


@dataclass
class GraphBatch:
    """Several graphs stacked into one block-diagonal structure."""

    adjacency: SparseMatrix
    features: Tensor
    node_graph_ids: np.ndarray  # sorted, one id per node row
    n_graphs: int
    labels: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


def adjacency_blocks(sizes, heads, tails) -> list[SparseMatrix]:
    """Each graph's symmetric unit-weight adjacency, from undirected edges numbered across all graphs.

    Graph ``g`` holds nodes ``offsets[g]`` to ``offsets[g + 1] - 1``, with
    ``offsets`` the running sum of ``sizes``; each edge ``(heads[k],
    tails[k])`` joins two distinct nodes of one graph. One ``np.unique``
    dedupes the edges, one sort of the mirrored entries puts every graph's
    pattern in row-major order, and each graph gets its slice, renumbered
    from 0.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    span = max(int(offsets[-1]), 1)
    keys = np.unique(np.minimum(heads, tails) * span + np.maximum(heads, tails))
    entries = np.sort(np.concatenate((keys, keys % span * span + keys // span)))
    values = np.ones(entries.shape[0])
    rows, cols = entries // span, entries % span
    bounds = np.searchsorted(rows, offsets)
    first = np.repeat(offsets[:-1], bounds[1:] - bounds[:-1])
    rows -= first
    cols -= first
    bounds = bounds.tolist()
    return [
        SparseMatrix((n, n), rows[a:b], cols[a:b], values[a:b])
        for n, a, b in zip(sizes.tolist(), bounds[:-1], bounds[1:])
    ]


def graph_from_edges(n_nodes: int, edges, features=None, label=None) -> Graph:
    """Build a unit-weight graph from undirected edge pairs (deduplicated, symmetrized).

    ``edges`` is an iterable of ``(u, v)`` pairs; self loops are rejected.
    ``features`` defaults to a constant-one column.
    """
    pairs = np.array(list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    u, v = pairs[:, 0], pairs[:, 1]
    bad = np.flatnonzero((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n_nodes))
    if bad.size:
        k = bad[0]
        if u[k] == v[k]:
            raise ValueError(f"self loop on node {u[k]}")
        raise ValueError(f"edge ({u[k]}, {v[k]}) outside {n_nodes} nodes")
    (adjacency,) = adjacency_blocks([n_nodes], u, v)
    if features is None:
        features = np.ones((n_nodes, 1))
    return Graph(adjacency=adjacency, features=Tensor(features), label=label)


def batch_graphs(graphs) -> GraphBatch:
    """Stack graphs block-diagonally; node ids stay sorted by graph."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("cannot batch zero graphs")
    sizes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total = int(offsets[-1])
    rows = np.concatenate([g.adjacency.rows + off for g, off in zip(graphs, offsets)])
    cols = np.concatenate([g.adjacency.cols + off for g, off in zip(graphs, offsets)])
    vals = np.concatenate([g.adjacency.values for g in graphs])
    adjacency = SparseMatrix((total, total), rows, cols, vals)
    features = Tensor(np.vstack([g.features.data for g in graphs]))
    node_graph_ids = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    labels = None
    if all(g.label is not None for g in graphs):
        labels = np.array([g.label for g in graphs], dtype=np.int64)
    return GraphBatch(
        adjacency=adjacency,
        features=features,
        node_graph_ids=node_graph_ids,
        n_graphs=len(graphs),
        labels=labels,
    )


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel nodes: node ``i`` becomes node ``perm[i]``."""
    perm = np.asarray(perm, dtype=np.int64).ravel()
    n = g.n_nodes
    if perm.shape[0] != n or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm must be a permutation of all node indices")
    adjacency = SparseMatrix.from_coo(
        g.adjacency.shape, perm[g.adjacency.rows], perm[g.adjacency.cols], g.adjacency.values
    )
    features = np.empty_like(g.features.data)
    features[perm] = g.features.data
    return Graph(adjacency=adjacency, features=Tensor(features), label=g.label)


def _reach_pattern(a: SparseMatrix, steps: int) -> SparseMatrix:
    """Pattern of node pairs within ``steps`` hops (self included), as 1.0 entries.

    Every stored entry of ``a`` is an edge. Each step is one compiled CSR
    product by the unit-valued pattern of ``A + I``, whose result has its
    values reset to 1.0; all of them are positive, so none is dropped.
    """
    n = a.shape[0]
    rows, cols, _, _ = _identity_merge(a)
    base = SparseMatrix._canonical(a.shape, rows, cols, np.ones(rows.shape[0]))
    index = base_index = base.csr_index()
    values = base.values
    for _ in range(steps - 1):
        index, values = _csr_product(n, n, index, values, base_index, base.values)
        values = np.ones(values.shape[0])
    indices, indptr = index
    return SparseMatrix((n, n), np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)), indices, values)


def h_hop_membership(a: SparseMatrix, h: int) -> SparseMatrix:
    """Indicator pattern with entry ``(i, j) = 1`` iff ``dist(i, j) <= h``.

    Row ``i`` lists the members of the radius-``h`` cluster centred on node
    ``i`` (always including ``i`` itself).
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("membership needs a square adjacency")
    if h < 1:
        raise ValueError(f"cluster radius must be >= 1, got {h}")
    return _reach_pattern(a, h)


def graph_power(a: SparseMatrix, p: int) -> SparseMatrix:
    """Adjacency of the graph whose edges join nodes at distance 1..p.

    Unit weights; no self loops.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("graph power needs a square adjacency")
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    reach = _reach_pattern(a, p)
    keep = reach.rows != reach.cols
    return SparseMatrix(a.shape, reach.rows[keep], reach.cols[keep], np.ones(int(keep.sum())))


def bfs_distances(a: SparseMatrix) -> np.ndarray:
    """All-pairs hop distances, ``dist[s, v]`` from ``s`` to ``v`` (``-1`` for unreachable).

    One level-synchronous breadth-first search from every source at once: an
    ``n x n`` frontier holds in column ``s`` the nodes first reached from
    ``s``, and each step is one sparse x dense product by scipy's
    ``csc_matvecs`` on ``a``'s CSR index with unit values. Read as CSC, those
    arrays are ``aᵀ``, so an entry ``(u, v)`` leads from ``u`` to ``v``.
    Every stored entry is an edge, explicit ``0.0`` values included.
    """
    n = a.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    dist_t = dist.T  # [v, s], laid out like the frontier
    indices, indptr = a.csr_index()
    ones = np.ones(a.nnz)
    frontier = np.eye(n)
    step = 1
    while a.nnz:
        reached = np.zeros((n, n))
        _sparsetools.csc_matvecs(n, n, n, indptr, indices, ones, frontier.ravel(), reached.ravel())
        fresh = (reached > 0.0) & (dist_t < 0)
        if not fresh.any():
            break
        dist_t[fresh] = step
        frontier = fresh.astype(np.float64)
        step += 1
    return dist


def prufer_to_edges(sequence, n_nodes: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence of length ``n_nodes - 2`` into tree edges.

    The decoding is the standard bijection between sequences over
    ``{0..n-1}`` and labeled trees on ``n`` nodes.
    """
    seq = [int(v) for v in sequence]
    if n_nodes < 2:
        raise ValueError("a tree needs at least two nodes")
    if len(seq) != n_nodes - 2:
        raise ValueError(f"sequence length must be {n_nodes - 2}, got {len(seq)}")
    if seq and (min(seq) < 0 or max(seq) >= n_nodes):
        raise ValueError("sequence entries must be node labels")
    degree = np.ones(n_nodes, dtype=np.int64)
    for v in seq:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    # Smallest-leaf-first decoding with a moving pointer.
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
            ptr += 1
    remaining = np.flatnonzero(degree == 1)
    edges.append((int(remaining[0]), int(remaining[1])))
    return edges


def random_tree_edges(n_nodes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges of a uniformly random labeled tree on ``n_nodes`` nodes."""
    if n_nodes == 1:
        return []
    if n_nodes == 2:
        return [(0, 1)]
    seq = rng.integers(0, n_nodes, size=n_nodes - 2)
    return prufer_to_edges(seq, n_nodes)
