"""Brute-force verification lab for the pooling operator's structural claims.

Everything here is exact and small-scale: distances by breadth-first search,
maximum spread-out node sets by branch-and-bound over bitmasks, minimum
sampling fractions by a table over every node subset, tree families by
explicit construction or exhaustive isomorphism-free generation. The point is
to check the closed-form results the pooling design leans on:

* the largest set of nodes pairwise ``>= h`` hops apart on paths and balanced
  starlike trees matches the closed forms ``ceil(N/h)`` and
  ``floor((N-1)/(h/2))``;
* a selection that is guaranteed to keep an edge after pooling needs
  ``n*(reach+1) + 1`` nodes, where the edge reach is ``2h+1`` with soft
  cluster edges and ``h`` for plain top-k selection, so cluster pooling needs
  a strictly smaller fraction on worst-case trees (stars, starlike trees);
* augmenting a graph with its p-th power before pooling connects survivors up
  to ``p + 2h`` hops apart (versus ``p`` without clusters);
* pooling commutes with node relabeling whenever fitness values are distinct
  (and a two-node tie shows why distinctness is required).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .engine import SparseMatrix, Tensor
from .graphs import Graph, bfs_distances, graph_from_edges, h_hop_membership, graph_power, permute_graph
from .layers import LEConvParams
from .pool import PoolConfig, PoolParams, asap_pool, coarsen_adjacency

__all__ = [
    "OptimumResult",
    "SamplingResult",
    "TreeBoundsRow",
    "GraphPowerResult",
    "EquivarianceReport",
    "path_graph",
    "star_graph",
    "balanced_starlike_tree",
    "closed_form_optimum",
    "optimum_nodes",
    "edge_reach",
    "min_sampling_ratio",
    "closed_form_path_ratio",
    "enumerate_trees",
    "tree_canonical_code",
    "verify_tree_bounds",
    "verify_graph_power",
    "verify_equivariance",
    "tie_counterexample",
]

_OPTIMUM_NODE_LIMIT = 20
_SAMPLING_NODE_LIMIT = 16


# ---------------------------------------------------------------------------
# Graph families


def path_graph(n: int) -> Graph:
    """Path on ``n`` nodes, 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("path needs at least one node")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on ``n`` nodes with center 0."""
    if n < 2:
        raise ValueError("star needs at least two nodes")
    return graph_from_edges(n, [(0, leaf) for leaf in range(1, n)])


def balanced_starlike_tree(n: int, h: int) -> Graph:
    """Root plus paths ("branches") of height ``h/2``, at most one shorter.

    Defined for even ``h``; this is the extremal family for the spread-out
    node-set bound. Needs at least one full branch (``n > h/2``).
    """
    if h < 2 or h % 2:
        raise ValueError(f"balanced starlike trees need even h >= 2, got {h}")
    height = h // 2
    if n - 1 < height:
        raise ValueError(f"need at least one full branch: n > {height}")
    edges = []
    next_node = 1
    remaining = n - 1
    while remaining > 0:
        branch = min(height, remaining)
        prev = 0
        for _ in range(branch):
            edges.append((prev, next_node))
            prev = next_node
            next_node += 1
        remaining -= branch
    return graph_from_edges(n, edges)


def closed_form_optimum(family: str, n: int, h: int) -> int:
    """Known largest-spread-out-set sizes: ``path`` and ``balanced_starlike``."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if family == "path":
        return (n + h - 1) // h
    if family == "balanced_starlike":
        if h % 2:
            raise ValueError("the balanced-starlike closed form needs even h")
        return (n - 1) // (h // 2)
    raise ValueError(f"no closed form for family {family!r}")


# ---------------------------------------------------------------------------
# Exact optimum node sets (pairwise distance >= h)


@dataclass(frozen=True)
class OptimumResult:
    """Largest node set pairwise at least ``h`` hops apart, with a witness."""

    h: int
    size: int
    witness: tuple[int, ...]


def _conflict_masks(dist: np.ndarray, h: int) -> np.ndarray:
    """Bitmask per node ``u`` of the other nodes ``v`` with ``0 <= dist[u, v] < h``."""
    n = dist.shape[0]
    near = (dist >= 0) & (dist < h)
    np.fill_diagonal(near, False)
    return near.astype(np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))


def optimum_nodes(a: SparseMatrix, h: int) -> OptimumResult:
    """Exact maximum set of nodes pairwise ``>= h`` hops apart.

    Branch-and-bound over bitmasks; unreachable pairs count as infinitely far
    apart. Deterministic: the reported witness is the first optimum found when
    always branching on the lowest remaining node.
    """
    n = a.shape[0]
    if n > _OPTIMUM_NODE_LIMIT:
        raise ValueError(f"exact search is limited to {_OPTIMUM_NODE_LIMIT} nodes, got {n}")
    if h < 1:
        raise ValueError("h must be >= 1")
    conflicts = _conflict_masks(bfs_distances(a), h).tolist()
    best_size = 0
    best_mask = 0

    def explore(available: int, chosen_size: int, chosen_mask: int) -> None:
        nonlocal best_size, best_mask
        if chosen_size + available.bit_count() <= best_size:
            return
        if available == 0:
            if chosen_size > best_size:
                best_size, best_mask = chosen_size, chosen_mask
            return
        v = (available & -available).bit_length() - 1
        bit = 1 << v
        explore(available & ~(bit | conflicts[v]), chosen_size + 1, chosen_mask | bit)
        explore(available & ~bit, chosen_size, chosen_mask)

    explore((1 << n) - 1, 0, 0)
    witness = tuple(v for v in range(n) if best_mask >> v & 1)
    return OptimumResult(h=h, size=best_size, witness=witness)


# ---------------------------------------------------------------------------
# Minimum sampling fractions


def edge_reach(method: str, h: int) -> int:
    """How many hops apart two survivors may be and still end up adjacent.

    Soft cluster pooling bridges ``h`` hops to each endpoint's cluster plus
    one hop between overlapping-or-adjacent clusters; plain top-k keeps only
    original edges within the same horizon.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if method == "ASAP":
        return 2 * h + 1
    if method == "TopK":
        return h
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SamplingResult:
    """Smallest selection size guaranteed to produce at least one pooled edge."""

    n_nodes: int
    reach: int
    max_spread_size: int  # largest selection with no pooled edge at all
    min_count: int  # max_spread_size + 1
    ratio: Fraction  # min_count / n_nodes
    spread_witness: tuple[int, ...]


def min_sampling_ratio(a: SparseMatrix, reach: int) -> SamplingResult:
    """Exhaustive minimum sampling fraction for a given pooled-edge reach.

    Tabulates every node subset (hence the 16-node cap) as edge-free or not,
    where a pair ``u < v`` is an edge when ``v`` is within ``reach`` hops of
    ``u``, and takes the largest edge-free subset; one more node than that
    forces an edge in the pooled graph, and the ratio is that count over
    ``N``. The table is filled by highest node: the subsets whose highest
    node is ``v`` are ``v`` added to each subset of the lower nodes, so each
    node costs one vectorised pass over the ``2^v`` subsets before it. The
    witness is the smallest bitmask among the largest edge-free subsets.
    """
    n = a.shape[0]
    if n > _SAMPLING_NODE_LIMIT:
        raise ValueError(f"subset scan is limited to {_SAMPLING_NODE_LIMIT} nodes, got {n}")
    if reach < 1:
        raise ValueError("reach must be >= 1")
    # close[v] flags the lower nodes u with dist(u, v) <= reach.
    close = _conflict_masks(bfs_distances(a).T, reach + 1)
    masks = np.arange(1 << n, dtype=np.int64)
    edge_free = np.ones(1 << n, dtype=bool)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        low = 1 << v
        np.logical_and(edge_free[:low], (masks[:low] & close[v]) == 0, out=edge_free[low : 2 * low])
        np.add(sizes[:low], 1, out=sizes[low : 2 * low])
    best_mask = int(np.argmax(np.where(edge_free, sizes, 0)))
    best_size = int(sizes[best_mask])
    witness = tuple(v for v in range(n) if best_mask >> v & 1)
    return SamplingResult(
        n_nodes=n,
        reach=reach,
        max_spread_size=best_size,
        min_count=best_size + 1,
        ratio=Fraction(best_size + 1, n),
        spread_witness=witness,
    )


def closed_form_path_ratio(n: int, reach: int) -> Fraction:
    """Exact minimum sampling fraction on a path; tends to ``1/(reach+1)``.

    Equals ``1/(reach+1) + 1/N`` exactly whenever ``reach + 1`` divides ``N``.
    """
    spread = (n + reach) // (reach + 1)  # ceil(n / (reach+1))
    return Fraction(spread + 1, n)


# ---------------------------------------------------------------------------
# Exhaustive tree enumeration


def tree_canonical_code(n: int, edges) -> tuple:
    """Isomorphism-invariant code: minimum centre-rooted shape encoding."""
    if n == 1:
        return ()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    # Centers by iterative leaf stripping.
    degree = [len(adjacency[v]) for v in range(n)]
    layer = [v for v in range(n) if degree[v] <= 1]
    removed = 0
    current = layer
    while n - removed > 2:
        removed += len(current)
        nxt = []
        for leaf in current:
            for u in adjacency[leaf]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        current = nxt
    centers = current

    def rooted(v: int, parent: int) -> tuple:
        return tuple(sorted(rooted(u, v) for u in adjacency[v] if u != parent))

    return min(rooted(c, -1) for c in centers)


def enumerate_trees(n: int) -> list[list[tuple[int, int]]]:
    """Edge lists of all pairwise non-isomorphic trees on ``n`` nodes.

    Grown by attaching a new leaf to every node of every smaller tree and
    deduplicating by canonical code; exhaustive because removing any leaf of
    an n-node tree yields an (n-1)-node tree.
    """
    if n < 1:
        raise ValueError("trees need at least one node")
    trees: list[list[tuple[int, int]]] = [[]]
    for size in range(2, n + 1):
        seen: dict[tuple, list[tuple[int, int]]] = {}
        for tree in trees:
            for attach in range(size - 1):
                candidate = tree + [(attach, size - 1)]
                code = tree_canonical_code(size, candidate)
                if code not in seen:
                    seen[code] = candidate
        trees = [seen[code] for code in sorted(seen)]
    return trees


@dataclass(frozen=True)
class TreeBoundsRow:
    """Worst-case sampling fractions over every tree of one size."""

    n_nodes: int
    n_trees: int
    h: int
    worst_topk: Fraction
    worst_asap: Fraction
    starlike_topk: Fraction
    starlike_asap: Fraction
    asap_never_worse: bool  # per-tree ratio ordering held everywhere

    @property
    def worst_cases_match(self) -> bool:
        return self.worst_topk == self.starlike_topk and self.worst_asap == self.starlike_asap


def verify_tree_bounds(n: int, h: int = 1) -> TreeBoundsRow:
    """Check the worst-case sampling claims over all trees on ``n`` nodes.

    For every non-isomorphic tree: cluster pooling (reach ``2h+1``) must need
    at most the fraction plain top-k (reach ``h``) needs; the worst fraction
    over trees must be achieved by the balanced starlike family.
    """
    reach_topk = edge_reach("TopK", h)
    reach_asap = edge_reach("ASAP", h)
    worst_topk = Fraction(0)
    worst_asap = Fraction(0)
    ordered = True
    n_trees = 0
    for edges in enumerate_trees(n):
        g = graph_from_edges(n, edges)
        topk = min_sampling_ratio(g.adjacency, reach_topk).ratio
        asap = min_sampling_ratio(g.adjacency, reach_asap).ratio
        worst_topk = max(worst_topk, topk)
        worst_asap = max(worst_asap, asap)
        ordered = ordered and asap <= topk
        n_trees += 1

    star_topk = balanced_starlike_tree(n, reach_topk + 1)
    star_asap = balanced_starlike_tree(n, reach_asap + 1)
    return TreeBoundsRow(
        n_nodes=n,
        n_trees=n_trees,
        h=h,
        worst_topk=worst_topk,
        worst_asap=worst_asap,
        starlike_topk=min_sampling_ratio(star_topk.adjacency, reach_topk).ratio,
        starlike_asap=min_sampling_ratio(star_asap.adjacency, reach_asap).ratio,
        asap_never_worse=ordered,
    )


# ---------------------------------------------------------------------------
# Graph powers


@dataclass(frozen=True)
class GraphPowerResult:
    p: int
    h: int
    plain_reach_ok: bool  # power edges connect exactly distances 1..p
    pooled_reach_ok: bool  # cluster coarsening over the power reaches p + 2h
    max_plain_distance: int
    max_pooled_distance: int


def verify_graph_power(g: Graph, p: int, h: int) -> GraphPowerResult:
    """Compare edge reach with and without clusters after a power-``p`` boost.

    The cluster route runs the production coarsening,
    :func:`pool.coarsen_adjacency` (indicator memberships over the original
    graph's ``h``-hop clusters, coarsened over ``A^p + I`` with every cluster
    kept), rather than reasoning about distances, so this checks the
    operator, not just the theory.
    """
    a = g.adjacency
    dist = bfs_distances(a)
    finite = dist >= 0

    power = graph_power(a, p)
    plain_pairs = set(zip(power.rows.tolist(), power.cols.tolist()))
    expected_plain = {
        (u, v)
        for u in range(g.n_nodes)
        for v in range(g.n_nodes)
        if u != v and finite[u, v] and dist[u, v] <= p
    }
    plain_ok = plain_pairs == expected_plain

    pooled = coarsen_adjacency(power, h_hop_membership(a, h), np.arange(g.n_nodes), True)
    pooled_pairs = set(zip(pooled.rows.tolist(), pooled.cols.tolist()))
    expected_pooled = {
        (u, v)
        for u in range(g.n_nodes)
        for v in range(g.n_nodes)
        if u != v and finite[u, v] and dist[u, v] <= p + 2 * h
    }
    pooled_ok = pooled_pairs == expected_pooled

    def max_dist(pairs) -> int:
        return max((int(dist[u, v]) for u, v in pairs), default=0)

    return GraphPowerResult(
        p=p,
        h=h,
        plain_reach_ok=plain_ok,
        pooled_reach_ok=pooled_ok,
        max_plain_distance=max_dist(plain_pairs),
        max_pooled_distance=max_dist(pooled_pairs),
    )


# ---------------------------------------------------------------------------
# Permutation equivariance


@dataclass
class EquivarianceReport:
    n_trials: int
    n_passed: int
    max_feature_error: float
    max_adjacency_error: float
    max_fitness_error: float
    failures: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_trials


def _random_graph(rng: np.random.Generator, n: int, feature_dim: int, edge_prob: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
    features = rng.normal(size=(n, feature_dim))
    return graph_from_edges(n, edges, features=features)


def _min_fitness_gap(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return np.inf
    ordered = np.sort(values)
    return float(np.min(np.diff(ordered)))


# Feature columns of each equivariance trial's random graph.
_TRIAL_FEATURE_DIM = 3
# Smallest gap between two fitness values of a trial instance.
_MIN_FITNESS_GAP = 1e-9


def verify_equivariance(
    n_trials: int = 100,
    seed: int = 0,
    n_nodes: int = 8,
    config: PoolConfig | None = None,
    tolerance: float = 1e-8,
) -> EquivarianceReport:
    """Pool random graphs before and after random relabelings and compare.

    Instances are resampled until every pair of fitness values is separated by
    at least ``_MIN_FITNESS_GAP`` (ties make ranking, hence pooling,
    order-dependent — see :func:`tie_counterexample`). Survivor identities,
    pooled features, pooled adjacency and per-node fitness must all commute
    with the relabeling within ``tolerance``.
    """
    config = config or PoolConfig()
    rng = np.random.default_rng(seed)
    passed = 0
    failures: list[str] = []
    worst_feat = worst_adj = worst_fit = 0.0

    for trial in range(n_trials):
        graph = params = pooled = None
        for _ in range(64):
            graph = _random_graph(rng, n_nodes, _TRIAL_FEATURE_DIM, edge_prob=0.35)
            params = PoolParams.init(rng, _TRIAL_FEATURE_DIM, config)
            pooled = asap_pool(graph, params, config)
            if _min_fitness_gap(pooled.fitness.data[:, 0]) >= _MIN_FITNESS_GAP:
                break
        else:
            failures.append(f"trial {trial}: no tie-free instance found")
            continue

        perm = rng.permutation(n_nodes)
        pooled_perm = asap_pool(permute_graph(graph, perm), params, config)

        problems = []
        if not np.array_equal(perm[pooled.selected], pooled_perm.selected):
            problems.append("survivor set moved")
        feat_err = float(np.abs(pooled.features.data - pooled_perm.features.data).max())
        adj_err = float(
            np.abs(pooled.adjacency.to_dense() - pooled_perm.adjacency.to_dense()).max()
        )
        fit_err = float(
            np.abs(pooled.fitness.data[:, 0] - pooled_perm.fitness.data[perm, 0]).max()
        )
        worst_feat = max(worst_feat, feat_err)
        worst_adj = max(worst_adj, adj_err)
        worst_fit = max(worst_fit, fit_err)
        if feat_err > tolerance:
            problems.append(f"pooled features differ by {feat_err:.2e}")
        if adj_err > tolerance:
            problems.append(f"pooled adjacency differs by {adj_err:.2e}")
        if fit_err > tolerance:
            problems.append(f"fitness differs by {fit_err:.2e}")
        if problems:
            failures.append(f"trial {trial}: " + "; ".join(problems))
        else:
            passed += 1

    return EquivarianceReport(
        n_trials=n_trials,
        n_passed=passed,
        max_feature_error=worst_feat,
        max_adjacency_error=worst_adj,
        max_fitness_error=worst_fit,
        failures=failures,
    )


def tie_counterexample():
    """A tied-fitness instance where pooling does *not* commute with relabeling.

    Two isolated nodes with different features and an all-zero fitness layer:
    both fitness values are exactly 0.5, the stable ranker picks whichever
    node is listed first, and the two labelings therefore pool different
    nodes. Returns ``(pooled_original, pooled_relabeled, perm)``.
    """
    config = PoolConfig(k=0.5, h=1)
    graph = graph_from_edges(2, [], features=np.array([[0.0], [1.0]]))
    rng = np.random.default_rng(7)
    params = PoolParams.init(rng, 1, config)
    zero = Tensor(np.zeros((1, 1)), requires_grad=True)
    params.fitness = LEConvParams.tied(zero)
    perm = np.array([1, 0])
    pooled = asap_pool(graph, params, config)
    pooled_perm = asap_pool(permute_graph(graph, perm), params, config)
    return pooled, pooled_perm, perm
