"""Dataset ingestion: benchmark text format, stats checking, synthetic corpus.

The on-disk benchmark layout is the common graph-kernel collection format: a
directory ``<name>/`` holding ``<name>_A.txt`` (one ``i, j`` directed edge per
line, nodes numbered 1..N across the whole collection),
``<name>_graph_indicator.txt`` (graph id per node),
``<name>_graph_labels.txt`` (label per graph) and optionally
``<name>_node_labels.txt`` / ``<name>_node_attributes.txt``.

Node features are chosen from the richest available source: real-valued
attributes when present, else one-hot node labels, else a single normalized
degree column (degree divided by the collection-wide maximum).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Dataset, Graph, graph_from_edges, random_tree_edges

__all__ = [
    "TUFormatError",
    "KNOWN_DATASET_STATS",
    "DatasetStats",
    "StatCheck",
    "load_tu_dataset",
    "write_tu_dataset",
    "dataset_stats",
    "check_stats",
    "synthetic_motif_dataset",
]


class TUFormatError(ValueError):
    """Malformed benchmark file; carries file name and line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass(frozen=True)
class DatasetStats:
    n_graphs: int
    mean_nodes: float
    mean_edges: float
    n_classes: int


@dataclass(frozen=True)
class StatCheck:
    field: str
    expected: float
    actual: float
    ok: bool


# Published collection statistics (graph count, mean nodes, mean undirected
# edges, class count) used by `ingest --check-stats`.
KNOWN_DATASET_STATS: dict[str, DatasetStats] = {
    "PROTEINS": DatasetStats(1113, 39.06, 72.82, 2),
    "NCI1": DatasetStats(4110, 29.87, 32.30, 2),
    "NCI109": DatasetStats(4127, 29.68, 32.13, 2),
    "FRANKENSTEIN": DatasetStats(4337, 16.90, 17.88, 2),
    "DD": DatasetStats(1178, 284.32, 715.66, 2),
}

_NAME_ALIASES = {"D&D": "DD"}


def _numbered_lines(path: Path) -> list[tuple[int, str]]:
    """The non-blank lines of ``path`` with their 1-based line numbers."""
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file {path}")
    return [(i + 1, line) for i, line in enumerate(path.read_text().splitlines()) if line.strip()]


def _parse_int(path, line_no, text, what) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise TUFormatError(path, line_no, f"bad {what}: {text.strip()!r}") from None


def load_tu_dataset(directory, name: str) -> Dataset:
    """Load a named graph collection from ``directory/name/name_*.txt``."""
    root = Path(directory) / name
    prefix = root / name

    indicator_path = Path(f"{prefix}_graph_indicator.txt")
    indicator_lines = _numbered_lines(indicator_path)
    indicator_line_nos = [i for i, _ in indicator_lines]
    node_graph = np.array(
        [_parse_int(indicator_path, i, line, "graph id") for i, line in indicator_lines],
        dtype=np.int64,
    )
    if node_graph.size == 0:
        raise TUFormatError(indicator_path, 1, "no nodes listed")
    if node_graph.min() < 1:
        first = int(np.argmax(node_graph < 1))
        raise TUFormatError(indicator_path, indicator_line_nos[first], "graph ids must be positive")
    n_nodes = node_graph.shape[0]
    n_graphs = int(node_graph.max())

    labels_path = Path(f"{prefix}_graph_labels.txt")
    label_lines = _numbered_lines(labels_path)
    if len(label_lines) != n_graphs:
        raise TUFormatError(
            labels_path, len(label_lines), f"expected {n_graphs} graph labels, got {len(label_lines)}"
        )
    raw_labels = np.array(
        [_parse_int(labels_path, i, line, "graph label") for i, line in label_lines], dtype=np.int64
    )
    classes = np.unique(raw_labels)
    label_of = {int(c): idx for idx, c in enumerate(classes)}
    labels = np.array([label_of[int(v)] for v in raw_labels], dtype=np.int64)

    edges_path = Path(f"{prefix}_A.txt")
    edge_rows: list[tuple[int, int, int]] = []  # (line number, u, v), nodes 0-based
    for i, line in _numbered_lines(edges_path):
        parts = line.split(",")
        if len(parts) != 2:
            raise TUFormatError(edges_path, i, f"expected 'i, j', got {line.strip()!r}")
        u = _parse_int(edges_path, i, parts[0], "node id")
        v = _parse_int(edges_path, i, parts[1], "node id")
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise TUFormatError(edges_path, i, f"node id outside 1..{n_nodes}")
        if u == v:
            continue  # stray self loops are dropped
        edge_rows.append((i, u - 1, v - 1))
    edge_lines, heads, tails = np.array(edge_rows, dtype=np.int64).reshape(-1, 3).T
    crossing = np.flatnonzero(node_graph[heads] != node_graph[tails])
    if crossing.size:
        k = crossing[0]
        raise TUFormatError(
            edges_path, int(edge_lines[k]), f"edge ({heads[k] + 1}, {tails[k] + 1}) crosses graphs"
        )
    edge_pairs = list(zip(heads.tolist(), tails.tolist()))

    features = _node_features(prefix, n_nodes, edge_pairs)

    sizes = np.bincount(node_graph, minlength=n_graphs + 1)[1:]
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        gid = int(empty[0]) + 1
        # Ids run up to n_graphs, so some line lists a graph past the empty one.
        skip = int(np.argmax(node_graph > gid))
        raise TUFormatError(indicator_path, indicator_line_nos[skip], f"graph {gid} has no nodes")

    # Slice the flat arrays into per-graph blocks: nodes grouped by graph in
    # file order, each numbered by its rank within its graph, and edges
    # grouped by graph in file order.
    node_order = np.argsort(node_graph, kind="stable")
    node_starts = np.concatenate(([0], np.cumsum(sizes)))
    local = np.empty(n_nodes, dtype=np.int64)
    local[node_order] = np.arange(n_nodes) - np.repeat(node_starts[:-1], sizes)
    edge_graph = node_graph[heads]
    edge_order = np.argsort(edge_graph, kind="stable")
    edge_starts = np.searchsorted(edge_graph[edge_order], np.arange(1, n_graphs + 2))
    local_heads = local[heads[edge_order]].tolist()
    local_tails = local[tails[edge_order]].tolist()
    graphs: list[Graph] = []
    for g in range(n_graphs):
        members = node_order[node_starts[g] : node_starts[g + 1]]
        lo, hi = edge_starts[g], edge_starts[g + 1]
        graphs.append(
            graph_from_edges(
                members.size,
                zip(local_heads[lo:hi], local_tails[lo:hi]),
                features=features[members],
                label=int(labels[g]),
            )
        )
    return Dataset(name=name, graphs=graphs, n_classes=len(classes))


def _node_features(prefix, n_nodes: int, edge_pairs) -> np.ndarray:
    attributes_path = Path(f"{prefix}_node_attributes.txt")
    if attributes_path.is_file():
        rows, row_line_nos = [], []
        for i, line in _numbered_lines(attributes_path):
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise TUFormatError(attributes_path, i, f"bad attribute row {line.strip()!r}") from None
            row_line_nos.append(i)
        if len(rows) != n_nodes:
            raise TUFormatError(attributes_path, len(rows), f"expected {n_nodes} attribute rows")
        for row, line_no in zip(rows, row_line_nos):
            if len(row) != len(rows[0]):
                raise TUFormatError(
                    attributes_path,
                    line_no,
                    f"inconsistent attribute widths: {len(row)} values, the first row has {len(rows[0])}",
                )
        return np.array(rows, dtype=np.float64)

    labels_path = Path(f"{prefix}_node_labels.txt")
    if labels_path.is_file():
        lines = _numbered_lines(labels_path)
        if len(lines) != n_nodes:
            raise TUFormatError(labels_path, len(lines), f"expected {n_nodes} node labels")
        raw = np.array([_parse_int(labels_path, i, line, "node label") for i, line in lines], dtype=np.int64)
        values = np.unique(raw)
        onehot = np.zeros((n_nodes, values.shape[0]))
        onehot[np.arange(n_nodes), np.searchsorted(values, raw)] = 1.0
        return onehot

    degree = np.zeros(n_nodes)
    counted = {(min(u, v), max(u, v)) for u, v in edge_pairs}
    for u, v in counted:
        degree[u] += 1.0
        degree[v] += 1.0
    top = degree.max() if degree.size and degree.max() > 0 else 1.0
    return (degree / top)[:, None]


def write_tu_dataset(dataset: Dataset, directory) -> Path:
    """Write a dataset back out in the benchmark text layout; returns its directory."""
    root = Path(directory) / dataset.name
    root.mkdir(parents=True, exist_ok=True)
    prefix = root / dataset.name

    indicator, edges, attributes = [], [], []
    offset = 0
    for gid, g in enumerate(dataset.graphs, start=1):
        indicator.extend([str(gid)] * g.n_nodes)
        for u, v in zip(g.adjacency.rows, g.adjacency.cols):
            edges.append(f"{int(u) + offset + 1}, {int(v) + offset + 1}")
        for row in g.features.data:
            attributes.append(", ".join(repr(float(x)) for x in row))
        offset += g.n_nodes

    Path(f"{prefix}_A.txt").write_text("\n".join(edges) + "\n")
    Path(f"{prefix}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    Path(f"{prefix}_graph_labels.txt").write_text(
        "\n".join(str(g.label) for g in dataset.graphs) + "\n"
    )
    Path(f"{prefix}_node_attributes.txt").write_text("\n".join(attributes) + "\n")
    return root


def dataset_stats(dataset: Dataset) -> DatasetStats:
    nodes = np.array([g.n_nodes for g in dataset.graphs], dtype=np.float64)
    edges = np.array([g.n_edges for g in dataset.graphs], dtype=np.float64)
    return DatasetStats(
        n_graphs=len(dataset.graphs),
        mean_nodes=float(nodes.mean()),
        mean_edges=float(edges.mean()),
        n_classes=dataset.n_classes,
    )


def check_stats(dataset: Dataset, name: str | None = None, mean_tolerance: float = 0.01):
    """Compare a dataset against its published statistics.

    Returns ``(all_ok, checks)``; graph and class counts must match exactly,
    means within ``mean_tolerance``. Unknown names raise ``KeyError``.
    """
    key = _NAME_ALIASES.get(name or dataset.name, name or dataset.name)
    expected = KNOWN_DATASET_STATS[key]
    actual = dataset_stats(dataset)
    checks = [
        StatCheck("n_graphs", expected.n_graphs, actual.n_graphs, actual.n_graphs == expected.n_graphs),
        StatCheck(
            "mean_nodes",
            expected.mean_nodes,
            actual.mean_nodes,
            abs(actual.mean_nodes - expected.mean_nodes) <= mean_tolerance + 1e-12,
        ),
        StatCheck(
            "mean_edges",
            expected.mean_edges,
            actual.mean_edges,
            abs(actual.mean_edges - expected.mean_edges) <= mean_tolerance + 1e-12,
        ),
        StatCheck("n_classes", expected.n_classes, actual.n_classes, actual.n_classes == expected.n_classes),
    ]
    return all(c.ok for c in checks), checks


def synthetic_motif_dataset(
    n_graphs: int = 200,
    seed: int = 0,
    min_nodes: int = 10,
    max_nodes: int = 30,
) -> Dataset:
    """Paired tree / tree-plus-clique corpus for end-to-end training tests.

    Each pair shares a uniformly random tree: the plain tree is class 0; a
    copy with a 4-clique attached at a random node (three extra nodes, six
    extra edges) is class 1. Features are a single normalized-degree column,
    so the class signal is purely structural: trees have mean degree below 2
    while the clique pushes it above 2, giving a margin a small model learns
    reliably. Fully deterministic for a given seed.
    """
    if n_graphs < 2 or n_graphs % 2:
        raise ValueError("n_graphs must be a positive even number")
    rng = np.random.default_rng(seed)
    specs: list[tuple[int, list[tuple[int, int]], int]] = []
    for _ in range(n_graphs // 2):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        tree = random_tree_edges(n, rng)
        specs.append((n, tree, 0))
        attach = int(rng.integers(0, n))
        added = [n, n + 1, n + 2]
        clique = tree + [(attach, a) for a in added]
        clique += [(added[0], added[1]), (added[0], added[2]), (added[1], added[2])]
        specs.append((n + 3, clique, 1))

    degrees = []
    for n, edges, _ in specs:
        deg = np.zeros(n)
        for u, v in edges:
            deg[u] += 1.0
            deg[v] += 1.0
        degrees.append(deg)
    top = max(d.max() for d in degrees)

    graphs = [
        graph_from_edges(n, edges, features=(deg / top)[:, None], label=label)
        for (n, edges, label), deg in zip(specs, degrees)
    ]
    return Dataset(name=f"synthetic-motif-{seed}", graphs=graphs, n_classes=2)
