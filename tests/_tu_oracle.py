"""Line-by-line reference loader and dict-based graph builder, the oracles of the bulk code.

``load_tu_dataset`` parses one line at a time with ``int()``/``float()``
and builds each graph through ``graph_from_edges``, which dedupes edges in
a dict. The package's loader and graph builder must give the same graphs,
bit for bit, and raise the same errors, word for word. The one rule added
here over the straightforward parse: an indicator, graph-label or
node-label value outside int64 is a ``bad ...`` line, as it is in the
package.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from asap_pool.datasets import TUFormatError
from asap_pool.engine import SparseMatrix, Tensor
from asap_pool.graphs import Dataset, Graph

_INT64 = np.iinfo(np.int64)


def graph_from_edges(n_nodes: int, edges, features=None, label=None) -> Graph:
    pairs = {}
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self loop on node {u}")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise ValueError(f"edge ({u}, {v}) outside {n_nodes} nodes")
        pairs[(min(u, v), max(u, v))] = 1.0
    if pairs:
        keys = sorted(pairs)
        uv = np.array(keys, dtype=np.int64)
        w = np.array([pairs[k] for k in keys], dtype=np.float64)
        rows = np.concatenate((uv[:, 0], uv[:, 1]))
        cols = np.concatenate((uv[:, 1], uv[:, 0]))
        adjacency = SparseMatrix.from_coo((n_nodes, n_nodes), rows, cols, np.concatenate((w, w)))
    else:
        adjacency = SparseMatrix((n_nodes, n_nodes), [], [], [])
    if features is None:
        features = np.ones((n_nodes, 1))
    return Graph(adjacency=adjacency, features=Tensor(features), label=label)


def _numbered_lines(path: Path) -> list[tuple[int, str]]:
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file {path}")
    return [(i + 1, line) for i, line in enumerate(path.read_text().splitlines()) if line.strip()]


def _check_count(path, lines, expected: int, what: str) -> None:
    if len(lines) != expected:
        line_no = lines[expected][0] if len(lines) > expected else (lines[-1][0] if lines else 1)
        raise TUFormatError(path, line_no, f"expected {expected} {what}, got {len(lines)}")


def _parse_int(path, line_no, text, what, int64: bool = False) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise TUFormatError(path, line_no, f"bad {what}: {text.strip()!r}") from None
    if int64 and not _INT64.min <= value <= _INT64.max:
        raise TUFormatError(path, line_no, f"bad {what}: {text.strip()!r} is outside int64")
    return value


def load_tu_dataset(directory, name: str) -> Dataset:
    prefix = Path(directory) / name / name

    indicator_path = Path(f"{prefix}_graph_indicator.txt")
    indicator_lines = _numbered_lines(indicator_path)
    indicator_line_nos = [i for i, _ in indicator_lines]
    node_graph = np.array(
        [_parse_int(indicator_path, i, line, "graph id", int64=True) for i, line in indicator_lines],
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
    _check_count(labels_path, label_lines, n_graphs, "graph labels")
    raw_labels = np.array(
        [_parse_int(labels_path, i, line, "graph label", int64=True) for i, line in label_lines], dtype=np.int64
    )
    classes = np.unique(raw_labels)
    label_of = {int(c): idx for idx, c in enumerate(classes)}
    labels = np.array([label_of[int(v)] for v in raw_labels], dtype=np.int64)

    edges_path = Path(f"{prefix}_A.txt")
    edge_rows: list[tuple[int, int, int]] = []
    for i, line in _numbered_lines(edges_path):
        parts = line.split(",")
        if len(parts) != 2:
            raise TUFormatError(edges_path, i, f"expected 'i, j', got {line.strip()!r}")
        u = _parse_int(edges_path, i, parts[0], "node id")
        v = _parse_int(edges_path, i, parts[1], "node id")
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise TUFormatError(edges_path, i, f"node id outside 1..{n_nodes}")
        if u == v:
            continue
        edge_rows.append((i, u - 1, v - 1))
    edge_lines, heads, tails = np.array(edge_rows, dtype=np.int64).reshape(-1, 3).T
    crossing = np.flatnonzero(node_graph[heads] != node_graph[tails])
    if crossing.size:
        k = crossing[0]
        raise TUFormatError(
            edges_path, int(edge_lines[k]), f"edge ({heads[k] + 1}, {tails[k] + 1}) crosses graphs"
        )
    features = _node_features(prefix, n_nodes, heads, tails)

    sizes = np.bincount(node_graph, minlength=n_graphs + 1)[1:]
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        gid = int(empty[0]) + 1
        skip = int(np.argmax(node_graph > gid))
        raise TUFormatError(indicator_path, indicator_line_nos[skip], f"graph {gid} has no nodes")

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


def _node_features(prefix, n_nodes: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    attributes_path = Path(f"{prefix}_node_attributes.txt")
    if attributes_path.is_file():
        lines = _numbered_lines(attributes_path)
        _check_count(attributes_path, lines, n_nodes, "attribute rows")
        rows, row_line_nos = [], []
        for i, line in lines:
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise TUFormatError(attributes_path, i, f"bad attribute row {line.strip()!r}") from None
            row_line_nos.append(i)
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
        _check_count(labels_path, lines, n_nodes, "node labels")
        raw = np.array(
            [_parse_int(labels_path, i, line, "node label", int64=True) for i, line in lines], dtype=np.int64
        )
        values = np.unique(raw)
        onehot = np.zeros((n_nodes, values.shape[0]))
        onehot[np.arange(n_nodes), np.searchsorted(values, raw)] = 1.0
        return onehot

    edges = np.unique(np.minimum(heads, tails) * n_nodes + np.maximum(heads, tails))
    degree = (np.bincount(edges // n_nodes, minlength=n_nodes)
              + np.bincount(edges % n_nodes, minlength=n_nodes)).astype(np.float64)
    top = degree.max() if degree.size and degree.max() > 0 else 1.0
    return (degree / top)[:, None]
