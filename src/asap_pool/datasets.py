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

The loader works on whole files: one byte scan finds each file's lines,
tokens and comma-separated fields, one ``np.array`` call converts all of a
file's tokens (it accepts what ``int()``/``float()`` accept), and
``graphs.adjacency_blocks`` builds every graph's adjacency from one sort.
A malformed file raises :class:`TUFormatError` as ``path:line: message``
for the first line at fault, found in bulk and then described by the
line-by-line check; a token that does not convert is found by that check
alone, run on every line in file order. The files are checked in turn
(indicator, graph labels, edges, node features), then graph ids for empty
graphs; an integer outside int64 in the indicator or a label file is a bad
value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Tensor
from .graphs import Dataset, Graph, adjacency_blocks, graph_from_edges, random_tree_edges

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
# Largest accepted gap between a dataset's mean and the published one.
_MEAN_TOLERANCE = 0.01

_OTHER_SPACE = re.compile(r"[^\S\n]")
_TAB, _NEWLINE, _SPACE, _COMMA = (ord(c) for c in "\t\n ,")
_INT64 = np.iinfo(np.int64)


class _Scan:
    """A text file's non-blank lines, its rows here, and their tokens, found by whole-file byte passes.

    Tokens are separated by whitespace, and by commas too in a comma-separated
    file, where each comma-separated field must hold one token. Lines are
    those of ``str.splitlines`` and whitespace is that of ``str.split``: a
    file with bytes other than printable ASCII, space, tab and newline is
    read as text, split into lines, and has every other whitespace character
    turned into a space before the byte passes.
    """

    def __init__(self, path: Path, comma_separated: bool):
        if not path.is_file():
            raise FileNotFoundError(f"missing dataset file {path}")
        self.path = path
        raw = path.read_bytes()
        b = np.frombuffer(raw, dtype=np.uint8)
        if (((b < _SPACE) | (b > 126)) & (b != _TAB) & (b != _NEWLINE)).any():
            self._lines = path.read_text().splitlines()
            text = _OTHER_SPACE.sub(" ", "\n".join(self._lines))
            b = np.frombuffer(text.encode(), dtype=np.uint8)
        else:
            text, self._lines = raw.decode("ascii"), None
        self._text = text
        newline = b == _NEWLINE
        breaks = newline | (b == _COMMA) if comma_separated else newline
        sep = breaks | (b == _SPACE) | (b == _TAB)
        starts = ~sep
        starts[1:] &= sep[:-1]
        # Token starts and line or field breaks, in file order, each with its line.
        events = np.flatnonzero(starts | breaks)
        is_break, is_newline = breaks[events], newline[events]
        self._newlines = events[is_newline]
        event_line = np.cumsum(is_newline) - is_newline
        n_lines = self._newlines.shape[0] + 1
        tokens = np.bincount(event_line[~is_break], minlength=n_lines)
        commas = np.bincount(event_line[is_break & ~is_newline], minlength=n_lines)
        # A line is in fields of one token each iff it has one token more
        # than commas and no two tokens follow each other.
        adjacent = event_line[1:][~is_break[1:] & ~is_break[:-1]]
        ragged = tokens != commas + 1
        ragged[adjacent] = True
        nonblank = (tokens > 0) | (commas > 0)
        self._line_index = np.flatnonzero(nonblank)
        self.line_nos = self._line_index + 1
        self.fields = (commas + 1)[self._line_index]
        self.ragged = ragged[self._line_index]
        self.token_row = np.repeat(np.arange(self._line_index.shape[0]), tokens[self._line_index])
        self.tokens = (text.replace(",", " ") if comma_separated else text).split()

    def __len__(self) -> int:
        return self.line_nos.shape[0]

    def line(self, row: int) -> str:
        """Row ``row``'s line as ``str.splitlines`` gives it."""
        i = int(self._line_index[row])
        if self._lines is not None:
            return self._lines[i]
        start = int(self._newlines[i - 1]) + 1 if i else 0
        end = int(self._newlines[i]) if i < self._newlines.shape[0] else len(self._text)
        return self._text[start:end]

    def check_count(self, expected: int, what: str) -> None:
        """Reject a file without exactly ``expected`` entries.

        A surplus is reported at the line of the first extra entry, a shortfall
        at the last entry's line (line 1 for a file with none).
        """
        if len(self) != expected:
            row = expected if len(self) > expected else len(self) - 1
            line_no = int(self.line_nos[row]) if row >= 0 else 1
            raise TUFormatError(self.path, line_no, f"expected {expected} {what}, got {len(self)}")

    def raise_first(self, bad: np.ndarray, check) -> None:
        """Run ``check(path, line_no, line)`` on the rows ``bad`` flags, in file order, until one raises.

        ``bad`` may flag more rows than ``check`` rejects, never fewer.
        """
        for row in np.flatnonzero(bad):
            check(self.path, int(self.line_nos[row]), self.line(row))
        if bad.any():
            raise AssertionError(f"{self.path}: a flagged line passed its check")

    def values(self, dtype, check, bad_rows=None, bad_value=None) -> np.ndarray:
        """Every token converted by one ``np.array`` call, once no line fails ``check``.

        The lines checked are the ragged ones, those ``bad_rows`` flags and
        those holding a value ``bad_value`` flags; when some token does not
        convert, every line is. ``np.array`` of a ``str`` accepts and
        rejects what ``int()``/``float()`` do, and also rejects an int
        outside int64.
        """
        try:
            values = np.array(self.tokens, dtype=dtype)
        except (ValueError, OverflowError):
            self.raise_first(np.ones(len(self), dtype=bool), check)
            raise
        bad = self.ragged.copy()
        if bad_rows is not None:
            bad |= bad_rows
        if bad_value is not None:
            bad[self.token_row[np.flatnonzero(bad_value(values))]] = True
        self.raise_first(bad, check)
        return values

    def ints(self, what: str) -> np.ndarray:
        """One int64 per line."""
        return self.values(np.int64, lambda path, i, line: _parse_int(path, i, line, what, int64=True))


def _parse_int(path, line_no, text, what, int64: bool = False) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise TUFormatError(path, line_no, f"bad {what}: {text.strip()!r}") from None
    if int64 and not _INT64.min <= value <= _INT64.max:
        raise TUFormatError(path, line_no, f"bad {what}: {text.strip()!r} is outside int64")
    return value


def _edge_check(n_nodes: int):
    def check(path, line_no, line):
        parts = line.split(",")
        if len(parts) != 2:
            raise TUFormatError(path, line_no, f"expected 'i, j', got {line.strip()!r}")
        u = _parse_int(path, line_no, parts[0], "node id")
        v = _parse_int(path, line_no, parts[1], "node id")
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise TUFormatError(path, line_no, f"node id outside 1..{n_nodes}")

    return check


def _attribute_check(path, line_no, line):
    try:
        [float(tok) for tok in line.split(",")]
    except ValueError:
        raise TUFormatError(path, line_no, f"bad attribute row {line.strip()!r}") from None


def load_tu_dataset(directory, name: str) -> Dataset:
    """Load a named graph collection from ``directory/name/name_*.txt``."""
    prefix = Path(directory) / name / name

    indicator = _Scan(Path(f"{prefix}_graph_indicator.txt"), comma_separated=False)
    node_graph = indicator.ints("graph id")
    if node_graph.size == 0:
        raise TUFormatError(indicator.path, 1, "no nodes listed")
    if node_graph.min() < 1:
        first = int(np.argmax(node_graph < 1))
        raise TUFormatError(indicator.path, int(indicator.line_nos[first]), "graph ids must be positive")
    n_nodes = node_graph.shape[0]
    n_graphs = int(node_graph.max())

    graph_labels = _Scan(Path(f"{prefix}_graph_labels.txt"), comma_separated=False)
    graph_labels.check_count(n_graphs, "graph labels")
    classes, labels = np.unique(graph_labels.ints("graph label"), return_inverse=True)

    edges = _Scan(Path(f"{prefix}_A.txt"), comma_separated=True)
    ends = edges.values(np.int64, _edge_check(n_nodes), bad_rows=edges.fields != 2,
                        bad_value=lambda v: (v < 1) | (v > n_nodes))
    ends = ends.reshape(-1, 2) - 1
    kept = np.flatnonzero(ends[:, 0] != ends[:, 1])  # stray self loops are dropped
    heads, tails = ends[kept, 0], ends[kept, 1]
    crossing = np.flatnonzero(node_graph[heads] != node_graph[tails])
    if crossing.size:
        k = crossing[0]
        raise TUFormatError(edges.path, int(edges.line_nos[kept[k]]),
                            f"edge ({heads[k] + 1}, {tails[k] + 1}) crosses graphs")
    features = _node_features(prefix, n_nodes, heads, tails)

    sizes = np.bincount(node_graph, minlength=n_graphs + 1)[1:]
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        gid = int(empty[0]) + 1
        # Ids run up to n_graphs, so some line lists a graph past the empty one.
        skip = int(np.argmax(node_graph > gid))
        raise TUFormatError(indicator.path, int(indicator.line_nos[skip]), f"graph {gid} has no nodes")

    # Renumber the nodes graph by graph, in file order within each graph.
    node_order = np.argsort(node_graph, kind="stable")
    renumbered = np.empty(n_nodes, dtype=np.int64)
    renumbered[node_order] = np.arange(n_nodes)
    adjacencies = adjacency_blocks(sizes, renumbered[heads], renumbered[tails])
    features = features[node_order]
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    graphs = [
        Graph(adjacency=a, features=Tensor(features[lo:hi]), label=label)
        for a, lo, hi, label in zip(adjacencies, offsets[:-1], offsets[1:], labels.tolist())
    ]
    return Dataset(name=name, graphs=graphs, n_classes=len(classes))


def _node_features(prefix, n_nodes: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    attributes_path = Path(f"{prefix}_node_attributes.txt")
    if attributes_path.is_file():
        rows = _Scan(attributes_path, comma_separated=True)
        rows.check_count(n_nodes, "attribute rows")
        values = rows.values(np.float64, _attribute_check)
        width = int(rows.fields[0])
        ragged = np.flatnonzero(rows.fields != width)
        if ragged.size:
            row = ragged[0]
            raise TUFormatError(
                attributes_path,
                int(rows.line_nos[row]),
                f"inconsistent attribute widths: {rows.fields[row]} values, the first row has {width}",
            )
        return values.reshape(n_nodes, width)

    labels_path = Path(f"{prefix}_node_labels.txt")
    if labels_path.is_file():
        lines = _Scan(labels_path, comma_separated=False)
        lines.check_count(n_nodes, "node labels")
        values, column = np.unique(lines.ints("node label"), return_inverse=True)
        onehot = np.zeros((n_nodes, values.shape[0]))
        onehot[np.arange(n_nodes), column] = 1.0
        return onehot

    # Each undirected edge counts once, however often and in whichever direction it is listed.
    edges = np.unique(np.minimum(heads, tails) * n_nodes + np.maximum(heads, tails))
    degree = (np.bincount(edges // n_nodes, minlength=n_nodes)
              + np.bincount(edges % n_nodes, minlength=n_nodes)).astype(np.float64)
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


def check_stats(dataset: Dataset, name: str | None = None):
    """Compare a dataset against its published statistics.

    Returns ``(all_ok, checks)``; graph and class counts must match exactly,
    means within ``_MEAN_TOLERANCE``, the published figures' rounding.
    Unknown names raise ``KeyError``.
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
            abs(actual.mean_nodes - expected.mean_nodes) <= _MEAN_TOLERANCE + 1e-12,
        ),
        StatCheck(
            "mean_edges",
            expected.mean_edges,
            actual.mean_edges,
            abs(actual.mean_edges - expected.mean_edges) <= _MEAN_TOLERANCE + 1e-12,
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
