"""Outside-in stage tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module. :meth:`Tracer.install`
rebinds the module-level names that callers look up at run time (and a few
methods on classes), so each call becomes a timed span, and wraps the
engine's ``record`` so every backward closure is timed twice: under its op
name and under every stage span that was open when the op was recorded.
:meth:`Tracer.uninstall` puts the original objects back. The wrappers only
read clocks and counters, so traced runs compute bit-identical numbers.

Spans stay in memory (name, parent, start, end) and are written out once, by
:meth:`Tracer.write_spans`, after the run. Like the benchmark's samples, span
times are process CPU seconds.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import process_time

from asap_pool import model, pool, theory, train
from asap_pool.engine import ops, sparse, tensor
from asap_pool.engine.sparse import SparseMatrix
from asap_pool.engine.tensor import Tape, active_tape

# (namespace, attribute, span name). A function imported into several modules
# is rebound in each namespace that calls it, under one span name.
SPAN_TARGETS = (
    (train, "batch_graphs", "graphs.batch_graphs"),
    (train, "evaluate", "train.evaluate"),
    (train, "init_model", "model.init_model"),
    (train, "forward", "model.forward"),
    (train, "cross_entropy", "model.cross_entropy"),
    (train, "accuracy", "model.accuracy"),
    (train, "save_checkpoint", "model.save_checkpoint"),
    (train.Adam, "step", "train.optimizer"),
    (Tape, "backward", "engine.backward"),
    (model, "normalize_gcn", "graphs.normalize_gcn"),
    (model, "gcn_forward", "layers.gcn_forward"),
    (model, "asap_pool_batch", "pool.asap_pool_batch"),
    (model, "readout", "model.readout"),
    (pool, "h_hop_membership", "graphs.h_hop_membership"),
    (pool, "normalize_gcn", "graphs.normalize_gcn"),
    (pool, "gcn_forward", "layers.gcn_forward"),
    (pool, "leconv_forward", "layers.leconv_forward"),
    (pool, "attention_scores", "layers.attention_scores"),
    (pool, "form_clusters", "pool.form_clusters"),
    (pool, "score_clusters", "pool.score_clusters"),
    (pool, "select_top", "pool.select_top"),
    (pool, "coarsen_adjacency", "pool.coarsen_adjacency"),
    (pool, "asap_pool_batch", "pool.asap_pool_batch"),
    (theory, "asap_pool", "pool.asap_pool"),
    (theory, "enumerate_trees", "theory.enumerate_trees"),
    (theory, "min_sampling_ratio", "theory.min_sampling_ratio"),
    (theory, "graph_from_edges", "graphs.graph_from_edges"),
    (theory, "permute_graph", "graphs.permute_graph"),
)

# Every namespace whose taped ops call ``record``.
RECORD_NAMESPACES = (ops, sparse, model)


class Tracer:
    """Collects spans, per-op backward times and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.backward_by_op: Counter = Counter()  # op name -> seconds
        self.backward_by_span: Counter = Counter()  # span name -> seconds, inclusive
        self._saved: list[tuple[object, str, object]] = []
        self._chains: dict[int, tuple[str, ...]] = {}

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call is recorded as a span ``name``."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, open_[-1] if open_ else -1, process_time(), None]
            spans.append(record)
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = process_time()
                open_.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span (the benchmark's own calls into a layer)."""
        return self.span(name, fn)(*args, **kwargs)

    def _chain(self, index: int) -> tuple[str, ...]:
        """Distinct span names from ``index`` up to the root."""
        chain = self._chains.get(index)
        if chain is None:
            names = []
            i = index
            while i >= 0:
                name = self.spans[i][0]
                if name not in names:
                    names.append(name)
                i = self.spans[i][1]
            chain = self._chains[index] = tuple(names)
        return chain

    # -- engine hooks -------------------------------------------------------

    def _traced_record(self, output, inputs, backward):
        if active_tape() is None:
            return tensor.record(output, inputs, backward)
        op = backward.__qualname__.split(".", 1)[0]
        owner = self._open[-1] if self._open else -1

        def timed_backward(grad, accumulate):
            start = process_time()
            backward(grad, accumulate)
            elapsed = process_time() - start
            self.backward_by_op[op] += elapsed
            for name in self._chain(owner):
                self.backward_by_span[name] += elapsed

        tensor.record(output, inputs, timed_backward)
        if output.requires_grad:
            self.counts["engine.tape_nodes"] += 1

    def _counted_methods(self):
        counts = self.counts
        original_csr = SparseMatrix.csr

        def csr(matrix):
            if matrix._csr is None:
                counts["engine.csr_builds"] += 1
            return original_csr(matrix)

        original_form_clusters = pool.form_clusters

        def form_clusters(*args, **kwargs):
            result = original_form_clusters(*args, **kwargs)
            counts["pool.pairs"] += len(result[2][0])
            return result

        return ((SparseMatrix, "csr", csr), (pool, "form_clusters", form_clusters))

    # -- install / uninstall -------------------------------------------------

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, replacement in self._counted_methods():
            self._rebind(owner, attr, replacement)
        for owner, attr, name in SPAN_TARGETS:
            self._rebind(owner, attr, self.span(name, getattr(owner, attr)))
        for namespace in RECORD_NAMESPACES:
            self._rebind(namespace, "record", self._traced_record)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, _parent, start, end) in enumerate(self.spans):
            if end is None:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON object per line: index, name, parent index, start, end."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - origin, "end": end - origin}) + "\n")
