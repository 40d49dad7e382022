"""The benchmark's workloads: what each one runs, times and checks.

Every workload is one process driven in a closed loop: the next call into the
package starts when the previous one returns, and only the benchmark
generates load. The loop runs for ``seconds`` of wall time.

A training run is a sequence of rounds. Each round derives a fresh corpus and
training seed from the workload seed and the round number, sets up (corpus
generation or disk load, plus model init: one ``setup_s`` sample), makes one
``train.train`` call and then evaluates every fold's trained model on the
whole corpus. The cost of a step depends strongly on the corpus and the
weights (they decide how dense the pooled graphs are), so a run averages over
several corpora: ``epoch_s`` and ``eval_graphs_per_s`` pool time and work over
all rounds. The lab repeats one pass of its claims, each after its own
set-up (enumerating the trees) and with fresh equivariance trials.

With ``trace`` set, each training round makes its call twice, untraced and
then under a :class:`~tracing.Tracer` (each lab pass likewise); the layer
metrics come from the traced calls and the tracing overhead is the ratio of
the two.

Every operation is checked (training losses finite, untrained logits equal to
a stored reference, every loaded graph equal to the one written, every lab
claim verified); a failed check counts in ``failed``.
"""

from __future__ import annotations

import json
import math
import resource
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from asap_pool.datasets import load_tu_dataset, synthetic_motif_dataset, write_tu_dataset
from asap_pool.graphs import batch_graphs
from asap_pool.model import forward, init_model, load_checkpoint
from asap_pool.theory import enumerate_trees, tie_counterexample, verify_equivariance, verify_tree_bounds
from asap_pool.train import TrainConfig, evaluate, kfold_split, train

from tracing import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_logits.json"

# The untrained-model reference check uses this fixed seed, not --seed, so
# that its logits can be stored with the benchmark.
REFERENCE_SEED = 7
REFERENCE_GRAPHS = 16
REFERENCE_TOLERANCE = 1e-9
LAB_MIN_TREE_NODES = 3  # the smallest size verify_tree_bounds accepts at h = 1
LAB_TRIAL_NODES = 8

# Number of non-isomorphic trees on n nodes (OEIS A000055).
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}

BACKWARD_OPS = (
    "gather_rows", "spspmm", "spmm", "matmul", "hadamard",
    "leaky_relu", "segment_reduce", "segment_softmax",
)


def cpu_seconds() -> float:
    """CPU seconds used by this process and its reaped children.

    Samples are timed in CPU time, not wall time: on a shared host the wall
    time of the same call varies severalfold with waits for a core, while
    the program itself is single-threaded (BLAS pinned to one thread), so its
    CPU time is its wall time on an idle machine. Children are included so
    that work moved into other processes is still counted.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _closed_loop(budget_s: float, call) -> list:
    """Call ``call(i)`` for i = 0, 1, ... until ``budget_s`` of wall time has passed (at least once)."""
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < budget_s:
        samples.append(call(len(samples)))
    return samples


@dataclass(frozen=True)
class Seeds:
    """Streams derived from the workload seed; the package only sees their outputs."""

    corpus: int
    train: int
    lab: int

    @classmethod
    def derive(cls, seed: int, index: int = 0) -> "Seeds":
        """The streams of round (or pass) ``index`` of a run with workload seed ``seed``."""
        corpus, train_seed, lab = (
            int(child.generate_state(1)[0])
            for child in np.random.SeedSequence([seed, index]).spawn(3)
        )
        return cls(corpus=corpus, train=train_seed, lab=lab)


@dataclass(frozen=True)
class TrainingSpec:
    """A corpus shape plus the training configuration driven over it."""

    n_graphs: int
    min_nodes: int
    max_nodes: int
    from_disk: bool
    hidden: int
    batch_size: int
    folds: int

    def train_config(self, seed: int) -> TrainConfig:
        """One epoch per call at lr 0.01; the other knobs keep the paper's defaults."""
        return TrainConfig(hidden=self.hidden, batch_size=self.batch_size, lr=0.01,
                           folds=self.folds, epochs=1, seed=seed)

    def corpus(self, n_graphs: int, seed: int):
        return synthetic_motif_dataset(n_graphs, seed=seed, min_nodes=self.min_nodes,
                                       max_nodes=self.max_nodes)


@dataclass(frozen=True)
class LabSpec:
    max_tree_nodes: int
    trials: int


TRAINING = {
    # The acceptance suite's end-to-end config: about 350-node batches, so
    # per-op Python and scipy overhead dominates.
    "motif-b16": TrainingSpec(n_graphs=200, min_nodes=10, max_nodes=30, from_disk=False,
                              hidden=32, batch_size=16, folds=10),
    # The paper config on a PROTEINS-shaped corpus (20-60 nodes) read back
    # from disk: arithmetic in cluster formation and gather/scatter dominates,
    # and set-up carries the loader.
    "proteins-b128": TrainingSpec(n_graphs=278, min_nodes=20, max_nodes=57, from_disk=True,
                                  hidden=64, batch_size=128, folds=5),
}
LAB = LabSpec(max_tree_nodes=10, trials=100)


class Checks:
    """Operations attempted and failed, with a note per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, n_ops: int, ok: bool, what: str) -> None:
        self.attempted += n_ops
        if not ok:
            self.failed += n_ops
            self.notes.append(what)


def _same_graph(a, b) -> bool:
    return (
        a.n_nodes == b.n_nodes
        and a.label == b.label
        and np.array_equal(a.adjacency.rows, b.adjacency.rows)
        and np.array_equal(a.adjacency.cols, b.adjacency.cols)
        and np.array_equal(a.adjacency.values, b.adjacency.values)
        and np.array_equal(a.features.data, b.features.data)
    )


def reference_logits(spec: TrainingSpec) -> np.ndarray:
    """Logits of the seeded, untrained model on a fixed batch of the spec's shape."""
    dataset = spec.corpus(REFERENCE_GRAPHS, REFERENCE_SEED)
    config = spec.train_config(REFERENCE_SEED).model_config(dataset.feature_dim, dataset.n_classes)
    model = init_model(config, np.random.default_rng(REFERENCE_SEED))
    return forward(model, batch_graphs(dataset.graphs)).data


def check_reference(name: str, spec: TrainingSpec, checks: Checks) -> None:
    stored = np.array(json.loads(REFERENCE_PATH.read_text())[name])
    logits = reference_logits(spec)
    ok = logits.shape == stored.shape and float(np.abs(logits - stored).max()) <= REFERENCE_TOLERANCE
    checks.add(1, ok, "untrained logits differ from the stored reference")


# ---------------------------------------------------------------------------
# Training workloads


def run_training(name: str, spec: TrainingSpec, seed: int, seconds: float, trace: bool, workdir: Path,
                 spans_path: Path | None = None):
    checks = Checks()
    check_reference(name, spec, checks)
    tracer = Tracer() if trace else None
    traced_train = tracer.span("train.train", train) if trace else None
    setup_s, corpus_s, rss_mb = [], [], []
    train_s, traced_s, eval_s = [], [], []
    totals = {"epochs": 0, "steps": 0, "traced_steps": 0, "traced_epochs": 0, "graphs": 0, "nodes": 0}

    def train_once(train_fn, dataset, config, out_dir, steps):
        start = cpu_seconds()
        result = train_fn(dataset, config, out_dir=out_dir)
        elapsed = cpu_seconds() - start
        losses = [r.train_loss for r in result.records] + [r.val_loss for r in result.records]
        finite = not any(f.diverged for f in result.folds) and bool(np.all(np.isfinite(losses)))
        checks.add(steps, finite, "training loss not finite")
        return elapsed

    def round_(index: int) -> None:
        seeds = Seeds.derive(seed, index)
        config = spec.train_config(seeds.train)
        round_dir = workdir / f"round{index}"
        written = None
        if spec.from_disk:  # input preparation, outside set-up
            written = spec.corpus(spec.n_graphs, seeds.corpus)
            write_tu_dataset(written, round_dir)

        start = cpu_seconds()
        if spec.from_disk:
            dataset = load_tu_dataset(round_dir, written.name)
        else:
            dataset = spec.corpus(spec.n_graphs, seeds.corpus)
        loaded = cpu_seconds()
        init_model(config.model_config(dataset.feature_dim, dataset.n_classes),
                   np.random.default_rng([config.seed, 0, 1]))
        setup_s.append(cpu_seconds() - start)
        corpus_s.append(loaded - start)
        if spec.from_disk:
            same = len(dataset) == len(written) and all(
                _same_graph(a, b) for a, b in zip(dataset.graphs, written.graphs))
            checks.add(len(written), same, "a loaded graph differs from the one written")

        splits = kfold_split(len(dataset), config.folds, config.seed)
        steps = config.epochs * sum(math.ceil(len(tr) / config.batch_size) for tr, _, _ in splits)
        epochs = config.epochs * config.folds
        out_dir = round_dir / "train"
        train_s.append(train_once(train, dataset, config, out_dir, steps))
        totals["epochs"] += epochs
        totals["steps"] += steps
        totals["nodes"] += sum(g.n_nodes for g in dataset.graphs)
        if trace:
            with tracer:
                traced_s.append(train_once(traced_train, dataset, config, out_dir, steps))
            totals["traced_steps"] += steps
            totals["traced_epochs"] += epochs
        else:
            everything = np.arange(len(dataset))
            for fold in range(config.folds):
                model, _ = load_checkpoint(out_dir / f"checkpoint_seed{config.seed}_fold{fold}.npz")
                start = cpu_seconds()
                loss, acc = evaluate(model, dataset, everything)
                eval_s.append(cpu_seconds() - start)
                checks.add(1, bool(np.isfinite(loss)) and 0.0 <= acc <= 1.0,
                           "evaluation loss not finite")
                totals["graphs"] += len(dataset)
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    rounds = len(_closed_loop(seconds, round_))

    end_to_end = {
        "setup_s": median(setup_s),
        "epoch_s": sum(train_s) / totals["epochs"],
        "eval_graphs_per_s": totals["graphs"] / sum(eval_s) if eval_s else None,
    }
    detail = {
        "rounds": rounds,
        "steps_per_round": totals["steps"] / rounds,
        "corpus_nodes_per_round": totals["nodes"] / rounds,
        "setup_samples_s": setup_s,
        "train_call_samples_s": train_s,
        "eval_samples_s": eval_s,
        "peak_rss_after_round_mb": rss_mb,
    }
    layer = None
    if trace:
        layer = training_layer_metrics(tracer, totals["traced_steps"], totals["traced_epochs"])
        layer["trace.overhead_frac"] = sum(traced_s) / sum(train_s) - 1.0
        layer["datasets.load_s"] = median(corpus_s) if spec.from_disk else 0.0
        layer["datasets.synthetic_s"] = 0.0 if spec.from_disk else median(corpus_s)
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return end_to_end, layer, checks, detail


def training_layer_metrics(tracer: Tracer, steps: int, epochs: int) -> dict[str, float]:
    """Per-layer metrics of the traced train calls, per training step."""
    totals = tracer.totals()

    def per_step_ms(span: str, key: str = "total") -> float:
        return 1e3 * totals.get(span, {}).get(key, 0.0) / steps

    def bwd_ms(span: str) -> float:
        return 1e3 * tracer.backward_by_span[span] / steps

    m = {
        "engine.backward_ms": per_step_ms("engine.backward"),
        "engine.tape_nodes": tracer.counts["engine.tape_nodes"] / steps,
        "engine.csr_builds": tracer.counts["engine.csr_builds"] / steps,
    }
    for op in BACKWARD_OPS:
        m[f"engine.bwd.{op}_ms"] = 1e3 * tracer.backward_by_op[op] / steps
    m.update({
        "graphs.normalize_gcn_calls": totals.get("graphs.normalize_gcn", {}).get("calls", 0) / steps,
        "graphs.normalize_gcn_ms": per_step_ms("graphs.normalize_gcn"),
        "graphs.h_hop_membership_ms": per_step_ms("graphs.h_hop_membership"),
        "graphs.batch_graphs_ms": per_step_ms("graphs.batch_graphs"),
        "layers.gcn_forward_ms": per_step_ms("layers.gcn_forward"),
        "layers.leconv_forward_ms": per_step_ms("layers.leconv_forward"),
        "layers.attention_scores_ms": per_step_ms("layers.attention_scores"),
        "pool.form_clusters.fwd_ms": per_step_ms("pool.form_clusters"),
        "pool.form_clusters.bwd_ms": bwd_ms("pool.form_clusters"),
        "pool.pairs": tracer.counts["pool.pairs"] / steps,
        "pool.score_clusters.fwd_ms": per_step_ms("pool.score_clusters"),
        "pool.score_clusters.bwd_ms": bwd_ms("pool.score_clusters"),
        "pool.select_top.fwd_ms": per_step_ms("pool.select_top"),
        "pool.coarsen_adjacency.fwd_ms": per_step_ms("pool.coarsen_adjacency"),
        "pool.coarsen_adjacency.bwd_ms": bwd_ms("pool.coarsen_adjacency"),
        "model.forward_ms": per_step_ms("model.forward"),
        "model.readout.fwd_ms": per_step_ms("model.readout"),
        "model.readout.bwd_ms": bwd_ms("model.readout"),
        "model.head.fwd_ms": per_step_ms("model.forward", "self"),
        "model.cross_entropy_ms": per_step_ms("model.cross_entropy"),
        "train.optimizer_ms": per_step_ms("train.optimizer"),
        "train.evaluate_ms": 1e3 * totals.get("train.evaluate", {}).get("total", 0.0) / epochs,
        "theory.verify_tree_bounds_s": 0.0,
        "theory.verify_equivariance_s": 0.0,
        "theory.asap_pool_ms": 0.0,
    })
    m.update(_trace_summary(totals, tracer, totals["train.train"], steps))
    return m


def _trace_summary(totals, tracer: Tracer, root: dict, units: int) -> dict[str, float]:
    """Step time, what the stage spans leave unattributed, and two stage shares."""

    def share(span: str) -> float:
        fwd = totals.get(span, {}).get("total", 0.0)
        return (fwd + tracer.backward_by_span[span]) / root["total"]

    return {
        "trace.step_ms": 1e3 * root["total"] / units,
        "trace.unattributed_ms": 1e3 * root["self"] / units,
        "trace.attributed_frac": 1.0 - root["self"] / root["total"],
        "pool.form_clusters.share": share("pool.form_clusters"),
        "pool.coarsen_adjacency.share": share("pool.coarsen_adjacency"),
    }


# ---------------------------------------------------------------------------
# Verification lab


def run_lab(spec: LabSpec, seed: int, seconds: float, trace: bool, spans_path: Path | None = None):
    checks = Checks()
    sizes = range(LAB_MIN_TREE_NODES, spec.max_tree_nodes + 1)

    setup_s = []

    def set_up() -> None:
        start = cpu_seconds()
        counts = {n: len(enumerate_trees(n)) for n in sizes}
        setup_s.append(cpu_seconds() - start)
        checks.add(len(counts), all(counts[n] == TREE_COUNTS[n] for n in sizes),
                   "tree enumeration count differs from A000055")

    def lab_pass(index: int, call) -> dict[str, float]:
        start = cpu_seconds()
        rows = [call("theory.verify_tree_bounds", verify_tree_bounds, n) for n in sizes]
        trees_s = cpu_seconds() - start
        for row in rows:
            checks.add(1, row.worst_cases_match and row.asap_never_worse
                       and row.n_trees == TREE_COUNTS[row.n_nodes],
                       f"tree bound claim failed at n={row.n_nodes}")
        start = cpu_seconds()
        report = call("theory.verify_equivariance", verify_equivariance, n_trials=spec.trials,
                      seed=Seeds.derive(seed, index).lab, n_nodes=LAB_TRIAL_NODES)
        trials_s = cpu_seconds() - start
        checks.attempted += report.n_trials
        if not report.all_passed:
            checks.failed += report.n_trials - report.n_passed
            checks.notes.extend(report.failures[:3])
        pooled, pooled_perm, perm = call("theory.tie_counterexample", tie_counterexample)
        checks.add(1, not np.array_equal(perm[pooled.selected], pooled_perm.selected),
                   "tie counterexample did not move")
        return {"trees": sum(r.n_trees for r in rows), "trees_s": trees_s, "trials_s": trials_s}

    def plain(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    tracer = Tracer() if trace else None
    traced_pass = tracer.span("lab.pass", lab_pass) if trace else None
    traced = []

    def one_pass(index: int) -> dict[str, float]:
        # Setting up before every pass spreads the set-up samples over the run.
        set_up()
        sample = lab_pass(index, plain)
        if trace:
            with tracer:
                traced.append(traced_pass(index, tracer.call))
        return sample

    samples = _closed_loop(seconds, one_pass)
    trials_s = sum(s["trials_s"] for s in samples)
    end_to_end = {
        "setup_s": median(setup_s),
        # One lab "epoch" is one pass of the tree-bound claims over every size.
        "epoch_s": median(s["trees_s"] for s in samples),
        # verify_equivariance pools two graphs per trial, forward only.
        "eval_graphs_per_s": 2 * spec.trials * len(samples) / trials_s,
    }
    detail = {
        "passes": len(samples),
        "trees_per_s": median(s["trees"] / s["trees_s"] for s in samples),
        "trials_per_s": spec.trials * len(samples) / trials_s,
        "setup_samples_s": setup_s,
        "tree_pass_samples_s": [s["trees_s"] for s in samples],
        "trial_samples_s": [s["trials_s"] for s in samples],
    }
    layer = None
    if trace:
        layer = lab_layer_metrics(tracer, spec.trials * len(traced), len(traced))
        untraced_s = sum(s["trees_s"] + s["trials_s"] for s in samples)
        layer["trace.overhead_frac"] = sum(s["trees_s"] + s["trials_s"] for s in traced) / untraced_s - 1.0
        layer["datasets.load_s"] = 0.0
        layer["datasets.synthetic_s"] = 0.0
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return end_to_end, layer, checks, detail


def lab_layer_metrics(tracer: Tracer, trials: int, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced lab passes, per equivariance trial."""
    totals = tracer.totals()

    def per_trial_ms(span: str, key: str = "total") -> float:
        return 1e3 * totals.get(span, {}).get(key, 0.0) / trials

    # The lab runs no backward pass, model, optimizer or batching.
    m = {name: 0.0 for name in (
        "engine.backward_ms", "engine.tape_nodes", "graphs.batch_graphs_ms",
        "pool.form_clusters.bwd_ms", "pool.score_clusters.bwd_ms", "pool.coarsen_adjacency.bwd_ms",
        "model.forward_ms", "model.readout.fwd_ms", "model.readout.bwd_ms", "model.head.fwd_ms",
        "model.cross_entropy_ms", "train.optimizer_ms", "train.evaluate_ms",
    )}
    for op in BACKWARD_OPS:
        m[f"engine.bwd.{op}_ms"] = 0.0
    m.update({
        "engine.csr_builds": tracer.counts["engine.csr_builds"] / trials,
        "graphs.normalize_gcn_calls": totals.get("graphs.normalize_gcn", {}).get("calls", 0) / trials,
        "graphs.normalize_gcn_ms": per_trial_ms("graphs.normalize_gcn"),
        "graphs.h_hop_membership_ms": per_trial_ms("graphs.h_hop_membership"),
        "layers.gcn_forward_ms": per_trial_ms("layers.gcn_forward"),
        "layers.leconv_forward_ms": per_trial_ms("layers.leconv_forward"),
        "layers.attention_scores_ms": per_trial_ms("layers.attention_scores"),
        "pool.form_clusters.fwd_ms": per_trial_ms("pool.form_clusters"),
        "pool.pairs": tracer.counts["pool.pairs"] / trials,
        "pool.score_clusters.fwd_ms": per_trial_ms("pool.score_clusters"),
        "pool.select_top.fwd_ms": per_trial_ms("pool.select_top"),
        "pool.coarsen_adjacency.fwd_ms": per_trial_ms("pool.coarsen_adjacency"),
        "theory.verify_tree_bounds_s": totals["theory.verify_tree_bounds"]["total"] / passes,
        "theory.verify_equivariance_s": totals["theory.verify_equivariance"]["total"] / passes,
        "theory.asap_pool_ms": per_trial_ms("pool.asap_pool"),
    })
    m.update(_trace_summary(totals, tracer, totals["lab.pass"], trials))
    return m
