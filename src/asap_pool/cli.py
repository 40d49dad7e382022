"""Command-line interface.

Subcommands:

* ``ingest``  — load a benchmark directory, print stats, optionally compare
  them against the published table.
* ``train``   — cross-validated training on a benchmark directory or the
  built-in synthetic corpus, driven by a flat ``key = value`` config file.
* ``sweep``   — cartesian hyperparameter sweep from a grid file.
* ``theory``  — the verification lab: exact optimum node sets, worst-case
  sampling fractions over all small trees, and permutation-equivariance
  trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .datasets import (
    KNOWN_DATASET_STATS,
    check_stats,
    dataset_stats,
    load_tu_dataset,
    synthetic_motif_dataset,
)
from .graphs import Dataset, graph_from_edges
from .theory import (
    _OPTIMUM_NODE_LIMIT,
    _SAMPLING_NODE_LIMIT,
    balanced_starlike_tree,
    closed_form_optimum,
    optimum_nodes,
    path_graph,
    tie_counterexample,
    verify_equivariance,
    verify_tree_bounds,
)
from .train import TrainConfig, parse_grid, sweep, train

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asap",
        description="Hierarchical graph classification with attention-based cluster pooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="load a benchmark dataset and report statistics")
    ingest.add_argument("--dir", required=True, help="directory containing <name>/<name>_*.txt")
    ingest.add_argument("--name", required=True, help="dataset name (e.g. PROTEINS)")
    ingest.add_argument(
        "--check-stats",
        action="store_true",
        help="compare against the published statistics table",
    )

    train_cmd = sub.add_parser("train", help="cross-validated training")
    _dataset_arguments(train_cmd)
    train_cmd.add_argument("--config", help="flat key = value config file")
    train_cmd.add_argument("--seeds", type=int, default=1, help="number of seeds (default 1)")
    train_cmd.add_argument("--folds", type=int, default=None, help="override the fold count")
    train_cmd.add_argument("--out", help="directory for metrics, summary and checkpoints")

    sweep_cmd = sub.add_parser("sweep", help="hyperparameter grid sweep")
    _dataset_arguments(sweep_cmd)
    sweep_cmd.add_argument("--grid", required=True, help="grid file: key = v1, v2, ... per line")
    sweep_cmd.add_argument("--config", help="base config file (defaults otherwise)")
    sweep_cmd.add_argument("--seeds", type=int, default=1)
    sweep_cmd.add_argument("--out", help="directory for sweep.csv")

    theory = sub.add_parser("theory", help="brute-force verification lab")
    theory_sub = theory.add_subparsers(dest="theory_command", required=True)

    optimum = theory_sub.add_parser(
        "optimum", help="largest node set pairwise >= h hops apart, vs closed forms"
    )
    optimum.add_argument("--family", required=True, choices=["path", "star", "file"])
    optimum.add_argument("--h", type=int, required=True)
    optimum.add_argument("--n", type=int, help="node count (path/star families)")
    optimum.add_argument("--file", help="edge list file with one 'u v' pair per line")

    kstar = theory_sub.add_parser(
        "kstar", help="worst-case minimum sampling fractions over all small trees"
    )
    kstar.add_argument("--nmax", type=int, default=9, help="largest tree size (default 9)")
    kstar.add_argument("--nmin", type=int, default=3)
    kstar.add_argument("--h", type=int, default=1, help="cluster radius (default 1)")

    equivariance = theory_sub.add_parser(
        "equivariance", help="randomized relabeling trials plus the tie counterexample"
    )
    equivariance.add_argument("--trials", type=int, default=100)
    equivariance.add_argument("--seed", type=int, default=0)
    equivariance.add_argument("--nodes", type=int, default=8)

    return parser


def _dataset_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--dataset",
        required=True,
        help="benchmark directory (path whose basename is the dataset name) or 'synthetic'",
    )
    cmd.add_argument(
        "--synthetic-graphs", type=int, default=200, help="corpus size when --dataset synthetic"
    )
    cmd.add_argument(
        "--synthetic-seed", type=int, default=0, help="corpus seed when --dataset synthetic"
    )


def _flagged(flag: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` or ``OSError`` it raises becomes a ``ValueError`` under ``flag``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as err:
        raise ValueError(f"{flag}: {err}") from None


def _training_inputs(args) -> tuple[Dataset, TrainConfig, list[int]]:
    """Dataset, config and seeds of ``train`` and ``sweep``; a bad argument raises ``ValueError`` naming its flag."""
    for flag, value, smallest in (("--seeds", args.seeds, 1), ("--synthetic-seed", args.synthetic_seed, 0)):
        if value < smallest:
            raise ValueError(f"{flag} must be >= {smallest}, got {value}")
    config = _flagged("--config", TrainConfig.from_file, args.config) if args.config else TrainConfig()
    if args.dataset == "synthetic":
        graphs = args.synthetic_graphs
        dataset = _flagged(f"--synthetic-graphs {graphs}", synthetic_motif_dataset, graphs, args.synthetic_seed)
    else:
        path = Path(args.dataset)
        dataset = _flagged("--dataset", load_tu_dataset, path.parent, path.name)
    return dataset, config, [config.seed + i for i in range(args.seeds)]


def _check_fold_count(dataset: Dataset, folds: int) -> None:
    if len(dataset) < folds:
        raise ValueError(f"--folds: cannot split the dataset's {len(dataset)} graphs into {folds} folds")


def _command_ingest(args) -> int:
    try:
        dataset = _flagged("--dir", load_tu_dataset, args.dir, args.name)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    stats = dataset_stats(dataset)
    print(f"dataset {args.name}: {stats.n_graphs} graphs, {stats.n_classes} classes")
    print(f"mean nodes {stats.mean_nodes:.2f}, mean edges {stats.mean_edges:.2f}")
    if not args.check_stats:
        return 0
    try:
        ok, checks = check_stats(dataset, args.name)
    except KeyError:
        print(f"no published statistics for {args.name!r}; known: {sorted(KNOWN_DATASET_STATS)}")
        return 1
    for c in checks:
        print(f"  {c.field:<12} expected {c.expected:<10} actual {c.actual:<12.4f} {'ok' if c.ok else 'MISMATCH'}")
    print("stats check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _command_train(args) -> int:
    try:
        dataset, config, seeds = _training_inputs(args)
        if args.folds is not None:
            config = _flagged(f"--folds {args.folds}", dataclasses.replace, config, folds=args.folds)
        _check_fold_count(dataset, config.folds)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    result = train(dataset, config, seeds=seeds, out_dir=args.out, log=print)
    print(result.summary_line())
    if args.out:
        print(f"metrics written to {Path(args.out) / 'metrics.csv'}")
    return 0


def _command_sweep(args) -> int:
    try:
        dataset, base, seeds = _training_inputs(args)
        grid = _flagged("--grid", parse_grid, args.grid)
        _check_fold_count(dataset, max(grid.get("folds", [base.folds])))
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    outcomes = sweep(dataset, base, grid, seeds=seeds, out_dir=args.out, log=print)
    print("rank  config -> validation / test accuracy")
    for rank, (combo, summary) in enumerate(outcomes, start=1):
        desc = ", ".join(f"{k}={v}" for k, v in sorted(combo.items()))
        print(
            f"{rank:>4}  {desc}: val {summary['val_acc_mean']:.4f}±{summary['val_acc_std']:.4f}"
            f"  test {summary['test_acc_mean']:.4f}±{summary['test_acc_std']:.4f}"
        )
    return 0


def _read_edge_file(path) -> tuple[int, list[tuple[int, int]]]:
    """Node count and edges of a ``u v`` per line file; a bad line raises ``ValueError`` with ``path:line``."""
    edges = []
    top = -1
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{line_no}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{line_no}: node ids must be integers, got {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"{path}:{line_no}: node ids must be >= 0, got {raw.strip()!r}")
        if u == v:
            raise ValueError(f"{path}:{line_no}: self loop on node {u}")
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise ValueError(f"{path}: no edges")
    return top + 1, edges


def _command_theory_optimum(args) -> int:
    if args.h < 1:
        print(f"optimum needs --h >= 1, got {args.h}", file=sys.stderr)
        return 2
    if args.family == "file":
        if not args.file:
            print("--family file needs --file", file=sys.stderr)
            return 2
        try:
            n, edges = _read_edge_file(args.file)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        if n > _OPTIMUM_NODE_LIMIT:
            print(f"--file has {n} nodes; the exact search is limited to {_OPTIMUM_NODE_LIMIT}", file=sys.stderr)
            return 2
        graph = graph_from_edges(n, edges)
        closed = None
    else:
        if args.n is None:
            print(f"--family {args.family} needs --n", file=sys.stderr)
            return 2
        if args.family == "star" and args.h % 2:
            print("the starlike family is defined for even --h", file=sys.stderr)
            return 2
        # A path needs one node; a starlike tree, its root and one full branch of --h / 2 nodes.
        smallest = 1 if args.family == "path" else args.h // 2 + 1
        if args.n < smallest:
            print(f"--family {args.family} needs --n >= {smallest}, got {args.n}", file=sys.stderr)
            return 2
        if args.n > _OPTIMUM_NODE_LIMIT:
            print(f"--n {args.n} is above the exact search's limit of {_OPTIMUM_NODE_LIMIT} nodes", file=sys.stderr)
            return 2
        if args.family == "path":
            graph = path_graph(args.n)
            closed = closed_form_optimum("path", args.n, args.h)
        else:
            graph = balanced_starlike_tree(args.n, args.h)
            closed = closed_form_optimum("balanced_starlike", args.n, args.h)

    result = optimum_nodes(graph.adjacency, args.h)
    print(f"nodes={graph.n_nodes} h={args.h} optimum={result.size}")
    print(f"witness: {list(result.witness)}")
    if closed is not None:
        verdict = "match" if closed == result.size else "MISMATCH"
        print(f"closed form: {closed} ({verdict})")
        return 0 if closed == result.size else 1
    return 0


def _command_theory_kstar(args) -> int:
    # verify_tree_bounds builds balanced starlike trees for h + 1 and 2h + 2,
    # which need an even value and, besides the root, a full branch of h + 1 nodes.
    if args.h < 1 or args.h % 2 == 0:
        print("kstar needs an odd --h >= 1: it compares with starlike trees for --h + 1, which must be even",
              file=sys.stderr)
        return 2
    if args.nmin < args.h + 2:
        print(f"kstar needs --nmin >= --h + 2 = {args.h + 2}: every starlike tree needs a full branch",
              file=sys.stderr)
        return 2
    if args.nmax < args.nmin:
        print(f"kstar needs --nmax >= --nmin = {args.nmin}: the table would be empty", file=sys.stderr)
        return 2
    if args.nmax > _SAMPLING_NODE_LIMIT:
        print(f"--nmax {args.nmax} is above the subset scan's limit of {_SAMPLING_NODE_LIMIT} nodes",
              file=sys.stderr)
        return 2
    all_ok = True
    print(f"h={args.h}: worst-case minimum sampling fraction over all trees")
    print("    N  trees  plain-topk   cluster-pool  starlike-topk  starlike-pool  ordered")
    for n in range(args.nmin, args.nmax + 1):
        row = verify_tree_bounds(n, h=args.h)
        ok = row.worst_cases_match and row.asap_never_worse
        all_ok = all_ok and ok
        print(
            f"  {row.n_nodes:>3}  {row.n_trees:>5}  {str(row.worst_topk):>10}   "
            f"{str(row.worst_asap):>11}  {str(row.starlike_topk):>12}  "
            f"{str(row.starlike_asap):>12}  {'yes' if row.asap_never_worse else 'NO'}"
        )
    print("worst cases achieved by the starlike family: " + ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


def _command_theory_equivariance(args) -> int:
    for flag, value, smallest in (("--trials", args.trials, 1), ("--nodes", args.nodes, 1), ("--seed", args.seed, 0)):
        if value < smallest:
            print(f"equivariance needs {flag} >= {smallest}, got {value}", file=sys.stderr)
            return 2
    report = verify_equivariance(n_trials=args.trials, seed=args.seed, n_nodes=args.nodes)
    print(
        f"{report.n_passed}/{report.n_trials} relabeling trials commute "
        f"(max feature error {report.max_feature_error:.2e}, "
        f"adjacency {report.max_adjacency_error:.2e}, fitness {report.max_fitness_error:.2e})"
    )
    for line in report.failures[:10]:
        print("  " + line)

    pooled, pooled_perm, perm = tie_counterexample()
    moved = perm[pooled.selected].tolist() != pooled_perm.selected.tolist()
    print(
        "tie counterexample (two equal fitness values): survivors "
        + (
            "differ across labelings, as expected — distinct fitness is required"
            if moved
            else "unexpectedly agree"
        )
    )
    return 0 if report.all_passed and moved else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=6)
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "train":
        return _command_train(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "theory":
        if args.theory_command == "optimum":
            return _command_theory_optimum(args)
        if args.theory_command == "kstar":
            return _command_theory_kstar(args)
        return _command_theory_equivariance(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
