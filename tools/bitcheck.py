"""Byte check of the model's 108 configs and of the verification lab's outputs.

Every combination of attention (M2T, S2T, T2T), fitness (LEConv,
BasicLEConv, GCN), aggregation (None, OnlyCluster, Both), soft or hard edges
and cluster radius 1 or 2 builds a 3-block, hidden-16 model from a fixed seed
and runs one taped forward and backward on a batch of synthetic motif graphs.
The logits and every parameter gradient are stored as raw arrays, and so are
the ``rows``, ``cols`` and ``values`` of the adjacency that the first pooling
level builds (``asap_pool_batch`` on the first block's convolution output).
A coarsening change is thus checked on the pooled adjacency itself, not only
through the logits.

The lab's outputs are stored too: for every tree with 3-10 nodes its
``bfs_distances``, its ``min_sampling_ratio`` size and witness at reach
1-4, and the ``rows``, ``cols`` and ``values`` of its
``h_hop_membership(a, h)`` and ``graph_power(a, p)`` for h and p 1-4; the
``verify_tree_bounds(n, h=1)`` rows for the same sizes, as numerator and
denominator arrays; and the ``optimum_nodes`` witnesses of the
paths and balanced starlike trees that acceptance criterion 4 checks:

    python3 tools/bitcheck.py --save before.npz     # on one checkout
    python3 tools/bitcheck.py --compare before.npz  # on another

Each copy of the script loads the package from its own checkout's ``src``.

``--compare`` prints every array whose bytes differ, with its largest
absolute deviation and largest reference magnitude when it is a float
array, then how many differ per attention kind and in the lab. It exits
with status 1 if any array differs. Refactors that must keep the model's
numbers use it as a gate.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ATTENTION = ("M2T", "S2T", "T2T")
FITNESS = ("LEConv", "BasicLEConv", "GCN")
AGGREGATION = ("None", "OnlyCluster", "Both")


def configs():
    """``(name, PoolConfig keyword arguments)`` for all 108 configs."""
    for attention, fitness, aggregation, soft, h in itertools.product(
        ATTENTION, FITNESS, AGGREGATION, (True, False), (1, 2)
    ):
        name = f"{attention}-{fitness}-{aggregation}-{'soft' if soft else 'hard'}-h{h}"
        yield name, dict(attention=attention, fitness=fitness, aggregation=aggregation, soft_edges=soft, h=h)


def record(batch_size: int) -> dict[str, np.ndarray]:
    """Logits, parameter gradients and first-level pooled adjacency of every config.

    Keys are ``<config>/logits``, ``<config>/<param>`` and
    ``<config>/level1.adjacency.{rows,cols,values}``.
    """
    from asap_pool.datasets import synthetic_motif_dataset
    from asap_pool.engine import Tape, relu
    from asap_pool.graphs import batch_graphs, normalize_gcn
    from asap_pool.layers import gcn_forward
    from asap_pool.model import ModelConfig, cross_entropy, forward, init_model
    from asap_pool.pool import PoolConfig, asap_pool_batch

    dataset = synthetic_motif_dataset(n_graphs=batch_size, seed=7)
    batch = batch_graphs(dataset.graphs)
    out = {}
    for name, pool in configs():
        config = ModelConfig(dataset.feature_dim, dataset.n_classes, hidden=16, n_blocks=3, pool=PoolConfig(**pool))
        model = init_model(config, np.random.default_rng(11))
        params = model.parameters()
        with Tape() as tape:
            logits = forward(model, batch)
            loss = cross_entropy(logits, batch.labels)
        grads = tape.backward(loss)
        out[f"{name}/logits"] = logits.data
        for key, tensor in params.items():
            grad = grads.get(tensor)
            out[f"{name}/{key}"] = np.zeros_like(tensor.data) if grad is None else grad
        a_norm = normalize_gcn(batch.adjacency)
        x = gcn_forward(batch.features, a_norm, model.blocks[0].gcn, activation=relu)
        pooled = asap_pool_batch(
            x, batch.adjacency, batch.node_graph_ids, batch.n_graphs, model.blocks[0].pool, config.pool, a_norm
        )
        for part in ("rows", "cols", "values"):
            out[f"{name}/level1.adjacency.{part}"] = getattr(pooled.adjacency, part)
    return out


def record_lab() -> dict[str, np.ndarray]:
    """Distances, sampling results, tree-bound rows and optimum witnesses of the lab.

    Keys are ``lab/tree<n>.<i>/distances``, ``lab/tree<n>.<i>/reach<r>.{size,witness}``
    and ``lab/tree<n>.<i>/{membership,power}<r>.{rows,cols,values}`` for the ``i``-th
    tree ``enumerate_trees(n)`` lists, ``lab/bounds<n>.h1.{numerators,denominators,counts}``
    and ``lab/{path,starlike}<n>.h<h>.witness``.
    """
    from asap_pool.graphs import bfs_distances, graph_from_edges, graph_power, h_hop_membership
    from asap_pool.theory import (
        balanced_starlike_tree, enumerate_trees, min_sampling_ratio, optimum_nodes, path_graph, verify_tree_bounds,
    )

    out = {}
    for n in range(3, 11):
        for i, edges in enumerate(enumerate_trees(n)):
            a = graph_from_edges(n, edges).adjacency
            out[f"lab/tree{n}.{i}/distances"] = bfs_distances(a)
            for reach in (1, 2, 3, 4):
                result = min_sampling_ratio(a, reach)
                out[f"lab/tree{n}.{i}/reach{reach}.size"] = np.array(result.max_spread_size)
                out[f"lab/tree{n}.{i}/reach{reach}.witness"] = np.array(result.spread_witness, dtype=np.int64)
                for kind, build in (("membership", h_hop_membership), ("power", graph_power)):
                    pattern = build(a, reach)
                    for part in ("rows", "cols", "values"):
                        out[f"lab/tree{n}.{i}/{kind}{reach}.{part}"] = getattr(pattern, part)
        row = verify_tree_bounds(n, h=1)
        ratios = (row.worst_topk, row.worst_asap, row.starlike_topk, row.starlike_asap)
        out[f"lab/bounds{n}.h1.numerators"] = np.array([r.numerator for r in ratios])
        out[f"lab/bounds{n}.h1.denominators"] = np.array([r.denominator for r in ratios])
        out[f"lab/bounds{n}.h1.counts"] = np.array([row.n_trees, row.asap_never_worse])
    for n in range(2, 21):
        for h in (1, 2, 3, 4):
            witness = optimum_nodes(path_graph(n).adjacency, h).witness
            out[f"lab/path{n}.h{h}.witness"] = np.array(witness, dtype=np.int64)
    for h in (2, 4, 6):
        for n in range(h // 2 + 2, 21):
            witness = optimum_nodes(balanced_starlike_tree(n, h).adjacency, h).witness
            out[f"lab/starlike{n}.h{h}.witness"] = np.array(witness, dtype=np.int64)
    return out


def compare(got: dict[str, np.ndarray], stored) -> list[tuple[str, str]]:
    """``(key, how)`` for each array that differs in shape or in any byte, or exists on one side only.

    For float arrays of one shape, ``how`` gives the largest absolute
    deviation next to the largest reference magnitude.
    """
    diffs = [(key, "on one side only") for key in sorted(set(got) ^ set(stored.files))]
    for key in sorted(set(got) & set(stored.files)):
        new, want = got[key], stored[key]
        if new.shape != want.shape:
            diffs.append((key, f"shape {want.shape} -> {new.shape}"))
        elif new.tobytes() != want.tobytes():
            if new.dtype.kind == want.dtype.kind == "f":
                how = f"max |diff| {np.abs(new - want).max():.2e}, max |ref| {np.abs(want).max():.2e}"
            else:
                how = f"{new.dtype} bytes"
            diffs.append((key, how))
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", type=Path, help="write the arrays to this .npz file")
    mode.add_argument("--compare", type=Path, help="compare against arrays written by --save")
    parser.add_argument("--batch", type=int, default=16, help="graphs in the batch (default 16)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    arrays = record(args.batch) | record_lab()
    n_configs = len(list(configs()))
    if args.save:
        np.savez(args.save, **arrays)
        print(f"wrote {len(arrays)} arrays for {n_configs} configs and the lab to {args.save}")
        return 0
    with np.load(args.compare) as stored:
        diffs = compare(arrays, stored)
    for key, how in diffs:
        print(f"differs: {key}: {how}")
    groups = Counter("lab" if key.startswith("lab/") else key.split("-", 1)[0] for key, _ in diffs)
    print("differing arrays: " + ", ".join(f"{group} {groups[group]}" for group in (*ATTENTION, "lab")))
    print(f"{n_configs} configs and the lab, {len(arrays)} arrays: {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
