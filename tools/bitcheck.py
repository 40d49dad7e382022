"""Byte check of untrained logits, gradients and level-1 pooled adjacency over 108 model configs.

Every combination of attention (M2T, S2T, T2T), fitness (LEConv,
BasicLEConv, GCN), aggregation (None, OnlyCluster, Both), soft or hard edges
and cluster radius 1 or 2 builds a 3-block, hidden-16 model from a fixed seed
and runs one taped forward and backward on a batch of synthetic motif graphs.
The logits and every parameter gradient are stored as raw arrays, and so are
the ``rows``, ``cols`` and ``values`` of the adjacency that the first pooling
level builds (``asap_pool_batch`` on the first block's convolution output).
A coarsening change is thus checked on the pooled adjacency itself, not only
through the logits:

    python3 tools/bitcheck.py --save before.npz     # on one checkout
    python3 tools/bitcheck.py --compare before.npz  # on another

Each copy of the script loads the package from its own checkout's ``src``.

``--compare`` prints every array whose bytes differ and exits with status 1
if any does. Refactors that must keep the model's numbers use it as a gate.
"""

from __future__ import annotations

import argparse
import itertools
import sys
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


def compare(got: dict[str, np.ndarray], stored) -> list[str]:
    """Keys whose arrays differ in shape or in any byte, or exist on one side only."""
    diffs = sorted(set(got) ^ set(stored.files))
    for key in sorted(set(got) & set(stored.files)):
        want = stored[key]
        if got[key].shape != want.shape or got[key].tobytes() != want.tobytes():
            diffs.append(key)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", type=Path, help="write the arrays to this .npz file")
    mode.add_argument("--compare", type=Path, help="compare against arrays written by --save")
    parser.add_argument("--batch", type=int, default=16, help="graphs in the batch (default 16)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    arrays = record(args.batch)
    n_configs = len(list(configs()))
    if args.save:
        np.savez(args.save, **arrays)
        print(f"wrote {len(arrays)} arrays for {n_configs} configs to {args.save}")
        return 0
    with np.load(args.compare) as stored:
        diffs = compare(arrays, stored)
    for key in diffs:
        print(f"differs: {key}")
    print(f"{n_configs} configs, {len(arrays)} arrays: {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
