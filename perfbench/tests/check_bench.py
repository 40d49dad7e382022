"""The benchmark's own tests. The suite at the repository root does not collect them:

    python3 -m pytest -q perfbench/tests/check_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from asap_pool import pool  # noqa: E402
from asap_pool.graphs import batch_graphs  # noqa: E402
from asap_pool.model import forward, load_checkpoint  # noqa: E402
from asap_pool.train import train  # noqa: E402
from tracing import Tracer  # noqa: E402

MANIFEST = run.load_manifest()
END_TO_END = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]
TINY_LAB = workloads.LabSpec(max_tree_nodes=6, trials=3)


def tiny(name: str) -> workloads.TrainingSpec:
    # Same node range and widths as the real spec, so the stored reference logits still apply.
    return dataclasses.replace(workloads.TRAINING[name], n_graphs=24, folds=3)


@pytest.mark.parametrize("name", list(workloads.TRAINING))
@pytest.mark.parametrize("trace", [False, True])
def test_training_workload_smoke(name, trace, tmp_path):
    end_to_end, layer, checks, _ = workloads.run_training(name, tiny(name), 5, 0.01, trace, tmp_path)
    assert checks.failed == 0, checks.notes
    assert checks.attempted > 0
    assert end_to_end["setup_s"] > 0 and end_to_end["epoch_s"] > 0
    if trace:
        assert sorted(layer) == sorted(PER_LAYER)
        assert layer["trace.attributed_frac"] >= 0.9
        assert layer["engine.backward_ms"] > 0 and layer["pool.form_clusters.fwd_ms"] > 0
        assert (layer["datasets.load_s"] > 0) == workloads.TRAINING[name].from_disk
    else:
        assert end_to_end["eval_graphs_per_s"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_lab_workload_smoke(trace):
    end_to_end, layer, checks, detail = workloads.run_lab(TINY_LAB, 5, 0.01, trace)
    assert checks.failed == 0, checks.notes
    assert end_to_end["epoch_s"] > 0 and end_to_end["eval_graphs_per_s"] > 0
    assert detail["trees_per_s"] > 0 and detail["trials_per_s"] > 0
    if trace:
        assert sorted(layer) == sorted(PER_LAYER)
        assert layer["theory.verify_tree_bounds_s"] > 0 and layer["theory.asap_pool_ms"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_last(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lab", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "lab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_seeds_are_derived_and_distinct():
    assert workloads.Seeds.derive(4) == workloads.Seeds.derive(4)
    assert workloads.Seeds.derive(4) != workloads.Seeds.derive(5)
    seeds = workloads.Seeds.derive(4)
    assert len({seeds.corpus, seeds.train, seeds.lab}) == 3


def test_tracing_leaves_outputs_bit_identical(tmp_path):
    spec = tiny("motif-b16")
    dataset = spec.corpus(24, 11)
    config = dataclasses.replace(spec.train_config(11), epochs=2)
    original = pool.form_clusters

    train(dataset, config, out_dir=tmp_path / "plain")
    tracer = Tracer()
    with tracer:
        assert pool.form_clusters is not original
        tracer.call("train.train", train, dataset, config, out_dir=tmp_path / "traced")
    assert pool.form_clusters is original
    assert tracer.counts["engine.tape_nodes"] > 0 and tracer.backward_by_op["spspmm"] > 0

    csv = "metrics.csv"
    assert (tmp_path / "plain" / csv).read_bytes() == (tmp_path / "traced" / csv).read_bytes()
    batch = batch_graphs(dataset.graphs[:8])
    for fold in range(config.folds):
        name = f"checkpoint_seed{config.seed}_fold{fold}.npz"
        plain, _ = load_checkpoint(tmp_path / "plain" / name)
        traced, _ = load_checkpoint(tmp_path / "traced" / name)
        with Tracer():
            traced_logits = forward(traced, batch).data
        assert np.array_equal(forward(plain, batch).data, traced_logits)
