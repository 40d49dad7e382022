"""Benchmark entry point.

    python3 perfbench/run.py --workload motif-b16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in this process and prints, as its last stdout line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The full result, with the environment, raw samples and check
notes, goes to ``perfbench/out/``; a traced run also writes its spans there.
``--workload all`` runs each workload in its own process and prints every
metric with its unit and the check status.

The package is imported from ``src/`` of the checkout this file sits in and
nowhere else; without it the run fails before printing a result.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy is imported. One thread is
# within nproc on any machine and keeps runs from contending for cores.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("motif-b16", "proteins-b128", "lab")


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package():
    """Import ``asap_pool`` from this checkout's ``src/``; exit non-zero if it is not there."""
    if not (SRC / "asap_pool" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'asap_pool'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import asap_pool

    if Path(asap_pool.__file__).resolve().parent != (SRC / "asap_pool").resolve():
        sys.exit(f"error: asap_pool imported from {asap_pool.__file__}, not {SRC}")
    return asap_pool


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "asap_pool").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_one(args) -> int:
    manifest = load_manifest()
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}-spans.jsonl" if args.trace else None
    if args.workload == "lab":
        end_to_end, layer, checks, detail = workloads.run_lab(
            workloads.LAB, args.seed, args.seconds, bool(args.trace), spans_path)
    else:
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        try:
            end_to_end, layer, checks, detail = workloads.run_training(
                args.workload, workloads.TRAINING[args.workload], args.seed, args.seconds,
                bool(args.trace), workdir, spans_path)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    listed = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                environment=environment(), end_to_end=end_to_end, per_layer=layer,
                failed_frac=checks.failed / checks.attempted, check_notes=checks.notes,
                detail=detail)
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"environment": full["environment"], "failed_frac": full["failed_frac"],
                      "detail": {k: v for k, v in detail.items() if not isinstance(v, list)}}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric, unit and check status."""
    manifest = load_manifest()
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: FAILED (exit {done.returncode})\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "FAILED"
        print(f"{name}: checks {verdict}, {result['failed']}/{result['attempted']} operations failed "
              f"(failed_frac {result['failed'] / result['attempted']:.4g})")
        listed = manifest["per_layer"] if args.trace else manifest["end_to_end"]
        for spec in listed:
            metric = result["metrics"][spec["name"]]
            print(f"  {spec['name']:<34} {metric['value']:>14.6g} {metric['unit']}")
        for key, value in json.loads(lines[-2])["detail"].items():
            print(f"  {key:<34} {value:>14.6g}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed loop (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_manifest()["run_seconds"]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
