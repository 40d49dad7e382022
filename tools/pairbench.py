"""Paired benchmark runs of two checkouts, and their summary as a ``BENCH_<n>.json`` record.

    python3 tools/pairbench.py run --parent A --change B --workload proteins-b128 \\
        --seed 1 --pairs 10 --runs runs.jsonl
    python3 tools/pairbench.py summarize --runs runs.jsonl --claim proteins-b128:eval_graphs_per_s \\
        --change-text "..." --parent-commit SHA > BENCH_17.json

``run`` alternates the two sides of each pair, parent first in even pairs,
each side running ``perfbench/run.py --trace 0`` in its own checkout with
the same seed, and appends one JSON line per run to ``--runs``.
``summarize`` groups the lines by workload and seed (the key is
``<workload>@<seed>``) and reports, per end-to-end metric of
``BENCHMARK.json``, both sides' runs, medians and quartiles, how many pairs
the change won, and a verdict. A claimed metric is a gain when the change
wins at least 9 of 10 pairs (the same share of any count) and the median
gap exceeds the parent's interquartile range, on every seed of the
workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"
HELD_OUT_SEED = 20191118
VERDICT_RULES = {
    "gain": "claimed metric: change wins >= 9/10 of the pairs and |median gap| > parent IQR",
    "within bound": "change median no worse than parent median by more than the BENCHMARK.json bound, and parent "
                    "spread (max-min)/median within the bound or every change run better than every parent run",
    "unresolved (parent spread above bound)": "parent runs spread wider than the bound; the median moved in the "
                                              "direction given by change_minus_parent_rel",
    "worse than bound": "change median worse than parent median by more than the bound",
}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def command_run(args) -> int:
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    with open(args.runs, "a") as out:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_once(sides[side], args.workload, args.seed, args.seconds)
                record.update(workload=args.workload, seed=args.seed, pair=pair, side=side, first=order[0])
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{args.workload}@{args.seed} pair {pair} {side}: {record['metrics']}", file=sys.stderr)
    return 0


def _metric_summary(spec: dict, parent: list[float], change: list[float], claimed: bool) -> dict:
    lower = spec["better"] == "lower"
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    p_q = [float(q) for q in np.percentile(parent, [25, 75])]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    rel = (c_med - p_med) / p_med
    worse = rel if lower else -rel
    spread = (max(parent) - min(parent)) / p_med
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    if claimed and wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q[1] - p_q[0] and worse < 0:
        verdict = "gain"
    elif worse > spec["bound"]:
        verdict = "worse than bound"
    elif spread <= spec["bound"] or separated:
        verdict = "within bound"
    else:
        verdict = "unresolved (parent spread above bound)"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": parent, "change": change,
        "parent_median": p_med, "parent_quartiles": p_q, "parent_iqr": p_q[1] - p_q[0],
        "change_median": c_med, "change_quartiles": [float(q) for q in np.percentile(change, [25, 75])],
        "change_minus_parent_rel": rel, "change_wins": f"{wins}/{len(parent)}",
        "parent_spread_rel": spread, "verdict": verdict,
    }


def command_summarize(args) -> int:
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    claim_workload, claim_metric = args.claim.split(":") if args.claim else (None, None)
    groups: dict[str, dict[int, dict[str, dict]]] = {}
    for line in Path(args.runs).read_text().splitlines():
        record = json.loads(line)
        key = f"{record['workload']}@{record['seed']}"
        groups.setdefault(key, {}).setdefault(record["pair"], {})[record["side"]] = record
    workloads = {}
    for key, pairs in groups.items():
        complete = [pairs[p] for p in sorted(pairs) if len(pairs[p]) == 2]
        workload = key.split("@")[0]
        workloads[key] = {
            "pairs": len(complete),
            "first": [pair["parent"]["first"] for pair in complete],
            "failed": {side: sum(pair[side]["failed"] for pair in complete) for side in ("parent", "change")},
            "attempted": {side: sum(pair[side]["attempted"] for pair in complete) for side in ("parent", "change")},
            "metrics": {
                spec["name"]: _metric_summary(
                    spec,
                    [pair["parent"]["metrics"][spec["name"]] for pair in complete],
                    [pair["change"]["metrics"][spec["name"]] for pair in complete],
                    (workload, spec["name"]) == (claim_workload, claim_metric),
                )
                for spec in specs
            },
        }
    record = {
        "change": args.change_text,
        "parent_commit": args.parent_commit,
        "command": COMMAND,
        "host": args.host,
        "method": "alternating parent/change pairs, same seed within a pair, parent first in even pairs; "
                  "each side in a fresh copy of its files",
        "held_out_seed": HELD_OUT_SEED,
        "verdict_rules": VERDICT_RULES,
        "claimed": {
            "workload": claim_workload, "metric": claim_metric,
            "rule": "change wins >= 9/10 pairs and |median gap| > parent IQR, on every seed",
        } if args.claim else None,
        "workloads": workloads,
    }
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="alternate paired runs and append them to a JSONL file")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=30)
    run.add_argument("--runs", required=True, help="JSONL file to append to")
    summarize = sub.add_parser("summarize", help="write the BENCH record of a JSONL file to stdout")
    summarize.add_argument("--runs", required=True)
    summarize.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    summarize.add_argument("--change-text", default="", help="one line describing the change")
    summarize.add_argument("--parent-commit", default=None)
    summarize.add_argument("--host", default="", help="the machine the runs were made on")
    args = parser.parse_args(argv)
    return command_run(args) if args.command == "run" else command_summarize(args)


if __name__ == "__main__":
    sys.exit(main())
