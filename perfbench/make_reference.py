"""Write ``reference_logits.json``: untrained-model logits for each training workload.

    python3 perfbench/make_reference.py

The stored values are the seed commit's. Every benchmark run recomputes them
and counts a difference above 1e-9 as a failed check, so a later change that
alters the model's numbers shows there. Regenerate only when such a change is
intended, and say so where the change is described.
"""

import json
import sys

import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set up by run)


def main() -> int:
    stored = {name: workloads.reference_logits(spec).tolist() for name, spec in workloads.TRAINING.items()}
    workloads.REFERENCE_PATH.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
