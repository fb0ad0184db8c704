"""Record reference.json: the output digests and traced work counts of every
workload at the default and the held-out seed.

Run it from the root of a checkout only on code whose outputs are known to
be right; every later run at those seeds is checked against what it writes.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def main() -> int:
    root = os.getcwd()
    with open(PATH, "w") as f:
        json.dump({}, f)  # record against no previous reference
    reference: dict = {}
    for workload in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            deadline = time.monotonic() + run.RUN_LIMIT_S
            result = run.run_workload(root, workload, seed, 1.0, 1, deadline)
            if result["errors"] or not result["ops"]:
                print(f"{workload} seed {seed}: {result['errors']}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                "inputs": result["manifest"]["inputs_sha256"],
                "outputs": result["digests"],
                "trace_counts": result["trace_counts"],
            }
            print(f"recorded {workload} seed {seed}")
    with open(PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
