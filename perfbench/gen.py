"""Generate the seeded inputs of one workload into a directory.

Runs in its own process (synthesis of a CIF clip holds every frame, which
would otherwise raise the peak RSS of the measured process). Its wall time,
interpreter start and the import of vidconceal included, is the benchmark's
set-up time. Afterwards it times the calibration kernel and prints, as
JSON, the speed factor and the seconds the calibration took, so that the
caller can take them out of the set-up time and scale it to the reference
speed.

    PYTHONPATH=src python3 perfbench/gen.py --workload sparse --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def generate(workload: str, seed: int, out: str) -> None:
    from vidconceal.synth import make_sequence, write_i420

    os.makedirs(out, exist_ok=True)
    for c in workloads.clips(workload, seed):
        lumas = make_sequence(c["width"], c["height"], c["frames"], c["synth_seed"])
        write_i420(os.path.join(out, c["name"] + ".yuv"), lumas)
    if workload != workloads.CLI_STREAM:
        with open(os.path.join(out, "spec.json"), "w") as f:
            json.dump(workloads.experiment_spec(workload, seed), f, indent=1, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    import calibrate

    t0 = time.perf_counter()
    factor = calibrate.REFERENCE_S / calibrate.measure()
    print(json.dumps({"speed_factor": factor, "calibration_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
