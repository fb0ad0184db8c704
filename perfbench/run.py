"""vidconceal benchmark: one command, run from the root of a checkout.

    python3 perfbench/run.py --workload sparse --seed 7 --trace 0
    python3 perfbench/run.py --workload all

For one workload it generates the seeded inputs in fresh processes (their
median wall time is `setup_s`), then starts one fresh, single-threaded
measured process (perfbench/worker.py) that imports vidconceal from the
checkout's src/ and runs the workload in a closed loop for --seconds
(default: run_seconds of BENCHMARK.json). It prints the run manifest, every
metric with its unit, and as the last line a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
`--workload all` runs every workload in turn, each in its own processes.

Workloads, metrics and the map from layer metrics to end-to-end metrics are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPS = 5
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def src_digest(src: str) -> str:
    """Hash of every .py file under src/, which names the code under test
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0" + sha256_file(path).encode())
    return h.hexdigest()


def git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Set up and measure one workload; returns the worker's result with
    setup_s and the manifest added. Raises RuntimeError when a process
    fails."""
    src = os.path.join(root, "src")
    env = child_env(src)
    work = os.path.join(root, WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)

    def gen(gen_seed: int, out_dir: str) -> tuple[float, float]:
        """Set-up time of one generation, raw and at the reference speed."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(gen_seed),
             "--out", out_dir], env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        speed = json.loads(proc.stdout.splitlines()[-1])
        raw = wall - speed["calibration_s"]
        return raw, raw * speed["speed_factor"]

    setup = [gen(seed, inputs) for _ in range(SETUP_REPS)]

    ref_inputs = os.path.join(work, "ref_inputs")
    gen(workloads.DEFAULT_SEED, ref_inputs)

    out = os.path.join(work, "result.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--inputs", inputs, "--ref-inputs", ref_inputs,
         "--work", work, "--src", src, "--out", out],
        env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measured process failed:\n{proc.stderr}")
    with open(out) as f:
        result = json.load(f)

    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(s for _, s in setup), "unit": "s"}
    versions = result.pop("versions")
    result["manifest"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(root),
        "src_sha256": src_digest(src),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "cpu_count": os.cpu_count(),
        "inputs_sha256": {name: sha256_file(os.path.join(inputs, name)) for name in sorted(os.listdir(inputs))},
        "setup_s_raw": [raw for raw, _ in setup],
        "wall_s_raw": result["raw_walls_s"],
        "speed_factors": result["speed_factors"],
        "ops": result["ops"],
    }
    with open(os.path.join(work, "manifest.json"), "w") as f:
        json.dump(result["manifest"], f, indent=1)
    return result


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vidconceal benchmark")
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measured time per workload (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vidconceal", "__init__.py")):
        return fail(f"no vidconceal sources under {os.path.join(root, 'src')}; run from a checkout's root")
    try:
        workloads.check_seed(args.seed)
        bench = load_benchmark(root)
        declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    except (OSError, ValueError, KeyError) as e:
        return fail(str(e))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(root, workload, args.seed, seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            return fail(f"{workload}: {e}")
        metrics = result["metrics"]
        if result["ops"] and sorted(metrics) != sorted(declared):
            return fail(f"{workload}: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
        for error in result["errors"]:
            print(f"perfbench: {workload}: {error}", file=sys.stderr)
        print(f"manifest {json.dumps(result['manifest'], sort_keys=True)}")
        for name in declared:
            if name in metrics:
                print(f"{workload} {name} {metrics[name]['value']!r} {metrics[name]['unit']}")
        combined["correct"] &= result["failed"] == 0 and result["ops"] > 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
