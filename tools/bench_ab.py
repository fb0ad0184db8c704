"""A/B benchmark of the working tree against a base commit.

    python3 tools/bench_ab.py --label pr7
    python3 tools/bench_ab.py --label heldout --seed 4099 --workload sparse

Extracts the base commit (default HEAD, so the uncommitted change is what is
measured) and a snapshot of the working tree with `git archive` into a
temporary directory, each into a directory named by its revision, so the
two sides differ only in their files, and runs each side's own
`perfbench/run.py --trace 0 --seed S` from that side's root, at the
benchmark's run length: N pairs per workload, the base first in even pairs
and the snapshot first in odd ones. The snapshot is a `git stash create`
commit of the uncommitted changes to tracked files, which leaves the
working tree and the stash list as they are, or HEAD when there are none;
untracked files under src/ or perfbench/ would be missing from it, so they
stop the run before it starts. Equal revisions are extracted once and run
from one root, so `--base HEAD` on a clean tree is a null A/B: both sides
run the same files from the same path, and only the run order differs.
The seed defaults to the benchmark's default 7, and the workloads to every
one in BENCHMARK.json; `--workload` may be given more than once. The
temporary directory is removed afterwards, also when a run fails.

Writes BENCH_<label>.json at the repository root with the seed and, per
workload:
- per end-to-end metric of BENCHMARK.json, each side's median, quartiles
  and values, the pairs the change wins (ties count for neither), and two
  verdicts: `gain_met` when the change wins at least 9 in 10 of all pairs
  run, a pair where a run errored counting as lost, its median beats the
  base median by more than the base quartile spread, and it failed no more
  operations than the base; its mirror `slower` when the change loses at
  least 9 in 10 of all pairs run, a pair where a run errored again counting
  as lost, and its median is worse than the base median by more than the
  base quartile spread; and `regressed` when its median is worse than the
  base median by more than the metric's relative `bound`;
- each side's total `failed` count, and the pairs that errored or lack a
  side;
- each run's manifest, `attempted` and `failed` counts, and metrics;
and the machine it ran on. Neither side is a git checkout, so their
manifests carry `git_revision: null`; their revisions are `base.revision`
and `change.revision`, the snapshot's.

Exits 1 when any run errored, after writing the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def bench_sha256(root: str) -> str:
    """Hash of the benchmark's own files on one side: equal hashes mean both
    sides ran identical benchmark code."""
    h = hashlib.sha256()
    bench = os.path.join(root, "perfbench")
    for name in sorted(os.listdir(bench)):
        if name.endswith((".py", ".json")):
            with open(os.path.join(bench, name), "rb") as f:
                h.update(name.encode() + b"\0" + hashlib.sha256(f.read()).hexdigest().encode())
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as f:
        h.update(hashlib.sha256(f.read()).hexdigest().encode())
    return h.hexdigest()


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
    }


def snapshot() -> str:
    """Revision of the working tree as it stands: a commit of its
    uncommitted changes to tracked files, or HEAD when there are none."""
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "perfbench")
    if untracked:
        raise SystemExit("untracked files would be left out of the change side: " + untracked.replace("\n", ", "))
    return git("stash", "create") or git("rev-parse", "HEAD")


def extract(rev: str, root: str) -> None:
    """The files of ``rev``, written to the new directory ``root``."""
    os.mkdir(root)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)


DEFAULT_SEED = 7  # perfbench's own default


def run_once(root: str, workload: str, seed: int) -> dict:
    """One `perfbench/run.py --trace 0` run from a side's root: its manifest,
    counts and metrics, or the error when it did not complete."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0", "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": (proc.stderr or proc.stdout)[-2000:]}
    result = json.loads(lines[-1])
    manifest = next(json.loads(line[len("manifest "):]) for line in lines if line.startswith("manifest "))
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "manifest": manifest,
    }


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(runs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spread and the change's wins over
    the pairs where both sides completed, and the three verdicts; each
    side's failed operations; and the pairs left out because a run errored.
    A gain or a slowdown is judged against every pair run, so a pair left
    out counts as lost, and a gain does not count when the change failed
    more operations."""
    pairs: dict[int, dict] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    complete = {i: p for i, p in pairs.items() if all("metrics" in p.get(side, {}) for side in ("base", "change"))}
    failed = {side: sum(r.get("failed", 0) for r in runs if r["side"] == side) for side in ("base", "change")}
    metrics = {}
    for metric in declared:
        name = metric["name"]
        both = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in complete.values()
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        sign = 1 if metric["better"] == "lower" else -1
        base, change = summarize([b for b, _ in both]), summarize([c for _, c in both])
        wins = sum(1 for b, c in both if sign * (c - b) < 0)
        losses = sum(1 for b, c in both if sign * (c - b) > 0) + len(pairs) - len(both)
        # how far the change's median is better than the base's, in the unit
        gain = sign * (base["median"] - change["median"])
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": base,
            "change": change,
            "change_wins": wins,
            "pairs": len(both),
            "pairs_run": len(pairs),
            "median_change_pct": 100.0 * (change["median"] - base["median"]) / base["median"] if base["median"] else None,
            "gain_met": 10 * wins >= 9 * len(pairs)
            and gain > base["q3"] - base["q1"]
            and failed["change"] <= failed["base"],
            "slower": 10 * losses >= 9 * len(pairs) and -gain > base["q3"] - base["q1"],
            "regressed": -gain > metric["bound"] * abs(base["median"]),
        }
    return {
        "metrics": metrics,
        "failed": failed,
        "incomplete_pairs": sorted(set(pairs) - set(complete)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="A/B benchmark of the working tree against a base commit")
    ap.add_argument("--label", required=True, help="output file is BENCH_<label>.json at the repository root")
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default: HEAD)")
    ap.add_argument("--pairs", type=int, default=10, help="base/change pairs per workload (default: 10)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed passed to both sides (default: {DEFAULT_SEED})")
    ap.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                    help="workload to run; repeatable (default: every workload in BENCHMARK.json)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = [w["name"] for w in bench["workloads"]]
    workloads = list(dict.fromkeys(args.workloads or declared))
    unknown = [w for w in workloads if w not in declared]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json declares {', '.join(declared)}")
    base_rev, change_rev = git("rev-parse", args.base), snapshot()
    tmp = tempfile.mkdtemp(prefix="bench_ab_")
    sides = {"base": os.path.join(tmp, base_rev), "change": os.path.join(tmp, change_rev)}
    errors = 0
    try:
        for rev in dict.fromkeys((base_rev, change_rev)):
            extract(rev, os.path.join(tmp, rev))
        report = {
            "label": args.label,
            "command": f"perfbench/run.py --trace 0 --seed {args.seed}",
            "seed": args.seed,
            "base": {"revision": base_rev, "bench_sha256": bench_sha256(sides["base"])},
            "change": {
                "revision": change_rev,
                "uncommitted_changes": change_rev != git("rev-parse", "HEAD"),
                "bench_sha256": bench_sha256(sides["change"]),
            },
            "pairs": args.pairs,
            "machine": machine(),
            "workloads": {},
        }
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = run_once(sides[side], workload, args.seed)
                    runs.append({"pair": pair, "side": side, **run})
                    errors += "error" in run
                    status = "error" if "error" in run else f"failed={run['failed']}"
                    print(f"{workload} pair {pair} {side}: {status}", file=sys.stderr, flush=True)
            report["workloads"][workload] = {**compare(runs, bench["end_to_end"]), "runs": runs}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(out)
    if errors:
        print(f"{errors} run(s) errored; see 'error' in the runs of {out}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
