"""Byte-identity check of the working tree's outputs against a base commit.

    python3 tools/same_outputs.py
    python3 tools/same_outputs.py --base HEAD~3

Extracts the base commit (default HEAD, so the uncommitted change is what is
checked) with `git archive` into a temporary directory, as tools/bench_ab.py
does. One fixed set of synthetic clips (CIF, QCIF and 48x32, written by the
working tree's synth) is then run through each side's own src/, in fresh
processes:
- an untimed experiment over the three clips, every mode, rates 0.1, 0.5
  and 1.0, with dump_frames;
- the CLI's `estimate` on the QCIF clip, and its `conceal` in every mode.

Every file the runs write and every command's stdout is compared by
sha256. Prints each difference and exits 1 if there is any, 0 if both sides
produced the same bytes. The temporary directory is removed afterwards,
also when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vidconceal.engine import MODES  # noqa: E402
from vidconceal.synth import make_sequence, write_i420  # noqa: E402

# (name, width, height, frames, synth seed)
CLIPS = (("cif", 352, 288, 5, 7), ("qcif", 176, 144, 8, 11), ("tiny", 48, 32, 10, 3))
SPEC = {
    "sequences": [{"name": n, "path": f"{n}.yuv", "width": w, "height": h, "frames": f} for n, w, h, f, _ in CLIPS],
    "rates": [0.1, 0.5, 1.0],
    "modes": list(MODES),
    "trials": 2,
    "seed": 20260810,
    "measure_timing": False,
    "dump_frames": [1, 3],
}
CLI_CLIP = CLIPS[1]
CLI_RATE, CLI_SEED = "0.3", "5"


def commands(inputs: str) -> list[tuple[str, list[str]]]:
    """Each run as (name, arguments of `python -m vidconceal.cli`), writing
    under the working directory it is run from."""
    name, width, height, _, _ = CLI_CLIP
    clip = ["--in", os.path.join(inputs, f"{name}.yuv"), "--width", str(width), "--height", str(height)]
    runs = [
        ("experiment", ["experiment", "--spec", os.path.join(inputs, "spec.json"), "--out-dir", "experiment"]),
        ("estimate", ["estimate", *clip, "--out", "estimate.csv"]),
    ]
    for mode in MODES:
        runs.append((f"conceal_{mode}", [
            "conceal", *clip, "--rate", CLI_RATE, "--seed", CLI_SEED, "--mode", mode,
            "--out-yuv", f"conceal_{mode}.yuv", "--audit", f"conceal_{mode}.csv",
        ]))
    return runs


def write_inputs(inputs: str) -> None:
    """The clips and the experiment spec, from the working tree's synth."""
    for name, width, height, frames, seed in CLIPS:
        write_i420(os.path.join(inputs, f"{name}.yuv"), make_sequence(width, height, frames, seed))
    spec = dict(SPEC, sequences=[dict(s, path=os.path.join(inputs, s["path"])) for s in SPEC["sequences"]])
    with open(os.path.join(inputs, "spec.json"), "w") as f:
        json.dump(spec, f)


def run_python(root: str, args: list[str], cwd: str) -> str:
    """stdout of python with `args`, importing vidconceal from root/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} failed in {root}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_side(root: str, inputs: str, out: str) -> None:
    """Every run of ``commands`` with ``root``'s src/, writing under ``out``;
    each command's stdout goes to stdout/<name>.txt there."""
    os.makedirs(os.path.join(out, "stdout"))
    for name, args in commands(inputs):
        stdout = run_python(root, ["-m", "vidconceal.cli", *args], out)
        with open(os.path.join(out, "stdout", f"{name}.txt"), "w") as f:
            f.write(stdout)


def tree_digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root``, by path relative to it."""
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def compare_trees(base: str, change: str) -> list[str]:
    """One line per file that differs between the two trees or exists in
    only one of them, in path order; empty when they hold the same bytes."""
    a, b = tree_digests(base), tree_digests(change)
    out = []
    for path in sorted(a.keys() | b.keys()):
        if path not in b:
            out.append(f"only in base: {path}")
        elif path not in a:
            out.append(f"only in change: {path}")
        elif a[path] != b[path]:
            out.append(f"differs: {path}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="byte-identity check of the working tree's outputs against a base commit")
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default: HEAD)")
    args = ap.parse_args(argv)
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        base_root, inputs = os.path.join(tmp, "base"), os.path.join(tmp, "inputs")
        os.mkdir(base_root)
        os.mkdir(inputs)
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=archive, check=True)
        write_inputs(inputs)
        outs = {side: os.path.join(tmp, f"out_{side}") for side in ("base", "change")}
        run_side(base_root, inputs, outs["base"])
        run_side(ROOT, inputs, outs["change"])
        files = len(tree_digests(outs["change"]))
        diffs = compare_trees(outs["base"], outs["change"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in diffs:
        print(line)
    print(f"{files} files compared against {base_rev[:12]}: {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
