"""Motion search cost on synthetic clips with scaled contrast and added noise.

    python3 tools/me_sweep.py [--passes 10]

Imports vidconceal from this checkout's src/. Each row is one deterministic
7-frame clip: synth.make_sequence (CIF seed 7 or QCIF seed 11) with every
frame's contrast scaled about mid-grey and seeded uniform integer noise of up
to +-a levels added, or CIF white noise. On each of its 6 frame pairs at
p = 7 it times estimate_field and a dense search that scores every pair,
each as the fastest of ``--passes`` passes over the clip in ms per pair, and
checks that both return the same vectors. From the dense SADs and row-sum
bounds it also counts the share of MBs that are settled (the SAD best0 at
the first displacement of lowest bound equals that bound), and two numbers
of exact SADs per in-frame pair: one per MB for its guess, plus either every
pair with bound <= best0, or only the tie-aware survivors of the MBs that
are not settled, which is what estimate_field scores.

Prints one Markdown table row per clip, in the columns of README.md "Motion
search cost".
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vidconceal.core import MB, Frame  # noqa: E402
from vidconceal.motion import SearchParams, estimate_field  # noqa: E402
from vidconceal.synth import make_sequence  # noqa: E402

P = 7
FRAMES = 7
# (clip, contrast, noise): the rows of README.md "Motion search cost"
ROWS = [
    *(("CIF", 1, a) for a in (0, 1, 2, 3, 5, 8, 16)),
    *(("QCIF", 1, a) for a in (0, 3)),
    *(("CIF", 0.5, a) for a in (2, 5)),
    *(("CIF", 0.25, a) for a in (1, 2, 5)),
    ("CIF", 0.1, 2),
    ("CIF", "white noise", None),
]
CLIPS = {"CIF": (352, 288, 7), "QCIF": (176, 144, 11)}


def clip(name: str, contrast, noise) -> list[np.ndarray]:
    width, height, seed = CLIPS[name]
    rng = np.random.Generator(np.random.PCG64(seed))
    if noise is None:
        return list(rng.integers(0, 256, size=(FRAMES, height, width), dtype=np.uint8))
    frames = []
    for luma in make_sequence(width, height, FRAMES, seed):
        scaled = np.round(128 + contrast * (luma.astype(np.float64) - 128)).astype(np.int16)
        scaled += rng.integers(-noise, noise + 1, size=luma.shape, dtype=np.int16)
        frames.append(np.clip(scaled, 0, 255).astype(np.uint8))
    return frames


def search_order(p: int) -> list[tuple[int, int]]:
    window = [(vx, vy) for vy in range(-p, p + 1) for vx in range(-p, p + 1)]
    return sorted(window, key=lambda v: (abs(v[0]) + abs(v[1]), v[1], v[0]))


def dense_sads(cur: np.ndarray, ref: np.ndarray, p: int) -> np.ndarray:
    """SAD of every (displacement, MB) pair, in search order, by a dense
    search: per vertical shift, the MB rows whose displaced block stays inside
    the frame are one contiguous run of samples, scored against the equally
    long run of ``ref`` (zero-guarded at both ends) for every horizontal
    shift with one subtract, abs and sum over each block's 16 rows, and the
    16-column groups are then summed pairwise into block SADs. 65535 where
    the displaced block leaves the frame, where a run read across a row end.
    """
    h, w = cur.shape
    rows, cols = h // MB, w // MB
    order = search_order(p)
    rank = {v: k for k, v in enumerate(order)}
    x = MB * np.arange(cols) + np.arange(-p, p + 1)[:, None]
    wraps = np.where((x < 0) | (x > w - MB), 0xFFFF, 0).astype(np.uint16)
    a = cur.astype(np.int16).ravel()
    b = np.zeros(p + h * w + p, dtype=np.int16)
    b[p : p + h * w] = ref.ravel()
    sads = np.full((len(order), rows, cols), 0xFFFF, dtype=np.uint16)
    strip = np.empty((rows, 2 * p + 1, w), dtype=np.uint16)
    for vy in range(-p, p + 1):
        r0, r1 = max(0, -(vy // MB)), min(rows, (h - MB - vy) // MB + 1)
        if r0 >= r1:
            continue
        s0, n = MB * r0 * w, MB * (r1 - r0) * w
        for vx in range(-p, p + 1):
            start = p + s0 + vy * w + vx
            d = np.abs(a[s0 : s0 + n] - b[start : start + n]).view(np.uint16)
            np.add.reduce(d.reshape(r1 - r0, MB, w), axis=1, dtype=np.uint16, out=strip[r0:r1, vx + p])
        blocks = strip[r0:r1]
        while blocks.shape[-1] > cols:
            blocks = blocks[..., 0::2] + blocks[..., 1::2]
        np.bitwise_or(blocks, wraps, out=blocks)
        sads[[rank[vx, vy] for vx in range(-p, p + 1)], r0:r1] = blocks.transpose(1, 0, 2)
    return sads


def row_sum_bounds(cur: np.ndarray, ref: np.ndarray, p: int) -> np.ndarray:
    """The row-sum bound of every pair, laid out as ``dense_sads``."""
    h, w = cur.shape
    order = search_order(p)
    out = np.full((len(order), h // MB, w // MB), 0xFFFF, dtype=np.int32)
    for k, (vx, vy) in enumerate(order):
        r0, r1 = max(0, -(vy // MB)), max(0, (h - MB - vy) // MB + 1)
        c0, c1 = max(0, -(vx // MB)), max(0, (w - MB - vx) // MB + 1)
        if r0 < r1 and c0 < c1:
            a = cur[MB * r0 : MB * r1, MB * c0 : MB * c1].reshape(-1, c1 - c0, MB).sum(axis=2, dtype=np.int32)
            b = ref[MB * r0 + vy : MB * r1 + vy, MB * c0 + vx : MB * c1 + vx]
            b = b.reshape(-1, c1 - c0, MB).sum(axis=2, dtype=np.int32)
            out[k, r0:r1, c0:c1] = np.abs(a - b).reshape(r1 - r0, MB, c1 - c0).sum(axis=1)
    return out


def dense_field(cur: np.ndarray, ref: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.array(search_order(p))
    best = dense_sads(cur, ref, p).argmin(axis=0)
    return order[best, 0], order[best, 1]


def counts(cur: np.ndarray, ref: np.ndarray, p: int) -> tuple[int, int, int, int, int]:
    """MBs, settled MBs, in-frame pairs, and the exact SADs two rules score:
    each MB's guess plus every pair with bound <= best0, or each MB's guess
    plus the tie-aware survivors of the MBs not settled."""
    sad = dense_sads(cur, ref, p).reshape(-1, cur.size // MB**2).T.astype(np.int32)
    lb = row_sum_bounds(cur, ref, p).reshape(sad.shape[::-1]).T
    mbs = np.arange(len(sad))
    first = lb.argmin(axis=1)
    best0 = sad[mbs, first][:, None]
    settled = best0[:, 0] == lb[mbs, first]
    rank = np.arange(sad.shape[1])
    survive = ((rank < first[:, None]) & (lb <= best0)) | ((rank > first[:, None]) & (lb < best0))
    n = len(sad)
    return n, int(settled.sum()), int((lb != 0xFFFF).sum()), n + int((lb <= best0).sum()), n + int(survive[~settled].sum())


def fastest(fn, pairs, passes: int) -> float:
    """Fastest of ``passes`` passes over the pairs, in ms per pair."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        for cur, ref in pairs:
            fn(cur, ref)
        best = min(best, (time.perf_counter() - t0) / len(pairs))
    return 1e3 * best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--passes", type=int, default=10, help="timed passes per clip (default: 10)")
    args = ap.parse_args(argv)
    print("| clip | contrast | noise | MBs settled | SADs, bound <= best0 | SADs, tie-aware | dense | search |")
    print("|------|----------|-------|-------------|----------------------|-----------------|-------|--------|")
    params = SearchParams(p=P)
    for name, contrast, noise in ROWS:
        lumas = clip(name, contrast, noise)
        planes = list(zip(lumas[1:], lumas[:-1]))
        frames = [(Frame(cur), Frame(ref)) for cur, ref in planes]
        total = np.zeros(5, dtype=np.int64)
        for (cur, ref), (fc, fr) in zip(planes, frames):
            field = estimate_field(fc, fr, params)
            vx, vy = dense_field(cur, ref, P)
            if not (np.array_equal(field.vx, vx) and np.array_equal(field.vy, vy)):
                raise SystemExit(f"{name} {contrast} {noise}: estimate_field differs from the dense search")
            total += counts(cur, ref, P)
        mbs, settled, pairs, bounded, scored = total
        dense_ms = fastest(lambda cur, ref: dense_field(cur, ref, P), planes, args.passes)
        search_ms = fastest(lambda cur, ref: estimate_field(cur, ref, params), frames, args.passes)
        label = f"{name}, seed {CLIPS[name][2]}" if noise is not None else name
        noise_label = "-" if noise is None else f"+-{noise}" if noise else "0"
        print(f"| {label} | {contrast} | {noise_label} | {100 * settled / mbs:.1f} % | {100 * bounded / pairs:.1f} % "
              f"| {100 * scored / pairs:.1f} % | {dense_ms:.1f} | {search_ms:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
