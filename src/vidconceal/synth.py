"""Deterministic synthetic test sequences.

Real standard sequences are not always at hand, so the harness can generate
its own: a camera pan with piecewise-constant integer velocity over a large
multi-octave value-noise backdrop, with a few independently moving textured
sprites on top. The content is integer-shifted (never resampled), so block
motion between consecutive frames is exactly recoverable, while the texture
is rich enough to make boundary matching non-trivial.
"""

from __future__ import annotations

import argparse

import numpy as np

from .core import MB
from .yuv_io import gray_chroma


def value_noise(height: int, width: int, rng: np.random.Generator,
                octaves=((64, 1.0), (32, 0.6), (16, 0.5), (8, 0.45), (4, 0.4))) -> np.ndarray:
    """Multi-scale smoothed noise in [0, 255], uint8."""
    acc = np.zeros((height, width), dtype=np.float64)
    for cell, amp in octaves:
        grid = rng.random((height // cell + 2, width // cell + 2))
        ys = np.arange(height) / cell
        xs = np.arange(width) / cell
        y0 = ys.astype(int)
        x0 = xs.astype(int)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        fy = fy * fy * (3 - 2 * fy)  # smoothstep
        fx = fx * fx * (3 - 2 * fx)
        # Every image row of a noise cell reads the same two grid rows, so
        # each grid row is blended horizontally once; each sample still goes
        # through the same floating-point operations as a per-pixel blend.
        # The vertical blend runs in place on the two gathered copies, in
        # the order (1 - fy) * lo + fy * hi, then * amp, so it makes no
        # further full-frame temporaries.
        hrow = (1 - fx) * grid[:, x0] + fx * grid[:, x0 + 1]
        lo = hrow[y0]
        lo *= 1 - fy
        hi = hrow[y0 + 1]
        hi *= fy
        lo += hi
        lo *= amp
        acc += lo
    acc -= acc.min()
    peak = acc.max()
    if peak > 0:
        acc *= 255.0 / peak
    return acc.astype(np.uint8)


def _walk(rng: np.random.Generator, frames: int, start: tuple[int, int],
          lo: tuple[int, int], hi: tuple[int, int], vmax: int, hold: int) -> list[tuple[int, int]]:
    """Integer positions following a piecewise-constant random velocity,
    reflecting off the [lo, hi] box."""
    x, y = start
    vx = vy = 0
    out = []
    for t in range(frames):
        if t % hold == 0:
            vx = int(rng.integers(-vmax, vmax + 1))
            vy = int(rng.integers(-vmax, vmax + 1))
        if not lo[0] <= x + vx <= hi[0]:
            vx = -vx
        if not lo[1] <= y + vy <= hi[1]:
            vy = -vy
        x = min(max(x + vx, lo[0]), hi[0])
        y = min(max(y + vy, lo[1]), hi[1])
        out.append((x, y))
    return out


def make_sequence(width: int, height: int, frames: int, seed: int,
                  n_sprites: int = 3, cam_vmax: int = 4, sprite_vmax: int = 3) -> list[np.ndarray]:
    """Luma planes of a panning-camera scene with moving foreground sprites.

    Relative block motion stays within +/-7 pixels per component per frame
    (cam_vmax + sprite_vmax <= 7), the usual full-search window.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, width, height])))
    margin = 8 * (cam_vmax + 1) * max(1, frames // 16)
    world_h, world_w = height + 2 * margin, width + 2 * margin
    world = value_noise(world_h, world_w, rng)

    cam = _walk(rng, frames, (margin, margin),
                (0, 0), (world_w - width, world_h - height), cam_vmax, hold=5)

    sprites = []
    for _ in range(n_sprites):
        side = int(rng.integers(40, 72))
        tex = value_noise(side, side, rng, octaves=((16, 1.0), (8, 0.6), (4, 0.45)))
        # keep sprites distinguishable from the backdrop
        tex = (tex.astype(np.int16) // 2 + int(rng.integers(16, 128))).clip(0, 255).astype(np.uint8)
        start = (int(rng.integers(margin, world_w - width - margin // 2 + margin)),
                 int(rng.integers(margin, world_h - height - margin // 2 + margin)))
        path = _walk(rng, frames, start,
                     (0, 0), (world_w - side, world_h - side), sprite_vmax, hold=4)
        sprites.append((tex, path))

    out = []
    for t in range(frames):
        cx, cy = cam[t]
        canvas = world[cy : cy + height, cx : cx + width].copy()
        for tex, path in sprites:
            sx, sy = path[t]
            fx, fy = sx - cx, sy - cy  # sprite position in frame coordinates
            side = tex.shape[0]
            x0, y0 = max(fx, 0), max(fy, 0)
            x1, y1 = min(fx + side, width), min(fy + side, height)
            if x0 < x1 and y0 < y1:
                canvas[y0:y1, x0:x1] = tex[y0 - fy : y1 - fy, x0 - fx : x1 - fx]
        out.append(canvas)
    return out


def write_i420(path: str, lumas: list[np.ndarray]) -> None:
    """Store luma planes as a raw I420 file with neutral chroma."""
    h, w = lumas[0].shape
    chroma = gray_chroma(w, h)
    with open(path, "wb") as f:
        for luma in lumas:
            f.write(np.ascontiguousarray(luma, dtype=np.uint8).tobytes())
            f.write(chroma)
            f.write(chroma)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="generate a synthetic raw I420 test sequence")
    ap.add_argument("--out", required=True)
    ap.add_argument("--width", type=int, default=352)
    ap.add_argument("--height", type=int, default=288)
    ap.add_argument("--frames", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sprites", type=int, default=3)
    args = ap.parse_args(argv)
    # checked before anything is written, so a bad value leaves no file;
    # open_sequence would reject a clip of any other dimensions
    for flag, value in (("--width", args.width), ("--height", args.height)):
        if value <= 0 or value % MB:
            ap.error(f"{flag} must be a positive multiple of {MB}, got {value}")
    if args.frames < 1:
        ap.error(f"--frames must be at least 1, got {args.frames}")
    if args.sprites < 0:
        ap.error(f"--sprites must be at least 0, got {args.sprites}")
    write_i420(args.out, make_sequence(args.width, args.height, args.frames, args.seed, args.sprites))
    print(f"wrote {args.frames} frames of {args.width}x{args.height} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
