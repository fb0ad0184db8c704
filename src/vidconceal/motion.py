"""Exhaustive-search block motion estimation against the previous frame.

This models the encoder side: every inter frame gets one motion vector per
macroblock, the displacement of minimum SAD (sum of absolute differences)
within a square window of radius ``p``. The search runs frame-wide: one
vectorised pass per displacement scores every macroblock at once, and a
single argmin over the resulting SAD volume picks each block's vector. Ties
go to the smallest |vx|+|vy|, then the smallest vy, then the smallest vx,
which favors the zero vector in flat regions. Displacements that would push
the block outside the reference are excluded from the search, so every
stored vector can be applied for motion compensation without any edge
handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import MB, Frame, MbAddress, MotionVector


@dataclass(frozen=True)
class SearchParams:
    p: int = 7  # search radius, pixels per component

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("search radius must be >= 0")


@dataclass
class MvField:
    """Per-macroblock motion vectors of one inter frame (frame_index >= 1)."""

    frame_index: int
    vx: np.ndarray  # int16, shape (mb_rows, mb_cols)
    vy: np.ndarray

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=np.int16)
        self.vy = np.asarray(self.vy, dtype=np.int16)
        if self.vx.shape != self.vy.shape or self.vx.ndim != 2:
            raise ValueError("vx/vy must be 2-D grids of equal shape")

    @property
    def mb_cols(self) -> int:
        return self.vx.shape[1]

    @property
    def mb_rows(self) -> int:
        return self.vx.shape[0]

    def mv_at(self, mb: MbAddress) -> MotionVector:
        return MotionVector(self.vx.item(mb.row, mb.col), self.vy.item(mb.row, mb.col))


def estimate_field(cur: Frame, ref: Frame, params: SearchParams = SearchParams(), frame_index: int = 1) -> MvField:
    """Minimum-SAD motion vector of every macroblock, by one frame-wide pass
    per displacement.

    ``cur`` is held as a flat int16 plane and ``ref`` as a flat int16 plane
    with ``px`` zero guard samples at each end, so the samples of ``ref``
    displaced by (vx, vy) under a run of whole ``cur`` rows are one contiguous
    run too. For each in-window displacement, the MB rows whose displaced
    block stays inside the frame vertically are taken as one such run: one
    subtract, one abs and one sum over each block's 16 pixel rows, into a
    strip of column sums kept per vy for every vx. Once per vy, the strip's
    16-column groups are summed pairwise into the blocks' SADs for all vx at
    once. Where the displaced block leaves the frame sideways, its run
    wrapped across a row end (or into a guard); a precomputed (vx, MB column)
    mask sets those blocks to 65535, above the largest SAD 16*16*255 = 65280,
    as are the MB rows a displacement pushes out of the frame.

    The SADs go straight into a uint16 volume of shape (displacements,
    mb_rows, mb_cols) whose first axis is in tie-break order (smallest
    |vx|+|vy|, then vy, then vx), so the first minimum along it favors the
    zero vector in flat regions; (0, 0) is always inside the frame.
    """
    if cur.luma.shape != ref.luma.shape:
        raise ValueError("current and reference frames must have equal dimensions")
    rows, cols = cur.mb_rows, cur.mb_cols
    w, h = cur.width, cur.height
    # a component beyond the frame size minus one block leaves it for every MB
    px, py = min(params.p, w - MB), min(params.p, h - MB)
    order = sorted(
        ((vx, vy) for vy in range(-py, py + 1) for vx in range(-px, px + 1)),
        key=lambda v: (abs(v[0]) + abs(v[1]), v[1], v[0]),
    )
    vx_of, vy_of = np.array(order, dtype=np.int16).T
    # rank[vy + py, vx + px]: where (vx, vy) lies along the volume's first axis
    rank = np.empty((2 * py + 1, 2 * px + 1), dtype=np.intp)
    rank[vy_of + py, vx_of + px] = np.arange(len(order))
    # 65535 where the block at MB column c displaced by vx leaves the frame
    x = MB * np.arange(cols) + np.arange(-px, px + 1)[:, None]
    wraps = np.where((x < 0) | (x > w - MB), 0xFFFF, 0).astype(np.uint16)

    a = cur.luma.astype(np.int16).ravel()
    b = np.zeros(px + h * w + px, dtype=np.int16)
    b[px : px + h * w] = ref.luma.ravel()
    sads = np.full((len(order), rows, cols), 0xFFFF, dtype=np.uint16)
    diff = np.empty(h * w, dtype=np.int16)
    strip = np.empty((rows, 2 * px + 1, w), dtype=np.uint16)
    for vy in range(-py, py + 1):
        # MB rows r with 0 <= 16r + vy and 16r + vy + 16 <= h
        r0, r1 = max(0, -(vy // MB)), min(rows, (h - MB - vy) // MB + 1)
        s0, n = MB * r0 * w, MB * (r1 - r0) * w
        run, d = a[s0 : s0 + n], diff[:n]
        for vx in range(-px, px + 1):
            start = px + s0 + vy * w + vx
            np.subtract(run, b[start : start + n], out=d)
            np.abs(d, out=d)
            # non-negative, so the uint16 view holds the same values; a block
            # column sums to at most 16*255 and a block to at most 65280
            np.add.reduce(
                d.view(np.uint16).reshape(r1 - r0, MB, w), axis=1, dtype=np.uint16, out=strip[r0:r1, vx + px]
            )
        blocks = strip[r0:r1]
        while blocks.shape[-1] > cols:
            blocks = blocks[..., 0::2] + blocks[..., 1::2]
        np.bitwise_or(blocks, wraps, out=blocks)
        sads[rank[vy + py], r0:r1] = blocks.transpose(1, 0, 2)

    best = sads.argmin(axis=0)
    return MvField(frame_index, vx_of[best], vy_of[best])


def save_mv_fields(fields: Iterable[MvField], path: str) -> None:
    """CSV serialization: one line per MB in raster order per frame. The
    package writes this file but never reads it back."""
    with open(path, "w", newline="") as f:
        f.write("frame_index,mb_col,mb_row,vx,vy\n")
        for fld in fields:
            for row, (xs, ys) in enumerate(zip(fld.vx.tolist(), fld.vy.tolist())):
                for col, (vx, vy) in enumerate(zip(xs, ys)):
                    f.write(f"{fld.frame_index},{col},{row},{vx},{vy}\n")
