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

    For each in-window displacement (vx, vy) the int16 absolute difference of
    ``cur`` and the shifted ``ref`` is taken over the MB rows and columns whose
    displaced block stays inside the frame, and summed per 16x16 block (the
    16 pixel rows first, then the 16 columns) into a uint16 SAD volume of
    shape (displacements, mb_rows, mb_cols). Displacements that leave the
    frame keep the fill value 65535, above the largest SAD 16*16*255 = 65280.
    The displacements are laid out in tie-break order (smallest |vx|+|vy|,
    then vy, then vx), so the first minimum along that axis favors the zero
    vector in flat regions; (0, 0) is always inside the frame.
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

    a = cur.luma.astype(np.int16)
    b = ref.luma.astype(np.int16)
    sads = np.full((len(order), rows, cols), np.iinfo(np.uint16).max, dtype=np.uint16)
    diff = np.empty(h * w, dtype=np.int16)
    for k, (vx, vy) in enumerate(order):
        # MB columns c with 0 <= 16c + vx and 16c + vx + 16 <= w; rows alike
        c0, c1 = max(0, -(vx // MB)), min(cols, (w - MB - vx) // MB + 1)
        r0, r1 = max(0, -(vy // MB)), min(rows, (h - MB - vy) // MB + 1)
        x0, x1, y0, y1 = MB * c0, MB * c1, MB * r0, MB * r1
        d = diff[: (y1 - y0) * (x1 - x0)].reshape(y1 - y0, x1 - x0)
        np.subtract(a[y0:y1, x0:x1], b[y0 + vy : y1 + vy, x0 + vx : x1 + vx], out=d)
        np.abs(d, out=d)
        # non-negative, so the uint16 view holds the same values; a block
        # column sums to at most 16*255 and a block to at most 65280
        col_sums = np.add.reduce(d.view(np.uint16).reshape(r1 - r0, MB, x1 - x0), axis=1, dtype=np.uint16)
        np.add.reduce(
            col_sums.reshape(r1 - r0, c1 - c0, MB), axis=2, dtype=np.uint16, out=sads[k, r0:r1, c0:c1]
        )

    best = sads.argmin(axis=0)
    vx_of, vy_of = np.array(order, dtype=np.int16).T
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
