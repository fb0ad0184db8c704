"""Exhaustive-search block motion estimation against the previous frame.

This models the encoder side: every inter frame gets one motion vector per
macroblock, the displacement of minimum SAD (sum of absolute differences)
within a square window of radius ``p``. Ties go to the smallest |vx|+|vy|,
then the smallest vy, then the smallest vx, which favors the zero vector in
flat regions. Displacements that would push the block outside the reference
are excluded from the search, so every stored vector can be applied for
motion compensation without any edge handling.

The search is exact but does not compute every SAD. It is the successive
elimination algorithm (Li & Salari, IEEE TIP 4(1), 1995): a cheap lower bound
on the SAD of every (displacement, macroblock) pair rules most pairs out, and
the exact SAD is computed only for the pairs the bound cannot rule out. The
bound is the row-sum bound: with R(y, x) the sum of the 16 samples of row y
starting at column x,

    LB = sum over the block's 16 rows of |R_cur - R_ref|  <=  SAD

by the triangle inequality. Each MB's first guess ``best0`` is the exact SAD
at its displacement of lowest bound. A pair with LB > best0 has SAD > best0
>= the minimum, so it can never win; every pair with LB <= best0 is
verified, ties with ``best0`` included, so every displacement of minimum SAD
is scored exactly and the tie-break picks the same vector a full search
would.

How many pairs the bound rules out depends on the content: it prunes well
when the residual at the true vector is small next to the row-sum
differences the texture makes at every other displacement, that is, on
textured content with little noise. The benchmark's synthetic clips are
integer-shifted and noise-free, so the residual at the true vector is zero:
3-10 % of the in-frame pairs are verified, and 5-12 % with +-1-3 levels of
added noise. A verified pair costs about four times what a dense SAD pass
spent on it, so past about 20 % survivors the search is slower than scoring
every pair densely: low-contrast noisy content (a quarter of the clips'
contrast with +-2 noise: 28 %) and white noise (about 91 %, four times as
slow). README.md lists the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import MB, Frame, MbAddress, MotionVector

# Verified pairs are scored this many at a time, so the buffers of the verify
# step stay bounded however few pairs the bound rules out.
GATHER = 256


@dataclass(frozen=True)
class SearchParams:
    p: int = 7  # search radius, pixels per component

    def __post_init__(self):
        # bool is an int subclass, and True would search radius 1
        if type(self.p) is not int or self.p < 0:
            raise ValueError(f"search radius p must be an integer >= 0, got {self.p!r}")


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


def _run_sums(flat: np.ndarray) -> np.ndarray:
    """Sum of the 16 samples from each position of a flat uint16 array on,
    by pairwise doubling; 15 shorter than ``flat``."""
    for k in (1, 2, 4, 8):
        flat = flat[:-k] + flat[k:]
    return flat


def _block_sads(ref_blocks, cur_blocks, ys, xs, rs, cs) -> np.ndarray:
    """Exact uint16 SADs of the current blocks at MB (cs, rs) against the
    reference blocks whose top-left pixels are (xs, ys)."""
    d = np.subtract(ref_blocks[ys, xs], cur_blocks[rs, cs], dtype=np.int16)
    np.abs(d, out=d)
    # non-negative, so the uint16 view holds the same values; a block sums to
    # at most 16*16*255 = 65280
    return d.view(np.uint16).sum(axis=(-2, -1), dtype=np.uint16)


def _fill_bounds(vol: np.ndarray, cur: Frame, ref: Frame, px: int, py: int, rank: np.ndarray) -> None:
    """Write the row-sum bound of every pair whose displaced block stays
    inside the frame into ``vol``; ``rank[vy + py, vx + px]`` is the index of
    (vx, vy) along its last axis.

    The row sums of ``ref`` at every column, taken over its flat raster
    with ``px`` zero guards at each end, are laid out as (row, MB column,
    vx), and those of ``cur`` at the block origins are repeated along vx.
    So per vy, the MB rows whose displaced block stays inside the frame
    vertically take one contiguous subtract, one abs and one sum over each
    block's 16 rows, for every vx and MB at once, on 16 times less data than
    the SADs. Where the block leaves the frame sideways its row sums read
    across a row end or into a guard; a precomputed (MB column, vx) mask
    sets those pairs to 65535.
    """
    rows, cols, w, h = cur.mb_rows, cur.mb_cols, cur.width, cur.height
    nx = 2 * px + 1
    # 65535 where the block at MB column c displaced by vx leaves the frame
    x = MB * np.arange(cols)[:, None] + np.arange(-px, px + 1)
    wraps = np.where((x < 0) | (x > w - MB), 0xFFFF, 0).astype(np.uint16)
    # row sums are at most 16*255 = 4080, so int16 views of them hold the
    # same values
    guarded = np.zeros(px + h * w + px + MB - 1, dtype=np.uint16)
    guarded[px : px + h * w] = ref.luma.ravel()
    runs = _run_sums(guarded)
    ref_runs = np.ascontiguousarray(sliding_window_view(runs, nx)[::MB]).reshape(h, cols, nx).view(np.int16)
    del guarded, runs
    # repeated along vx rather than broadcast: a broadcast subtract runs one
    # short inner loop per (row, MB column), six times slower at p = 7
    cur_runs = cur.luma.reshape(h, cols, MB).sum(axis=2, dtype=np.uint16)
    cur_runs = np.repeat(cur_runs[:, :, None], nx, axis=2).view(np.int16)
    diff = np.empty_like(ref_runs)
    for vy in range(-py, py + 1):
        # MB rows r with 0 <= 16r + vy and 16r + vy + 16 <= h
        r0, r1 = max(0, -(vy // MB)), min(rows, (h - MB - vy) // MB + 1)
        d = diff[: MB * (r1 - r0)]
        np.subtract(cur_runs[MB * r0 : MB * r1], ref_runs[MB * r0 + vy : MB * r1 + vy], out=d)
        np.abs(d, out=d)
        bound = np.add.reduce(d.view(np.uint16).reshape(r1 - r0, MB, cols, nx), axis=1, dtype=np.uint16)
        np.bitwise_or(bound, wraps, out=bound)
        vol[r0:r1, :, rank[vy + py]] = bound


def estimate_field(cur: Frame, ref: Frame, params: SearchParams = SearchParams(), frame_index: int = 1) -> MvField:
    """Minimum-SAD motion vector of every macroblock, by bound-then-verify.

    All scores go into one uint16 volume of shape (mb_rows, mb_cols,
    displacements) whose last axis is in tie-break order (smallest |vx|+|vy|,
    then vy, then vx), so the first minimum along it is the vector, and the
    argmin reads the volume in place; (0, 0) is always inside the frame.
    Pairs whose displaced block leaves the frame hold 65535, above the
    largest SAD 65280.

    The volume first holds the row-sum bounds. ``best0`` is the exact SAD at
    each MB's first displacement of lowest bound. Then, per MB row, whose
    pairs are one contiguous slice, the pairs with bound <= best0 are scored
    exactly, ``GATHER`` blocks at a time, and every other pair of the row is
    set to 65535.
    """
    if cur.luma.shape != ref.luma.shape:
        raise ValueError("current and reference frames must have equal dimensions")
    rows, cols = cur.mb_rows, cur.mb_cols
    w, h = cur.width, cur.height
    # a component beyond the frame size minus one block leaves it for every MB
    px, py = min(params.p, w - MB), min(params.p, h - MB)
    nx = 2 * px + 1
    vy_grid, vx_grid = np.mgrid[-py : py + 1, -px : px + 1].reshape(2, -1)
    order = np.lexsort((vx_grid, vy_grid, np.abs(vx_grid) + np.abs(vy_grid)))
    n = order.size
    vx_of, vy_of = vx_grid[order].astype(np.int16), vy_grid[order].astype(np.int16)
    # rank[vy + py, vx + px]: where (vx, vy) lies along the volume's last axis
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rank = rank.reshape(2 * py + 1, nx)
    vol = np.full((rows, cols, n), 0xFFFF, dtype=np.uint16)
    _fill_bounds(vol, cur, ref, px, py, rank)

    cur_blocks = np.ascontiguousarray(cur.luma.reshape(rows, MB, cols, MB).transpose(0, 2, 1, 3))
    ref_blocks = sliding_window_view(ref.luma, (MB, MB))
    first = vol.argmin(axis=-1)
    r_, c_ = np.indices((rows, cols))
    best0 = _block_sads(ref_blocks, cur_blocks, MB * r_ + vy_of[first], MB * c_ + vx_of[first], r_, c_)
    for r in range(rows):
        row = vol[r]
        keep = np.flatnonzero(row <= best0[r, :, None])
        row.fill(0xFFFF)
        flat = row.reshape(-1)
        for s in range(0, keep.size, GATHER):
            k = keep[s : s + GATHER]
            c, i = np.divmod(k, n)
            flat[k] = _block_sads(ref_blocks, cur_blocks, MB * r + vy_of[i], MB * c + vx_of[i], r, c)

    best = vol.argmin(axis=-1)
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
