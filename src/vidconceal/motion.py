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

by the triangle inequality. Each MB's guess is its first displacement of
lowest bound, and ``best0`` the exact SAD there. When best0 equals that
bound, the MB is settled: every pair ranked before the guess has a larger
bound, so a larger SAD, and every pair after it has SAD >= bound >= best0,
so at best a tie that the guess wins. The guess is then the vector, proven
with no further SAD. For the other MBs the prune is tie-aware: a pair ranked
before the guess is scored when its bound is <= best0, since an equal SAD
would win the tie-break, and a pair ranked after it only when its bound is
< best0. Every pair that could beat the guess is thus scored exactly, and
the tie-break picks the same vector a full search would.

The bound prunes well only when the residual at the true vector is small
next to the row-sum differences the texture makes at every other
displacement: on textured content with little noise, such as the
benchmark's integer-shifted synthetic clips, most MBs settle and a few
percent of the pairs are scored. A scored pair costs more than a dense SAD
pass spends on one, so on low-contrast noisy content, where most pairs
survive, the search is slower than scoring every pair densely. README.md
lists the measurements, made by tools/me_sweep.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import MB, Frame

# The pairs the bound cannot rule out are scored this many at a time, so the
# gather buffers stay bounded however few pairs it rules out; every chunk but
# a frame's last is full, so they also keep one size.
GATHER = 256


@dataclass(frozen=True)
class SearchParams:
    # search radius, pixels per component; the CLI and ExperimentSpec
    # take their default from this one
    p: int = 7

    def __post_init__(self):
        # bool is an int subclass, and True would search radius 1
        if type(self.p) is not int or self.p < 0:
            raise ValueError(f"search radius p must be an integer >= 0, got {self.p!r}")


@dataclass
class MvField:
    """Per-macroblock motion vectors of one inter frame."""

    vx: np.ndarray  # int16, shape (mb_rows, mb_cols)
    vy: np.ndarray

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=np.int16)
        self.vy = np.asarray(self.vy, dtype=np.int16)
        if self.vx.shape != self.vy.shape or self.vx.ndim != 2:
            raise ValueError("vx/vy must be 2-D grids of equal shape")


def _run_sums(flat: np.ndarray) -> np.ndarray:
    """Sum of the 16 samples from each position of a flat uint16 array on,
    by pairwise doubling; 15 shorter than ``flat``."""
    for k in (1, 2, 4, 8):
        flat = flat[:-k] + flat[k:]
    return flat


def block_rows(plane: np.ndarray) -> np.ndarray:
    """Every 16x16 window of a C-contiguous uint8 plane, by the raster index
    of its top-left pixel, as 16 rows of 16 bytes (``np.void`` items) read
    ``w`` bytes apart: indexing it copies a window as 16 row runs, not 256
    samples, and assigning through it writes the plane."""
    h, w = plane.shape
    return np.ndarray(((h - MB) * w + w - MB + 1, MB), np.dtype((np.void, MB)), plane, strides=(1, w))


def _block_sads(ref_rows: np.ndarray, cur_blocks: np.ndarray) -> np.ndarray:
    """Exact uint16 SADs of reference blocks, gathered as 16 rows of 16
    bytes each (``np.void`` items), against uint8 current blocks of 256
    samples along the last axis, of the same (or a broadcastable) shape."""
    ref_blocks = ref_rows.view(np.uint8)
    d = np.maximum(ref_blocks, cur_blocks)
    d -= np.minimum(ref_blocks, cur_blocks)
    # a block sums to at most 16*16*255 = 65280
    return d.sum(axis=-1, dtype=np.uint16)


def _first_min(a: np.ndarray) -> np.ndarray:
    """Index of the first minimum along the last axis: ``a.argmin(axis=-1)``,
    but about twice as fast on the search's uint16 rows."""
    return (a == a.min(axis=-1, keepdims=True)).argmax(axis=-1)


@lru_cache(maxsize=None)
def _search_order(px: int, py: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The displacements of the window in tie-break order (smallest
    |vx|+|vy|, then vy, then vx): ``rank[vy + py, vx + px]`` is the index of
    (vx, vy) in that order, and ``vx_of``/``vy_of`` map an index back
    (read-only: every search with this window shares them)."""
    vy_grid, vx_grid = np.mgrid[-py : py + 1, -px : px + 1].reshape(2, -1)
    order = np.lexsort((vx_grid, vy_grid, np.abs(vx_grid) + np.abs(vy_grid)))
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    tables = rank.reshape(2 * py + 1, 2 * px + 1), vx_grid[order].astype(np.int16), vy_grid[order].astype(np.int16)
    for t in tables:
        t.flags.writeable = False
    return tables


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
    wraps = np.where((x < 0) | (x > w - MB), 0xFFFF, 0).astype(np.uint16).reshape(-1)
    # row sums are at most 16*255 = 4080, so int16 views of them hold the
    # same values
    guarded = np.zeros(px + h * w + px + MB - 1, dtype=np.uint16)
    guarded[px : px + h * w] = ref.luma.ravel()
    runs = _run_sums(guarded)
    # the nx run sums from each block column on, as one item of 2 nx bytes
    # per (row, MB column), copied in one pass
    windows = np.ndarray(h * cols, np.dtype((np.void, 2 * nx)), runs, strides=(2 * MB,))
    ref_runs = windows.copy().view(np.int16).reshape(h, cols, nx)
    del guarded, runs, windows
    # repeated along vx rather than broadcast: a broadcast subtract runs one
    # short inner loop per (row, MB column), six times slower at p = 7
    cur_runs = _run_sums(cur.luma.ravel().astype(np.uint16))[::MB].reshape(h, cols)
    cur_runs = np.repeat(cur_runs[:, :, None], nx, axis=2).view(np.int16)
    diff = np.empty_like(ref_runs)
    for vy in range(-py, py + 1):
        # MB rows r with 0 <= 16r + vy and 16r + vy + 16 <= h
        r0, r1 = max(0, -(vy // MB)), min(rows, (h - MB - vy) // MB + 1)
        d = diff[: MB * (r1 - r0)]
        np.subtract(cur_runs[MB * r0 : MB * r1], ref_runs[MB * r0 + vy : MB * r1 + vy], out=d)
        np.abs(d, out=d)
        bound = d.view(np.uint16).reshape(r1 - r0, MB, cols * nx).sum(axis=1, dtype=np.uint16)
        np.bitwise_or(bound, wraps, out=bound)
        vol[r0:r1, :, rank[vy + py]] = bound.reshape(r1 - r0, cols, nx)


def estimate_field(cur: Frame, ref: Frame, params: SearchParams = SearchParams()) -> MvField:
    """Minimum-SAD motion vector of every macroblock, by bound-then-verify.

    The row-sum bounds go into one uint16 volume of shape (MBs,
    displacements) whose last axis is in tie-break order (smallest |vx|+|vy|,
    then vy, then vx); pairs whose displaced block leaves the frame hold
    65535, above the largest SAD 65280, and (0, 0) is always inside the
    frame. Each MB's guess is the first minimum along its row, and ``best0``
    the exact SAD there. A settled MB, whose ``best0`` equals the guess's
    bound, takes the guess. For every other MB the pairs that survive the
    tie-aware prune (ranked before the guess with bound <= best0, or after
    it with bound < best0) are scored exactly, and the MB takes the pair of
    smallest SAD * n + rank among them and the guess.

    The unsettled MBs are pruned in groups of about ``16 * GATHER`` pairs,
    and the survivors of all groups scored in one stream of ``GATHER``
    blocks per chunk, so only the frame's last chunk is shorter. A scored
    block of ``ref`` is gathered as 16 rows of 16 bytes, ``np.void`` items
    of a view of every 16x16 window of the C-contiguous uint8 plane, not as
    256 separate samples, and scored in uint8 against one contiguous copy of
    the current blocks.
    """
    if cur.luma.shape != ref.luma.shape:
        raise ValueError("current and reference frames must have equal dimensions")
    rows, cols = cur.mb_rows, cur.mb_cols
    w, h = cur.width, cur.height
    # a component beyond the frame size minus one block leaves it for every MB
    px, py = min(params.p, w - MB), min(params.p, h - MB)
    rank, vx_of, vy_of = _search_order(px, py)
    n = vx_of.size
    vol = np.full((rows, cols, n), 0xFFFF, dtype=np.uint16)
    _fill_bounds(vol, cur, ref, px, py, rank)
    vol = vol.reshape(rows * cols, n)

    # the window of ref at an MB's corner plus a displacement's shift; a
    # Frame may hold a view, whose rows are not w bytes apart
    windows = block_rows(np.ascontiguousarray(ref.luma))
    cur_blocks = cur.luma.reshape(rows, MB, cols, MB).transpose(0, 2, 1, 3).reshape(rows, cols, MB * MB)
    corners = MB * (w * np.arange(rows)[:, None] + np.arange(cols))
    shift = vy_of.astype(np.intp) * w + vx_of
    first = _first_min(vol)
    best0 = _block_sads(windows[corners + shift[first.reshape(rows, cols)]], cur_blocks).reshape(-1)

    unsettled = np.flatnonzero(best0 != vol[np.arange(rows * cols), first])
    # key = SAD * n + rank of the best pair found so far: the smallest key
    # has the smallest SAD, and on a tie the lowest rank
    key = best0[unsettled].astype(np.int64) * n + first[unsettled]
    corner = corners.reshape(-1)[unsettled]
    blocks = cur_blocks.reshape(rows * cols, MB * MB)[unsettled]  # contiguous, so cheap to gather from
    # MBs pruned at a time: on noise nearly every pair survives, and the
    # queue grows with the group's pairs
    group = max(1, 16 * GATHER // n)
    ranks = np.arange(n)
    # the pairs still to score, as p * n + i: p the MB's position in
    # unsettled, i the pair's rank
    queue = np.empty(0, dtype=np.intp)
    for s in range(0, unsettled.size, group):
        g = unsettled[s : s + group]
        limit = np.add(best0[g, None], ranks < first[g, None], dtype=np.uint16)
        limit[np.arange(g.size), first[g]] = 0  # the guess is scored already
        keep = np.flatnonzero(vol[g] < limit)
        queue = np.concatenate((queue, keep + s * n))
        done = queue.size if s + group >= unsettled.size else queue.size - queue.size % GATHER
        for t in range(0, done, GATHER):
            p, i = np.divmod(queue[t : t + GATHER], n)
            sads = _block_sads(windows[corner[p] + shift[i]], blocks[p])
            np.minimum.at(key, p, np.multiply(sads, n, dtype=np.int64) + i)
        queue = queue[done:]

    first[unsettled] = key % n
    best = first.reshape(rows, cols)
    return MvField(vx_of[best], vy_of[best])


def save_mv_fields(fields: Iterable[MvField], path: str) -> None:
    """CSV serialization: one line per MB in raster order per frame, the
    fields numbered 1, 2, ... in the order given, as the inter frames of a
    sequence are. The package writes this file but never reads it back."""
    with open(path, "w", newline="") as f:
        f.write("frame_index,mb_col,mb_row,vx,vy\n")
        for t, fld in enumerate(fields, start=1):
            for row, (xs, ys) in enumerate(zip(fld.vx.tolist(), fld.vy.tolist())):
                for col, (vx, vy) in enumerate(zip(xs, ys)):
                    f.write(f"{t},{col},{row},{vx},{vy}\n")
