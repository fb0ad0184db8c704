"""Motion-vector recovery for damaged macroblocks.

A damaged MB is reconstructed by copying the reference-frame block displaced
by an estimated motion vector. Candidates are scored by boundary matching:

* classic criterion (``bma``): SAD between each candidate block's inner
  boundary in the reference frame and the damaged MB's outer boundary in the
  current frame;
* additional-boundary criterion: SAD between that same inner boundary and
  the outer boundary of the motion-compensated neighbor MB, both read from
  the reference frame. With locally coherent motion the two segments are
  adjacent rows/columns of the same object, so the matching distortion of
  the true vector is near zero regardless of texture;
* adaptive combination (``ebmc``): per boundary side, the smaller of the two
  criteria that are available, summed over sides.

Every per-side value is kept in SIDES order (top, bottom, left, right), and
so is a damaged MB's neighbor context: each 4-neighbor's motion vector, or
None where the neighbor is off-frame or still damaged. The candidate
builder, the ``avg``/``median`` modes and the scorer all read that one
tuple. An outer boundary needs no bounds check of its own: the neighbor
that owns it lies in the frame exactly when its adjacent row or column
does.

Damaged MBs are concealed in priority order: most available 4-neighbors
first, ties in raster order, and each concealment at once raises the count
of its damaged neighbors, so blocks with weak context wait until their
context has been rebuilt. The schedule reads the status grid alone, never
a pixel or a vector, so ``conceal_order`` drains it once into the raster
indices of its pops, and every mode that conceals the grid walks that one
order; ``conceal_frame`` raises unless the order names exactly the grid's
Damaged MBs.

No mode reads a pixel of a current-frame MB that is still lost. ``bma``
and ``ebmc`` copy each block as they choose it, because the MBs concealed
after it score their boundaries against its pixels. ``tr``, ``avg`` and
``median`` choose their vectors without reading a pixel, so their blocks
are written in one copy after the choice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    MB,
    SIDES,
    Frame,
    MbAddress,
    MbState,
    MotionVector,
    ZERO_MV,
)
from .motion import MvField, block_rows

MODES = ("tr", "avg", "median", "bma", "ebmc")

CandidateSet = list[MotionVector]
# A damaged MB's 4-neighbors in SIDES order: each one's motion vector, None
# where the neighbor is off-frame or still damaged.
NeighborContext = tuple[Optional[MotionVector], ...]

# Inner boundary of a 16x16 block, one row per side in SIDES order, as
# (row, column) offsets from the block's top-left pixel.
_RUN = np.arange(MB)
_DY = np.array([[0] * MB, [MB - 1] * MB, _RUN, _RUN])
_DX = np.array([_RUN, _RUN, [0] * MB, [MB - 1] * MB])
# First and last pixel of each of those boundaries, as (dx0, dy0, dx1, dy1).
_ENDS = tuple((int(dx[0]), int(dy[0]), int(dx[-1]), int(dy[-1])) for dx, dy in zip(_DX, _DY))


@lru_cache(maxsize=None)
def _flat_offsets(width: int) -> np.ndarray:
    """The 4 x 16 inner-boundary offsets as raster offsets into a plane of
    the given width (read-only: every caller shares it)."""
    offsets = _DY * width + _DX
    offsets.flags.writeable = False
    return offsets


@lru_cache(maxsize=8)
def _mb_addresses(cols: int, rows: int) -> tuple[MbAddress, ...]:
    """Every MB address of a cols x rows grid, by raster index (shared by
    every caller: an MbAddress is immutable)."""
    return tuple(MbAddress(col, row) for row in range(rows) for col in range(cols))


# Cost added to a side's SAD where its boundary is absent: above any SAD
# (16 * 255), and small enough that the int16 sums cannot overflow.
_ABSENT = 1 << 14
_ONES = np.ones(MB, dtype=np.int16)


def _pattern(bits: int) -> tuple[tuple[tuple[bool, ...], ...], np.ndarray, np.ndarray, int]:
    """For one presence pattern of a damaged MB's boundaries (bit k: the
    outer boundary of side k, bit 4 + k: its additional boundary): the
    presence flags of the outer and the additional boundaries and of the
    sides that have either, the 2 x 4 cost of the targets, the scored sides
    as 0/1, and the number of sides with neither."""
    outer, addl = (tuple(bool(bits >> (4 * t + k) & 1) for k in range(4)) for t in range(2))
    scored = tuple(a or b for a, b in zip(outer, addl))
    cost = np.array([[0 if p else _ABSENT for p in row] for row in (outer, addl)], dtype=np.int16)
    return (outer, addl, scored), cost, np.array(scored, dtype=np.int16), scored.count(False)


_PATTERNS = [_pattern(bits) for bits in range(256)]
_DAMAGED, _CONCEALED = MbState.DAMAGED, MbState.CONCEALED
_new = tuple.__new__


def neighbor_context(state: list[int], vx: list[int], vy: list[int], index: int, cols: int) -> NeighborContext:
    """Motion vector of each 4-neighbor of the MB at raster index ``index``
    (``row * cols + col``) in SIDES order, None where that side is
    unavailable.

    ``state``, ``vx`` and ``vy`` are a frame's status grid and working MV
    field as flat lists by raster index. A side is available iff the
    neighbor exists in-frame and is Correct or Concealed; a still-Damaged
    neighbor has lost both pixels and vector. An available neighbor's vector
    is the transmitted one of a Correct MB or the recovered one of a
    Concealed MB. A step up or down off the grid leaves the list's range,
    and a step left from column 0 or right from the last column is guarded,
    since in a flat list it would land on the next row.
    """
    col = index % cols
    up, down, left, right = index - cols, index + cols, index - 1, index + 1
    # _new(MotionVector, (x, y)) is MotionVector(x, y) without the Python
    # call of the named tuple's own __new__.
    return (
        _new(MotionVector, (vx[up], vy[up])) if up >= 0 and state[up] != _DAMAGED else None,
        _new(MotionVector, (vx[down], vy[down])) if down < len(state) and state[down] != _DAMAGED else None,
        _new(MotionVector, (vx[left], vy[left])) if col and state[left] != _DAMAGED else None,
        _new(MotionVector, (vx[right], vy[right])) if col + 1 < cols and state[right] != _DAMAGED else None,
    )


@dataclass
class BoundaryDistortion:
    """Score of the winning candidate vector: its total, the sum of its
    classic distortions that are present, and the sides with no distortion
    in ``chosen``. Per side in SIDES order it keeps the classic, additional
    and chosen distortions as plain rows with their presence flags, and
    ``classic``, ``proposed`` and ``chosen`` build the per-side dicts (None
    where absent) only when read."""

    total: int
    classic_total: int
    sides_absent: int
    collocated_fallback: bool = False
    # rows of 4 in SIDES order: classic, additional, chosen
    side_sads: tuple[Sequence[int], ...] = ((0,) * 4,) * 3
    present: tuple[tuple[bool, ...], ...] = ((False,) * 4,) * 3

    @classmethod
    def empty(cls) -> "BoundaryDistortion":
        return cls(0, 0, 4)

    def _sides(self, t: int) -> dict[str, int | None]:
        return {side: v if p else None for side, v, p in zip(SIDES, self.side_sads[t], self.present[t])}

    @property
    def classic(self) -> dict[str, int | None]:
        return self._sides(0)

    @property
    def proposed(self) -> dict[str, int | None]:
        return self._sides(1)

    @property
    def chosen(self) -> dict[str, int | None]:
        return self._sides(2)


def select_mv(
    cur: Frame,
    ref: Frame,
    ref_status: np.ndarray,
    mb: MbAddress,
    candidates: CandidateSet,
    ctx: NeighborContext,
    mode: str,
) -> tuple[MotionVector, BoundaryDistortion]:
    """Score every feasible candidate and return the first one attaining the
    minimal total distortion (earlier candidates win ties).

    Candidates whose displaced block leaves the reference frame are skipped;
    if that removes every candidate, the zero vector is returned unscored.

    The outer boundary of side k, read from the current frame, is present
    when ``ctx`` names that neighbor and the neighbor lies in the frame. The
    additional boundary, read from the reference (ebmc only), is present
    when ``ctx`` names the neighbor, the segment its vector points at stays
    in the reference and no concealed reference MB lies under either end of
    it. When the MB collocated with the damaged one was concealed in the
    reference, the additional boundaries are distrusted wholesale.
    """
    if mode not in ("bma", "ebmc"):
        raise ValueError(f"select_mv mode must be bma or ebmc, got {mode!r}")
    if cur.luma.shape != ref.luma.shape:
        raise ValueError("current and reference frames must have equal dimensions")
    i, j = mb.origin()
    h, w = ref.luma.shape
    origin = j * w + i
    # Raster offset of each kept candidate's block, once per side.
    kept: list[MotionVector] = []
    flat: list[int] = []
    for mv in candidates:
        vx, vy = mv
        if 0 <= i + vx <= w - MB and 0 <= j + vy <= h - MB:
            kept.append(mv)
            flat += [origin + vy * w + vx] * 4
    if not kept:
        return ZERO_MV, BoundaryDistortion.empty()

    # Target starts: the outer row, then (ebmc without fallback) the
    # additional row, an absent target at 0; the presence bits follow
    # _PATTERNS. The outer boundary of side k is the inner boundary of the
    # damaged MB moved one pixel toward that neighbor, so it starts one row
    # or column off the MB's origin.
    top, bottom, left, right = ctx
    has_t = top is not None and j > 0
    has_b = bottom is not None and j + MB < h
    has_l = left is not None and i > 0
    has_r = right is not None and i + MB < w
    flat += [
        origin - w if has_t else 0, origin + w if has_b else 0,
        origin - 1 if has_l else 0, origin + 1 if has_r else 0,
    ]
    bits = has_t | has_b << 1 | has_l << 2 | has_r << 3
    fallback = mode == "ebmc" and ref_status.item(mb.row, mb.col) == MbState.CONCEALED
    addl = mode == "ebmc" and not fallback
    if addl:
        # The additional boundary of side k is the inner boundary of the
        # block the neighbor's own vector points at, so it coincides with
        # the candidate's when the candidate vector equals the neighbor's.
        for side, (nmv, (dx0, dy0, dx1, dy1)) in enumerate(zip(ctx, _ENDS)):
            start = 0
            if nmv is not None:
                x, y = i + nmv[0], j + nmv[1]
                x0, y0, x1, y1 = x + dx0, y + dy0, x + dx1, y + dy1
                if (
                    x0 >= 0 and y0 >= 0 and x1 < w and y1 < h
                    and ref_status.item(y0 // MB, x0 // MB) != MbState.CONCEALED
                    and ref_status.item(y1 // MB, x1 // MB) != MbState.CONCEALED
                ):
                    start = y * w + x
                    bits |= 16 << side
            flat.append(start)
    (outer, additional, scored), cost, scored_01, absent = _PATTERNS[bits]

    # One gather of every boundary from the reference, (K + T) x 4 x 16:
    # the K candidates' inner boundaries, then the T target rows. The outer
    # row is then read again from the current frame.
    index = np.array(flat).reshape(-1, 4, 1) + _flat_offsets(w)
    samples = ref.luma.take(index)
    k = len(kept)
    samples[k] = cur.luma.take(index[k])
    inner, targets = samples[:k], samples[k:]

    diff = np.subtract(inner[:, None], targets, dtype=np.int16)
    sads = np.abs(diff, out=diff) @ _ONES  # K x T x 4; at most 16 * 255
    # K x 4; only the scored sides count, and only they are reported.
    per_side = (sads + cost).min(axis=1) if addl else sads[:, 0]
    totals = per_side @ scored_01
    best = int(totals.argmin()) if k > 1 else 0

    # Without additional boundaries the last row is the outer one, and
    # ``additional`` marks none of it.
    side_sads = sads[best].tolist()
    dist = BoundaryDistortion(
        int(totals[best]), sum(compress(side_sads[0], outer)), absent, fallback,
        (side_sads[0], side_sads[-1], per_side[best].tolist()), (outer, additional, scored),
    )
    return kept[best], dist


def _round_half_away(num: int, den: int) -> int:
    """Round num/den half away from zero (den > 0)."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def mean_mv(mvs: list[MotionVector]) -> MotionVector:
    sx = sy = 0
    for x, y in mvs:
        sx += x
        sy += y
    n = len(mvs)
    return MotionVector(_round_half_away(sx, n), _round_half_away(sy, n))


def median_mv(mvs: list[MotionVector]) -> MotionVector:
    """Component-wise median; an even count averages the two middle values,
    rounded half away from zero."""
    xs, ys = map(sorted, zip(*mvs))
    lo, hi = (len(xs) - 1) // 2, len(xs) // 2
    return MotionVector(_round_half_away(xs[lo] + xs[hi], 2), _round_half_away(ys[lo] + ys[hi], 2))


def build_candidates(collocated: MotionVector, ctx: NeighborContext) -> CandidateSet:
    """Ordered, deduplicated candidate vectors for one damaged MB.

    Order is normative (it breaks score ties): zero, the collocated vector
    of the previous frame's field, the four neighbor vectors, then the mean
    and the median of the available neighbor vectors. A repeated vector
    keeps its first position. Vectors from still-damaged neighbors never
    enter the set.
    """
    mvs = [mv for mv in ctx if mv is not None]
    summaries = (mean_mv(mvs), median_mv(mvs)) if mvs else ()
    return list(dict.fromkeys((ZERO_MV, collocated, *mvs, *summaries)))


class PrioritySchedule:
    """Dynamic concealment order: damaged MBs keyed by how many of their
    4-neighbors are currently available (Correct or Concealed).

    extract() pops the highest count, breaking ties in raster order, and
    returns the MB's raster index ``row * cols + col`` (-1 once none is
    left); on_concealed(index) bumps the count of every remaining damaged
    4-neighbor of that MB by exactly one. The live count of every MB still
    to be concealed is kept by raster index. Next to it sit five buckets, one
    per count 0-4, each a heap of raster indices. A bump pushes the MB into
    its new bucket and leaves the old entry behind; extract() drops such
    stale entries, whose count no longer matches their bucket, as it meets
    them. Counts only rise, so each MB leaves at most four stale entries.

    The starting counts are one sum of four shifted views of the
    availability grid with a border of zeros, so an out-of-frame neighbor
    counts as unavailable; one raster pass over the damaged MBs then fills
    the buckets, each of which starts out sorted and so is already a heap.
    """

    def __init__(self, status: np.ndarray):
        rows, cols = status.shape
        self._cols = cols
        damaged = status == MbState.DAMAGED
        avail = np.zeros((rows + 2, cols + 2), dtype=np.int8)
        avail[1:-1, 1:-1] = ~damaged
        neigh = avail[:-2, 1:-1] + avail[2:, 1:-1] + avail[1:-1, :-2] + avail[1:-1, 2:]
        index = np.flatnonzero(damaged).tolist()  # raster order
        count = neigh[damaged].tolist()
        self._live: dict[int, int] = dict(zip(index, count))
        buckets: list[list[int]] = [[], [], [], [], []]
        for k, c in zip(index, count):
            buckets[c].append(k)
        self._buckets = buckets

    def extract(self) -> int:
        live = self._live
        for count in range(4, -1, -1):
            bucket = self._buckets[count]
            while bucket:
                index = heapq.heappop(bucket)
                if live.get(index) == count:
                    del live[index]
                    return index
        return -1

    def on_concealed(self, index: int) -> None:
        cols = self._cols
        col = index % cols
        live = self._live
        # Indices above and below the grid name no live MB; a step left or
        # right would wrap to another row at the grid's edge, so -1 (no MB)
        # stands in for it there.
        for n in (index - cols, index + cols, index - 1 if col else -1, index + 1 if col + 1 < cols else -1):
            count = live.get(n)
            if count is not None:
                live[n] = count + 1
                heapq.heappush(self._buckets[count + 1], n)


def conceal_order(status: np.ndarray) -> np.ndarray:
    """The raster indices ``row * cols + col`` (int32) of the ``status``
    grid's damaged MBs in the order one PrioritySchedule pops them, each
    concealed as it is popped. The order depends on the grid alone, so every
    mode that conceals the grid can share it."""
    sched = PrioritySchedule(status)
    index = []
    while (k := sched.extract()) >= 0:
        index.append(k)
        sched.on_concealed(k)
    return np.array(index, dtype=np.int32)


class AuditRecord(NamedTuple):
    """One concealment event: which MB, with what vector, at what cost.
    Modes that do not score record a total and classic total of -1 and
    four absent sides."""

    mb: MbAddress
    mode: str
    mv: MotionVector
    total: int
    classic_total: int
    sides_absent: int


@dataclass
class ConcealedFrame:
    frame: Frame
    status: np.ndarray  # uint8 MbState grid, shape (mb_rows, mb_cols)
    audit: list[AuditRecord] = field(default_factory=list)


def _flat_field(mv_field: MvField, shape: tuple[int, int], name: str) -> tuple[list[int], list[int]]:
    """A field's vx and vy as flat lists by raster index. Its grid must be
    the status grid's: on any other, a raster index names another MB."""
    if mv_field.vx.shape != shape:
        raise ValueError(f"{name} is a {mv_field.vx.shape} grid, the status grid {shape}")
    return mv_field.vx.ravel().tolist(), mv_field.vy.ravel().tolist()


def _concealed_status(status: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The status grid with every MB of ``order`` Concealed. The order must
    name each of the grid's Damaged MBs once and no other MB."""
    damaged = status.reshape(-1) == _DAMAGED
    try:
        hits = np.bincount(order, minlength=status.size)
    except ValueError:  # a negative index
        hits = None
    if hits is None or hits.shape != damaged.shape or (hits != damaged).any():
        raise ValueError("order does not name exactly the status grid's Damaged MBs")
    concealed = status.copy()
    concealed.flat[order] = _CONCEALED
    return concealed


@lru_cache(maxsize=8)
def _mb_origins(cols: int, rows: int) -> np.ndarray:
    """Raster offset of every MB's top-left pixel in a plane of the cols x
    rows grid, by raster index (read-only: every caller shares it)."""
    origins = (np.arange(rows)[:, None] * (MB * MB * cols) + np.arange(cols) * MB).ravel()
    origins.flags.writeable = False
    return origins


def conceal_frame(
    cur_damaged: Frame,
    ref_frame: Frame,
    ref_status: np.ndarray,
    status: np.ndarray,
    mv_field: MvField | None,
    prev_mv_field: MvField | None,
    mode: str,
    order: np.ndarray,
) -> ConcealedFrame:
    """Reconstruct every damaged MB of a frame, in priority order.

    ``mv_field`` holds the current frame's transmitted vectors,
    ``prev_mv_field`` the previous frame's (read for the collocated
    candidate); neither they nor the ``status`` grid are changed. The
    reference is the previous *reconstructed* frame together with its final
    status grid, which is how concealment errors propagate into later frames
    and how the additional boundaries get their reliability screening.

    ``order`` is ``conceal_order(status)``, which callers that conceal one
    grid in several modes build once and pass to each. An order that misses
    a Damaged MB, names another MB or names one twice raises ValueError: it
    would leave a block unconcealed or overwrite a correct one.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if cur_damaged.luma.shape != ref_frame.luma.shape:
        raise ValueError("current and reference frames must have equal dimensions")
    if mode != "tr" and mv_field is None:
        raise ValueError(f"mode {mode!r} needs the current frame's MV field")
    rows, cols = status.shape
    h, w = ref_frame.luma.shape
    if (h, w) != (MB * rows, MB * cols):
        raise ValueError(f"{w}x{h} frames do not match the {cols}x{rows} status grid")
    concealed = _concealed_status(status, order)

    work = cur_damaged.luma.copy()
    out_frame = Frame(work)
    ref_luma = ref_frame.luma
    addresses = _mb_addresses(cols, rows)
    scored = mode in ("bma", "ebmc")
    # Raster offset of each lost block, in the modes that write them all in
    # one copy: they choose no vector from a pixel.
    lost = None if scored else _mb_origins(cols, rows)[order]
    if mode == "tr":
        # Every vector is zero, so each lost block is its co-located
        # reference block.
        audit = [_new(AuditRecord, (addresses[k], mode, ZERO_MV, -1, -1, 4)) for k in order.tolist()]
        starts = lost
    else:
        audit = []
        # The status grid and the working MV field as flat lists by raster
        # index, which the caller's grid and field (shared by every trial
        # of a sequence) never see.
        state = status.ravel().tolist()
        vx, vy = _flat_field(mv_field, status.shape, "mv_field")
        if scored:
            if prev_mv_field is None:
                prev_vx = prev_vy = [0] * len(state)
            else:
                prev_vx, prev_vy = _flat_field(prev_mv_field, status.shape, "prev_mv_field")
        else:
            # raster offset of each chosen reference block
            starts = []

        for index in order.tolist():
            mb = addresses[index]
            i, j = MB * mb.col, MB * mb.row
            ctx = neighbor_context(state, vx, vy, index, cols)
            if scored:
                candidates = build_candidates(MotionVector(prev_vx[index], prev_vy[index]), ctx)
                mv, dist = select_mv(out_frame, ref_frame, ref_status, mb, candidates, ctx, mode)
                # written now: a later MB's boundaries read these pixels
                dx, dy = mv
                work[j : j + MB, i : i + MB] = ref_luma[j + dy : j + dy + MB, i + dx : i + dx + MB]
                record = (mb, mode, mv, dist.total, dist.classic_total, dist.sides_absent)
            else:
                mvs = [mv for mv in ctx if mv is not None]
                if mvs:
                    x, y = mean_mv(mvs) if mode == "avg" else median_mv(mvs)
                    # clamped so that the copied block stays in the frame
                    dx, dy = min(max(x, -i), w - MB - i), min(max(y, -j), h - MB - j)
                    mv = _new(MotionVector, (dx, dy))
                else:
                    dx = dy = 0
                    mv = ZERO_MV
                starts.append((j + dy) * w + i + dx)
                record = (mb, mode, mv, -1, -1, 4)
            state[index] = _CONCEALED
            vx[index], vy[index] = mv
            audit.append(_new(AuditRecord, record))

    if not scored:
        block_rows(work)[lost] = block_rows(np.ascontiguousarray(ref_luma))[starts]
    return ConcealedFrame(out_frame, concealed, audit)


def audit_csv_header() -> str:
    return "frame,mb_col,mb_row,mode,vx,vy,total,bmc_total,sides_absent"


def audit_csv_line(frame_index: int, rec: AuditRecord) -> str:
    (col, row), mode, (vx, vy), total, classic_total, sides_absent = rec
    return "%d,%d,%d,%s,%d,%d,%d,%d,%d" % (frame_index, col, row, mode, vx, vy, total, classic_total, sides_absent)
