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

Scoring is batched per damaged MB. The outer and additional boundaries
depend only on the MB and its neighbors, so they are read once, as direct
slices. The inner boundaries of all K in-frame candidates are then gathered
with one fancy index into a K x 4 x 16 array; the classic and additional
SADs come out together as K x 2 x 4, the per-side minimum is taken over the
targets that exist, and the first argmin of the per-candidate sums wins.

Damaged MBs are processed in priority order (most available 4-neighbors
first), and each concealment immediately raises the priority of its damaged
neighbors, so blocks with weak context are deferred until their context has
been rebuilt. The schedule keeps one heap of raster indices per priority
0-4, so each pop and each bump costs O(log n).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MB,
    SIDES,
    SIDE_STEPS,
    BoundarySide,
    Frame,
    MbAddress,
    MbState,
    MbStatusMap,
    MotionVector,
    ZERO_MV,
)
from .motion import MvField

MODES = ("tr", "avg", "median", "bma", "ebmc")

CandidateSet = list[MotionVector]

# (side, MB-grid step to its neighbor) in SIDES order, so the per-MB loops
# index tuples instead of hashing enum keys.
_SIDE_STEPS = tuple((side, SIDE_STEPS[side]) for side in SIDES)
_STEPS = tuple(step for _, step in _SIDE_STEPS)

# Inner boundary of a 16x16 block, one row per side in SIDES order, as
# (row, column) offsets from the block's top-left pixel.
_RUN = np.arange(MB)
_DY = np.array([[0] * MB, [MB - 1] * MB, _RUN, _RUN])
_DX = np.array([_RUN, _RUN, [0] * MB, [MB - 1] * MB])
# First and last pixel of each of those boundaries, as (dx0, dy0, dx1, dy1).
_ENDS = tuple((int(dx[0]), int(dy[0]), int(dx[-1]), int(dy[-1])) for dx, dy in zip(_DX, _DY))

# Cost added to a side's SAD where its boundary is absent; above any SAD.
_ABSENT = 1 << 30
# Plain int: comparing a NumPy scalar with the IntEnum member is far slower.
_CONCEALED = int(MbState.CONCEALED)


@dataclass(frozen=True)
class SideNeighbor:
    """What the damaged MB knows about the neighbor owning one boundary."""

    available: bool
    mv: MotionVector | None = None
    state: MbState | None = None  # CORRECT or CONCEALED when available


_UNAVAILABLE = SideNeighbor(False)


@dataclass(frozen=True)
class NeighborContext:
    sides: dict[BoundarySide, SideNeighbor]

    def available_mvs(self) -> list[MotionVector]:
        """Neighbor MVs in fixed side order (top, bottom, left, right)."""
        return [
            info.mv
            for side in SIDES
            if (info := self.sides[side]).available and info.mv is not None
        ]


def neighbor_context(status: MbStatusMap, mv_field: MvField | None, mb: MbAddress) -> NeighborContext:
    """Availability and motion vector of each 4-neighbor.

    A side is available iff the neighbor exists in-frame and is Correct or
    Concealed; a still-Damaged neighbor has lost both pixels and vector.
    Correct neighbors contribute their transmitted vector, concealed ones the
    vector estimated when they were recovered.
    """
    state = status.state
    rows, cols = state.shape
    sides: dict[BoundarySide, SideNeighbor] = {}
    for side, (dc, dr) in _SIDE_STEPS:
        c, r = mb.col + dc, mb.row + dr
        if not (0 <= c < cols and 0 <= r < rows):
            sides[side] = _UNAVAILABLE
            continue
        code = int(state[r, c])
        if code == MbState.DAMAGED:
            sides[side] = _UNAVAILABLE
        elif code == MbState.CONCEALED:
            mv = MotionVector(int(status.mv_x[r, c]), int(status.mv_y[r, c]))
            sides[side] = SideNeighbor(True, mv, MbState.CONCEALED)
        else:
            mv = MotionVector(int(mv_field.vx[r, c]), int(mv_field.vy[r, c])) if mv_field is not None else None
            sides[side] = SideNeighbor(True, mv, MbState.CORRECT)
    return NeighborContext(sides)


def bmc_total(side_values) -> int:
    """Sum of the per-side distortions that are present (absent sides
    contribute nothing)."""
    return sum(v for v in side_values if v is not None)


@dataclass
class BoundaryDistortion:
    """Per-side score breakdown for one candidate vector."""

    classic: dict[BoundarySide, int | None]
    proposed: dict[BoundarySide, int | None]
    chosen: dict[BoundarySide, int | None]
    total: int
    collocated_fallback: bool = False

    @property
    def sides_absent(self) -> int:
        return sum(1 for v in self.chosen.values() if v is None)

    @property
    def classic_total(self) -> int:
        return bmc_total(self.classic.values())

    @classmethod
    def empty(cls) -> "BoundaryDistortion":
        absent: dict[BoundarySide, int | None] = {side: None for side in SIDES}
        return cls(dict(absent), dict(absent), dict(absent), 0)


def _segment(luma: np.ndarray, x: int, y: int, k: int, screen: np.ndarray | None = None) -> np.ndarray | None:
    """Side k's inner boundary of the 16x16 block whose top-left pixel is
    (x, y): 16 samples, or None where the segment leaves the plane or, given
    a ``screen`` status grid, where a concealed MB lies under either end."""
    dx0, dy0, dx1, dy1 = _ENDS[k]
    x0, y0, x1, y1 = x + dx0, y + dy0, x + dx1, y + dy1
    h, w = luma.shape
    if x0 < 0 or y0 < 0 or x1 >= w or y1 >= h:
        return None
    if screen is not None and (
        screen[y0 // MB, x0 // MB] == _CONCEALED
        or screen[y1 // MB, x1 // MB] == _CONCEALED
    ):
        return None
    return luma[y0 : y1 + 1, x0 : x1 + 1].ravel()


class _MbScorer:
    """The candidate-independent part of scoring one damaged MB.

    ``targets[0, k]`` is the outer boundary of side k in the current frame
    (present when that neighbor is available and the segment lies in the
    frame), ``targets[1, k]`` the additional boundary in the reference (ebmc
    only: present when the neighbor is available with a vector, the segment
    stays in the reference and no concealed reference MB lies under it).
    When the MB collocated with the damaged one was concealed in the
    reference, the additional boundaries are distrusted wholesale. ``cost``
    is 0 where a target is present and _ABSENT where it is not.

    Both targets are read as an inner boundary of a shifted block: the outer
    boundary is that of the damaged MB moved one pixel toward the neighbor,
    and the additional boundary is that of the block the neighbor's own
    vector points at, so it coincides with the candidate's inner boundary
    when the candidate vector equals the neighbor's.
    """

    def __init__(self, cur: Frame, ref: Frame, ref_status: MbStatusMap,
                 mb: MbAddress, ctx: NeighborContext, mode: str):
        i, j = mb.origin()
        screen = ref_status.state
        self.fallback = mode == "ebmc" and bool(screen[mb.row, mb.col] == _CONCEALED)
        addl = mode == "ebmc" and not self.fallback
        self.targets = np.zeros((2, 4, MB), dtype=np.int16)
        self.present = [[False] * 4, [False] * 4]
        for k, (side, (dc, dr)) in enumerate(_SIDE_STEPS):
            info = ctx.sides[side]
            if not info.available:
                continue
            self._put(0, k, _segment(cur.luma, i + dc, j + dr, k))
            if addl and info.mv is not None:
                self._put(1, k, _segment(ref.luma, i + info.mv.vx, j + info.mv.vy, k, screen))
        self.cost = np.where(self.present, 0, _ABSENT)

    def _put(self, t: int, k: int, seg: np.ndarray | None) -> None:
        if seg is not None:
            self.targets[t, k] = seg
            self.present[t][k] = True


def select_mv(
    cur: Frame,
    ref: Frame,
    ref_status: MbStatusMap,
    mb: MbAddress,
    candidates: CandidateSet,
    ctx: NeighborContext,
    mode: str,
) -> tuple[MotionVector, BoundaryDistortion]:
    """Score every feasible candidate and return the first one attaining the
    minimal total distortion (earlier candidates win ties).

    Candidates whose displaced block leaves the reference frame are skipped;
    if that removes every candidate, the zero vector is returned unscored.
    """
    if mode not in ("bma", "ebmc"):
        raise ValueError(f"select_mv mode must be bma or ebmc, got {mode!r}")
    i, j = mb.origin()
    h, w = ref.luma.shape
    kept = [mv for mv in candidates if 0 <= i + mv.vx <= w - MB and 0 <= j + mv.vy <= h - MB]
    if not kept:
        return ZERO_MV, BoundaryDistortion.empty()
    scorer = _MbScorer(cur, ref, ref_status, mb, ctx, mode)
    bx = np.array([i + mv.vx for mv in kept])
    by = np.array([j + mv.vy for mv in kept])
    inner = ref.luma[by[:, None, None] + _DY, bx[:, None, None] + _DX]  # K x 4 x 16
    sads = np.abs(inner[:, None] - scorer.targets).sum(axis=3)  # K x 2 x 4
    per_side = (sads + scorer.cost).min(axis=1)  # K x 4, >= _ABSENT where unscored
    totals = np.where(per_side < _ABSENT, per_side, 0).sum(axis=1)
    best = int(totals.argmin())

    side_sads = sads[best].tolist()
    classic, proposed = (
        dict(zip(SIDES, [v if p else None for v, p in zip(row, present)]))
        for row, present in zip(side_sads, scorer.present)
    )
    chosen = dict(zip(SIDES, [v if v < _ABSENT else None for v in per_side[best].tolist()]))
    dist = BoundaryDistortion(classic, proposed, chosen, int(totals[best]), scorer.fallback)
    return kept[best], dist


def _round_half_away(num: int, den: int) -> int:
    """Round num/den half away from zero (den > 0)."""
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def mean_mv(mvs: list[MotionVector]) -> MotionVector:
    n = len(mvs)
    return MotionVector(
        _round_half_away(sum(mv.vx for mv in mvs), n),
        _round_half_away(sum(mv.vy for mv in mvs), n),
    )


def median_mv(mvs: list[MotionVector]) -> MotionVector:
    """Component-wise median; an even count averages the two middle values,
    rounded half away from zero."""

    def med(values: list[int]) -> int:
        s = sorted(values)
        n = len(s)
        return _round_half_away(s[(n - 1) // 2] + s[n // 2], 2)

    return MotionVector(med([mv.vx for mv in mvs]), med([mv.vy for mv in mvs]))


def build_candidates(
    prev_mv_field: MvField | None, ctx: NeighborContext, mb: MbAddress
) -> CandidateSet:
    """Ordered, deduplicated candidate vectors for one damaged MB.

    Order is normative (it breaks score ties): zero, collocated from the
    previous frame's field, the four neighbor vectors, then the mean and the
    median of the available neighbor vectors. Vectors from still-damaged
    neighbors never enter the set.
    """
    out: CandidateSet = []

    def push(mv: MotionVector) -> None:
        if mv not in out:
            out.append(mv)

    push(ZERO_MV)
    push(prev_mv_field.mv_at(mb) if prev_mv_field is not None else ZERO_MV)
    for side in SIDES:
        info = ctx.sides[side]
        if info.available and info.mv is not None:
            push(info.mv)
    neighbor_mvs = ctx.available_mvs()
    if neighbor_mvs:
        push(mean_mv(neighbor_mvs))
        push(median_mv(neighbor_mvs))
    return out


class PrioritySchedule:
    """Dynamic concealment order: damaged MBs keyed by how many of their
    4-neighbors are currently available (Correct or Concealed).

    extract() pops the highest count, breaking ties in raster order; each
    concealment bumps the count of every remaining damaged 4-neighbor by
    exactly one. ``counts`` holds the live count of every MB still to be
    concealed. Next to it sit five buckets, one per count 0-4, each a heap
    of raster indices ``row * cols + col``. A bump pushes the MB into its
    new bucket and leaves the old entry behind; extract() drops such stale
    entries, whose count no longer matches their bucket, as it meets them.
    Counts only rise, so each MB leaves at most four stale entries.
    """

    def __init__(self, status: MbStatusMap):
        self._cols = status.mb_cols
        avail = status.state != MbState.DAMAGED
        neigh = np.zeros(avail.shape, dtype=np.int8)
        neigh[1:, :] += avail[:-1, :]
        neigh[:-1, :] += avail[1:, :]
        neigh[:, 1:] += avail[:, :-1]
        neigh[:, :-1] += avail[:, 1:]
        self.counts: dict[MbAddress, int] = {
            mb: int(neigh[mb.row, mb.col]) for mb in status.damaged()
        }
        # damaged() yields raster order, so every bucket starts out sorted,
        # which is already a heap.
        self._buckets: list[list[int]] = [[] for _ in range(5)]
        for mb, count in self.counts.items():
            self._buckets[count].append(mb.row * self._cols + mb.col)

    def __len__(self) -> int:
        return len(self.counts)

    def extract(self) -> MbAddress | None:
        cols = self._cols
        for count in range(4, -1, -1):
            bucket = self._buckets[count]
            while bucket:
                index = heapq.heappop(bucket)
                mb = MbAddress(index % cols, index // cols)
                if self.counts.get(mb) == count:
                    del self.counts[mb]
                    return mb
        return None

    def on_concealed(self, mb: MbAddress) -> None:
        # Steps off the grid name no MB in counts, so need no bounds check.
        for dc, dr in _STEPS:
            n = MbAddress(mb.col + dc, mb.row + dr)
            count = self.counts.get(n)
            if count is not None:
                self.counts[n] = count + 1
                heapq.heappush(self._buckets[count + 1], n.row * self._cols + n.col)


@dataclass
class AuditRecord:
    """One concealment event: which MB, with what vector, at what cost."""

    mb: MbAddress
    mode: str
    mv: MotionVector
    priority: int
    distortion: BoundaryDistortion | None  # None for modes that do not score

    @property
    def total(self) -> int:
        return self.distortion.total if self.distortion is not None else -1

    @property
    def classic_total(self) -> int:
        return self.distortion.classic_total if self.distortion is not None else -1

    @property
    def sides_absent(self) -> int:
        return self.distortion.sides_absent if self.distortion is not None else 4


@dataclass
class ConcealedFrame:
    frame: Frame
    status: MbStatusMap
    audit: list[AuditRecord] = field(default_factory=list)


def _clamp_mv(frame: Frame, mb: MbAddress, mv: MotionVector) -> MotionVector:
    """Clamp a displacement so the copied block stays inside the frame."""
    i, j = mb.origin()
    return MotionVector(
        min(max(mv.vx, -i), frame.width - MB - i),
        min(max(mv.vy, -j), frame.height - MB - j),
    )


def conceal_frame(
    cur_damaged: Frame,
    ref_frame: Frame,
    ref_status: MbStatusMap,
    status: MbStatusMap,
    mv_field: MvField | None,
    prev_mv_field: MvField | None,
    mode: str,
) -> ConcealedFrame:
    """Reconstruct every damaged MB of a frame, in priority order.

    ``mv_field`` holds the current frame's transmitted vectors (read for
    correctly received neighbors), ``prev_mv_field`` the previous frame's
    (read for the collocated candidate). The reference is the previous
    *reconstructed* frame together with its final status map, which is how
    concealment errors propagate into later frames and how the additional
    boundaries get their reliability screening.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if cur_damaged.luma.shape != ref_frame.luma.shape:
        raise ValueError("current and reference frames must have equal dimensions")
    if mode != "tr" and mv_field is None:
        raise ValueError(f"mode {mode!r} needs the current frame's MV field")

    work = cur_damaged.luma.copy()
    out_frame = Frame(work)
    st = status.copy()
    sched = PrioritySchedule(st)
    audit: list[AuditRecord] = []

    while True:
        mb = sched.extract()
        if mb is None:
            break
        ctx = neighbor_context(st, mv_field, mb)
        n_avail = sum(1 for info in ctx.sides.values() if info.available)
        dist: BoundaryDistortion | None = None
        if mode == "tr":
            mv = ZERO_MV
        elif mode in ("avg", "median"):
            mvs = ctx.available_mvs()
            mv = (mean_mv(mvs) if mode == "avg" else median_mv(mvs)) if mvs else ZERO_MV
            mv = _clamp_mv(ref_frame, mb, mv)
        else:
            candidates = build_candidates(prev_mv_field, ctx, mb)
            mv, dist = select_mv(out_frame, ref_frame, ref_status, mb, candidates, ctx, mode)
        i, j = mb.origin()
        work[j : j + MB, i : i + MB] = ref_frame.luma[
            j + mv.vy : j + mv.vy + MB, i + mv.vx : i + mv.vx + MB
        ]
        st.set_concealed(mb, mv)
        sched.on_concealed(mb)
        audit.append(AuditRecord(mb, mode, mv, n_avail, dist))

    return ConcealedFrame(out_frame, st, audit)


def audit_csv_header() -> str:
    return "frame,mb_col,mb_row,mode,vx,vy,total,bmc_total,sides_absent"


def audit_csv_line(frame_index: int, rec: AuditRecord) -> str:
    return (
        f"{frame_index},{rec.mb.col},{rec.mb.row},{rec.mode},"
        f"{rec.mv.vx},{rec.mv.vy},{rec.total},{rec.classic_total},{rec.sides_absent}"
    )
