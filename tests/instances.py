"""Randomized test instances shared by the engine tests and the acceptance
suite, status-grid helpers, and converters to the plain data the oracle
consumes.

A status is a uint8 (mb_rows, mb_cols) grid of MbState codes. As in
conceal_frame, a concealed MB's vector sits in the MV field next to the
transmitted vectors of the correct MBs."""

from __future__ import annotations

import numpy as np

from vidconceal.core import ZERO_MV, Frame, MbAddress, MbState, MotionVector
from vidconceal.engine import NeighborContext, neighbor_context
from vidconceal.motion import MvField


def all_correct(mb_cols: int, mb_rows: int) -> np.ndarray:
    return np.zeros((mb_rows, mb_cols), dtype=np.uint8)


def damage(status: np.ndarray, *mbs: MbAddress) -> np.ndarray:
    """Mark ``mbs`` damaged in place; returns ``status``."""
    for mb in mbs:
        status[mb.row, mb.col] = MbState.DAMAGED
    return status


def conceal(status: np.ndarray, mb: MbAddress, field: MvField | None = None, mv: MotionVector | None = None) -> None:
    """Mark ``mb`` concealed in place and, given a field, write its
    concealment vector ``mv`` there. A reference grid needs no field:
    nothing reads the vectors of the reference's concealed MBs."""
    status[mb.row, mb.col] = MbState.CONCEALED
    if field is not None:
        field.vx[mb.row, mb.col], field.vy[mb.row, mb.col] = mv


def context_at(status: np.ndarray, field: MvField, mb: MbAddress) -> NeighborContext:
    """engine.neighbor_context of ``mb`` on a status grid and an MV field,
    passed as the flat lists by raster index that conceal_frame keeps."""
    cols = status.shape[1]
    flat = (a.ravel().tolist() for a in (status, field.vx, field.vy))
    return neighbor_context(*flat, mb.row * cols + mb.col, cols)


def mv_at(field: MvField, mb: MbAddress) -> MotionVector:
    """``mb``'s vector in ``field``."""
    return MotionVector(field.vx.item(mb.row, mb.col), field.vy.item(mb.row, mb.col))


def collocated(prev: MvField | None, mb: MbAddress) -> MotionVector:
    """The collocated candidate conceal_frame passes to
    engine.build_candidates: ``mb``'s vector in the previous frame's field,
    the zero vector without one."""
    return ZERO_MV if prev is None else mv_at(prev, mb)


def damaged_mbs(status: np.ndarray) -> list[MbAddress]:
    """Damaged MBs in raster order (row-major)."""
    rows, cols = np.nonzero(status == MbState.DAMAGED)
    return [MbAddress(int(c), int(r)) for r, c in zip(rows, cols)]


def concealed_mv(status: np.ndarray, field: MvField, mb: MbAddress) -> MotionVector | None:
    """Concealment vector of a concealed MB, None otherwise."""
    if status[mb.row, mb.col] != MbState.CONCEALED:
        return None
    return mv_at(field, mb)


def random_frame_pair(rng: np.random.Generator, width=64, height=64, levels=256):
    """Two noise planes with sample values below ``levels`` (few levels make
    equal boundary distortions common)."""
    cur = Frame(rng.integers(0, levels, size=(height, width), dtype=np.uint8))
    ref = Frame(rng.integers(0, levels, size=(height, width), dtype=np.uint8))
    return cur, ref


def random_status(rng, mb_cols, mb_rows, p_damaged=0.3, p_concealed=0.2):
    """Status grid with a random mix of correct, damaged and concealed MBs;
    the vectors of the concealed ones are those of the field used with it."""
    draws = rng.random((mb_rows, mb_cols))
    state = all_correct(mb_cols, mb_rows)
    state[draws < p_damaged] = MbState.DAMAGED
    state[(draws >= p_damaged) & (draws < p_damaged + p_concealed)] = MbState.CONCEALED
    return state


def random_mv(rng, span=7) -> MotionVector:
    return MotionVector(int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))


def random_field(rng, mb_cols, mb_rows, span=7) -> MvField:
    return MvField(
        rng.integers(-span, span + 1, size=(mb_rows, mb_cols)).astype(np.int16),
        rng.integers(-span, span + 1, size=(mb_rows, mb_cols)).astype(np.int16),
    )


def zero_field(mb_cols, mb_rows, mvs=None) -> MvField:
    """Field of zero vectors except the MbAddress -> MotionVector entries
    of ``mvs``."""
    field = MvField(np.zeros((mb_rows, mb_cols)), np.zeros((mb_rows, mb_cols)))
    for mb, mv in (mvs or {}).items():
        field.vx[mb.row, mb.col], field.vy[mb.row, mb.col] = mv
    return field


def read_mv_csv(path) -> dict[int, MvField]:
    """The fields of a motion.save_mv_fields CSV, keyed by frame index."""
    with open(path) as f:
        assert f.readline() == "frame_index,mb_col,mb_row,vx,vy\n"
        lines = np.loadtxt(f, delimiter=",", dtype=np.int64, ndmin=2)
    fields = {}
    for t in dict.fromkeys(lines[:, 0].tolist()):
        _, col, row, vx, vy = lines[lines[:, 0] == t].T
        field = zero_field(col.max() + 1, row.max() + 1)
        assert len(col) == field.vx.size
        field.vx[row, col], field.vy[row, col] = vx, vy
        fields[t] = field
    return fields


def random_inbounds_mv(rng, frame: Frame, mb: MbAddress, span=7) -> MotionVector:
    """Candidate vector whose displaced block stays inside the frame."""
    i, j = mb.origin()
    vx_lo, vx_hi = max(-span, -i), min(span, frame.width - 16 - i)
    vy_lo, vy_hi = max(-span, -j), min(span, frame.height - 16 - j)
    return MotionVector(int(rng.integers(vx_lo, vx_hi + 1)), int(rng.integers(vy_lo, vy_hi + 1)))


def pick_damaged(rng, status: np.ndarray) -> MbAddress | None:
    dmg = damaged_mbs(status)
    if not dmg:
        return None
    return dmg[int(rng.integers(0, len(dmg)))]


def plain_pixels(frame: Frame):
    return frame.luma  # [y][x] indexing works directly on the array


def plain_status(status: np.ndarray):
    return status.tolist()


def plain_concealed_mvs(status: np.ndarray, field: MvField):
    rows, cols = status.shape
    out = [[None] * cols for _ in range(rows)]
    for row in range(rows):
        for col in range(cols):
            mv = concealed_mv(status, field, MbAddress(col, row))
            if mv is not None:
                out[row][col] = (mv.vx, mv.vy)
    return out


def plain_field(field: MvField | None):
    if field is None:
        return None
    return [list(zip(xs, ys)) for xs, ys in zip(field.vx.tolist(), field.vy.tolist())]
