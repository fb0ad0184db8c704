"""Frame, macroblock and motion-vector data model shared by all stages.

Coordinate convention: pixel (x, y) means column x, row y. Luma planes are
stored as numpy arrays indexed [y, x] (row-major), so ``frame.luma[y, x]``
is the sample at column x of row y.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

MB = 16  # macroblock side, in pixels


class MotionVector(NamedTuple):
    """Integer-pel displacement from a current-frame block to its match in
    the reference frame: the block at (i, j) is reconstructed from the
    reference pixels at (i+vx .. i+vx+15, j+vy .. j+vy+15)."""

    vx: int
    vy: int


ZERO_MV = MotionVector(0, 0)


class MbAddress(NamedTuple):
    """Macroblock grid address, 0-based. Top-left pixel is (16*col, 16*row)."""

    col: int
    row: int

    def origin(self) -> tuple[int, int]:
        return MB * self.col, MB * self.row


class BoundarySide(enum.Enum):
    TOP = "top"
    BOTTOM = "bottom"
    LEFT = "left"
    RIGHT = "right"

    # Members are singletons that compare by identity, so the identity hash
    # is consistent with equality; Enum's own __hash__ runs Python code on
    # every lookup of the per-side dicts in the concealment loop.
    __hash__ = object.__hash__


SIDES = (BoundarySide.TOP, BoundarySide.BOTTOM, BoundarySide.LEFT, BoundarySide.RIGHT)

# MB-grid step to the neighbor owning each boundary side.
SIDE_STEPS = {
    BoundarySide.TOP: (0, -1),
    BoundarySide.BOTTOM: (0, 1),
    BoundarySide.LEFT: (-1, 0),
    BoundarySide.RIGHT: (1, 0),
}


class MbState(enum.IntEnum):
    CORRECT = 0
    DAMAGED = 1
    CONCEALED = 2


@dataclass
class Frame:
    """One luma plane of 8-bit samples.

    Any positive dimensions are accepted so that small synthetic planes can
    be built in tests; operations that need a macroblock grid (motion
    estimation, concealment) require dimensions that are multiples of 16 and
    check for it themselves.
    """

    luma: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.luma)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("luma must be a non-empty 2-D array")
        if arr.dtype != np.uint8:
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("luma samples must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        self.luma = arr

    @property
    def width(self) -> int:
        return self.luma.shape[1]

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def mb_cols(self) -> int:
        self.require_mb_aligned()
        return self.width // MB

    @property
    def mb_rows(self) -> int:
        self.require_mb_aligned()
        return self.height // MB

    def require_mb_aligned(self) -> None:
        if self.width % MB or self.height % MB:
            raise ValueError(
                f"{self.width}x{self.height} frame is not a multiple of {MB}x{MB}"
            )

    def sample(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x}, {y}) outside {self.width}x{self.height}")
        return int(self.luma[y, x])

    def copy(self) -> "Frame":
        return Frame(self.luma.copy())


def extract_row(frame: Frame, x0: int, y: int, length: int) -> np.ndarray:
    """Samples f(x0 .. x0+length-1, y), left to right."""
    if length < 0 or x0 < 0 or x0 + length > frame.width or not 0 <= y < frame.height:
        raise IndexError(
            f"row read x0={x0} y={y} len={length} outside {frame.width}x{frame.height}"
        )
    return frame.luma[y, x0 : x0 + length].copy()


def extract_col(frame: Frame, x: int, y0: int, length: int) -> np.ndarray:
    """Samples f(x, y0 .. y0+length-1), top to bottom."""
    if length < 0 or y0 < 0 or y0 + length > frame.height or not 0 <= x < frame.width:
        raise IndexError(
            f"col read x={x} y0={y0} len={length} outside {frame.width}x{frame.height}"
        )
    return frame.luma[y0 : y0 + length, x].copy()


def sad(a: np.ndarray, b: np.ndarray) -> int:
    """Sum of absolute differences between two equal-length sample vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


@dataclass
class MbStatusMap:
    """Per-macroblock decode state for one frame.

    Concealed entries carry the motion vector that reconstructed them; that
    vector is what neighbor-based recovery of adjacent blocks reads back.
    """

    state: np.ndarray  # uint8 grid of MbState values, shape (mb_rows, mb_cols)
    mv_x: np.ndarray = field(default=None)  # type: ignore[assignment]
    mv_y: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=np.uint8)
        if self.state.ndim != 2 or self.state.size == 0:
            raise ValueError("state must be a non-empty 2-D grid")
        if self.mv_x is None:
            self.mv_x = np.zeros(self.state.shape, dtype=np.int16)
        if self.mv_y is None:
            self.mv_y = np.zeros(self.state.shape, dtype=np.int16)

    @classmethod
    def all_correct(cls, mb_cols: int, mb_rows: int) -> "MbStatusMap":
        return cls(np.zeros((mb_rows, mb_cols), dtype=np.uint8))

    @property
    def mb_cols(self) -> int:
        return self.state.shape[1]

    @property
    def mb_rows(self) -> int:
        return self.state.shape[0]

    def in_grid(self, mb: MbAddress) -> bool:
        return 0 <= mb.col < self.mb_cols and 0 <= mb.row < self.mb_rows

    def state_at(self, mb: MbAddress) -> MbState:
        if not self.in_grid(mb):
            raise IndexError(f"{mb} outside {self.mb_cols}x{self.mb_rows} MB grid")
        return MbState(int(self.state[mb.row, mb.col]))

    def mv_at(self, mb: MbAddress) -> MotionVector | None:
        """Concealment vector of a Concealed MB, None otherwise."""
        if self.state_at(mb) != MbState.CONCEALED:
            return None
        return MotionVector(int(self.mv_x[mb.row, mb.col]), int(self.mv_y[mb.row, mb.col]))

    def set_damaged(self, mb: MbAddress) -> None:
        if not self.in_grid(mb):
            raise IndexError(f"{mb} outside {self.mb_cols}x{self.mb_rows} MB grid")
        self.state[mb.row, mb.col] = MbState.DAMAGED

    def set_concealed(self, mb: MbAddress, mv: MotionVector) -> None:
        if self.state_at(mb) != MbState.DAMAGED:
            raise ValueError(f"{mb} is not Damaged; only Damaged -> Concealed allowed")
        self.state[mb.row, mb.col] = MbState.CONCEALED
        self.mv_x[mb.row, mb.col] = mv.vx
        self.mv_y[mb.row, mb.col] = mv.vy

    def damaged(self) -> Iterator[MbAddress]:
        """Damaged MBs in raster order (row-major)."""
        for row, col in zip(*np.nonzero(self.state == MbState.DAMAGED)):
            yield MbAddress(int(col), int(row))

    def count(self, state: MbState) -> int:
        return int((self.state == state).sum())

    def copy(self) -> "MbStatusMap":
        return MbStatusMap(self.state.copy(), self.mv_x.copy(), self.mv_y.copy())


def neighbor_of(mb: MbAddress, side: BoundarySide, mb_cols: int, mb_rows: int) -> MbAddress | None:
    """4-neighbor owning the given boundary side, or None at the frame edge."""
    dc, dr = SIDE_STEPS[side]
    n = MbAddress(mb.col + dc, mb.row + dr)
    if 0 <= n.col < mb_cols and 0 <= n.row < mb_rows:
        return n
    return None
