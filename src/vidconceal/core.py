"""Frame, macroblock and motion-vector data model shared by all stages.

Coordinate convention: pixel (x, y) means column x, row y. Luma planes are
stored as numpy arrays indexed [y, x] (row-major), so ``frame.luma[y, x]``
is the sample at column x of row y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


# Boundary sides of an MB, in the order every per-side row and tuple uses.
SIDES = ("top", "bottom", "left", "right")

# MB-grid step (dcol, drow) to the neighbor owning each side, in SIDES order.
SIDE_STEPS = ((0, -1), (0, 1), (-1, 0), (1, 0))


class MbState:
    """Codes of an MB's decode state, as stored in ``MbStatusMap.state``."""

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

    def copy(self) -> "MbStatusMap":
        return MbStatusMap(self.state.copy(), self.mv_x.copy(), self.mv_y.copy())
