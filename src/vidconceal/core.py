"""Frame, macroblock and motion-vector data model shared by all stages.

Coordinate convention: pixel (x, y) means column x, row y. Luma planes are
stored as numpy arrays indexed [y, x] (row-major), so ``frame.luma[y, x]``
is the sample at column x of row y.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Codes of an MB's decode state. A frame's status is a plain uint8
    (mb_rows, mb_cols) grid of these codes, indexed [row, col]."""

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
            # NaN fails every comparison, and a fraction differs from its
            # truncation, so either would otherwise be cast away silently
            if not ((arr >= 0) & (arr <= 255) & (np.trunc(arr) == arr)).all():
                raise ValueError("luma samples must be integers in [0, 255]")
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

