"""Luma PSNR."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Frame

PSNR_CAP_DB = 100.0


@dataclass(frozen=True)
class PsnrSample:
    frame_index: int
    value: float


def psnr(reconstructed: Frame, pristine: Frame) -> float:
    """10*log10(255^2 / MSE) over the luma plane, capped at 100 dB so that
    identical frames average cleanly.

    The squared error is summed exactly in int64; an int32 sum would wrap
    once 33,026 samples differ by 255, well inside a CIF plane. Every partial
    sum of a float64 mean of the same squares is an integer below 2^53 and
    so exact, which makes this MSE equal to the float64 mean bit for bit."""
    if reconstructed.luma.shape != pristine.luma.shape:
        raise ValueError("frames must have equal dimensions")
    diff = np.subtract(reconstructed.luma, pristine.luma, dtype=np.int16)
    sse = int(np.square(diff, dtype=np.int32).sum(dtype=np.int64))
    mse = sse / diff.size
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0 ** 2 / mse))
