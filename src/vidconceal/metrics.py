"""Luma PSNR."""

from __future__ import annotations

import math

import numpy as np

from .core import Frame

PSNR_CAP_DB = 100.0
# Widest row whose squared errors a uint32 sum holds exactly: 66,051.
ROW_LIMIT = (2**32 - 1) // 255**2


def psnr(reconstructed: Frame, pristine: Frame) -> float:
    """10*log10(255^2 / MSE) over the luma plane, capped at 100 dB so that
    identical frames average cleanly.

    The squared error is exact. ``maximum - minimum`` of two uint8 planes is
    their absolute difference, which stays in uint8; its square is at most
    255^2 = 65,025 and fits uint16. Each row's squares are summed in uint32,
    which holds rows of up to ROW_LIMIT = 66,051 samples exactly
    (66,051 * 65,025 < 2^32 <= 66,052 * 65,025); a wider plane raises
    ValueError. The row sums are summed in uint64, which a plane would need
    more than 2.8e14 samples to overflow. Every partial sum of a float64
    mean of the same squares is an integer below 2^53 and so exact, which
    makes this MSE equal to the float64 mean bit for bit."""
    a, b = reconstructed.luma, pristine.luma
    if a.shape != b.shape:
        raise ValueError("frames must have equal dimensions")
    if a.shape[1] > ROW_LIMIT:
        raise ValueError(f"psnr sums a row in uint32, exact up to {ROW_LIMIT} samples; got {a.shape[1]}")
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    sse = int(np.square(diff, dtype=np.uint16).sum(axis=1, dtype=np.uint32).sum(dtype=np.uint64))
    mse = sse / diff.size
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0 ** 2 / mse))
