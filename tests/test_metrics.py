import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidconceal.core import Frame
from vidconceal.metrics import PSNR_CAP_DB, ROW_LIMIT, psnr


def test_identical_frames_hit_cap(rng):
    f = Frame(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    assert psnr(f, Frame(f.luma.copy())) == PSNR_CAP_DB


def test_single_delta16_on_4x4():
    a = Frame(np.zeros((4, 4), dtype=np.uint8))
    b = Frame(np.zeros((4, 4), dtype=np.uint8))
    b.luma[0, 0] = 16
    # MSE = 16**2 / 16 = 16 -> 10*log10(65025/16)
    want = 10 * math.log10(255 ** 2 / 16)
    assert psnr(a, b) == pytest.approx(want, abs=1e-12)
    assert abs(psnr(a, b) - 36.09) < 0.01


def test_worst_case_zero_db():
    a = Frame(np.zeros((8, 8), dtype=np.uint8))
    b = Frame(np.full((8, 8), 255, dtype=np.uint8))
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_symmetric(rng):
    a = Frame(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    b = Frame(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    assert psnr(a, b) == psnr(b, a)


def test_strictly_decreasing_in_mse():
    base = Frame(np.zeros((16, 16), dtype=np.uint8))
    prev = None
    for delta in (1, 2, 4, 8, 32, 128):
        other = Frame(np.full((16, 16), delta, dtype=np.uint8))
        value = psnr(base, other)
        if prev is not None:
            assert value < prev
        prev = value


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        psnr(Frame(np.zeros((16, 16), dtype=np.uint8)), Frame(np.zeros((16, 32), dtype=np.uint8)))


def test_minimal_nonzero_mse_stays_below_cap():
    a = Frame(np.zeros((352, 288), dtype=np.uint8))
    b = Frame(np.zeros((352, 288), dtype=np.uint8))
    b.luma[0, 0] = 1
    assert psnr(a, b) < PSNR_CAP_DB


def psnr_float64(a: Frame, b: Frame) -> float:
    """The float64 form psnr replaced, kept as its reference."""
    diff = a.luma.astype(np.float64) - b.luma.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0 ** 2 / mse))


_SHAPES = st.tuples(st.integers(1, 64), st.integers(1, 64))


@settings(max_examples=200, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([2, 8, 256]))
def test_matches_float64_on_random_planes(shape, seed, levels):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = Frame(rng.integers(0, levels, size=shape, dtype=np.uint8))
    b = Frame(rng.integers(0, levels, size=shape, dtype=np.uint8))
    assert psnr(a, b) == psnr_float64(a, b)


@settings(max_examples=50, deadline=None)
@given(shape=_SHAPES, seed=st.integers(0, 2**32 - 1))
def test_identical_planes_hit_cap(shape, seed):
    a = Frame(np.random.Generator(np.random.PCG64(seed)).integers(0, 256, size=shape, dtype=np.uint8))
    b = Frame(a.luma.copy())
    assert psnr(a, b) == psnr_float64(a, b) == PSNR_CAP_DB


def test_full_scale_cif_error_is_zero_db():
    # SSE = 255^2 * 101,376 overflows an int32 accumulator
    a = Frame(np.zeros((288, 352), dtype=np.uint8))
    b = Frame(np.full((288, 352), 255, dtype=np.uint8))
    assert psnr(a, b) == psnr_float64(a, b) == 0.0


def test_full_scale_error_on_the_widest_exact_row_is_zero_db():
    # 66,051 * 255^2 is the largest row sum below 2^32
    assert ROW_LIMIT == 66_051
    a = Frame(np.zeros((1, ROW_LIMIT), dtype=np.uint8))
    b = Frame(np.full((1, ROW_LIMIT), 255, dtype=np.uint8))
    assert psnr(a, b) == psnr_float64(a, b) == 0.0


def test_row_wider_than_a_uint32_sum_holds_raises():
    # one more full-scale sample would wrap the row's uint32 sum
    a = Frame(np.zeros((1, ROW_LIMIT + 1), dtype=np.uint8))
    b = Frame(np.full((1, ROW_LIMIT + 1), 255, dtype=np.uint8))
    with pytest.raises(ValueError, match="66051"):
        psnr(a, b)
