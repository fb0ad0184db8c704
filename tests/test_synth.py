import numpy as np
import pytest

from vidconceal.synth import main, make_sequence, value_noise

OCTAVES = ((64, 1.0), (32, 0.6), (16, 0.5), (8, 0.45), (4, 0.4))


def four_gather_noise(height, width, rng, octaves=OCTAVES):
    """value_noise as a per-pixel bilinear blend of four full-size gathers
    of the grid corners around each pixel."""
    acc = np.zeros((height, width), dtype=np.float64)
    for cell, amp in octaves:
        grid = rng.random((height // cell + 2, width // cell + 2))
        ys = np.arange(height) / cell
        xs = np.arange(width) / cell
        y0 = ys.astype(int)
        x0 = xs.astype(int)
        fy = (ys - y0)[:, None]
        fx = (xs - x0)[None, :]
        fy = fy * fy * (3 - 2 * fy)
        fx = fx * fx * (3 - 2 * fx)
        g00 = grid[np.ix_(y0, x0)]
        g01 = grid[np.ix_(y0, x0 + 1)]
        g10 = grid[np.ix_(y0 + 1, x0)]
        g11 = grid[np.ix_(y0 + 1, x0 + 1)]
        acc += amp * ((1 - fy) * ((1 - fx) * g00 + fx * g01) + fy * ((1 - fx) * g10 + fx * g11))
    acc -= acc.min()
    peak = acc.max()
    if peak > 0:
        acc *= 255.0 / peak
    return acc.astype(np.uint8)


def _sizes():
    rng = np.random.default_rng(20260810)
    drawn = [tuple(int(v) for v in rng.integers(1, 200, size=2)) for _ in range(40)]
    # 1x1, single rows and columns, exact and off multiples of every cell
    return [(1, 1), (1, 37), (53, 1), (64, 64), (63, 65), (144, 176), *drawn]


@pytest.mark.parametrize("height,width", _sizes())
def test_value_noise_matches_four_gather_blend_bytewise(height, width):
    seed = height * 1000 + width
    got = value_noise(height, width, np.random.default_rng(seed))
    want = four_gather_noise(height, width, np.random.default_rng(seed))
    assert got.dtype == np.uint8 and got.shape == (height, width)
    assert got.tobytes() == want.tobytes()


def test_value_noise_matches_with_custom_octaves():
    octaves = ((16, 1.0), (8, 0.6), (4, 0.45))
    for side in (40, 57, 71):
        got = value_noise(side, side, np.random.default_rng(side), octaves=octaves)
        want = four_gather_noise(side, side, np.random.default_rng(side), octaves=octaves)
        assert got.tobytes() == want.tobytes()


def test_main_writes_make_sequence_as_i420(tmp_path):
    # README's `python -m vidconceal.synth` runs this entry point
    out = tmp_path / "clip.yuv"
    w, h, frames = 48, 32, 3
    assert main(["--out", str(out), "--width", str(w), "--height", str(h), "--frames", str(frames),
                 "--seed", "5", "--sprites", "2"]) == 0
    data = out.read_bytes()
    frame_bytes = w * h * 3 // 2
    assert len(data) == frames * frame_bytes
    for t, luma in enumerate(make_sequence(w, h, frames, 5, 2)):
        assert data[t * frame_bytes : t * frame_bytes + w * h] == luma.tobytes()


@pytest.mark.parametrize("flag,value", [
    ("--width", "350"), ("--width", "0"), ("--width", "-16"),
    ("--height", "280"), ("--height", "0"),
    ("--frames", "0"), ("--frames", "-1"),
    ("--sprites", "-1"),
])
def test_main_rejects_bad_arguments_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "clip.yuv"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "--width", "48", "--height", "32", "--frames", "2", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
