import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vidconceal.core import Frame
from vidconceal.yuv_io import (
    YuvFrameRecord,
    gray_chroma,
    open_sequence,
    read_frame,
    write_pgm,
    write_yuv_frame,
)

QW, QH = 176, 144
QFRAME = QW * QH * 3 // 2  # 38016


def read_pgm(path) -> Frame:
    """Read back a binary PGM written by write_pgm."""
    with open(path, "rb") as f:
        assert f.readline() == b"P5\n"
        w, h = (int(v) for v in f.readline().split())
        assert f.readline() == b"255\n"
        return Frame(np.frombuffer(f.read(), dtype=np.uint8).reshape(h, w))


def make_yuv(path, width, height, frames, rng):
    data = rng.integers(0, 256, size=frames * width * height * 3 // 2, dtype=np.uint8)
    path.write_bytes(data.tobytes())
    return data


class TestOpenSequence:
    def test_frame_count_from_size(self, tmp_path, rng):
        p = tmp_path / "q60.yuv"
        make_yuv(p, QW, QH, 60, rng)
        assert p.stat().st_size == 2_280_960
        hdr = open_sequence(str(p), QW, QH)
        assert hdr.frame_count == 60
        assert hdr.frame_bytes == QFRAME

    def test_single_frame(self, tmp_path, rng):
        p = tmp_path / "q1.yuv"
        make_yuv(p, QW, QH, 1, rng)
        assert open_sequence(str(p), QW, QH).frame_count == 1

    def test_trailing_byte_rejected(self, tmp_path, rng):
        p = tmp_path / "bad.yuv"
        data = make_yuv(p, QW, QH, 1, rng)
        p.write_bytes(data.tobytes() + b"\x00")
        with pytest.raises(ValueError):
            open_sequence(str(p), QW, QH)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_sequence(str(tmp_path / "nope.yuv"), QW, QH)

    def test_non_mb_dimensions_rejected(self, tmp_path, rng):
        p = tmp_path / "x.yuv"
        make_yuv(p, QW, QH, 1, rng)
        with pytest.raises(ValueError):
            open_sequence(str(p), 170, 144)


class TestReadFrame:
    def test_i420_layout(self, tmp_path, rng):
        p = tmp_path / "q2.yuv"
        data = make_yuv(p, QW, QH, 2, rng)
        hdr = open_sequence(str(p), QW, QH)
        rec = read_frame(hdr, 0)
        assert rec.luma.luma[0, 0] == data[0]  # first byte is f(0,0)
        assert rec.luma.luma[0, 1] == data[1]
        assert rec.luma.luma[1, 0] == data[QW]
        ny = QW * QH
        nc = (QW // 2) * (QH // 2)
        assert rec.chroma_u == data[ny : ny + nc].tobytes()
        assert rec.chroma_v == data[ny + nc : ny + 2 * nc].tobytes()

    def test_frame_offset(self, tmp_path, rng):
        p = tmp_path / "q3.yuv"
        data = make_yuv(p, QW, QH, 3, rng)
        hdr = open_sequence(str(p), QW, QH)
        for k in range(3):
            assert read_frame(hdr, k).luma.luma[0, 0] == data[k * QFRAME]

    def test_index_out_of_range(self, tmp_path, rng):
        p = tmp_path / "q1.yuv"
        make_yuv(p, QW, QH, 1, rng)
        hdr = open_sequence(str(p), QW, QH)
        with pytest.raises(IndexError):
            read_frame(hdr, hdr.frame_count)

    def test_random_access_independent(self, tmp_path, rng):
        p = tmp_path / "q4.yuv"
        make_yuv(p, QW, QH, 4, rng)
        hdr = open_sequence(str(p), QW, QH)
        direct = read_frame(hdr, 2).luma.luma
        read_frame(hdr, 0)
        read_frame(hdr, 3)
        again = read_frame(hdr, 2).luma.luma
        assert np.array_equal(direct, again)


class TestWriteYuv:
    def test_round_trip_byte_exact(self, tmp_path, rng):
        src = tmp_path / "in.yuv"
        data = make_yuv(src, QW, QH, 3, rng)
        hdr = open_sequence(str(src), QW, QH)
        dst = tmp_path / "out.yuv"
        with open(dst, "wb") as sink:
            for t in range(hdr.frame_count):
                write_yuv_frame(read_frame(hdr, t), sink)
        assert dst.read_bytes() == data.tobytes()

    def test_luma_change_touches_only_y_plane(self, tmp_path, rng):
        src = tmp_path / "in.yuv"
        data = make_yuv(src, QW, QH, 1, rng)
        hdr = open_sequence(str(src), QW, QH)
        rec = read_frame(hdr, 0)
        mod = rec.luma.luma.copy()
        mod[10, 10] ^= 0xFF
        dst = tmp_path / "out.yuv"
        with open(dst, "wb") as sink:
            write_yuv_frame(YuvFrameRecord(Frame(mod), rec.chroma_u, rec.chroma_v), sink)
        out = dst.read_bytes()
        ny = QW * QH
        assert out[ny:] == data.tobytes()[ny:]
        assert out[:ny] != data.tobytes()[:ny]
        assert dst.stat().st_size == QFRAME

    def test_chroma_size_checked(self, tmp_path):
        rec = YuvFrameRecord(Frame(np.zeros((16, 16), dtype=np.uint8)), b"\x80" * 10, b"\x80" * 64)
        with open(tmp_path / "x.yuv", "wb") as sink:
            with pytest.raises(ValueError):
                write_yuv_frame(rec, sink)


class TestPgm:
    def test_exact_bytes(self, tmp_path):
        f = Frame(np.array([[0, 128], [255, 64]], dtype=np.uint8))
        p = tmp_path / "f.pgm"
        write_pgm(f, str(p))
        assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])

    def test_round_trip(self, tmp_path, rng):
        f = Frame(rng.integers(0, 256, size=(48, 32), dtype=np.uint8))
        p = tmp_path / "f.pgm"
        write_pgm(f, str(p))
        assert np.array_equal(read_pgm(str(p)).luma, f.luma)


def test_gray_chroma_size():
    assert len(gray_chroma(QW, QH)) == (QW // 2) * (QH // 2)
    assert set(gray_chroma(16, 16)) == {128}


# Each example rewrites the same files under tmp_path, so sharing the
# function-scoped fixture across examples is safe.
_FILE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FILE_SETTINGS
@given(
    cols=st.integers(1, 4), rows=st.integers(1, 4), frames=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_i420_round_trip_property(tmp_path, cols, rows, frames, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    w, h = 16 * cols, 16 * rows
    nc = (w // 2) * (h // 2)
    records = [
        YuvFrameRecord(
            Frame(rng.integers(0, 256, size=(h, w), dtype=np.uint8)),
            rng.integers(0, 256, size=nc, dtype=np.uint8).tobytes(),
            rng.integers(0, 256, size=nc, dtype=np.uint8).tobytes(),
        )
        for _ in range(frames)
    ]
    path = tmp_path / "seq.yuv"
    with open(path, "wb") as sink:
        for rec in records:
            write_yuv_frame(rec, sink)
    hdr = open_sequence(str(path), w, h)
    assert hdr.frame_count == frames
    for t in reversed(range(frames)):  # random access, not just sequential
        got = read_frame(hdr, t)
        assert np.array_equal(got.luma.luma, records[t].luma.luma)
        assert (got.chroma_u, got.chroma_v) == (records[t].chroma_u, records[t].chroma_v)


@_FILE_SETTINGS
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([1, 2, 256]),
)
def test_pgm_round_trip_property(tmp_path, shape, seed, levels):
    # levels=256 puts newline and space bytes in the sample data
    f = Frame(np.random.Generator(np.random.PCG64(seed)).integers(0, levels, size=shape, dtype=np.uint8))
    path = tmp_path / "f.pgm"
    write_pgm(f, str(path))
    got = read_pgm(str(path))
    assert got.luma.shape == f.luma.shape
    assert np.array_equal(got.luma, f.luma)
