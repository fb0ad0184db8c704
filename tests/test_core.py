import numpy as np
import pytest

from instances import all_correct, damage, damaged_mbs, random_field, random_frame_pair
from vidconceal.core import MB, Frame, MbAddress, MbState
from vidconceal.engine import conceal_frame


class TestFrame:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            Frame(np.zeros(16, dtype=np.uint8))

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            Frame(np.full((4, 4), 256, dtype=np.int32))
        with pytest.raises(ValueError):
            Frame(np.full((4, 4), -1, dtype=np.int32))

    @pytest.mark.parametrize("bad", [1.5, 2.7, -0.5, 255.5, np.nan, np.inf, -np.inf])
    def test_rejects_non_integer_samples(self, bad):
        # a fraction used to be truncated and a NaN cast to 0 with only a warning
        plane = np.full((2, 2), 7.0)
        plane[1, 0] = bad
        with pytest.raises(ValueError, match="integers"):
            Frame(plane)

    def test_converts_int_arrays(self):
        f = Frame(np.arange(16).reshape(4, 4))
        assert f.luma.dtype == np.uint8
        assert f.luma[3, 3] == 15

    def test_converts_integral_float_arrays(self):
        f = Frame(np.array([[0.0, 1.0], [254.0, 255.0]]))
        assert f.luma.dtype == np.uint8
        assert f.luma.tolist() == [[0, 1], [254, 255]]

    def test_keeps_uint8_plane(self):
        # the hot paths pass uint8 planes, often views, which Frame keeps as given
        base = np.zeros((4, 8), dtype=np.uint8)
        view = base[:, 2:6]
        assert Frame(view).luma is view

    def test_mb_grid_requires_multiple_of_16(self):
        with pytest.raises(ValueError):
            _ = Frame(np.zeros((24, 32), dtype=np.uint8)).mb_rows
        f = Frame(np.zeros((32, 48), dtype=np.uint8))
        assert (f.mb_cols, f.mb_rows) == (3, 2)

    def test_mb_address_maps_to_pixel_origin(self):
        assert MbAddress(0, 0).origin() == (0, 0)
        assert MbAddress(2, 1).origin() == (32, 16)

    def test_mb_address_pixel_mapping_bijective(self):
        f = Frame(np.zeros((48, 64), dtype=np.uint8))
        origins = {MbAddress(c, r).origin() for r in range(f.mb_rows) for c in range(f.mb_cols)}
        assert len(origins) == f.mb_cols * f.mb_rows
        assert all(x % MB == 0 and y % MB == 0 for x, y in origins)


class TestMbStatus:
    def test_transitions(self, rng):
        cur, ref = random_frame_pair(rng, 48, 32)
        st = damage(all_correct(3, 2), MbAddress(1, 1))
        assert st.tolist() == [[0, 0, 0], [0, 1, 0]]
        out = conceal_frame(cur, ref, all_correct(3, 2), st, random_field(rng, 3, 2), None, "bma")
        assert out.status.tolist() == [[0, 0, 0], [0, 2, 0]]
        assert [rec.mb for rec in out.audit] == [MbAddress(1, 1)]

    def test_correct_cannot_be_concealed(self, rng):
        # only damaged MBs are concealed; correct ones keep state and pixels
        cur, ref = random_frame_pair(rng, 32, 32)
        st = all_correct(2, 2)
        out = conceal_frame(cur, ref, st.copy(), st, random_field(rng, 2, 2), None, "ebmc")
        assert (out.status == MbState.CORRECT).all() and out.audit == []
        assert np.array_equal(out.frame.luma, cur.luma)

    def test_damaged_iterates_raster(self):
        st = damage(all_correct(3, 3), MbAddress(1, 2), MbAddress(0, 1), MbAddress(2, 0))
        assert damaged_mbs(st) == [MbAddress(2, 0), MbAddress(0, 1), MbAddress(1, 2)]
