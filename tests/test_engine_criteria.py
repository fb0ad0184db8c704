import numpy as np
import pytest

import oracle
from instances import (
    all_correct,
    conceal,
    context_at,
    damage,
    pick_damaged,
    plain_pixels,
    plain_status,
    plain_concealed_mvs,
    plain_field,
    random_field,
    random_frame_pair,
    random_inbounds_mv,
    random_status,
    zero_field,
)
from vidconceal.core import (
    SIDES,
    Frame,
    MbAddress,
    MotionVector,
)
from vidconceal.engine import (
    select_mv,
)

TOP, BOTTOM, LEFT, RIGHT = SIDES


def ctx_all(mv):
    return (mv,) * 4


def ctx_none():
    return (None,) * 4


def ctx_top(nmv):
    """Every neighbor at the zero vector except the top one, at ``nmv``."""
    return (nmv,) + ctx_all(MotionVector(0, 0))[1:]


# The criteria are read from the per-side breakdown select_mv returns when
# it scores a single in-frame candidate.

def ebmc(cur, ref, ref_status, mb, mv, ctx):
    got, d = select_mv(cur, ref, ref_status, mb, [mv], ctx, "ebmc")
    assert got == mv
    return d


def bmc(cur, ref, mb, mv, side, status=None):
    """Classic distortion of one side; ``status`` decides which neighbors
    are available (all Correct when None)."""
    cols, rows = cur.width // 16, cur.height // 16
    if status is None:
        status = all_correct(cols, rows)
    got, d = select_mv(cur, ref, status, mb, [mv], context_at(status, zero_field(cols, rows), mb), "bma")
    assert got == mv
    return d.classic[side]


def pbmc(ref, ref_status, mb, mv, side, ctx):
    """Additional-boundary distortion of one side."""
    return ebmc(ref, ref, ref_status, mb, mv, ctx).proposed[side]


class TestBoundaryBmc:
    def test_identity_zero_on_smooth_content(self):
        # the criterion compares the outer boundary with the candidate's
        # inner one (adjacent lines), so exact zero needs smooth content
        f = Frame(np.full((48, 48), 123, dtype=np.uint8))
        mb = MbAddress(1, 1)
        for side in SIDES:
            assert bmc(f, f, mb, MotionVector(0, 0), side) == 0

    def test_adjacent_line_semantics(self, rng):
        # identical random frames at zero MV score the outer-vs-inner line
        # difference, not zero
        f = Frame(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        mb = MbAddress(1, 1)
        got = bmc(f, f, mb, MotionVector(0, 0), TOP)
        want = int(np.abs(f.luma[15, 16:32].astype(int) - f.luma[16, 16:32].astype(int)).sum())
        assert got == want

    def test_frame_corner_sides_absent(self):
        f = Frame(np.full((48, 48), 9, dtype=np.uint8))
        mv = MotionVector(0, 0)
        assert bmc(f, f, MbAddress(0, 0), mv, TOP) is None
        assert bmc(f, f, MbAddress(0, 0), mv, LEFT) is None
        assert bmc(f, f, MbAddress(0, 0), mv, BOTTOM) == 0
        assert bmc(f, f, MbAddress(2, 2), mv, BOTTOM) is None
        assert bmc(f, f, MbAddress(2, 2), mv, RIGHT) is None

    def test_single_pixel_delta_on_top_row(self):
        # outer top row all 10; candidate's inner top row differs by 2 once
        cur = Frame(np.full((32, 32), 10, dtype=np.uint8))
        ref = Frame(np.full((32, 32), 10, dtype=np.uint8))
        mb = MbAddress(0, 1)  # origin (0, 16), outer top row is y=15
        ref.luma[16, 5] = 12  # inner top row of the (0,0) candidate is y=16
        assert bmc(cur, ref, mb, MotionVector(0, 0), TOP) == 2

    def test_damaged_owner_makes_side_absent(self, rng):
        cur, ref = random_frame_pair(rng, 48, 48)
        st = all_correct(3, 3)
        damage(st, MbAddress(1, 0))  # top neighbor of (1,1)
        mb = MbAddress(1, 1)
        assert bmc(cur, ref, mb, MotionVector(0, 0), TOP, st) is None
        assert bmc(cur, ref, mb, MotionVector(0, 0), BOTTOM, st) is not None

    def test_concealed_owner_keeps_side_present(self, rng):
        cur, ref = random_frame_pair(rng, 48, 48)
        st = all_correct(3, 3)
        conceal(st, MbAddress(1, 0))
        assert bmc(cur, ref, MbAddress(1, 1), MotionVector(0, 0), TOP, st) is not None

    def test_matches_oracle(self, rng):
        for _ in range(50):
            cur, ref = random_frame_pair(rng, 64, 64)
            mb = MbAddress(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            mv = random_inbounds_mv(rng, ref, mb)
            for side in SIDES:
                got = bmc(cur, ref, mb, mv, side)
                if oracle.neighbor_cell(mb.col, mb.row, side, 4, 4) is None:
                    assert got is None
                else:
                    want = oracle.bmc_side(plain_pixels(cur), plain_pixels(ref), mb.col, mb.row, mv.vx, mv.vy, side)
                    assert got == want


def bmc_total(side_values) -> int:
    """classic_total select_mv reports for the zero vector on flat frames
    where each side's outer boundary carries its value, in SIDES order, in
    one pixel; a None side's neighbor is damaged."""
    cur = Frame(np.full((48, 48), 50, dtype=np.uint8))
    ref = Frame(np.full((48, 48), 50, dtype=np.uint8))
    status = all_correct(3, 3)
    mb = MbAddress(1, 1)  # origin (16, 16)
    outer = {TOP: (15, 20), BOTTOM: (32, 20), LEFT: (20, 15), RIGHT: (20, 32)}  # (y, x)
    for side, v in zip(SIDES, side_values):
        y, x = outer[side]
        if v is None:
            damage(status, MbAddress(x // 16, y // 16))
        else:
            cur.luma[y, x] = 50 + v
    _, d = select_mv(cur, ref, status, mb, [MotionVector(0, 0)], context_at(status, zero_field(3, 3), mb), "bma")
    assert list(d.classic.values()) == list(side_values)
    return d.classic_total


class TestBmcTotal:
    def test_all_sides_present(self):
        assert bmc_total([5, 5, 5, 5]) == 20

    def test_absent_sides_skipped(self):
        assert bmc_total([None, None, 3, 4]) == 7

    def test_all_absent_degenerates_to_zero(self):
        assert bmc_total([None, None, None, None]) == 0


class TestBoundaryPbmc:
    def test_static_scene_zero(self, rng):
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        st = all_correct(4, 4)
        mb = MbAddress(1, 1)
        ctx = ctx_all(MotionVector(0, 0))
        for side in SIDES:
            assert pbmc(ref, st, mb, MotionVector(0, 0), side, ctx) == 0

    def test_coherent_motion_on_constant_columns(self):
        # f(x, y) = g(x): rows are identical, so the matched segments agree
        g = np.arange(64, dtype=np.uint8) * 3
        ref = Frame(np.tile(g, (64, 1)))
        st = all_correct(4, 4)
        mv = MotionVector(2, 3)
        ctx = ctx_all(mv)
        assert pbmc(ref, st, MbAddress(1, 1), mv, TOP, ctx) == 0
        assert pbmc(ref, st, MbAddress(1, 1), mv, BOTTOM, ctx) == 0

    def test_neighbor_mv_equal_to_candidate_gives_zero_on_any_texture(self, rng):
        # the additional boundary then coincides with the candidate's inner one
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        st = all_correct(4, 4)
        mv = MotionVector(-3, 4)
        ctx = ctx_all(mv)
        for side in SIDES:
            assert pbmc(ref, st, MbAddress(1, 1), mv, side, ctx) == 0

    def test_unavailable_neighbor_absent(self, rng):
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        st = all_correct(4, 4)
        assert pbmc(ref, st, MbAddress(1, 1), MotionVector(0, 0), TOP, ctx_none()) is None

    def test_concealed_reference_cell_absent(self, rng):
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        st = all_correct(4, 4)
        mb = MbAddress(1, 1)
        # top neighbor moved up by 7: its outer row lands in the row-0 MB band
        nmv = MotionVector(0, -7)
        ctx = ctx_top(nmv)
        assert pbmc(ref, st, mb, MotionVector(0, 0), TOP, ctx) is not None
        conceal(st, MbAddress(1, 0))
        assert pbmc(ref, st, mb, MotionVector(0, 0), TOP, ctx) is None

    def test_any_of_two_spanned_cells_concealed_is_enough(self, rng):
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        mb = MbAddress(1, 1)
        # nmv shifts the segment right by 5: spans ref MB columns 1 and 2
        nmv = MotionVector(5, -7)
        ctx = ctx_top(nmv)
        for concealed_col in (1, 2):
            st = all_correct(4, 4)
            conceal(st, MbAddress(concealed_col, 0))
            assert pbmc(ref, st, mb, MotionVector(0, 0), TOP, ctx) is None

    def test_segment_outside_reference_absent(self, rng):
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        st = all_correct(4, 4)
        # top neighbor of the top-row MB (1,0) does not exist, but craft the
        # context anyway: segment y = 0 + (-7) < 0 leaves the frame
        ctx = ctx_top(MotionVector(0, -7))
        assert pbmc(ref, st, MbAddress(1, 0), MotionVector(0, 0), TOP, ctx) is None

    def test_matches_oracle(self, rng):
        for _ in range(50):
            _, ref = random_frame_pair(rng, 64, 64)
            ref_status = random_status(rng, 4, 4)
            field = random_field(rng, 4, 4)
            status = random_status(rng, 4, 4)
            mb = pick_damaged(rng, status)
            if mb is None:
                continue
            ctx = context_at(status, field, mb)
            mv = random_inbounds_mv(rng, ref, mb)
            nmvs = oracle.neighbor_mvs(
                plain_status(status), plain_field(field), plain_concealed_mvs(status, field), mb.col, mb.row
            )
            # a concealed collocated reference MB drops every additional
            # boundary (the wholesale fallback oracle.ebmc_eval applies)
            fallback = plain_status(ref_status)[mb.row][mb.col] == 2
            for side in SIDES:
                got = pbmc(ref, ref_status, mb, mv, side, ctx)
                want = None if fallback else oracle.pbmc_side(
                    plain_pixels(ref), plain_status(ref_status), mb.col, mb.row,
                    mv.vx, mv.vy, side, nmvs[side],
                )
                assert got == want


class TestEbmcTotal:
    def test_pbmc_absent_everywhere_degenerates_to_bmc(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        status = all_correct(4, 4)
        ref_status = all_correct(4, 4)
        mb = MbAddress(1, 1)
        # neighbors available but each side's additional boundary lands in a
        # concealed reference band
        ctx = (MotionVector(0, -7), MotionVector(0, 7), MotionVector(-7, 0), MotionVector(7, 0))
        for cell in (MbAddress(1, 0), MbAddress(1, 2), MbAddress(0, 1), MbAddress(2, 1)):
            conceal(ref_status, cell)
        mv = MotionVector(2, 1)
        d = ebmc(cur, ref, ref_status, mb, mv, ctx)
        assert all(d.proposed[s] is None for s in SIDES)
        assert d.total == d.classic_total
        assert d.chosen == d.classic

    def test_per_side_min(self):
        cur = Frame(np.full((48, 48), 50, dtype=np.uint8))
        ref = Frame(np.full((48, 48), 50, dtype=np.uint8))
        mb = MbAddress(1, 1)  # origin (16, 16)
        cur.luma[15, 20] = 57  # outer top row: one pixel +7 -> BMC_top = 7
        ref.luma[15, 24] = 53  # additional row (nmv (0,-1)): one pixel +3 -> PBMC_top = 3
        ctx = ctx_top(MotionVector(0, -1))
        d = ebmc(cur, ref, all_correct(3, 3), mb, MotionVector(0, 0), ctx)
        assert d.classic[TOP] == 7
        assert d.proposed[TOP] == 3
        assert d.chosen[TOP] == 3

    def test_collocated_concealed_forces_classic_everywhere(self, rng):
        # translating noise: PBMC of the true vector would be 0, BMC is not
        base = rng.integers(0, 256, size=(70, 70), dtype=np.uint8)
        ref = Frame(base[:64, :64].copy())
        cur = Frame(base[2 : 2 + 64, 3 : 3 + 64].copy())
        mv = MotionVector(3, 2)
        ctx = ctx_all(mv)
        mb = MbAddress(1, 1)
        clean = all_correct(4, 4)
        d_normal = ebmc(cur, ref, clean, mb, mv, ctx)
        assert d_normal.total == 0  # additional boundaries match exactly

        tainted = all_correct(4, 4)
        conceal(tainted, mb)
        d = ebmc(cur, ref, tainted, mb, mv, ctx)
        assert d.collocated_fallback
        assert all(d.proposed[s] is None for s in SIDES)
        assert d.total == d.classic_total > 0

    def test_absent_both_sides_contribute_zero_and_flagged(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = all_correct(4, 4)
        mb = MbAddress(0, 0)
        ctx = context_at(st, random_field(rng, 4, 4), mb)
        d = ebmc(cur, ref, st, mb, MotionVector(0, 0), ctx)
        assert d.chosen[TOP] is None and d.chosen[LEFT] is None
        assert d.sides_absent == 2

    def test_dominance_random(self, rng):
        # EBMC never exceeds BMC per side nor in total (mini; full run in acceptance)
        for _ in range(300):
            cur, ref = random_frame_pair(rng, 64, 64)
            status = random_status(rng, 4, 4)
            ref_status = random_status(rng, 4, 4)
            field = random_field(rng, 4, 4)
            mb = pick_damaged(rng, status)
            if mb is None:
                continue
            ctx = context_at(status, field, mb)
            mv = random_inbounds_mv(rng, ref, mb)
            d = ebmc(cur, ref, ref_status, mb, mv, ctx)
            for side in SIDES:
                if d.classic[side] is not None and d.chosen[side] is not None:
                    assert d.chosen[side] <= d.classic[side]
                if d.proposed[side] is not None:
                    assert d.classic[side] is not None  # PBMC present implies BMC present
            assert d.total <= d.classic_total
