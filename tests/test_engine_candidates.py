import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from instances import (
    all_correct,
    collocated,
    conceal,
    context_at,
    damage,
    pick_damaged,
    plain_concealed_mvs,
    plain_field,
    plain_status,
    random_field,
    random_status,
    zero_field,
)
from vidconceal.core import SIDES, ZERO_MV, MbAddress, MbState, MotionVector
from vidconceal.engine import (
    build_candidates,
    mean_mv,
    median_mv,
)


def ctx_from(top=None, bottom=None, left=None, right=None):
    return tuple(MotionVector(*mv) if mv is not None else None for mv in (top, bottom, left, right))


class TestNeighborContext:
    def test_damaged_neighbors_unavailable(self):
        st = all_correct(3, 3)
        damage(st, MbAddress(1, 0))
        field = zero_field(3, 3)
        top, bottom, _, _ = context_at(st, field, MbAddress(1, 1))
        assert top is None
        assert bottom is not None

    def test_frame_edge_unavailable(self):
        st = all_correct(3, 3)
        top, bottom, left, right = context_at(st, zero_field(3, 3), MbAddress(0, 0))
        assert top is None
        assert left is None
        assert bottom is not None and right is not None

    def test_correct_neighbor_mv_from_field(self):
        st = all_correct(3, 3)
        field = zero_field(3, 3, mvs={MbAddress(1, 0): MotionVector(4, -2)})
        top, _, _, _ = context_at(st, field, MbAddress(1, 1))
        assert top == MotionVector(4, -2)

    def test_concealed_neighbor_mv_from_status(self):
        st = all_correct(3, 3)
        field = zero_field(3, 3, mvs={MbAddress(0, 1): MotionVector(7, 7)})  # transmitted MV was lost
        conceal(st, MbAddress(0, 1), field, MotionVector(-1, 3))
        _, _, left, _ = context_at(st, field, MbAddress(1, 1))
        assert left == MotionVector(-1, 3)

    def test_available_mvs_in_side_order(self):
        around = {MbAddress(1, 0): (1, 0), MbAddress(1, 2): (2, 0), MbAddress(0, 1): (3, 0), MbAddress(2, 1): (4, 0)}
        field = zero_field(3, 3, mvs={mb: MotionVector(*mv) for mb, mv in around.items()})
        ctx = context_at(all_correct(3, 3), field, MbAddress(1, 1))
        assert ctx == (MotionVector(1, 0), MotionVector(2, 0), MotionVector(3, 0), MotionVector(4, 0))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cols=st.integers(1, 6),
        rows=st.integers(1, 6),
        p_damaged=st.floats(0.0, 1.0),
        p_concealed=st.floats(0.0, 1.0),
    )
    def test_matches_oracle_property(self, seed, cols, rows, p_damaged, p_concealed):
        # every MB of a random grid of correct, damaged and concealed MBs,
        # the damaged ones and those at the grid's edges among them
        rng = np.random.Generator(np.random.PCG64(seed))
        status = random_status(rng, cols, rows, p_damaged, p_concealed * (1.0 - p_damaged))
        field = random_field(rng, cols, rows)
        plain = plain_status(status), plain_field(field), plain_concealed_mvs(status, field)
        for row in range(rows):
            for col in range(cols):
                want = oracle.neighbor_mvs(*plain, col, row)
                got = context_at(status, field, MbAddress(col, row))
                assert got == tuple(want[s] for s in oracle.SIDE_NAMES)


class TestMeanMedian:
    def test_mean_rounds_half_away_from_zero(self):
        assert mean_mv([MotionVector(1, 0), MotionVector(2, 1)]) == MotionVector(2, 1)
        assert mean_mv([MotionVector(-1, 0), MotionVector(-2, -1)]) == MotionVector(-2, -1)
        assert mean_mv([MotionVector(1, 1), MotionVector(1, 1), MotionVector(2, 2)]) == MotionVector(1, 1)

    def test_median_odd_is_middle(self):
        mvs = [MotionVector(5, -1), MotionVector(1, 0), MotionVector(3, 7)]
        assert median_mv(mvs) == MotionVector(3, 0)

    def test_median_even_averages_middles(self):
        mvs = [MotionVector(0, 0), MotionVector(1, 0), MotionVector(5, 0), MotionVector(6, 0)]
        assert median_mv(mvs) == MotionVector(3, 0)
        mvs = [MotionVector(0, -1), MotionVector(1, -2)]  # avg (0.5, -1.5) -> (1, -2)
        assert median_mv(mvs) == MotionVector(1, -2)

    def test_single_neighbor_is_its_own_mean_and_median(self):
        assert mean_mv([MotionVector(-4, 6)]) == MotionVector(-4, 6)
        assert median_mv([MotionVector(-4, 6)]) == MotionVector(-4, 6)

    def test_matches_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 5))
            mvs = [MotionVector(int(rng.integers(-7, 8)), int(rng.integers(-7, 8))) for _ in range(n)]
            plain = [(mv.vx, mv.vy) for mv in mvs]
            assert tuple(mean_mv(mvs)) == oracle.mean_mv(plain)
            assert tuple(median_mv(mvs)) == oracle.median_mv(plain)


class TestBuildCandidates:
    def test_spec_example_dedup(self):
        # top and left known as (1,0); bottom/right damaged; collocated (2,1);
        # mean and median both collapse into (1,0)
        ctx = ctx_from(top=(1, 0), left=(1, 0))
        prev = zero_field(3, 3, mvs={MbAddress(1, 1): MotionVector(2, 1)})
        got = build_candidates(collocated(prev, MbAddress(1, 1)), ctx)
        assert got == [MotionVector(0, 0), MotionVector(2, 1), MotionVector(1, 0)]

    def test_all_neighbors_damaged_no_history(self):
        assert build_candidates(ZERO_MV, ctx_from()) == [MotionVector(0, 0)]

    def test_opposite_neighbors_mean_dedups_into_zero(self):
        ctx = ctx_from(top=(3, 0), bottom=(-3, 0))
        got = build_candidates(ZERO_MV, ctx)
        assert got == [MotionVector(0, 0), MotionVector(3, 0), MotionVector(-3, 0)]

    def test_full_order(self):
        ctx = ctx_from(top=(1, 1), bottom=(2, 2), left=(3, 3), right=(4, 4))
        prev = zero_field(3, 3, mvs={MbAddress(1, 1): MotionVector(-5, -5)})
        got = build_candidates(collocated(prev, MbAddress(1, 1)), ctx)
        # mean of the four: (2.5, 2.5) -> (3, 3) dedups into left; median same
        assert got == [
            MotionVector(0, 0),
            MotionVector(-5, -5),
            MotionVector(1, 1),
            MotionVector(2, 2),
            MotionVector(3, 3),
            MotionVector(4, 4),
        ]

    def test_no_damaged_neighbor_mv_ever_included(self, rng):
        for _ in range(100):
            status = random_status(rng, 4, 4)
            field = random_field(rng, 4, 4)
            mb = pick_damaged(rng, status)
            if mb is None:
                continue
            ctx = context_at(status, field, mb)
            cands = build_candidates(ZERO_MV, ctx)
            for side, mv in zip(SIDES, ctx):
                n = oracle.neighbor_cell(mb.col, mb.row, side, 4, 4)
                if n is not None and status[n[1], n[0]] == MbState.DAMAGED:
                    # the lost transmitted MV must not appear via this side
                    assert mv is None

    def test_matches_oracle(self, rng):
        for _ in range(200):
            status = random_status(rng, 4, 4)
            field = random_field(rng, 4, 4)
            prev = random_field(rng, 4, 4) if rng.random() < 0.7 else None
            mb = pick_damaged(rng, status)
            if mb is None:
                continue
            ctx = context_at(status, field, mb)
            got = [tuple(mv) for mv in build_candidates(collocated(prev, mb), ctx)]
            want = oracle.candidates(
                plain_status(status),
                plain_field(field),
                plain_concealed_mvs(status, field),
                plain_field(prev),
                mb.col,
                mb.row,
            )
            assert got == want

    def test_zero_always_first_and_nonempty(self, rng):
        for _ in range(50):
            status = random_status(rng, 4, 4)
            field = random_field(rng, 4, 4)
            mb = pick_damaged(rng, status)
            if mb is None:
                continue
            cands = build_candidates(ZERO_MV, context_at(status, field, mb))
            assert cands[0] == MotionVector(0, 0)
            assert len(cands) == len(set(cands))
