import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from instances import (
    all_correct,
    collocated,
    context_at,
    damage,
    mv_at,
    pick_damaged,
    plain_concealed_mvs,
    plain_field,
    plain_pixels,
    plain_status,
    random_field,
    random_frame_pair,
    random_mv,
    random_status,
    zero_field,
)
from vidconceal.core import (
    MB,
    SIDES,
    Frame,
    MbAddress,
    MbState,
    MotionVector,
)
from vidconceal.engine import (
    MODES,
    AuditRecord,
    BoundaryDistortion,
    PrioritySchedule,
    audit_csv_header,
    audit_csv_line,
    build_candidates,
    conceal_frame,
    conceal_order,
    select_mv,
)
from vidconceal.loss import TrialConfig, make_mask
from vidconceal.motion import estimate_field

TOP, BOTTOM, LEFT, RIGHT = SIDES
# MB-grid step (dcol, drow) to the neighbor owning each side, in SIDES order.
SIDE_STEPS = ((0, -1), (0, 1), (-1, 0), (1, 0))


def damaged_map(cols, rows, lost):
    return damage(all_correct(cols, rows), *lost)


def shifted_scene(rng, width=96, height=96, dx=3, dy=2):
    base = rng.integers(0, 256, size=(height + 2 * abs(dy), width + 2 * abs(dx)), dtype=np.uint8)
    my, mx = abs(dy), abs(dx)
    ref = Frame(base[my : my + height, mx : mx + width].copy())
    cur = Frame(base[my + dy : my + dy + height, mx + dx : mx + dx + width].copy())
    return cur, ref


_MV = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda v: MotionVector(*v))


@st.composite
def _scoring_instance(draw):
    """A random instance built with tests/instances.py on a 1x1 to 4x4 MB
    grid. Few-valued content makes equal totals common, and the candidate
    list (the engine's own, then drawn extras) can hold duplicates and
    vectors whose block leaves the frame. Half the contexts name the
    off-frame neighbors of an edge MB too (see _name_off_frame)."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    cols, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cur, ref = random_frame_pair(rng, MB * cols, MB * rows, levels=draw(st.sampled_from([1, 2, 3, 256])))
    status = random_status(rng, cols, rows)
    ref_status = random_status(rng, cols, rows)
    field = random_field(rng, cols, rows)
    mb = pick_damaged(rng, status)
    if mb is None:
        mb = MbAddress(int(rng.integers(0, cols)), int(rng.integers(0, rows)))
        status[mb.row, mb.col] = MbState.DAMAGED
    prev = random_field(rng, cols, rows) if draw(st.booleans()) else None
    ctx = context_at(status, field, mb)
    if draw(st.booleans()):
        ctx = _name_off_frame(rng, ctx, mb, cols, rows)
    cands = build_candidates(collocated(prev, mb), ctx)
    cands += draw(st.lists(_MV, max_size=6))
    return cur, ref, status, ref_status, field, mb, cands, ctx


@st.composite
def _loss_grid(draw):
    """(cols, rows, damaged cells) on grids from 1x1 to 12x12, with
    all-damaged grids and single-row grids drawn on purpose."""
    kind = draw(st.sampled_from(["random", "all", "row"]))
    cols = draw(st.integers(1, 12))
    rows = 1 if kind == "row" else draw(st.integers(1, 12))
    n = cols * rows
    lost = [True] * n if kind == "all" else draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return cols, rows, {(c, r) for r in range(rows) for c in range(cols) if lost[r * cols + c]}


@st.composite
def _audit_record(draw):
    """An AuditRecord as any mode leaves it: negative vector components, and
    -1 totals with four absent sides where the mode does not score."""
    mode = draw(st.sampled_from(MODES))
    scored = mode in ("bma", "ebmc") and draw(st.booleans())
    return AuditRecord(
        MbAddress(draw(st.integers(0, 119)), draw(st.integers(0, 67))), mode, draw(_MV),
        draw(st.integers(0, 1 << 16)) if scored else -1, draw(st.integers(0, 1 << 16)) if scored else -1,
        draw(st.integers(0, 4)) if scored else 4,
    )


def _benchmark_grids(test):
    """Add the CIF (22x18) and QCIF (11x9) grids, lost as make_mask draws
    them at rates 0.1, 0.5 and 1.0, as explicit examples of a _loss_grid
    test: the strategy stops at 12x12."""
    for cols, rows in ((22, 18), (11, 9)):
        for rate in (0.1, 0.5, 1.0):
            lost = make_mask(1, cols, rows, TrialConfig(rate, seed=20260810)).lost.tolist()
            test = example(grid=(cols, rows, {(k % cols, k // cols) for k in lost}))(test)
    return test


def _name_off_frame(rng, ctx, mb, cols, rows):
    """``ctx`` with a random vector on each side whose neighbor lies off the
    cols x rows grid. The scorer must keep such an outer boundary absent,
    yet score the additional boundary that vector points at where it lies
    in the reference."""
    return tuple(
        random_mv(rng) if not (0 <= mb.col + dc < cols and 0 <= mb.row + dr < rows) else mv
        for (dc, dr), mv in zip(SIDE_STEPS, ctx)
    )


def _check_scoring(mode, cur, ref, status, ref_status, field, mb, cands, ctx):
    """select_mv against the oracle: the winner and its total, then the
    winner's whole breakdown (each side's classic, proposed and chosen
    value, the classic total, the absent sides and the collocated
    fallback). The oracle derives the in-grid neighbor vectors itself and
    takes those of off-grid neighbors from ``ctx``. Returns the breakdown."""
    got_mv, got = select_mv(cur, ref, ref_status, mb, cands, ctx, mode)
    cur_p, ref_p = plain_pixels(cur), plain_pixels(ref)
    st_p, ref_st_p = plain_status(status), plain_status(ref_status)
    col, row = mb
    rows, cols = status.shape
    nmvs = oracle.neighbor_mvs(st_p, plain_field(field), plain_concealed_mvs(status, field), col, row)
    for side, mv in zip(oracle.SIDE_NAMES, ctx):
        if oracle.neighbor_cell(col, row, side, cols, rows) is None:
            nmvs[side] = mv
    want_mv, want_total = oracle.select(
        mode, cur_p, ref_p, st_p, ref_st_p, col, row, [tuple(c) for c in cands], nmvs,
    )
    assert tuple(got_mv) == want_mv
    assert got.total == want_total
    i, j = mb.origin()
    h, w = cur.luma.shape
    if not any(0 <= i + vx <= w - MB and 0 <= j + vy <= h - MB for vx, vy in cands):
        assert got == BoundaryDistortion.empty()
        return got
    vi, vj = want_mv
    fallback = mode == "ebmc" and ref_st_p[row][col] == MbState.CONCEALED
    classic = {s: oracle.bmc_side_checked(cur_p, ref_p, st_p, col, row, vi, vj, s) for s in oracle.SIDE_NAMES}
    if mode == "ebmc":
        proposed = {
            s: None if fallback else oracle.pbmc_side(ref_p, ref_st_p, col, row, vi, vj, s, nmvs[s])
            for s in oracle.SIDE_NAMES
        }
        total, chosen = oracle.ebmc_eval(cur_p, ref_p, st_p, ref_st_p, col, row, vi, vj, nmvs)
    else:
        proposed = dict.fromkeys(oracle.SIDE_NAMES)
        total, chosen = oracle.bma_eval(cur_p, ref_p, st_p, col, row, vi, vj), classic
    assert got.total == total
    assert (got.classic, got.proposed, got.chosen) == (classic, proposed, chosen)
    assert got.classic_total == sum(v for v in classic.values() if v is not None)
    assert got.sides_absent == sum(v is None for v in chosen.values())
    assert got.collocated_fallback == fallback
    return got


class TestSelectMv:
    def test_static_scene_zero_wins_with_zero_total(self, rng):
        f = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        st = all_correct(4, 4)
        mb = MbAddress(1, 1)
        ctx = context_at(st, zero_field(4, 4), mb)
        mv, dist = select_mv(f, f, st, mb, [MotionVector(0, 0), MotionVector(2, 1)], ctx, "ebmc")
        assert mv == MotionVector(0, 0)
        assert dist.total == 0  # additional boundaries coincide exactly

    def test_bma_static_zero_on_flat_content(self):
        f = Frame(np.full((64, 64), 200, dtype=np.uint8))
        st = all_correct(4, 4)
        mb = MbAddress(1, 1)
        ctx = context_at(st, zero_field(4, 4), mb)
        mv, dist = select_mv(f, f, st, mb, [MotionVector(0, 0), MotionVector(2, 1)], ctx, "bma")
        assert mv == MotionVector(0, 0)
        assert dist.total == 0

    def test_tie_goes_to_earlier_candidate(self):
        f = Frame(np.full((64, 64), 80, dtype=np.uint8))
        st = all_correct(4, 4)
        mb = MbAddress(1, 1)
        ctx = context_at(st, zero_field(4, 4), mb)
        # flat content: every candidate scores 0, so list order decides
        mv, _ = select_mv(f, f, st, mb, [MotionVector(1, 0), MotionVector(0, 0)], ctx, "bma")
        assert mv == MotionVector(1, 0)

    def test_out_of_frame_candidates_skipped(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = all_correct(4, 4)
        mb = MbAddress(0, 0)
        ctx = context_at(st, zero_field(4, 4), mb)
        mv, _ = select_mv(cur, ref, st, mb, [MotionVector(-3, -3), MotionVector(1, 1)], ctx, "bma")
        assert mv == MotionVector(1, 1)

    def test_all_skipped_falls_back_to_zero(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = all_correct(4, 4)
        mb = MbAddress(0, 0)
        ctx = context_at(st, zero_field(4, 4), mb)
        mv, dist = select_mv(cur, ref, st, mb, [MotionVector(-3, -3)], ctx, "ebmc")
        assert mv == MotionVector(0, 0)
        assert dist.sides_absent == 4 and dist.total == 0

    def test_mode_validation(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = all_correct(4, 4)
        ctx = context_at(st, zero_field(4, 4), MbAddress(0, 0))
        with pytest.raises(ValueError):
            select_mv(cur, ref, st, MbAddress(0, 0), [MotionVector(0, 0)], ctx, "tr")

    @pytest.mark.parametrize("mode", ["bma", "ebmc"])
    def test_matches_oracle_randomized(self, rng, mode):
        agree = named = named_scored = 0
        for _ in range(150):
            cur, ref = random_frame_pair(rng, 64, 64)
            status = random_status(rng, 4, 4)
            ref_status = random_status(rng, 4, 4)
            field = random_field(rng, 4, 4)
            prev = random_field(rng, 4, 4) if rng.random() < 0.7 else None
            mb = pick_damaged(rng, status)
            if mb is None:
                continue
            ctx = context_at(status, field, mb)
            cands = build_candidates(collocated(prev, mb), ctx)
            _check_scoring(mode, cur, ref, status, ref_status, field, mb, cands, ctx)
            agree += 1
            off = _name_off_frame(rng, ctx, mb, 4, 4)
            if off != ctx:
                dist = _check_scoring(mode, cur, ref, status, ref_status, field, mb, cands, off)
                named += 1
                named_scored += any(
                    mv is None and p is not None for mv, p in zip(ctx, dist.proposed.values())
                )
        assert agree > 100
        # edge MBs are common on a 4x4 grid, and with ebmc some of their
        # off-frame neighbors' additional boundaries land in the reference
        assert named > 50
        if mode == "ebmc":
            assert named_scored > 10

    @pytest.mark.parametrize("mode", ["bma", "ebmc"])
    @settings(max_examples=150, deadline=None)
    @given(inst=_scoring_instance())
    def test_matches_oracle_property(self, mode, inst):
        _check_scoring(mode, *inst)


def _view_plane(plane, view):
    """``plane``'s samples held by a view that is not C-contiguous: a column
    slice of a wider array, or a vertical flip with a negative row stride."""
    if view == "column_slice":
        h, w = plane.shape
        base = np.full((h, w + 2 * MB), 77, dtype=np.uint8)
        base[:, MB : MB + w] = plane
        held = base[:, MB : MB + w]
    else:
        held = plane[::-1].copy()[::-1]
    assert not held.flags.c_contiguous and np.array_equal(held, plane)
    return held


def _replay_against_oracle(mode, grid, seed, view=None):
    """Conceal a random frame on ``grid`` in ``mode`` and replay its audit
    MB by MB against the oracle: the vectors of the MBs concealed so far are
    kept apart from the transmitted field, as the oracle takes them. Checks
    each vector, the final frame and status grid, and that every pixel of
    the MBs that were not Damaged is left as given. With ``view``, the
    reference and the damaged frame are passed as views (see _view_plane)."""
    cols, rows, lost = grid
    width, height = MB * cols, MB * rows
    rng = np.random.Generator(np.random.PCG64(seed))
    cur, ref = random_frame_pair(rng, width, height, levels=(2, 256)[seed % 2])
    field, prev = random_field(rng, cols, rows), random_field(rng, cols, rows)
    damaged_grid = damaged_map(cols, rows, [MbAddress(c, r) for c, r in lost])
    ref_status = random_status(rng, cols, rows)
    given_cur, given_ref = cur, ref
    if view is not None:
        given_cur, given_ref = Frame(_view_plane(cur.luma, view)), Frame(_view_plane(ref.luma, view))
    order = conceal_order(damaged_grid)
    out = conceal_frame(given_cur, given_ref, ref_status, damaged_grid, field, prev, mode, order)
    assert len(out.audit) == len(lost)
    status, concealed, work = plain_status(damaged_grid), [[None] * cols for _ in range(rows)], cur.luma.copy()
    for rec in out.audit:
        col, row = rec.mb
        nmvs = oracle.neighbor_mvs(status, plain_field(field), concealed, col, row)
        if mode in ("bma", "ebmc"):
            cands = oracle.candidates(status, plain_field(field), concealed, plain_field(prev), col, row)
            want, _ = oracle.select(mode, work, ref.luma, status, plain_status(ref_status), col, row, cands, nmvs)
        elif mode == "tr":
            want = (0, 0)
        else:
            mvs = [mv for mv in nmvs.values() if mv is not None]
            vx, vy = (oracle.mean_mv(mvs) if mode == "avg" else oracle.median_mv(mvs)) if mvs else (0, 0)
            want = (min(max(vx, -MB * col), width - MB - MB * col), min(max(vy, -MB * row), height - MB - MB * row))
        assert tuple(rec.mv) == want
        status[row][col], concealed[row][col] = MbState.CONCEALED, want
        i, j = MB * col, MB * row
        work[j : j + MB, i : i + MB] = ref.luma[j + want[1] : j + want[1] + MB, i + want[0] : i + want[0] + MB]
    assert np.array_equal(out.frame.luma, work)
    assert out.status.tolist() == status
    kept = np.repeat(np.repeat(damaged_grid != MbState.DAMAGED, MB, axis=0), MB, axis=1)
    assert np.array_equal(out.frame.luma[kept], cur.luma[kept])


def _drain(status, conceal=True):
    """Every MB the schedule of ``status`` pops, in order. With ``conceal``
    these are conceal_order's pops, each paired with the count the oracle
    replays it at (the replay raises unless each MB had the highest live
    count, ties in raster order). Without it no concealment bumps a count,
    so the MBs come out by starting count, ties in raster order."""
    rows, cols = status.shape
    if not conceal:
        sched, pops = PrioritySchedule(status), []
        while (k := sched.extract()) >= 0:
            pops.append(MbAddress(k % cols, k // cols))
        return pops
    order = [MbAddress(k % cols, k // cols) for k in conceal_order(status).tolist()]
    damaged = {(col, row) for row, col in np.argwhere(status == MbState.DAMAGED).tolist()}
    return list(zip(order, oracle.replay_schedule(damaged, cols, rows, order)))


class TestPrioritySchedule:
    def test_initial_counts(self):
        st = damaged_map(4, 4, [MbAddress(1, 1), MbAddress(2, 1), MbAddress(0, 0)])
        assert _drain(st, conceal=False) == [
            MbAddress(1, 1),  # 3: right neighbor damaged
            MbAddress(2, 1),  # 3
            MbAddress(0, 0),  # 2: corner, two in-frame neighbors
        ]

    def test_three_in_a_row_order_and_counts(self):
        # run A,B,C at (1,1),(2,1),(3,1): ends start at 3, middle at 2.
        # max-count with raster tie-break extracts A, then B (its count is
        # now 3 and it precedes C in raster order), then C at 4.
        a, b, c = MbAddress(1, 1), MbAddress(2, 1), MbAddress(3, 1)
        st = damaged_map(6, 3, [a, b, c])
        assert _drain(st, conceal=False) == [a, c, b]  # at 3, 3 and 2
        # after concealing A the middle is at 3; after concealing B its
        # right neighbor has every side available
        assert _drain(st) == [(a, 3), (b, 3), (c, 4)]

    def test_counts_increment_by_one(self):
        # a, b and far start at 2, the corner between a and b at 0. Each of
        # their concealments raises the corner by one: at 1 it still waits
        # behind b, at 2 it ties far and goes first in raster order. With no
        # bump it would come last, with bumps of two second.
        a, b, corner, far = MbAddress(1, 0), MbAddress(0, 1), MbAddress(0, 0), MbAddress(4, 3)
        st = damaged_map(5, 4, [a, b, corner, far])
        assert _drain(st, conceal=False) == [a, b, far, corner]
        assert _drain(st) == [(a, 2), (b, 2), (corner, 2), (far, 2)]
        # the schedule pops raster indices row * cols + col, -1 once empty
        sched = PrioritySchedule(st)
        for mb in (a, b, corner, far):
            extracted = sched.extract()
            assert extracted == mb.row * 5 + mb.col
            sched.on_concealed(extracted)
        assert sched.extract() == -1

    def test_replay_matches_oracle_on_random_masks(self, rng):
        for _ in range(60):
            cols, rows = 6, 5
            st = all_correct(cols, rows)
            lost = set()
            for _ in range(int(rng.integers(1, 15))):
                mb = MbAddress(int(rng.integers(0, cols)), int(rng.integers(0, rows)))
                lost.add(mb)
            for mb in lost:
                damage(st, mb)
            order = [(mb.col, mb.row) for mb, _ in _drain(st)]
            oracle.replay_schedule({(m.col, m.row) for m in lost}, cols, rows, order)

    @settings(max_examples=150, deadline=None)
    @_benchmark_grids
    @given(grid=_loss_grid())
    def test_matches_oracle_property(self, grid):
        cols, rows, lost = grid
        popped = _drain(damaged_map(cols, rows, [MbAddress(c, r) for c, r in lost]))
        order = [(mb.col, mb.row) for mb, _ in popped]
        assert oracle.replay_schedule(lost, cols, rows, order) == [count for _, count in popped]


class TestConcealFrame:
    def test_no_damage_is_identity(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = all_correct(4, 4)
        out = conceal_frame(cur, ref, st.copy(), st, zero_field(4, 4), None, "ebmc", conceal_order(st))
        assert np.array_equal(out.frame.luma, cur.luma)
        assert out.audit == []

    @pytest.mark.parametrize("mode", ["tr", "bma", "ebmc"])
    def test_static_scene_bit_exact(self, rng, mode):
        f = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        lost = [MbAddress(0, 0), MbAddress(1, 1), MbAddress(2, 1), MbAddress(3, 3)]
        st = damaged_map(4, 4, lost)
        damaged = Frame(f.luma.copy())
        for mb in lost:
            i, j = mb.origin()
            damaged.luma[j : j + MB, i : i + MB] = 0
        out = conceal_frame(
            damaged, f, all_correct(4, 4), st, zero_field(4, 4), zero_field(4, 4), mode, conceal_order(st)
        )
        assert np.array_equal(out.frame.luma, f.luma)

    def test_translation_recovery_ebmc_exact(self, rng):
        cur, ref = shifted_scene(rng, 96, 96, 3, 2)
        field = estimate_field(cur, ref)
        mb = MbAddress(2, 2)
        assert mv_at(field, mb) == MotionVector(3, 2)
        st = damaged_map(6, 6, [mb])
        damaged = Frame(cur.luma.copy())
        i, j = mb.origin()
        damaged.luma[j : j + MB, i : i + MB] = 0
        out = conceal_frame(damaged, ref, all_correct(6, 6), st, field, None, "ebmc", conceal_order(st))
        assert [(rec.mb, rec.mv) for rec in out.audit] == [(mb, MotionVector(3, 2))]
        assert np.array_equal(out.frame.luma, cur.luma)

    @pytest.mark.parametrize("mode", MODES)
    def test_inputs_left_unchanged(self, rng, mode):
        # the concealed vectors go into a copy of the field: the caller's
        # field is shared by every trial of a sequence
        cur, ref = random_frame_pair(rng, 96, 96)
        field, prev = random_field(rng, 6, 6), random_field(rng, 6, 6)
        st = damaged_map(6, 6, {MbAddress(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(14)})
        ref_status = random_status(rng, 6, 6)
        inputs = (st, ref_status, field.vx, field.vy, prev.vx, prev.vy)
        before = [a.copy() for a in inputs]
        out = conceal_frame(cur, ref, ref_status, st, field, prev, mode, conceal_order(st))
        assert out.audit and (out.status == MbState.CONCEALED).any()
        assert all(np.array_equal(a, b) for a, b in zip(before, inputs))

    @pytest.mark.parametrize("mode", ["avg", "median", "bma", "ebmc"])
    @settings(max_examples=100, deadline=None)
    @example(grid=(1, 6, {(0, 0), (0, 2), (0, 3), (0, 5)}), seed=1)  # one column
    @example(grid=(7, 1, {(0, 0), (2, 0), (3, 0), (6, 0)}), seed=2)  # one row
    @example(grid=(5, 4, {(c, r) for c in range(5) for r in range(4)}), seed=3)  # all lost
    @given(grid=_loss_grid(), seed=st.integers(0, 2**32 - 1))
    def test_audit_replays_against_oracle(self, mode, grid, seed):
        # a flat-list neighbor read that wraps at a grid edge or a wrong
        # candidate or rounding shows up as a different vector
        _replay_against_oracle(mode, grid, seed)

    @pytest.mark.parametrize("view", ["column_slice", "vertical_flip"])
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=40, deadline=None)
    @example(grid=(5, 4, set()), seed=4)  # 0 % lost
    @example(grid=(5, 4, {(c, r) for c in range(5) for r in range(4)}), seed=5)  # 100 % lost
    @given(grid=_loss_grid(), seed=st.integers(0, 2**32 - 1))
    def test_view_planes_replay_against_oracle(self, mode, view, grid, seed):
        # Frame keeps the array it is given, so the reference and the
        # damaged frame may be views whose rows are not one run of samples;
        # the one-copy block writes read the reference as a contiguous plane
        _replay_against_oracle(mode, grid, seed, view)

    @settings(max_examples=100, deadline=None)
    @example(cols=5, rows=4, rate=0.0, seed=6)
    @example(cols=5, rows=4, rate=1.0, seed=7)
    @given(cols=st.integers(1, 6), rows=st.integers(1, 6), rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_lost_pixels_never_read(self, cols, rows, rate, seed):
        # blanking zeroes the lost MBs in every other test's input, so a
        # read of one would go unseen there; here they hold random bytes
        rng = np.random.Generator(np.random.PCG64(seed))
        cur, ref = random_frame_pair(rng, MB * cols, MB * rows, levels=(2, 256)[seed % 2])
        field, prev = random_field(rng, cols, rows), random_field(rng, cols, rows)
        ref_status = random_status(rng, cols, rows)
        status = all_correct(cols, rows)
        status.flat[rng.permutation(cols * rows)[: round(rate * cols * rows)]] = MbState.DAMAGED
        lost = np.repeat(np.repeat(status == MbState.DAMAGED, MB, axis=0), MB, axis=1)
        zeros = Frame(np.where(lost, 0, cur.luma).astype(np.uint8))
        noise = Frame(np.where(lost, rng.integers(0, 256, size=lost.shape), cur.luma).astype(np.uint8))
        order = conceal_order(status)
        for mode in MODES:
            want = conceal_frame(zeros, ref, ref_status, status, field, prev, mode, order)
            got = conceal_frame(noise, ref, ref_status, status, field, prev, mode, order)
            assert got.frame.luma.tobytes() == want.frame.luma.tobytes()
            assert np.array_equal(got.status, want.status)
            assert got.audit == want.audit

    @pytest.mark.parametrize("name", ["mv_field", "prev_mv_field"])
    def test_field_on_another_grid_rejected(self, rng, name):
        # read by raster index, a field of another shape would name other MBs
        cur, ref = random_frame_pair(rng, 64, 64)
        damaged_grid = damaged_map(4, 4, [MbAddress(1, 1)])
        fields = {"mv_field": random_field(rng, 4, 4), "prev_mv_field": random_field(rng, 4, 4)}
        fields[name] = random_field(rng, 5, 4)
        with pytest.raises(ValueError, match=name):
            conceal_frame(
                cur, ref, all_correct(4, 4), damaged_grid, fields["mv_field"], fields["prev_mv_field"], "bma",
                conceal_order(damaged_grid),
            )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", ["truncated", "another_grid", "larger_grid", "repeated", "negative"])
    def test_order_not_naming_the_damaged_mbs_rejected(self, rng, mode, bad):
        # a missed MB used to stay Damaged with a zero block, and an order
        # of another grid overwrote Correct MBs, without an error
        cur, ref = random_frame_pair(rng, 64, 64)
        lost = [MbAddress(1, 1), MbAddress(2, 1), MbAddress(3, 3)]
        status = damaged_map(4, 4, lost)
        index = conceal_order(status)
        order = {
            "truncated": index[:-1],
            "another_grid": conceal_order(damaged_map(4, 4, [MbAddress(0, 0), *lost[1:]])),
            "larger_grid": conceal_order(damaged_map(5, 5, [MbAddress(4, 4), *lost])),
            "repeated": np.array([*index[:-1], index[0]], dtype=np.int32),
            "negative": np.array([*index[:-1], -1], dtype=np.int32),
        }[bad]
        with pytest.raises(ValueError, match="Damaged MBs"):
            conceal_frame(cur, ref, all_correct(4, 4), status, random_field(rng, 4, 4), None, mode, order)

    def test_frames_off_the_status_grid_rejected(self, rng):
        # read by raster offset, a plane of another size would place blocks wrongly
        cur, ref = random_frame_pair(rng, 64, 48)
        status = damaged_map(4, 4, [MbAddress(1, 1)])
        with pytest.raises(ValueError, match="status grid"):
            conceal_frame(cur, ref, all_correct(4, 4), status, None, None, "tr", conceal_order(status))

    def test_correct_pixels_untouched_and_all_concealed(self, rng):
        cur, ref = random_frame_pair(rng, 96, 96)
        field = random_field(rng, 6, 6)
        lost = {MbAddress(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(10)}
        st = damaged_map(6, 6, lost)
        out = conceal_frame(cur, ref, all_correct(6, 6), st, field, None, "ebmc", conceal_order(st))
        assert not (out.status == MbState.DAMAGED).any()
        assert len(out.audit) == len(lost)
        assert len({rec.mb for rec in out.audit}) == len(lost)
        for row in range(6):
            for col in range(6):
                mb = MbAddress(col, row)
                i, j = mb.origin()
                if mb not in lost:
                    assert np.array_equal(
                        out.frame.luma[j : j + MB, i : i + MB], cur.luma[j : j + MB, i : i + MB]
                    )

    def test_concealed_pixels_equal_reference_block_at_selected_mv(self, rng):
        cur, ref = random_frame_pair(rng, 96, 96)
        field = random_field(rng, 6, 6)
        lost = {MbAddress(1, 1), MbAddress(4, 2), MbAddress(2, 4)}
        st = damaged_map(6, 6, lost)
        out = conceal_frame(cur, ref, all_correct(6, 6), st, field, None, "bma", conceal_order(st))
        for rec in out.audit:
            i, j = rec.mb.origin()
            vx, vy = rec.mv
            assert np.array_equal(
                out.frame.luma[j : j + MB, i : i + MB],
                ref.luma[j + vy : j + vy + MB, i + vx : i + vx + MB],
            )

    def test_deterministic(self, rng):
        cur, ref = random_frame_pair(rng, 96, 96)
        field = random_field(rng, 6, 6)
        st = damaged_map(6, 6, [MbAddress(1, 1), MbAddress(2, 1), MbAddress(5, 5)])
        a = conceal_frame(cur, ref, all_correct(6, 6), st, field, None, "ebmc", conceal_order(st))
        b = conceal_frame(cur, ref, all_correct(6, 6), st, field, None, "ebmc", conceal_order(st))
        assert np.array_equal(a.frame.luma, b.frame.luma)
        assert [(r.mb, r.mv) for r in a.audit] == [(r.mb, r.mv) for r in b.audit]

    def test_tr_mode_always_zero_mv(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = damaged_map(4, 4, [MbAddress(2, 2), MbAddress(0, 3)])
        out = conceal_frame(cur, ref, all_correct(4, 4), st, None, None, "tr", conceal_order(st))
        assert all(rec.mv == MotionVector(0, 0) for rec in out.audit)

    def test_avg_and_median_use_neighbor_mvs_directly(self, rng):
        cur, ref = random_frame_pair(rng, 96, 96)
        field = zero_field(6, 6, mvs={
            MbAddress(2, 1): MotionVector(2, 0),  # top
            MbAddress(2, 3): MotionVector(4, 0),  # bottom
            MbAddress(1, 2): MotionVector(6, 2),  # left
            MbAddress(3, 2): MotionVector(1, 1),  # right
        })
        mb = MbAddress(2, 2)
        st = damaged_map(6, 6, [mb])
        out_avg = conceal_frame(cur, ref, all_correct(6, 6), st.copy(), field, None, "avg", conceal_order(st))
        # mean: ((2+4+6+1)/4, (0+0+2+1)/4) = (3.25, 0.75) -> (3, 1)
        assert [(rec.mb, rec.mv) for rec in out_avg.audit] == [(mb, MotionVector(3, 1))]
        out_med = conceal_frame(cur, ref, all_correct(6, 6), st.copy(), field, None, "median", conceal_order(st))
        # medians: x (2+4)/2 = 3, y (0+1)/2 = 0.5 -> 1
        assert [(rec.mb, rec.mv) for rec in out_med.audit] == [(mb, MotionVector(3, 1))]

    def test_avg_clamps_out_of_frame_vector(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        field = zero_field(4, 4, mvs={
            MbAddress(1, 0): MotionVector(-7, -7),  # right neighbor of (0,0)
            MbAddress(0, 1): MotionVector(-7, -7),  # bottom neighbor
        })
        mb = MbAddress(0, 0)
        st = damaged_map(4, 4, [mb])
        out = conceal_frame(cur, ref, all_correct(4, 4), st, field, None, "avg", conceal_order(st))
        assert [(rec.mb, rec.mv) for rec in out.audit] == [(mb, MotionVector(0, 0))]  # clamped to frame

    def test_audit_csv_shape(self, rng):
        cur, ref = random_frame_pair(rng, 64, 64)
        st = damaged_map(4, 4, [MbAddress(1, 2)])
        out = conceal_frame(cur, ref, all_correct(4, 4), st, zero_field(4, 4), None, "ebmc", conceal_order(st))
        assert audit_csv_header() == "frame,mb_col,mb_row,mode,vx,vy,total,bmc_total,sides_absent"
        line = audit_csv_line(7, out.audit[0])
        parts = line.split(",")
        assert parts[0] == "7" and parts[1] == "1" and parts[2] == "2" and parts[3] == "ebmc"
        assert len(parts) == 9

    def test_audit_record_fields(self):
        # built by keyword or by position, read by name, equal by value
        rec = AuditRecord(
            mb=MbAddress(2, 3), mode="ebmc", mv=MotionVector(-1, 4), total=120, classic_total=150, sides_absent=1,
        )
        assert (rec.mb, rec.mode, rec.mv) == (MbAddress(2, 3), "ebmc", MotionVector(-1, 4))
        assert (rec.total, rec.classic_total, rec.sides_absent) == (120, 150, 1)
        assert rec == AuditRecord(MbAddress(2, 3), "ebmc", MotionVector(-1, 4), 120, 150, 1)
        assert rec != rec._replace(total=121)

    @settings(max_examples=300, deadline=None)
    @given(frame_index=st.integers(0, 9999), rec=_audit_record())
    def test_audit_csv_line_matches_fstring(self, frame_index, rec):
        # the line as it was first written, one f-string over the fields
        want = (
            f"{frame_index},{rec.mb.col},{rec.mb.row},{rec.mode},"
            f"{rec.mv.vx},{rec.mv.vy},{rec.total},{rec.classic_total},{rec.sides_absent}"
        )
        assert audit_csv_line(frame_index, rec).encode() == want.encode()

    def test_dominance_recorded_in_audit(self, rng):
        cur, ref = random_frame_pair(rng, 96, 96)
        field = random_field(rng, 6, 6)
        lost = {MbAddress(c, r) for c in range(1, 5) for r in range(1, 5) if (c + r) % 2 == 0}
        st = damaged_map(6, 6, lost)
        out = conceal_frame(cur, ref, all_correct(6, 6), st, field, None, "ebmc", conceal_order(st))
        for rec in out.audit:
            assert rec.total <= rec.classic_total

    @pytest.mark.parametrize("mode", MODES)
    def test_scheduler_order_in_audit_is_valid(self, rng, mode):
        cur, ref = random_frame_pair(rng, 96, 96)
        field = random_field(rng, 6, 6)
        lost = {MbAddress(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(14)}
        st = damaged_map(6, 6, lost)
        out = conceal_frame(cur, ref, all_correct(6, 6), st, field, None, mode, conceal_order(st))
        # the audit keeps the schedule's order, which the oracle replays
        assert [r.mb for r in out.audit] == [mb for mb, _ in _drain(st)]

    @settings(max_examples=60, deadline=None)
    @example(grid=(5, 4, set()), seed=0)
    @example(grid=(5, 4, {(c, r) for c in range(5) for r in range(4)}), seed=0)
    @given(grid=_loss_grid(), seed=st.integers(0, 2**32 - 1))
    def test_given_order_matches_built_order(self, grid, seed):
        # one order walked by every mode in turn, as an experiment run
        # shares it, against an order built afresh for each mode
        cols, rows, lost = grid
        rng = np.random.Generator(np.random.PCG64(seed))
        cur, ref = random_frame_pair(rng, MB * cols, MB * rows, levels=(2, 256)[seed % 2])
        field, prev = random_field(rng, cols, rows), random_field(rng, cols, rows)
        ref_status = random_status(rng, cols, rows)
        status = damaged_map(cols, rows, [MbAddress(c, r) for c, r in lost])
        order = conceal_order(status)
        assert order.dtype == np.int32
        index = order.copy()
        for mode in MODES:
            want = conceal_frame(cur, ref, ref_status, status, field, prev, mode, conceal_order(status))
            got = conceal_frame(cur, ref, ref_status, status, field, prev, mode, order)
            assert np.array_equal(got.frame.luma, want.frame.luma)
            assert np.array_equal(got.status, want.status)
            assert got.audit == want.audit
        assert np.array_equal(order, index)
