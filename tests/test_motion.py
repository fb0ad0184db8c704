import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from instances import mv_at, read_mv_csv, zero_field
from vidconceal.core import Frame, MbAddress, MotionVector
from vidconceal import motion
from vidconceal.motion import MvField, SearchParams, estimate_field, save_mv_fields


def shifted_pair(rng, width=96, height=96, dx=3, dy=2):
    """cur(x, y) = ref(x+dx, y+dy): the scene moved so that the match of a
    current block lies at +(dx, dy) in the reference."""
    mx, my = abs(dx), abs(dy)
    base = rng.integers(0, 256, size=(height + 2 * my, width + 2 * mx), dtype=np.uint8)
    ref = Frame(base[my : my + height, mx : mx + width].copy())
    cur = Frame(base[my + dy : my + dy + height, mx + dx : mx + dx + width].copy())
    return cur, ref


class TestFullSearch:
    def test_static_scene_returns_zero(self, rng):
        f = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        field = estimate_field(f, f)
        for row in range(f.mb_rows):
            for col in range(f.mb_cols):
                assert mv_at(field, MbAddress(col, row)) == MotionVector(0, 0)

    def test_global_shift_recovered(self, rng):
        cur, ref = shifted_pair(rng, dx=3, dy=2)
        field = estimate_field(cur, ref)
        # MBs whose (3,2)-displaced block stays inside the reference
        assert mv_at(field, MbAddress(0, 0)) == MotionVector(3, 2)
        assert mv_at(field, MbAddress(2, 2)) == MotionVector(3, 2)
        assert mv_at(field, MbAddress(4, 3)) == MotionVector(3, 2)

    def test_p_zero_always_zero(self, rng):
        cur, ref = shifted_pair(rng)
        assert mv_at(estimate_field(cur, ref, SearchParams(p=0)), MbAddress(1, 1)) == MotionVector(0, 0)

    def test_flat_region_tie_breaks_to_zero(self):
        f = Frame(np.full((64, 64), 77, dtype=np.uint8))
        assert mv_at(estimate_field(f, f), MbAddress(1, 1)) == MotionVector(0, 0)

    def test_matches_oracle_on_random_frames(self, rng):
        for _ in range(20):
            cur = Frame(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
            ref = Frame(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
            field = estimate_field(cur, ref, SearchParams(p=5))
            cur_px, ref_px = cur.luma.tolist(), ref.luma.tolist()
            for row in range(3):
                for col in range(3):
                    got = mv_at(field, MbAddress(col, row))
                    want = oracle.full_search(cur_px, ref_px, col, row, p=5)
                    assert (got.vx, got.vy) == want

    def test_optimality_by_rescan(self, rng):
        cur = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        ref = Frame(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
        mb = MbAddress(1, 2)
        i, j = mb.origin()
        best = mv_at(estimate_field(cur, ref), mb)
        block = cur.luma[j : j + 16, i : i + 16].astype(int)
        best_sad = np.abs(
            block - ref.luma[j + best.vy : j + best.vy + 16, i + best.vx : i + best.vx + 16].astype(int)
        ).sum()
        for vy in range(-7, 8):
            for vx in range(-7, 8):
                if not (0 <= i + vx <= 48 and 0 <= j + vy <= 48):
                    continue
                s = np.abs(
                    block - ref.luma[j + vy : j + vy + 16, i + vx : i + vx + 16].astype(int)
                ).sum()
                assert best_sad <= s

    def test_out_of_frame_displacements_never_returned(self, rng):
        cur, ref = shifted_pair(rng, width=48, height=48, dx=-5, dy=-4)
        field = estimate_field(cur, ref)
        for row in range(3):
            for col in range(3):
                mv = mv_at(field, MbAddress(col, row))
                i, j = MbAddress(col, row).origin()
                assert 0 <= i + mv.vx and i + mv.vx + 16 <= 48
                assert 0 <= j + mv.vy and j + mv.vy + 16 <= 48


_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda rc: (16 * rc[0], 16 * rc[1]))


def _noise(shape):
    n = shape[0] * shape[1]
    return st.binary(min_size=n, max_size=n).map(
        lambda b: np.frombuffer(b, dtype=np.uint8).reshape(shape)
    )


@st.composite
def _stripes(draw, shape):
    """A pair of planes with samples 0-2 that are constant along straight
    stripes (rows, columns or either diagonal), cur being ref moved along
    the stripe index. Every shift along a stripe leaves the reference
    unchanged, so many displacements tie exactly, often away from (0, 0),
    and the tie-break order decides the vector."""
    h, w = shape
    a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]))
    width = draw(st.integers(1, 8))
    y, x = np.mgrid[0:h, 0:w]
    idx = (a * x + b * y) // width
    idx -= idx.min()
    shift = draw(st.integers(0, 3))
    n = int(idx.max()) + shift + 1
    values = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.uint8)
    return values[idx + shift], values[idx]


def _assert_matches_oracle(cur, ref, p):
    field = estimate_field(Frame(cur), Frame(ref), SearchParams(p=p))
    rows, cols = cur.shape[0] // 16, cur.shape[1] // 16
    cur_px, ref_px = cur.tolist(), ref.tolist()  # nested lists index fast
    assert field.vx.shape == field.vy.shape == (rows, cols)
    for row in range(rows):
        for col in range(cols):
            got = mv_at(field, MbAddress(col, row))
            assert (got.vx, got.vy) == oracle.full_search(cur_px, ref_px, col, row, p)


class TestEstimateFieldProperties:
    """estimate_field against the brute-force oracle on every MB."""

    @settings(max_examples=40, deadline=None)
    @given(planes=_SHAPES.flatmap(lambda shape: st.tuples(_noise(shape), _noise(shape))), p=st.integers(0, 8))
    def test_random_content(self, planes, p):
        _assert_matches_oracle(*planes, p)

    @settings(max_examples=40, deadline=None)
    @given(planes=_SHAPES.flatmap(_stripes), p=st.integers(0, 60))
    def test_near_constant_content_ties(self, planes, p):
        # p reaches past the frame size, where every window is clipped
        _assert_matches_oracle(*planes, p)

    @settings(max_examples=20, deadline=None)
    @given(planes=_SHAPES.flatmap(_stripes), p=st.integers(0, 60))
    def test_cur_is_ref(self, planes, p):
        cur = planes[0]
        _assert_matches_oracle(cur, cur, p)


class TestViewPlanes:
    """Frame keeps the array it is given, so either plane may be a view whose
    rows are not one contiguous run of samples: a column slice of a wider
    array, or a vertical flip with a negative row stride."""

    @pytest.mark.parametrize("view", ["column_slice", "vertical_flip"])
    def test_matches_oracle(self, rng, view):
        if view == "column_slice":
            base = rng.integers(0, 256, size=(52, 80), dtype=np.uint8)
            # cur is ref moved by (3, 2)
            ref, cur = base[:48, 16:64], base[2:50, 19:67]
        else:
            base = rng.integers(0, 256, size=(52, 48), dtype=np.uint8)[::-1]
            ref, cur = base[:48], base[2:50]
        assert not (ref.flags.c_contiguous or cur.flags.c_contiguous)
        _assert_matches_oracle(cur, ref, 7)


class TestRowRunWrap:
    """Each displacement is scored over runs of whole rows, so a block that
    the displacement moves out of the frame sideways reads across a row end.
    With ``ref`` the flat raster of ``cur`` rolled by k samples, that wrapped
    read matches exactly (SAD 0) at vx = k, which the search must still
    exclude at the frame's left or right MB column."""

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 2), cols=st.integers(2, 3), k=st.integers(1, 7),
        sign=st.sampled_from([1, -1]), p=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
    )
    def test_ref_is_cur_rolled_along_raster(self, rows, cols, k, sign, p, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        cur = rng.integers(0, 256, size=(16 * rows, 16 * cols), dtype=np.uint8)
        ref = np.roll(cur.ravel(), sign * k).reshape(cur.shape)
        _assert_matches_oracle(cur, ref, p)


class TestBoundThenVerify:
    """The search scores exactly the SAD best0 at each MB's first displacement
    of lowest row-sum bound, and then only pairs whose bound is at most best0,
    of the MBs whose best0 is above that bound."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=_SHAPES, p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([3, 256]),
    )
    def test_tight_bound(self, shape, p, seed, levels):
        # ref is constant along each whole row and cur along each row of each
        # block, so the 16 differences of a block row share a sign and the
        # bound equals the SAD for every pair: every MB is settled, its first
        # displacement of lowest bound being its first of lowest SAD
        h, w = shape
        rng = np.random.Generator(np.random.PCG64(seed))
        g = rng.integers(0, levels, size=h, dtype=np.uint8)
        shifts = rng.integers(-p, p + 1, size=w // 16)
        src = np.clip(np.arange(h)[:, None] + shifts, 0, h - 1)
        ref = np.repeat(g[:, None], w, axis=1)
        cur = np.repeat(g[src], 16, axis=1)
        _assert_matches_oracle(cur, ref, p)

    @pytest.mark.parametrize("shift", [-5, 3])
    def test_tight_bound_winner_away_from_zero(self, rng, shift):
        g = rng.permutation(256)[:64].astype(np.uint8)  # distinct rows
        ref = np.repeat(g[:, None], 64, axis=1)
        cur = np.repeat(g[np.clip(np.arange(64) + shift, 0, 63), None], 64, axis=1)
        field = estimate_field(Frame(cur), Frame(ref))
        # every vx ties, so the tie-break takes vx = 0
        assert mv_at(field, MbAddress(1, 1)) == MotionVector(0, shift)
        _assert_matches_oracle(cur, ref, 7)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 2), cols=st.integers(1, 3), p=st.integers(1, 10),
        gather=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
    )
    def test_survivors_span_many_chunks(self, rows, cols, p, gather, seed):
        # on noise most pairs survive the bound: an MB holds up to 21**2 of
        # them, and the survivors of all MBs form one stream of chunks of at
        # most 64 that run on across MBs, so that only the last is shorter
        rng = np.random.Generator(np.random.PCG64(seed))
        cur, ref = rng.integers(0, 256, size=(2, 16 * rows, 16 * cols), dtype=np.uint8)
        scored = []
        block_sads = motion._block_sads

        def spy(ref_blocks, cur_blocks):
            sads = block_sads(ref_blocks, cur_blocks)
            scored.append(sads.shape)
            return sads

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(motion, "GATHER", gather)
            mp.setattr(motion, "_block_sads", spy)
            _assert_matches_oracle(cur, ref, p)
        # the first call scores every MB's guess
        assert scored[0] == (rows, cols)
        chunks = [n for n, in scored[1:]]
        assert all(n == gather for n in chunks[:-1]) and chunks[-1:] <= [gather]

    @settings(max_examples=60, deadline=None)
    @given(
        shape=_SHAPES, p=st.integers(1, 12), gather=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
        content=st.sampled_from(["noise", "3-level noise", "planted", "planted"]),
    )
    def test_scores_exactly_the_guesses_and_the_survivors(self, shape, p, gather, seed, content):
        h, w = shape
        rng = np.random.Generator(np.random.PCG64(seed))
        if content == "planted":
            # ref is constant along each row, at levels 8-10 that step by 1
            # now and then down the frame, and each MB of cur is a block of
            # ref at a drawn vertical shift with 8 added to one sample of a
            # row and taken from another: the row sums stay, so a shift's
            # bound is 16 per level step it crosses, and the SAD is 16
            # higher where the edited row matches. So many MBs are unsettled
            # with other bounds equal to best0, before and after the guess
            steps = np.clip(np.cumsum(rng.choice([-1, 0, 0, 0, 0, 0, 0, 1], size=h)), -1, 1)
            g = (9 + steps).astype(np.uint8)
            ref = np.repeat(g[:, None], w, axis=1)
            cur = np.empty_like(ref)
            for y in range(0, h, 16):
                for x in range(0, w, 16):
                    src = np.clip(y + np.arange(16) + rng.integers(-p, p + 1), 0, h - 1)
                    block = np.repeat(g[src, None], 16, axis=1)
                    k = rng.integers(16)
                    block[k, 3] += 8
                    block[k, 11] -= 8
                    cur[y : y + 16, x : x + 16] = block
        else:
            cur, ref = rng.integers(0, 3 if content == "3-level noise" else 256, size=(2, h, w), dtype=np.uint8)
        # each MB's guess, then the tie-aware survivors of the MBs that are
        # not settled, from the definitions
        want, vectors = h * w // 256, []
        for row in range(h // 16):
            for col in range(w // 16):
                pairs = _pairs_in_search_order(cur, ref, col, row, p)
                bounds = [lb for _, _, lb, _ in pairs]
                g = bounds.index(min(bounds))
                best0 = pairs[g][3]
                if best0 != bounds[g]:
                    want += sum(lb <= best0 for lb in bounds[:g]) + sum(lb < best0 for lb in bounds[g + 1 :])
                # the first pair of smallest SAD in search order
                vectors.append(min(pairs, key=lambda q: q[3])[:2])
        scored = []
        block_sads = motion._block_sads

        def spy(ref_blocks, cur_blocks):
            sads = block_sads(ref_blocks, cur_blocks)
            scored.append(sads.size)
            return sads

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(motion, "GATHER", gather)
            mp.setattr(motion, "_block_sads", spy)
            field = estimate_field(Frame(cur), Frame(ref), SearchParams(p=p))
        assert sum(scored) == want
        assert scored[0] == h * w // 256
        assert all(n == gather for n in scored[1:-1]) and all(n <= gather for n in scored[1:])
        assert list(zip(field.vx.ravel().tolist(), field.vy.ravel().tolist())) == vectors


def _planted(seed, plants):
    """A 48x48 pair of noise planes in which the block of cur's MB (1, 1)
    reappears in ref at each displacement of ``plants``, edited: "copy"
    leaves it as it is (bound 0, SAD 0), "row" adds 1 along one block row
    (bound = SAD = 16) and "swap" swaps two samples 8 apart within a row
    (bound 0, SAD 16). The planted windows do not overlap."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cur = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
    ref = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
    block = rng.integers(0, 200, size=(16, 16), dtype=np.uint8)
    block[3, 5] = block[3, 4] + 8
    cur[16:32, 16:32] = block
    for (vx, vy), edit in plants.items():
        b = block.copy()
        if edit == "row":
            b[7] += 1
        elif edit == "swap":
            b[3, 4], b[3, 5] = b[3, 5], b[3, 4]
        ref[16 + vy : 32 + vy, 16 + vx : 32 + vx] = b
    return cur, ref


def _pairs_in_search_order(cur, ref, col, row, p):
    """(vx, vy, row-sum bound, SAD) of every in-frame displacement of one MB,
    in tie-break order, computed directly from the definitions."""
    x, y = 16 * col, 16 * row
    block = cur[y : y + 16, x : x + 16].astype(int)
    window = [(vx, vy) for vy in range(-p, p + 1) for vx in range(-p, p + 1)]
    out = []
    for vx, vy in sorted(window, key=lambda v: (abs(v[0]) + abs(v[1]), v[1], v[0])):
        if 0 <= x + vx <= cur.shape[1] - 16 and 0 <= y + vy <= cur.shape[0] - 16:
            cand = ref[y + vy : y + vy + 16, x + vx : x + vx + 16].astype(int)
            out.append((vx, vy, int(np.abs(block.sum(1) - cand.sum(1)).sum()), int(np.abs(block - cand).sum())))
    return out


class TestTieAwarePrune:
    """Each MB's guess is its first displacement of lowest bound, with exact
    SAD best0. An MB whose best0 equals that bound is settled and keeps the
    guess; for the others a pair ranked before the guess is scored when its
    bound is <= best0, and one ranked after it only when its bound is below
    best0. Each case plants the blocks that make one rule decide the vector
    of MB (1, 1), checks that they do, and compares with the oracle."""

    P = 14

    def _check(self, plants, guess, want):
        cur, ref = _planted(5, plants)
        pairs = _pairs_in_search_order(cur, ref, 1, 1, self.P)
        bounds = [lb for _, _, lb, _ in pairs]
        g = bounds.index(min(bounds))
        assert pairs[g][:2] == guess
        field = estimate_field(Frame(cur), Frame(ref), SearchParams(p=self.P))
        assert mv_at(field, MbAddress(1, 1)) == MotionVector(*want)
        assert want == oracle.full_search(cur.tolist(), ref.tolist(), 1, 1, self.P)
        return pairs, g

    def test_pair_after_guess_with_equal_sad_loses(self):
        pairs, g = self._check({(-3, 2): "swap", (13, 0): "swap"}, guess=(-3, 2), want=(-3, 2))
        best0 = pairs[g][3]
        later = [q for q in pairs[g + 1 :] if q[3] == best0]
        assert best0 == 16 and [q[:2] for q in later] == [(13, 0)] and later[0][2] < best0

    def test_pair_before_guess_with_bound_and_sad_at_best0_wins(self):
        # a strict < on both sides of the guess would prune (-3, 2)
        pairs, g = self._check({(-3, 2): "row", (13, 0): "swap"}, guess=(13, 0), want=(-3, 2))
        best0 = pairs[g][3]
        assert best0 == 16 > pairs[g][2] == min(q[2] for q in pairs)
        assert [q for q in pairs[:g] if q[3] == best0] == [(-3, 2, 16, 16)]

    def test_settled_mb_with_later_exact_matches(self):
        pairs, g = self._check({(-3, 2): "copy", (13, 0): "copy", (-13, -14): "copy"}, guess=(-3, 2), want=(-3, 2))
        assert pairs[g][2:] == (0, 0)
        assert sorted(q[:2] for q in pairs[g + 1 :] if q[3] == 0) == [(-13, -14), (13, 0)]


@pytest.mark.parametrize("p", [7, 40])
def test_cif_search_peak_memory(rng, p):
    """One CIF search holds the score volume and buffers of about a frame
    each: no second full-size volume, no per-vx copy of the frame difference,
    and an argmin that reads the volume in place. On noise most pairs survive
    the bound, so this is also the verify step's chunked worst case."""
    h, w = 288, 352
    cur = Frame(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    ref = Frame(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    volume_bytes = (2 * p + 1) ** 2 * (h // 16) * (w // 16) * 2  # uint16, p below both sizes
    tracemalloc.start()
    try:
        estimate_field(cur, ref, SearchParams(p=p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * volume_bytes + 16 * w * h


class TestEstimateField:
    def test_static_pair_all_zero(self, rng):
        f = Frame(rng.integers(0, 256, size=(48, 64), dtype=np.uint8))
        field = estimate_field(f, f)
        assert (field.vx == 0).all() and (field.vy == 0).all()

    def test_field_dimensions(self, rng):
        f = Frame(rng.integers(0, 256, size=(48, 64), dtype=np.uint8))
        field = estimate_field(f, f)
        assert field.vx.shape == field.vy.shape == (3, 4)

    def test_global_translation_constant_on_interior(self, rng):
        cur, ref = shifted_pair(rng, width=96, height=96, dx=3, dy=2)
        field = estimate_field(cur, ref)
        rows, cols = field.vx.shape
        for row in range(rows - 1):
            for col in range(cols - 1):
                assert mv_at(field, MbAddress(col, row)) == MotionVector(3, 2)

    @pytest.mark.parametrize(
        "ref_of, cur_of, want",
        [
            # diagonal stripes: (2, 0), (1, 1) and (0, 2) all match exactly;
            # the smallest vy wins
            (lambda x, y: 7 * (x + y), lambda x, y: 7 * (x + y + 2), MotionVector(2, 0)),
            # period-2 columns: (-1, 0) and (1, 0) both match; the smallest vx wins
            (lambda x, y: 7 * y + 50 * (x % 2), lambda x, y: 7 * y + 50 * ((x + 1) % 2), MotionVector(-1, 0)),
        ],
        ids=["diagonal_stripes", "period_2_columns"],
    )
    def test_exact_ties_follow_search_order(self, ref_of, cur_of, want):
        y, x = np.mgrid[0:48, 0:48]
        ref, cur = Frame(ref_of(x, y) % 256), Frame(cur_of(x, y) % 256)
        assert mv_at(estimate_field(cur, ref), MbAddress(1, 1)) == want
        _assert_matches_oracle(cur.luma, ref.luma, 7)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            estimate_field(Frame(np.zeros((32, 32), np.uint8)), Frame(np.zeros((32, 48), np.uint8)))

    def test_unaligned_frames_rejected(self):
        f = Frame(np.zeros((32, 40), np.uint8))
        with pytest.raises(ValueError):
            estimate_field(f, f)

    def test_determinism(self, rng):
        cur = Frame(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        ref = Frame(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        a = estimate_field(cur, ref)
        b = estimate_field(cur, ref)
        assert np.array_equal(a.vx, b.vx) and np.array_equal(a.vy, b.vy)


class TestMvFieldCsv:
    def test_round_trip(self, tmp_path, rng):
        fields = [MvField(rng.integers(-7, 8, size=(2, 3)), rng.integers(-7, 8, size=(2, 3))) for _ in range(2)]
        path = tmp_path / "mv.csv"
        save_mv_fields(fields, str(path))
        loaded = read_mv_csv(str(path))
        assert sorted(loaded) == [1, 2]
        for t, f in enumerate(fields, start=1):
            g = loaded[t]
            assert np.array_equal(f.vx, g.vx) and np.array_equal(f.vy, g.vy)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        cols=st.integers(1, 5), rows=st.integers(1, 5),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path, cols, rows, n, seed):
        # every example rewrites the same file, so sharing tmp_path is safe
        rng = np.random.Generator(np.random.PCG64(seed))
        fields = [
            MvField(rng.integers(-(2**15), 2**15, size=(rows, cols)), rng.integers(-(2**15), 2**15, size=(rows, cols)))
            for _ in range(n)
        ]
        path = tmp_path / "mv.csv"
        save_mv_fields(fields, str(path))
        loaded = read_mv_csv(str(path))
        # the fields are numbered by their position, from 1
        assert sorted(loaded) == list(range(1, n + 1))
        for t, f in enumerate(fields, start=1):
            g = loaded[t]
            assert np.array_equal(f.vx, g.vx) and np.array_equal(f.vy, g.vy)

    def test_csv_format(self, tmp_path):
        f = zero_field(2, 1, mvs={MbAddress(1, 0): MotionVector(-3, 7)})
        path = tmp_path / "mv.csv"
        save_mv_fields([zero_field(1, 1), f], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "frame_index,mb_col,mb_row,vx,vy"
        assert lines[1] == "1,0,0,0,0"
        assert lines[2] == "2,0,0,0,0"
        assert lines[3] == "2,1,0,-3,7"


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(p=-1)


@pytest.mark.parametrize("p", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_search_params_rejects_non_int(p):
    # 2.5 used to fail later inside range(), True to search radius 1, and
    # "3" to raise a TypeError from the comparison
    with pytest.raises(ValueError, match="search radius p"):
        SearchParams(p=p)
