import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import damage, damaged_mbs
from vidconceal.core import MB, Frame, MbAddress, MbState, MbStatusMap
from vidconceal.experiment import blank_damaged
from vidconceal.loss import LossMask, TrialConfig, apply_mask, make_mask


class TestMakeMask:
    def test_cif_ten_percent_count(self):
        # 22x18 grid: round(0.10 * 396) = 40
        mask = make_mask(1, 22, 18, TrialConfig(0.10, seed=7))
        assert len(mask.lost) == 40

    def test_rate_zero_empty(self):
        assert make_mask(1, 22, 18, TrialConfig(0.0, seed=7)).lost == frozenset()

    def test_frame_zero_never_lost(self):
        assert make_mask(0, 22, 18, TrialConfig(0.5, seed=7)).lost == frozenset()

    def test_half_to_even_rounding(self):
        # 10 MBs at 25%: 2.5 rounds to 2; at 35%: 3.5 rounds to 4
        assert len(make_mask(1, 10, 1, TrialConfig(0.25, seed=1)).lost) == 2
        assert len(make_mask(1, 10, 1, TrialConfig(0.35, seed=1)).lost) == 4

    def test_deterministic(self):
        cfg = TrialConfig(0.2, seed=99, trial_index=3)
        assert make_mask(5, 8, 8, cfg).lost == make_mask(5, 8, 8, cfg).lost

    def test_distinct_frames_differ(self):
        cfg = TrialConfig(0.2, seed=99)
        masks = {make_mask(t, 22, 18, cfg).lost for t in range(1, 6)}
        assert len(masks) == 5

    def test_distinct_trials_differ(self):
        lost = {make_mask(1, 22, 18, TrialConfig(0.2, seed=99, trial_index=k)).lost for k in range(5)}
        assert len(lost) == 5

    def test_addresses_in_grid_without_replacement(self):
        mask = make_mask(1, 6, 4, TrialConfig(0.5, seed=3))
        assert len(mask.lost) == 12
        for mb in mask.lost:
            assert 0 <= mb.col < 6 and 0 <= mb.row < 4

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(1.5, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(-0.1, seed=1)


class TestApplyMask:
    def test_empty_mask_all_correct(self):
        st = apply_mask(MbStatusMap.all_correct(4, 4), LossMask(1, frozenset()))
        assert (st.state == MbState.CORRECT).sum() == 16

    def test_full_mask_all_damaged(self):
        full = frozenset(MbAddress(c, r) for c in range(4) for r in range(4))
        st = apply_mask(MbStatusMap.all_correct(4, 4), LossMask(1, full))
        assert (st.state == MbState.DAMAGED).sum() == 16

    def test_damaged_count_matches_mask(self):
        mask = make_mask(1, 8, 8, TrialConfig(0.3, seed=11))
        st = apply_mask(MbStatusMap.all_correct(8, 8), mask)
        assert (st.state == MbState.DAMAGED).sum() == len(mask.lost)
        assert set(damaged_mbs(st)) == set(mask.lost)

    def test_prior_state_ignored(self):
        st = damage(MbStatusMap.all_correct(2, 2), MbAddress(0, 0))
        out = apply_mask(st, LossMask(1, frozenset({MbAddress(1, 1)})))
        assert out.state[0, 0] == MbState.CORRECT
        assert out.state[1, 1] == MbState.DAMAGED

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            apply_mask(MbStatusMap.all_correct(2, 2), LossMask(1, frozenset({MbAddress(5, 0)})))


@settings(max_examples=200, deadline=None)
@given(
    cols=st.integers(1, 30),
    rows=st.integers(1, 30),
    rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 1000),
    frame_index=st.integers(1, 1000),
)
def test_make_mask_exact_count_of_distinct_in_grid_mbs(cols, rows, rate, seed, trial, frame_index):
    mask = make_mask(frame_index, cols, rows, TrialConfig(rate, seed, trial))
    assert mask.frame_index == frame_index
    assert len(mask.lost) == round(rate * cols * rows)  # a frozenset, so distinct
    assert all(0 <= mb.col < cols and 0 <= mb.row < rows for mb in mask.lost)
    assert all(type(mb.col) is int and type(mb.row) is int for mb in mask.lost)


def _apply_and_blank_per_mb(luma, cols, rows, lost):
    """The per-MB loops apply_mask and blank_damaged replaced, kept as
    their reference: (status grid, blanked plane)."""
    status = MbStatusMap.all_correct(cols, rows)
    for mb in lost:
        if not (0 <= mb.col < cols and 0 <= mb.row < rows):
            raise ValueError(f"mask entry {mb} outside the grid")
        damage(status, mb)
    out = luma.copy()
    for mb in lost:
        i, j = mb.origin()
        out[j : j + MB, i : i + MB] = 0
    return status.state, out


@st.composite
def _loss_instance(draw):
    cols, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(-2, cols + 1), st.integers(-2, rows + 1))
    if draw(st.booleans()):  # mostly in-grid entries
        cells = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
    lost = frozenset(MbAddress(c, r) for c, r in draw(st.lists(cells, max_size=cols * rows)))
    seed = draw(st.integers(0, 2**32 - 1))
    luma = np.random.Generator(np.random.PCG64(seed)).integers(0, 256, size=(MB * rows, MB * cols), dtype=np.uint8)
    return cols, rows, lost, luma


@settings(max_examples=200, deadline=None)
@given(inst=_loss_instance())
def test_apply_mask_and_blank_match_per_mb_loops(inst):
    cols, rows, lost, luma = inst
    prior = MbStatusMap.all_correct(cols, rows)
    prior.state[:] = MbState.CONCEALED  # apply_mask ignores the prior state
    try:
        want_state, want_luma = _apply_and_blank_per_mb(luma, cols, rows, lost)
    except ValueError:
        with pytest.raises(ValueError, match="outside"):
            apply_mask(prior, LossMask(1, lost))
        return
    status = apply_mask(prior, LossMask(1, lost))
    assert np.array_equal(status.state, want_state)
    assert not status.mv_x.any() and not status.mv_y.any()
    assert np.array_equal(blank_damaged(Frame(luma), status).luma, want_luma)
