import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from instances import all_correct, damage, damaged_mbs
from vidconceal.core import MB, Frame, MbAddress, MbState
from vidconceal import experiment
from vidconceal.experiment import ExperimentSpec, SequenceSpec, blank_damaged, frame_plan, run_experiment
from vidconceal.loss import LossMask, TrialConfig, apply_mask, make_mask, mask_memo
from vidconceal.synth import make_sequence, write_i420

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def lost_mbs(mask: LossMask, cols: int) -> set[MbAddress]:
    return {MbAddress(k % cols, k // cols) for k in mask.lost.tolist()}


class TestMakeMask:
    def test_cif_ten_percent_count(self):
        # 22x18 grid: round(0.10 * 396) = 40
        mask = make_mask(1, 22, 18, TrialConfig(0.10, seed=7))
        assert len(mask.lost) == 40

    def test_rate_zero_empty(self):
        assert make_mask(1, 22, 18, TrialConfig(0.0, seed=7)).lost.size == 0

    def test_frame_zero_never_lost(self):
        assert make_mask(0, 22, 18, TrialConfig(0.5, seed=7)).lost.size == 0

    def test_half_to_even_rounding(self):
        # 10 MBs at 25%: 2.5 rounds to 2; at 35%: 3.5 rounds to 4
        assert len(make_mask(1, 10, 1, TrialConfig(0.25, seed=1)).lost) == 2
        assert len(make_mask(1, 10, 1, TrialConfig(0.35, seed=1)).lost) == 4

    def test_deterministic(self):
        cfg = TrialConfig(0.2, seed=99, trial_index=3)
        assert np.array_equal(make_mask(5, 8, 8, cfg).lost, make_mask(5, 8, 8, cfg).lost)

    def test_distinct_frames_differ(self):
        cfg = TrialConfig(0.2, seed=99)
        masks = {make_mask(t, 22, 18, cfg).lost.tobytes() for t in range(1, 6)}
        assert len(masks) == 5

    def test_distinct_trials_differ(self):
        lost = {make_mask(1, 22, 18, TrialConfig(0.2, seed=99, trial_index=k)).lost.tobytes() for k in range(5)}
        assert len(lost) == 5

    def test_addresses_in_grid_without_replacement(self):
        mask = make_mask(1, 6, 4, TrialConfig(0.5, seed=3))
        assert len(mask.lost) == 12
        for mb in lost_mbs(mask, 6):
            assert 0 <= mb.col < 6 and 0 <= mb.row < 4

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(1.5, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(-0.1, seed=1)


class TestApplyMask:
    def test_empty_mask_all_correct(self):
        st = apply_mask(LossMask(np.array([], dtype=int)), 4, 4)
        assert (st == MbState.CORRECT).sum() == 16

    def test_full_mask_all_damaged(self):
        full = np.arange(16)
        st = apply_mask(LossMask(full), 4, 4)
        assert (st == MbState.DAMAGED).sum() == 16

    def test_damaged_count_matches_mask(self):
        mask = make_mask(1, 8, 8, TrialConfig(0.3, seed=11))
        st = apply_mask(mask, 8, 8)
        assert (st == MbState.DAMAGED).sum() == len(mask.lost)
        assert set(damaged_mbs(st)) == lost_mbs(mask, 8)

    def test_prior_state_ignored(self):
        out = apply_mask(LossMask(np.array([3])), 2, 2)  # MB (1, 1)
        assert out[0, 0] == MbState.CORRECT
        assert out[1, 1] == MbState.DAMAGED

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            apply_mask(LossMask(np.array([4])), 2, 2)


_MASK_ARGS = dict(
    cols=st.integers(1, 30),
    rows=st.integers(1, 30),
    rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 1000),
    frame_index=st.integers(1, 1000),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(**_MASK_ARGS)
def test_make_mask_exact_count_of_distinct_in_grid_mbs(monkeypatch, cols, rows, rate, seed, trial, frame_index):
    monkeypatch.syspath_prepend(PERFBENCH)
    import checks  # the benchmark's own draw, written apart from vidconceal.loss

    mask = make_mask(frame_index, cols, rows, TrialConfig(rate, seed, trial))
    assert mask.lost.dtype.kind == "i"
    assert len(mask.lost) == round(rate * cols * rows)
    # strictly increasing, so distinct, and inside the grid
    assert (np.diff(mask.lost) > 0).all()
    assert mask.lost.size == 0 or (0 <= mask.lost[0] and mask.lost[-1] < cols * rows)
    want = checks.lost_mbs(seed, trial, frame_index, cols, rows, rate)
    assert {(k % cols, k // cols) for k in mask.lost.tolist()} == want


def _assert_read_only(lost):
    assert not lost.flags.writeable
    if lost.size:
        with pytest.raises(ValueError, match="read-only"):
            lost[0] = lost[-1]


@settings(max_examples=100, deadline=None)
@given(**_MASK_ARGS)
def test_memo_returns_the_draw_made_outside_it(cols, rows, rate, seed, trial, frame_index):
    cfg = TrialConfig(rate, seed, trial)
    outside = make_mask(frame_index, cols, rows, cfg)
    with mask_memo():
        first = make_mask(frame_index, cols, rows, cfg)
        again = make_mask(frame_index, cols, rows, cfg)
    # the repeated call reuses the first one's draw, which later modes share
    assert again.lost is first.lost
    for mask in (outside, first, again):
        assert np.array_equal(mask.lost, outside.lost)
        _assert_read_only(mask.lost)


@settings(max_examples=50, deadline=None)
@given(**_MASK_ARGS, fail=st.booleans())
def test_memo_dropped_on_exit(cols, rows, rate, seed, trial, frame_index, fail):
    cfg = TrialConfig(max(rate, 1 / (cols * rows)), seed, trial)  # at least one lost MB

    def draw_and_plan():
        plan = frame_plan(frame_index, cols, rows, cfg)
        return make_mask(frame_index, cols, rows, cfg).lost, plan

    if fail:
        with pytest.raises(RuntimeError, match="inside"):
            with mask_memo():
                inside, plan = draw_and_plan()
                assert frame_plan(frame_index, cols, rows, cfg) is plan
                raise RuntimeError("inside the scope")
    else:
        with mask_memo():
            inside, plan = draw_and_plan()
            assert frame_plan(frame_index, cols, rows, cfg) is plan
    # outside the scope and in a new one, the same key draws and plans afresh
    after, after_plan = draw_and_plan()
    with mask_memo():
        again, again_plan = draw_and_plan()
    assert after is not inside and again is not inside
    assert np.array_equal(after, inside) and np.array_equal(again, inside)
    status, order = plan
    for new_status, new_order in (after_plan, again_plan):
        assert new_status is not status and new_order is not order
        assert np.array_equal(new_status, status)
        assert all(np.array_equal(a, b) for a, b in zip(new_order, order))


def test_second_experiment_run_draws_again(tmp_path, monkeypatch):
    path = tmp_path / "clip.yuv"
    write_i420(str(path), make_sequence(32, 32, 3, seed=1))
    spec = ExperimentSpec([SequenceSpec("clip", str(path), 32, 32, 3)], [0.5], ["tr", "bma"], trials=2,
                          measure_timing=False)
    runs: list[list[np.ndarray]] = []
    orders: list[list] = []
    conceal_frame = experiment.conceal_frame

    def spy(*args):
        mask = make_mask(*args)
        runs[-1].append(mask.lost)
        return mask

    def conceal_spy(*args):
        orders[-1].append(args[7])
        return conceal_frame(*args)

    monkeypatch.setattr(experiment, "make_mask", spy)
    monkeypatch.setattr(experiment, "conceal_frame", conceal_spy)
    for k in range(2):
        runs.append([])
        orders.append([])
        run_experiment(spec, str(tmp_path / f"out{k}"))
    # per run: 2 modes x 2 trials x 2 inter frames, and bma reuses tr's
    # draws and concealment orders
    for lost, order in zip(runs, orders):
        assert len(lost) == len(order) == 8
        assert all(b is a for a, b in zip(lost[:4], lost[4:]))
        assert all(b is a for a, b in zip(order[:4], order[4:]))
    # the second run draws and orders again: equal draws and orders, but none
    # of the first run's arrays
    assert all(b is not a and np.array_equal(a, b) for a, b in zip(*runs))
    for a, b in zip(*orders):
        assert b is not a and all(np.array_equal(x, y) for x, y in zip(a, b))


def _apply_and_blank_per_mb(luma, cols, rows, lost):
    """The per-MB loops apply_mask and blank_damaged replaced, kept as
    their reference: (status grid, blanked plane)."""
    status = all_correct(cols, rows)
    for k in lost:
        if not 0 <= k < cols * rows:
            raise ValueError(f"mask entry {k} outside the grid")
        damage(status, MbAddress(k % cols, k // cols))
    out = luma.copy()
    for k in lost:
        i, j = MbAddress(k % cols, k // cols).origin()
        out[j : j + MB, i : i + MB] = 0
    return status, out


@st.composite
def _loss_instance(draw):
    cols, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.integers(-2, cols * rows + 1)
    if draw(st.booleans()):  # mostly in-grid entries
        cells = st.integers(0, cols * rows - 1)
    lost = np.array(sorted(draw(st.lists(cells, max_size=cols * rows, unique=True))), dtype=int)
    seed = draw(st.integers(0, 2**32 - 1))
    luma = np.random.Generator(np.random.PCG64(seed)).integers(0, 256, size=(MB * rows, MB * cols), dtype=np.uint8)
    return cols, rows, lost, luma


@settings(max_examples=200, deadline=None)
@given(inst=_loss_instance())
def test_apply_mask_and_blank_match_per_mb_loops(inst):
    cols, rows, lost, luma = inst
    try:
        want_state, want_luma = _apply_and_blank_per_mb(luma, cols, rows, lost)
    except ValueError:
        with pytest.raises(ValueError, match="outside"):
            apply_mask(LossMask(lost), cols, rows)
        return
    status = apply_mask(LossMask(lost), cols, rows)
    assert status.dtype == np.uint8 and np.array_equal(status, want_state)
    before = luma.copy()
    out = blank_damaged(Frame(luma), status).luma
    assert np.array_equal(out, want_luma)
    # The originals are shared by every trial and mode: blanking must leave
    # its input as it was and hand back a plane of its own.
    assert np.array_equal(luma, before)
    assert not np.shares_memory(out, luma)
    assert out.dtype == np.uint8 and out.flags.c_contiguous
