import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from instances import all_correct, damage, damaged_mbs
from vidconceal.core import MB, Frame, MbAddress, MbState
from vidconceal import experiment
from vidconceal.experiment import ExperimentSpec, SequenceSpec, blank_damaged, frame_plan, run_experiment
from vidconceal.loss import LossMask, TrialConfig, apply_mask, make_mask
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


def _assert_same_plan(plan, want):
    (status, order), (want_status, want_order) = plan, want
    assert np.array_equal(status, want_status) and np.array_equal(order, want_order)
    assert not status.flags.writeable


@settings(max_examples=100, deadline=None)
@given(**_MASK_ARGS)
def test_config_memo_hands_back_its_first_draw_and_plan(cols, rows, rate, seed, trial, frame_index):
    cfg = TrialConfig(rate, seed, trial, memo={})
    first, plan = make_mask(frame_index, cols, rows, cfg), frame_plan(frame_index, cols, rows, cfg)
    # the later calls, as the later modes of a trial make them, reuse both
    assert make_mask(frame_index, cols, rows, cfg).lost is first.lost
    assert frame_plan(frame_index, cols, rows, cfg) is plan
    # and they are what a config without a memo draws and plans
    plain = TrialConfig(rate, seed, trial)
    assert plain == cfg
    assert np.array_equal(first.lost, make_mask(frame_index, cols, rows, plain).lost)
    _assert_read_only(first.lost)
    _assert_same_plan(plan, frame_plan(frame_index, cols, rows, plain))


@settings(max_examples=50, deadline=None)
@given(**_MASK_ARGS)
def test_memo_less_config_draws_and_plans_afresh(cols, rows, rate, seed, trial, frame_index):
    cfg = TrialConfig(max(rate, 1 / (cols * rows)), seed, trial)  # at least one lost MB
    assert cfg.memo is None
    a, b = make_mask(frame_index, cols, rows, cfg).lost, make_mask(frame_index, cols, rows, cfg).lost
    assert b is not a and np.array_equal(a, b)
    _assert_read_only(b)
    plan, again = frame_plan(frame_index, cols, rows, cfg), frame_plan(frame_index, cols, rows, cfg)
    assert all(y is not x for x, y in zip(plan, again))
    _assert_same_plan(again, plan)


@settings(max_examples=100, deadline=None)
@given(
    cols=st.integers(2, 12), rows=st.integers(1, 12), seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 1000), frame_index=st.integers(1, 1000), data=st.data(),
)
def test_configs_sharing_one_memo_keep_their_own_draws(cols, rows, seed, trial, frame_index, data):
    # one dict under configs that differ in seed, trial, lost count or frame:
    # each gets what it would draw and plan on its own
    total = cols * rows
    count, other = data.draw(st.lists(st.integers(1, total), min_size=2, max_size=2, unique=True))
    shared = {}
    cases = [
        (TrialConfig(count / total, seed, trial, shared), frame_index),
        (TrialConfig(count / total, seed ^ 1, trial, shared), frame_index),
        (TrialConfig(count / total, seed, trial + 1, shared), frame_index),
        (TrialConfig(other / total, seed, trial, shared), frame_index),
        (TrialConfig(count / total, seed, trial, shared), frame_index + 1),
    ]
    for cfg, t in cases:
        lost, plan = make_mask(t, cols, rows, cfg).lost, frame_plan(t, cols, rows, cfg)
        alone = dataclasses.replace(cfg, memo=None)
        assert np.array_equal(lost, make_mask(t, cols, rows, alone).lost)
        _assert_same_plan(plan, frame_plan(t, cols, rows, alone))


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
