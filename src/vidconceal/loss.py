"""Seeded random macroblock loss masks.

Losses are exact-count (round(rate * total) MBs per frame, sampled without
replacement) rather than per-MB Bernoulli, which keeps trial variance down.
A lost MB loses both its pixels and its motion vector. Frame 0 is treated as
intra/error-free and never receives losses.

A mask lists its lost MBs as sorted raster indices ``row * cols + col``,
the order in which the status grid is laid out.

The PRNG is NumPy's PCG64 keyed on (seed, trial_index, frame_index), a fixed
algorithm rather than any platform default, so masks are reproducible across
runs for a given NumPy version.

Every mode of a trial conceals the same draws. A TrialConfig may carry a
``memo`` dict, which ``experiment.run_experiment`` gives each of the
configs it makes and hands to every mode: make_mask keeps each draw there
and hands it back to the later modes, and ``experiment`` keeps each
trial-frame's status grid and concealment order beside it. Without a memo,
every call draws. A run makes its own configs, so it never reuses the
draws of an earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MbState

_U64 = (1 << 64) - 1

_NONE_LOST = np.empty(0, dtype=np.int64)
_NONE_LOST.flags.writeable = False


@dataclass(frozen=True)
class TrialConfig:
    rate: float
    seed: int
    trial_index: int = 0
    # key -> what was drawn or derived from this config; a key names all its
    # value depends on, so configs may share one dict
    memo: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate {self.rate} outside [0, 1]")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")


@dataclass(frozen=True)
class LossMask:
    lost: np.ndarray  # sorted int raster indices row * cols + col


def make_mask(frame_index: int, mb_cols: int, mb_rows: int, cfg: TrialConfig) -> LossMask:
    """Exactly round(rate * mb_cols * mb_rows) distinct lost MBs (round half
    to even), drawn deterministically from (seed, trial_index, frame_index).
    The lost-index array is read-only: with a memo, later calls share it."""
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    total = mb_cols * mb_rows
    count = round(cfg.rate * total)
    if frame_index == 0 or count == 0:
        return LossMask(_NONE_LOST)
    entropy = (cfg.seed & _U64, cfg.trial_index, frame_index)
    memo = {} if cfg.memo is None else cfg.memo
    key = ("mask", *entropy, total, count)
    if key not in memo:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        lost = memo[key] = np.sort(rng.choice(total, size=count, replace=False))
        lost.flags.writeable = False
    return LossMask(memo[key])


def apply_mask(mask: LossMask, mb_cols: int, mb_rows: int) -> np.ndarray:
    """Fresh (mb_rows, mb_cols) status grid: masked MBs Damaged, everything
    else Correct."""
    out = np.zeros((mb_rows, mb_cols), dtype=np.uint8)
    lost = mask.lost
    bad = lost[(lost < 0) | (lost >= out.size)]
    if bad.size:
        raise ValueError(f"mask entry {bad[0]} outside {mb_cols}x{mb_rows} grid")
    out.put(lost, MbState.DAMAGED)
    return out
