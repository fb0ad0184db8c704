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

Every mode of a trial conceals the same draws. Inside a ``mask_memo()``
scope, which ``experiment.run_experiment`` opens for its run, each draw is
made once and handed back to the later modes; outside one, every call
draws. ``memoized`` keeps what else a run derives from one draw in the same
scope: ``experiment`` keeps each trial-frame's status grid and concealment
order there. The scope is per run, not per process, so a run never reuses
the draws of an earlier one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, TypeVar

import numpy as np

from .core import MbState

_U64 = (1 << 64) - 1

# key -> value of memoized(), while a mask_memo() scope is open
_memo: dict[Hashable, object] | None = None

_T = TypeVar("_T")

_NONE_LOST = np.empty(0, dtype=np.int64)
_NONE_LOST.flags.writeable = False


@dataclass(frozen=True)
class TrialConfig:
    rate: float
    seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate {self.rate} outside [0, 1]")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")


@dataclass(frozen=True)
class LossMask:
    lost: np.ndarray  # sorted int raster indices row * cols + col


@contextmanager
def mask_memo() -> Iterator[None]:
    """Scope within which make_mask draws each mask once and returns the
    same array for every later call with the same key, and ``memoized``
    builds each value once. The memo is dropped on exit, also when an
    exception leaves the scope."""
    global _memo
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def memoized(key: Hashable, build: Callable[[], _T]) -> _T:
    """``build()``, made once per ``key`` inside a mask_memo() scope and
    handed back on every later call; outside a scope, built on every call.
    A key names what ``build`` depends on, so equal keys must build equal
    values; make_mask's keys start with "mask"."""
    if _memo is None:
        return build()
    value = _memo.get(key)
    if value is None:
        value = _memo[key] = build()
    return value


def make_mask(frame_index: int, mb_cols: int, mb_rows: int, cfg: TrialConfig) -> LossMask:
    """Exactly round(rate * mb_cols * mb_rows) distinct lost MBs (round half
    to even), drawn deterministically from (seed, trial_index, frame_index).
    The lost-index array is read-only: inside a mask_memo() scope, later
    calls share it."""
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    total = mb_cols * mb_rows
    count = round(cfg.rate * total)
    if frame_index == 0 or count == 0:
        return LossMask(_NONE_LOST)
    entropy = (cfg.seed & _U64, cfg.trial_index, frame_index)

    def draw() -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        lost = np.sort(rng.choice(total, size=count, replace=False))
        lost.flags.writeable = False
        return lost

    return LossMask(memoized(("mask", *entropy, total, count), draw))


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
