"""Outside-in tracing of vidconceal.

The tracer replaces module-level names that vidconceal's own callers look up
at call time (``vidconceal.experiment.conceal_frame``, the methods of
``vidconceal.engine.PrioritySchedule``, ...) with wrappers that record one
span per call, so the program itself stays untouched. A span holds its name,
start, end, parent span and trial id; spans stay in memory until ``take``
aggregates them. Self time is a span's duration minus that of its children.

Hooks run after a wrapped call returns and turn its arguments and result
into exact work counts (search points, bytes read, boundary-side wins).
Their own time is recorded as a ``trace.hook`` span under the caller, so it
is charged to the tracer and not to the caller's self time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

MB = 16
HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.trial_modes: list[str | None] = []  # trial id -> mode (None: no concealment)
        self.trial = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._search_points: dict[tuple[int, int, int], int] = {}
        self._clear()

    def _clear(self) -> None:
        self.name_of = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("d")
        self.end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial_of.append(self.trial)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None, trial_mode=None):
        """A wrapper of ``fn`` that records a span named ``name``. With
        ``trial_mode``, each call opens a new trial whose mode is
        ``trial_mode(args, kwargs)``."""
        nid, hook_id = self.name_id(name), self.name_id(HOOK)

        def traced(*args, **kwargs):
            outer_trial = self.trial
            if trial_mode is not None:
                self.trial = len(self.trial_modes)
                self.trial_modes.append(trial_mode(args, kwargs))
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
                self.trial = outer_trial
            if hook is not None:
                h = self.begin(hook_id)
                hook(self, args, kwargs, result)
                self.finish(h)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None, trial_mode=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(original, name, hook, trial_mode)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def search_points(self, width: int, height: int, p: int) -> int:
        """Displacements full search visits over one frame: per MB, the
        in-frame part of the (2p+1)^2 window."""
        key = (width, height, p)
        if key not in self._search_points:
            def axis(size: int) -> int:
                return sum(min(p, size - MB - o) - max(-p, -o) + 1 for o in range(0, size, MB))
            self._search_points[key] = axis(width) * axis(height)
        return self._search_points[key]

    def take(self) -> tuple[dict, Counter, dict]:
        """Aggregate and drop the spans recorded so far.

        Returns per-name ``[calls, total_s, self_s]``, the same keyed by
        ``(name, mode)`` for spans inside a trial with a mode, the counts,
        and the raw span columns.
        """
        n = len(self.start)
        name_of = np.frombuffer(self.name_of, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        trial_of = np.frombuffer(self.trial_of, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - start
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

        stats: dict = {}
        for key, sel in self._groups(name_of, trial_of):
            stats[key] = [int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum())]
        spans = {
            "names": np.array(self.names),
            "name": name_of.copy(), "parent": parent.copy(), "trial": trial_of.copy(),
            "start": start.copy(), "end": start + dur,
        }
        counts = self.counts
        self.counts = Counter()
        self._clear()
        return stats, counts, spans

    def _groups(self, name_of, trial_of):
        modes = sorted({m for m in self.trial_modes if m is not None})
        mode_code = np.array(
            [modes.index(m) if m is not None else -1 for m in self.trial_modes] + [-1],
            dtype=np.int64,
        )
        span_mode = mode_code[trial_of]  # trial -1 picks the trailing -1
        for nid, name in enumerate(self.names):
            sel = name_of == nid
            if not sel.any():
                continue
            yield name, sel
            for code, mode in enumerate(modes):
                both = sel & (span_mode == code)
                if both.any():
                    yield (name, mode), both


def add_stats(into: dict, stats: dict) -> None:
    for key, (calls, total, self_s) in stats.items():
        acc = into.setdefault(key, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s


# Hooks: (tracer, args, kwargs, result) -> None. They read only what the
# call's arguments and result expose.

def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def hook_estimate_field(tr: Tracer, args, kwargs, result) -> None:
    cur = args[0]
    params = _arg(args, kwargs, 2, "params")
    p = params.p if params is not None else 7
    tr.counts["motion.mbs"] += cur.mb_cols * cur.mb_rows
    tr.counts["motion.search_points"] += tr.search_points(cur.width, cur.height, p)


def hook_read_frame(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["yuv_io.bytes_read"] += args[0].frame_bytes


def hook_make_mask(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["loss.mbs_lost"] += len(result.lost)


def hook_conceal_frame(tr: Tracer, args, kwargs, result) -> None:
    mode = _arg(args, kwargs, 6, "mode")
    tr.counts["engine.mbs_concealed." + mode] += len(result.audit)


def hook_select_mv(tr: Tracer, args, kwargs, result) -> None:
    """Candidates and the per-side decision, read from the returned
    BoundaryDistortion: a side counts as an `additional` win when the
    additional-boundary distortion is present and strictly below the classic
    one, as a `classic` win when the side is scored otherwise."""
    ref, mb, candidates = args[1], args[3], args[4]
    mode = _arg(args, kwargs, 6, "mode")
    c = tr.counts
    i, j = MB * mb.col, MB * mb.row
    w, h = ref.width, ref.height
    in_frame = sum(
        1 for mv in candidates
        if 0 <= i + mv.vx and i + mv.vx + MB <= w and 0 <= j + mv.vy and j + mv.vy + MB <= h
    )
    c["engine.candidates." + mode] += len(candidates)
    c["engine.candidates_in_frame"] += in_frame
    if in_frame == 0:
        c["engine.unscored_mbs"] += 1
        return
    dist = result[1]
    if dist.collocated_fallback:
        c["engine.collocated_fallbacks"] += 1
    for classic, proposed, chosen in zip(
        dist.classic.values(), dist.proposed.values(), dist.chosen.values()
    ):
        if chosen is None:
            c["engine.sides_absent"] += 1
        elif proposed is not None and (classic is None or proposed < classic):
            c["engine.side_wins.additional"] += 1
        else:
            c["engine.side_wins.classic"] += 1


def trial_mode_run_trial(args, kwargs):
    return _arg(args, kwargs, 1, "mode")


def trial_mode_cmd(args, kwargs):
    return getattr(args[0], "mode", None)


def install_targets(tr: Tracer) -> None:
    """Register every wrapped name. Span names are layer-qualified, so the
    same function reached through the experiment runner or through the CLI
    lands under one name."""
    from vidconceal import cli, engine, experiment

    for owner in (experiment, cli):
        tr.patch(owner, "estimate_field", "motion.estimate_field", hook_estimate_field)
        tr.patch(owner, "read_frame", "yuv_io.read_frame", hook_read_frame)
        tr.patch(owner, "conceal_frame", "engine.conceal_frame", hook_conceal_frame)
        tr.patch(owner, "psnr", "metrics.psnr")
        tr.patch(owner, "make_mask", "loss.make_mask", hook_make_mask)
        tr.patch(owner, "apply_mask", "loss.apply_mask")
        tr.patch(owner, "audit_csv_line", "engine.audit_csv_line")
        tr.patch(owner, "blank_damaged", "experiment.blank_damaged")
    tr.patch(experiment, "build_context", "experiment.build_context")
    tr.patch(experiment, "run_trial", "experiment.run_trial", trial_mode=trial_mode_run_trial)
    tr.patch(experiment, "write_trial_csv", "experiment.write_trial_csv")
    tr.patch(experiment, "aggregate", "experiment.aggregate")
    tr.patch(experiment, "run_experiment", "experiment.run_experiment")

    tr.patch(engine, "neighbor_context", "engine.neighbor_context")
    tr.patch(engine, "build_candidates", "engine.build_candidates")
    tr.patch(engine, "select_mv", "engine.select_mv", hook_select_mv)
    sched = engine.PrioritySchedule
    tr.patch(sched, "__init__", "engine.schedule.init")
    tr.patch(sched, "extract", "engine.schedule.extract")
    tr.patch(sched, "on_concealed", "engine.schedule.on_concealed")

    tr.patch(cli, "write_yuv_frame", "yuv_io.write_yuv_frame")
    tr.patch(cli, "save_mv_fields", "cli.save_mv_fields")
    for cmd in ("cmd_estimate", "cmd_conceal", "cmd_psnr"):
        tr.patch(cli, cmd, "cli." + cmd, trial_mode=trial_mode_cmd)
