"""End-to-end loss/concealment experiments and report generation.

Both frame loops live here, and the CLI runs the same ones, so a CLI run
and a trial with the same arguments produce the same output.
``encode_frames`` is the encoder side: it reads each frame once and gives
it an MV field against the previous original. ``decode_frames`` is the
decoder side: it conceals each inter frame against the previous
*reconstructed* frame, which is how concealment errors propagate, and
scores it by PSNR against its original.

A trial-frame's plan, its status grid and concealment order, follows from
the loss draw alone. ``run_experiment`` hands every mode of a (rate, trial)
one TrialConfig with a memo, so the later modes share the draws and plans
the first one made. Wall time covers the concealment call only, so the
report's ``mean_time_per_mb_ms`` leaves out the plan in every mode. Timing
is inherently non-reproducible, so an ExperimentSpec can disable it
(measure_timing=false); everything else in the emitted files is
byte-deterministic for a fixed spec.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import MB, Frame, MbState
from .engine import MODES, audit_csv_header, audit_csv_line, conceal_frame, conceal_order
from .loss import TrialConfig, apply_mask, make_mask
from .metrics import psnr
from .motion import MvField, SearchParams, estimate_field
from .yuv_io import SequenceHeader, YuvFrameRecord, open_sequence, read_frame, write_pgm


def _name_problem(name) -> str | None:
    """Why ``name`` cannot name a sequence, or None. The name goes
    unquoted into report.csv rows and into the trial, audit and still file
    names, so a comma or a line break would add fields or rows, and a path
    separator or a dot name would put the files elsewhere."""
    if not isinstance(name, str) or not name:
        return "must be a non-empty string"
    if name in (".", ".."):
        return "must not be . or .."
    bad = [c for c in (",", "\n", "\r", "/", os.sep, os.altsep) if c and c in name]
    return f"must not contain {bad[0]!r}" if bad else None


@dataclass(frozen=True)
class SequenceSpec:
    name: str
    path: str
    width: int
    height: int
    frames: int | None = None  # None: 30 at CIF height and up, else 60

    def __post_init__(self):
        # os.path would raise a bare TypeError on anything else
        if not isinstance(self.path, str):
            raise ValueError(f"sequence {self.name}: path must be a string, got {self.path!r}")
        problem = _name_problem(self.name)
        if problem:
            raise ValueError(f"sequence name {self.name!r} {problem}")
        for key in ("width", "height", "frames"):
            value = getattr(self, key)
            if type(value) is not int and not (key == "frames" and value is None):
                raise ValueError(f"sequence {self.name}: {key} must be an integer, got {value!r}")
        # open_sequence rejects these too, but only when a run opens the file
        for key in ("width", "height"):
            value = getattr(self, key)
            if value <= 0 or value % MB:
                raise ValueError(f"sequence {self.name}: {key} must be a positive multiple of {MB}, got {value}")

    def frame_budget(self) -> int:
        if self.frames is not None:
            return self.frames
        return 30 if self.height >= 288 else 60

    def open(self) -> SequenceHeader:
        """The file's header, once it is known to hold the frame budget."""
        header = open_sequence(self.path, self.width, self.height)
        if header.frame_count < self.frame_budget():
            raise ValueError(f"{self.path} has {header.frame_count} frames, needs {self.frame_budget()}")
        return header


@dataclass
class ExperimentSpec:
    sequences: list[SequenceSpec]
    rates: list[float]
    modes: list[str]
    trials: int = 20
    seed: int = 1
    search_p: int = SearchParams.p
    measure_timing: bool = True
    dump_frames: list[int] = field(default_factory=list)

    def __post_init__(self):
        # a string would be iterated letter by letter, a number not at all
        for key in ("sequences", "rates", "modes", "dump_frames"):
            if not isinstance(getattr(self, key), list):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        for key in ("sequences", "rates", "modes"):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty: the report would have no rows")
        if type(self.trials) is not int or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        # a bool is an int to Python, but true is no seed
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        # the search would only fail on this once the output tree exists
        if type(self.search_p) is not int or self.search_p < 0:
            raise ValueError(f"search_p must be an integer >= 0, got {self.search_p!r}")
        # a string such as "false" is truthy and would switch timing on
        if not isinstance(self.measure_timing, bool):
            raise ValueError(f"measure_timing must be true or false, got {self.measure_timing!r}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        tags: dict[str, float] = {}
        for rate in self.rates:
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValueError(f"rates entry {rate!r} is not a number")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate} outside [0, 1]")
            # trial and audit file names carry the rate tag, so equal tags
            # would overwrite each other's files
            tag = _rate_tag(rate)
            if tag in tags:
                raise ValueError(f"rates {tags[tag]!r} and {rate!r} share the file-name tag r{tag}")
            tags[tag] = rate
        for seq in self.sequences:
            budget = seq.frame_budget()
            if budget < 2:
                raise ValueError(f"sequence {seq.name}: need at least 2 frames")
            # stills are written for these frame indices of every sequence
            for t in self.dump_frames:
                if type(t) is not int:
                    raise ValueError(f"dump_frames entry {t!r} is not an integer")
                if not 0 <= t < budget:
                    raise ValueError(f"dump_frames index {t} outside sequence {seq.name}'s {budget} frames")
        # the file names carry the sequence name and the mode as well
        for what, names in (("sequence name", [s.name for s in self.sequences]), ("mode", self.modes)):
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ValueError(f"repeated {what} {repeated[0]!r}: its trial and audit files would collide")


def _check_keys(raw: dict, spec_type, where: str, derived: tuple[str, ...] = ()) -> None:
    """Reject a ``raw`` that is not a table of keys, a key that names no
    field of ``spec_type``, and a missing one for a field without a default
    that the loader does not derive."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a table of keys, got {raw!r}")
    fields = dataclasses.fields(spec_type)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in raw and f.name not in derived:
            raise ValueError(f"missing {where} key {f.name!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; json.load would keep a repeated key's last
    value, so a repeat raises (a TOML parser rejects it itself)."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise ValueError(f"spec key {key!r} given twice")
        table[key] = value
    return table


def load_spec_file(path: str) -> ExperimentSpec:
    """Parse an experiment config (JSON always; TOML on Python 3.11+)."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as e:
            raise RuntimeError("TOML specs need Python 3.11+; use JSON") from e
        with open(path, "rb") as f:
            raw = tomllib.load(f)
    else:
        with open(path) as f:
            raw = json.load(f, object_pairs_hook=_unique_keys)
    _check_keys(raw, ExperimentSpec, "spec")
    sequences = raw["sequences"]
    if isinstance(sequences, list):  # anything else is ExperimentSpec's to reject
        sequences = [_load_sequence(s) for s in sequences]
    return ExperimentSpec(**{**raw, "sequences": sequences})


def _load_sequence(raw) -> SequenceSpec:
    # a sequence is named after its file unless the spec names it; a path
    # that is not a string is SequenceSpec's to reject
    _check_keys(raw, SequenceSpec, "sequence", derived=("name",))
    path = raw["path"]
    stem = os.path.splitext(os.path.basename(path))[0] if isinstance(path, str) else repr(path)
    problem = "name" not in raw and isinstance(path, str) and _name_problem(stem)
    if problem:
        raise ValueError(f"sequence name {stem!r}, the stem of {path!r}, {problem}: set the sequence's name")
    return SequenceSpec(**{"name": stem, **raw})


@dataclass
class SequenceContext:
    """Originals and encoder-side MV fields (None at frame 0), computed once
    per sequence and shared by every trial/mode/rate (they do not depend on
    the loss draw)."""

    spec: SequenceSpec
    originals: list[Frame]
    fields: list[MvField | None]


def encode_frames(
    header: SequenceHeader, params: SearchParams, count: int | None = None
) -> Iterator[tuple[YuvFrameRecord, MvField | None]]:
    """Encoder side: read frames 0 .. count-1 (all by default) once each and
    yield each with its MV field against the previous original (None for
    frame 0)."""
    prev = None
    for t in range(header.frame_count if count is None else count):
        record = read_frame(header, t)
        mv_field = None if prev is None else estimate_field(record.luma, prev, params)
        yield record, mv_field
        prev = record.luma


def build_context(seq: SequenceSpec, search_p: int) -> SequenceContext:
    originals, fields = [], []
    for record, mv_field in encode_frames(seq.open(), SearchParams(p=search_p), seq.frame_budget()):
        originals.append(record.luma)
        fields.append(mv_field)
    return SequenceContext(seq, originals, fields)


def blank_damaged(frame: Frame, status: np.ndarray) -> Frame:
    """Zero out the pixels of damaged MBs; the decoder treats them as lost.
    The frame must cover the status grid exactly. One multiply scales it by
    a keep mask of MB rows x frame width, 0 under a damaged MB and 1
    elsewhere, broadcast over the 16 pixel rows of each MB row, so the
    inner loop runs the frame's width and the cost is the same at every
    loss rate. The result is a new C-contiguous uint8 plane; the input,
    which other trials and modes share, is never written."""
    rows, cols = status.shape
    keep = np.repeat((status != MbState.DAMAGED).view(np.uint8), MB, axis=1)
    lines = frame.luma.reshape(rows, MB, cols * MB) * keep[:, None, :]
    return Frame(lines.reshape(rows * MB, cols * MB))


class DecodedFrame(NamedTuple):
    index: int
    damaged: Frame
    concealed: Frame
    psnr_db: float
    conceal_ms: float  # 0.0 untimed
    audit_lines: list[str]


def frame_plan(t: int, cols: int, rows: int, cfg: TrialConfig) -> tuple[np.ndarray, np.ndarray]:
    """Frame ``t``'s read-only status grid after the loss of ``cfg``, and
    its concealment order. With a memo on ``cfg``, the later modes of a
    trial get the first mode's plan back; make_mask is called every time."""
    mask = make_mask(t, cols, rows, cfg)
    memo = {} if cfg.memo is None else cfg.memo
    key = ("plan", cfg.seed, cfg.trial_index, t, cols, rows, mask.lost.size)
    if key not in memo:
        status = apply_mask(mask, cols, rows)
        status.flags.writeable = False
        memo[key] = status, conceal_order(status)
    return memo[key]


def decode_frames(
    first: Frame,
    inter: Iterable[tuple[Frame, MvField]],
    cfg: TrialConfig,
    mode: str,
    measure_timing: bool,
) -> Iterator[DecodedFrame]:
    """Decoder side: conceal each inter frame, given as (original, MV field),
    after the seeded loss of ``cfg``, against the previous reconstruction.
    Timed frames report the median of 3 concealment runs, each given the
    frame's plan."""
    cols, rows = first.mb_cols, first.mb_rows
    ref_frame, ref_status, prev_field = first, np.full((rows, cols), MbState.CORRECT, dtype=np.uint8), None
    for t, (original, mv_field) in enumerate(inter, start=1):
        status, order = frame_plan(t, cols, rows, cfg)
        damaged = blank_damaged(original, status)
        times = []
        for _ in range(3 if measure_timing else 1):
            t0 = time.perf_counter()
            out = conceal_frame(damaged, ref_frame, ref_status, status, mv_field, prev_field, mode, order)
            times.append(time.perf_counter() - t0)
        ms = statistics.median(times) * 1000.0 if measure_timing else 0.0
        yield DecodedFrame(
            t, damaged, out.frame, psnr(out.frame, original), ms,
            [audit_csv_line(t, rec) for rec in out.audit],
        )
        ref_frame, ref_status, prev_field = out.frame, out.status, mv_field


@dataclass
class TrialResult:
    sequence: str
    mode: str
    rate: float
    psnr_db: list[float]  # frames 1, 2, ... in order
    frame_ms: list[float]  # per-frame concealment wall time (0.0 untimed)
    frame_mbs: list[int]
    audit_lines: list[str]
    damaged_frames: dict[int, Frame] = field(default_factory=dict)
    concealed_frames: dict[int, Frame] = field(default_factory=dict)


def run_trial(
    ctx: SequenceContext,
    mode: str,
    cfg: TrialConfig,
    measure_timing: bool,
    keep_frames: tuple[int, ...] = (),
) -> TrialResult:
    """One seeded pass over the sequence with a single mode and the loss of
    ``cfg``."""
    tr = TrialResult(ctx.spec.name, mode, cfg.rate, [], [], [], [])
    inter = zip(ctx.originals[1:], ctx.fields[1:])
    for d in decode_frames(ctx.originals[0], inter, cfg, mode, measure_timing):
        tr.psnr_db.append(d.psnr_db)
        tr.frame_ms.append(d.conceal_ms)
        tr.frame_mbs.append(len(d.audit_lines))
        tr.audit_lines.extend(d.audit_lines)
        if d.index in keep_frames:
            tr.damaged_frames[d.index] = d.damaged
            tr.concealed_frames[d.index] = d.concealed
    return tr


@dataclass(frozen=True)
class ReportRow:
    sequence: str
    mode: str
    rate: float
    trials: int
    mean_psnr_db: float
    mean_time_per_mb_ms: float


def aggregate(trials: list[TrialResult]) -> ReportRow:
    """Collapse the trials of one (sequence, mode, rate) cell: mean over
    trials framewise, then over frames; time per concealed MB overall."""
    if not trials:
        raise ValueError("aggregate needs at least one trial")
    first = trials[0]
    values = np.array([tr.psnr_db for tr in trials], dtype=np.float64)
    per_frame_mean = values.mean(axis=0)
    total_ms = sum(sum(tr.frame_ms) for tr in trials)
    total_mbs = sum(sum(tr.frame_mbs) for tr in trials)
    return ReportRow(
        sequence=first.sequence,
        mode=first.mode,
        rate=first.rate,
        trials=len(trials),
        mean_psnr_db=float(per_frame_mean.mean()),
        mean_time_per_mb_ms=(total_ms / total_mbs) if total_mbs else 0.0,
    )


def _rate_tag(rate: float) -> str:
    return f"{rate:g}"


def _cell_tag(sequence: str, mode: str, rate: float, trial: int) -> str:
    return f"{sequence}_{mode}_r{_rate_tag(rate)}_t{trial:03d}"


def _render_report_csv(rows: list[ReportRow]) -> str:
    lines = ["sequence,mode,rate,trials,mean_psnr_db,mean_time_per_mb_ms"]
    for r in rows:
        lines.append(
            f"{r.sequence},{r.mode},{r.rate:g},{r.trials},"
            f"{r.mean_psnr_db:.4f},{r.mean_time_per_mb_ms:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_trial_csv(tr: TrialResult, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write("frame_index,psnr_db,conceal_ms,mbs_concealed\n")
        for t, (db, ms, n) in enumerate(zip(tr.psnr_db, tr.frame_ms, tr.frame_mbs), start=1):
            f.write(f"{t},{db!r},{ms!r},{n}\n")


def run_experiment(spec: ExperimentSpec, out_dir: str) -> list[ReportRow]:
    """Run every (sequence, mode, rate, trial) cell, persist the results and
    return the report's rows.

    Layout: report.csv at the top; per-trial PSNR curves under trials/;
    per-trial concealment audits under audits/; optional PGM stills under
    frames/ for the frame indices listed in dump_frames (trial 0 only).
    """
    for seq in spec.sequences:  # a bad file stops the run before any output
        seq.open()
    os.makedirs(out_dir, exist_ok=True)
    trials_dir = os.path.join(out_dir, "trials")
    audits_dir = os.path.join(out_dir, "audits")
    os.makedirs(trials_dir, exist_ok=True)
    os.makedirs(audits_dir, exist_ok=True)
    dump = tuple(spec.dump_frames)
    if dump:
        os.makedirs(os.path.join(out_dir, "frames"), exist_ok=True)

    rows: list[ReportRow] = []
    for seq in spec.sequences:
        ctx = build_context(seq, spec.search_p)
        # every mode of a (rate, trial) conceals the same draws: the first
        # mode draws them and builds each frame's plan, the later ones reuse both
        configs = {(rate, k): TrialConfig(rate, spec.seed, k, memo={})
                   for rate in spec.rates for k in range(spec.trials)}
        for t in dump:
            write_pgm(ctx.originals[t], os.path.join(out_dir, "frames", f"{seq.name}_f{t:03d}_original.pgm"))
        for mode in spec.modes:
            for rate in spec.rates:
                cell: list[TrialResult] = []
                for k in range(spec.trials):
                    tr = run_trial(ctx, mode, configs[rate, k], spec.measure_timing,
                                   keep_frames=dump if k == 0 else ())
                    tag = _cell_tag(seq.name, mode, rate, k)
                    write_trial_csv(tr, os.path.join(trials_dir, f"{tag}.csv"))
                    with open(os.path.join(audits_dir, f"{tag}.csv"), "w", newline="") as f:
                        f.write("\n".join([audit_csv_header(), *tr.audit_lines, ""]))
                    if k == 0 and dump:
                        for t, frm in tr.damaged_frames.items():
                            write_pgm(frm, os.path.join(out_dir, "frames", f"{seq.name}_{mode}_r{_rate_tag(rate)}_f{t:03d}_damaged.pgm"))
                        for t, frm in tr.concealed_frames.items():
                            write_pgm(frm, os.path.join(out_dir, "frames", f"{seq.name}_{mode}_r{_rate_tag(rate)}_f{t:03d}_concealed.pgm"))
                    cell.append(tr)
                rows.append(aggregate(cell))

    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as f:
        f.write(_render_report_csv(rows))
    return rows
