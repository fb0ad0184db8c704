"""End-to-end loss/concealment experiments and report generation.

Per trial, the decode loop mirrors the usual evaluation protocol: frame 0
passes through pristine; every later frame gets its MV field from the
original frames (encoder side), loses a seeded random set of MBs, and is
concealed against the previous *reconstructed* frame. PSNR is measured
against the original frame; wall time covers the concealment call only.

Timing is inherently non-reproducible, so an ExperimentSpec can disable it
(measure_timing=false); everything else in the emitted files is
byte-deterministic for a fixed spec.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .core import MB, Frame, MbState, MbStatusMap
from .engine import MODES, audit_csv_header, audit_csv_line, conceal_frame
from .loss import TrialConfig, apply_mask, make_mask
from .metrics import PSNR_CAP_DB, PsnrSample, psnr
from .motion import MvField, SearchParams, estimate_field
from .yuv_io import open_sequence, read_frame, write_pgm


@dataclass(frozen=True)
class SequenceSpec:
    name: str
    path: str
    width: int
    height: int
    frames: int | None = None  # None: 30 at CIF height and up, else 60

    def frame_budget(self) -> int:
        if self.frames is not None:
            return self.frames
        return 30 if self.height >= 288 else 60


@dataclass
class ExperimentSpec:
    sequences: list[SequenceSpec]
    rates: list[float]
    modes: list[str]
    trials: int = 20
    seed: int = 1
    search_p: int = 7
    measure_timing: bool = True
    dump_frames: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        tags: dict[str, float] = {}
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate} outside [0, 1]")
            # trial and audit file names carry the rate tag, so equal tags
            # would overwrite each other's files
            tag = _rate_tag(rate)
            if tag in tags:
                raise ValueError(f"rates {tags[tag]!r} and {rate!r} share the file-name tag r{tag}")
            tags[tag] = rate
        for seq in self.sequences:
            if seq.frame_budget() < 2:
                raise ValueError(f"sequence {seq.name}: need at least 2 frames")


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
            raw = json.load(f)
    sequences = [
        SequenceSpec(
            name=s.get("name", os.path.splitext(os.path.basename(s["path"]))[0]),
            path=s["path"],
            width=s["width"],
            height=s["height"],
            frames=s.get("frames"),
        )
        for s in raw["sequences"]
    ]
    return ExperimentSpec(
        sequences=sequences,
        rates=list(raw["rates"]),
        modes=list(raw["modes"]),
        trials=raw.get("trials", 20),
        seed=raw.get("seed", 1),
        search_p=raw.get("search_p", 7),
        measure_timing=raw.get("measure_timing", True),
        dump_frames=list(raw.get("dump_frames", [])),
    )


@dataclass
class SequenceContext:
    """Originals and encoder-side MV fields, computed once per sequence and
    shared by every trial/mode/rate (they do not depend on the loss draw)."""

    spec: SequenceSpec
    originals: list[Frame]
    fields: dict[int, MvField]


def build_context(seq: SequenceSpec, search_p: int = 7) -> SequenceContext:
    header = open_sequence(seq.path, seq.width, seq.height)
    budget = seq.frame_budget()
    if header.frame_count < budget:
        raise ValueError(
            f"{seq.path} has {header.frame_count} frames, needs {budget}"
        )
    originals = [read_frame(header, t).luma for t in range(budget)]
    params = SearchParams(p=search_p)
    fields = {
        t: estimate_field(originals[t], originals[t - 1], params, frame_index=t)
        for t in range(1, budget)
    }
    return SequenceContext(seq, originals, fields)


def blank_damaged(frame: Frame, status: MbStatusMap) -> Frame:
    """Zero out the pixels of damaged MBs; the decoder treats them as lost.
    One multiply scales each MB of the frame, which must cover the status
    grid exactly, by 0 where it is damaged and by 1 elsewhere."""
    rows, cols = status.state.shape
    keep = (status.state != MbState.DAMAGED).view(np.uint8)
    blocks = frame.luma.reshape(rows, MB, cols, MB) * keep[:, None, :, None]
    return Frame(blocks.reshape(rows * MB, cols * MB))


@dataclass
class TrialResult:
    sequence: str
    mode: str
    rate: float
    trial_index: int
    samples: list[PsnrSample]
    frame_ms: list[float]  # per-frame concealment wall time (0.0 untimed)
    frame_mbs: list[int]
    audit_lines: list[str]
    damaged_frames: dict[int, Frame] = field(default_factory=dict)
    concealed_frames: dict[int, Frame] = field(default_factory=dict)

    @property
    def capped(self) -> int:
        return sum(1 for s in self.samples if s.value >= PSNR_CAP_DB)

    @property
    def mean_psnr(self) -> float:
        return float(np.mean([s.value for s in self.samples]))


def run_trial(
    ctx: SequenceContext,
    mode: str,
    rate: float,
    trial_index: int,
    seed: int,
    measure_timing: bool = True,
    keep_frames: tuple[int, ...] = (),
) -> TrialResult:
    """One seeded pass over the sequence with a single mode and loss rate."""
    originals = ctx.originals
    cols, rows = originals[0].mb_cols, originals[0].mb_rows
    cfg = TrialConfig(rate, seed, trial_index)

    ref_frame = originals[0]
    ref_status = MbStatusMap.all_correct(cols, rows)
    samples: list[PsnrSample] = []
    frame_ms: list[float] = []
    frame_mbs: list[int] = []
    audit_lines: list[str] = []
    damaged_frames: dict[int, Frame] = {}
    concealed_frames: dict[int, Frame] = {}

    for t in range(1, len(originals)):
        mask = make_mask(t, cols, rows, cfg)
        status = apply_mask(ref_status, mask)
        cur_damaged = blank_damaged(originals[t], status)
        mv_field = ctx.fields[t]
        prev_field = ctx.fields.get(t - 1)

        reps = 3 if measure_timing else 1
        times = []
        out = None
        for _ in range(reps):
            t0 = time.perf_counter()
            out = conceal_frame(
                cur_damaged, ref_frame, ref_status, status, mv_field, prev_field, mode
            )
            times.append(time.perf_counter() - t0)
        ms = statistics.median(times) * 1000.0 if measure_timing else 0.0

        samples.append(PsnrSample(t, psnr(out.frame, originals[t])))
        frame_ms.append(ms)
        frame_mbs.append(len(out.audit))
        audit_lines.extend(audit_csv_line(t, rec) for rec in out.audit)
        if t in keep_frames:
            damaged_frames[t] = cur_damaged
            concealed_frames[t] = out.frame

        ref_frame = out.frame
        ref_status = out.status

    return TrialResult(
        ctx.spec.name, mode, rate, trial_index, samples, frame_ms, frame_mbs,
        audit_lines, damaged_frames, concealed_frames,
    )


@dataclass(frozen=True)
class ReportRow:
    sequence: str
    mode: str
    rate: float
    trials: int
    mean_psnr_db: float
    mean_time_per_mb_ms: float
    capped_frames: int


@dataclass
class ExperimentReport:
    rows: list[ReportRow]

    def row(self, sequence: str, mode: str, rate: float) -> ReportRow:
        for r in self.rows:
            if r.sequence == sequence and r.mode == mode and abs(r.rate - rate) < 1e-12:
                return r
        raise KeyError((sequence, mode, rate))


def aggregate(trials: list[TrialResult]) -> ReportRow:
    """Collapse the trials of one (sequence, mode, rate) cell: mean over
    trials framewise, then over frames; time per concealed MB overall."""
    if not trials:
        raise ValueError("aggregate needs at least one trial")
    first = trials[0]
    values = np.array([[s.value for s in tr.samples] for tr in trials], dtype=np.float64)
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
        capped_frames=sum(tr.capped for tr in trials),
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
        for s, ms, n in zip(tr.samples, tr.frame_ms, tr.frame_mbs):
            f.write(f"{s.frame_index},{s.value!r},{ms!r},{n}\n")


def run_experiment(spec: ExperimentSpec, out_dir: str) -> ExperimentReport:
    """Run every (sequence, mode, rate, trial) cell and persist the results.

    Layout: report.csv at the top; per-trial PSNR curves under trials/;
    per-trial concealment audits under audits/; optional PGM stills under
    frames/ for the frame indices listed in dump_frames (trial 0 only).
    """
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
        if dump:
            for t in dump:
                if 0 <= t < len(ctx.originals):
                    write_pgm(ctx.originals[t], os.path.join(out_dir, "frames", f"{seq.name}_f{t:03d}_original.pgm"))
        for mode in spec.modes:
            for rate in spec.rates:
                cell: list[TrialResult] = []
                for k in range(spec.trials):
                    tr = run_trial(
                        ctx, mode, rate, k, spec.seed, spec.measure_timing,
                        keep_frames=dump if k == 0 else (),
                    )
                    tag = _cell_tag(seq.name, mode, rate, k)
                    write_trial_csv(tr, os.path.join(trials_dir, f"{tag}.csv"))
                    with open(os.path.join(audits_dir, f"{tag}.csv"), "w", newline="") as f:
                        f.write(audit_csv_header() + "\n")
                        for line in tr.audit_lines:
                            f.write(line + "\n")
                    if k == 0 and dump:
                        for t, frm in tr.damaged_frames.items():
                            write_pgm(frm, os.path.join(out_dir, "frames", f"{seq.name}_{mode}_r{_rate_tag(rate)}_f{t:03d}_damaged.pgm"))
                        for t, frm in tr.concealed_frames.items():
                            write_pgm(frm, os.path.join(out_dir, "frames", f"{seq.name}_{mode}_r{_rate_tag(rate)}_f{t:03d}_concealed.pgm"))
                    cell.append(tr)
                rows.append(aggregate(cell))

    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as f:
        f.write(_render_report_csv(rows))
    return ExperimentReport(rows)


_TRIAL_FILE = re.compile(r"^(?P<seq>.+)_(?P<mode>tr|avg|median|bma|ebmc)_r(?P<rate>[0-9.eE+-]+)_t(?P<trial>\d+)\.csv$")


def regenerate_report_csv(out_dir: str, spec: ExperimentSpec) -> str:
    """Rebuild the report.csv text purely from the persisted per-trial CSVs;
    byte-identical to the file written by run_experiment."""
    # Keyed by the file-name rate tag: the tag keeps only six significant
    # digits, so the rate parsed back from it need not equal the spec's.
    cells: dict[tuple[str, str, str], list[TrialResult]] = {}
    trials_dir = os.path.join(out_dir, "trials")
    for name in sorted(os.listdir(trials_dir)):
        m = _TRIAL_FILE.match(name)
        if not m:
            continue
        seq, mode, rate = m["seq"], m["mode"], float(m["rate"])
        samples, ms, mbs = [], [], []
        with open(os.path.join(trials_dir, name)) as f:
            f.readline()
            for line in f:
                idx, value, t_ms, n = line.strip().split(",")
                samples.append(PsnrSample(int(idx), float(value)))
                ms.append(float(t_ms))
                mbs.append(int(n))
        cells.setdefault((seq, mode, m["rate"]), []).append(
            TrialResult(seq, mode, rate, int(m["trial"]), samples, ms, mbs, [])
        )
    rows = []
    for seq in spec.sequences:
        for mode in spec.modes:
            for rate in spec.rates:
                cell = sorted(cells[(seq.name, mode, _rate_tag(rate))], key=lambda tr: tr.trial_index)
                rows.append(aggregate(cell))
    return _render_report_csv(rows)
