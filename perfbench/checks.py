"""Output checks of one benchmark operation.

Each check returns digests of the outputs, exact work counts, the mean PSNR
per mode and a list of errors. Digests are compared with those of the run's
first operation and, for the seeds in ``reference.json``, with the digests
recorded from the code the benchmark was defined on. The structural checks
hold for any seed:

* every inter frame has exactly round(rate * MBs) audit rows;
* the audited MBs of a frame are the seeded loss draw, each once;
* every PSNR is at most 100 dB;
* the report has one row per sequence x mode x rate.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np

MB = 16
PSNR_CAP_DB = 100.0
_U64 = (1 << 64) - 1
AUDIT_HEADER = "frame,mb_col,mb_row,mode,vx,vy,total,bmc_total,sides_absent"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0" + sha256_file(os.path.join(directory, name)).encode())
    return h.hexdigest()


def lost_mbs(seed: int, trial: int, frame: int, cols: int, rows: int, rate: float) -> set:
    """The seeded loss draw, derived here independently of vidconceal.loss:
    round(rate * MBs) distinct MBs from PCG64 keyed on (seed, trial, frame)."""
    total = cols * rows
    count = round(rate * total)
    if frame == 0 or count == 0:
        return set()
    key = np.random.SeedSequence([seed & _U64, trial, frame])
    picks = np.random.Generator(np.random.PCG64(key)).choice(total, size=count, replace=False)
    return {(int(k) % cols, int(k) // cols) for k in picks}


def _read_rows(path: str, header: str, errors: list, label: str) -> list[list[str]]:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != header:
        errors.append(f"{label}: header {lines[:1]!r} != {header!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def check_audit(rows, seed: int, trial: int, frames: int, cols: int, rows_mb: int,
                rate: float, mode: str, errors: list, label: str) -> None:
    by_frame: dict[int, list[tuple[int, int]]] = {}
    for r in rows:
        if len(r) != 9 or r[3] != mode or not 0 <= int(r[8]) <= 4:
            errors.append(f"{label}: malformed row {r}")
            return
        by_frame.setdefault(int(r[0]), []).append((int(r[1]), int(r[2])))
    expected_count = round(rate * cols * rows_mb)
    for t in range(1, frames):
        got = by_frame.pop(t, [])
        if len(got) != expected_count:
            errors.append(f"{label}: frame {t} has {len(got)} audit rows, expected {expected_count}")
        elif len(set(got)) != len(got) or set(got) != lost_mbs(seed, trial, t, cols, rows_mb, rate):
            errors.append(f"{label}: frame {t} audits MBs other than the lost ones, or one twice")
    if by_frame:
        errors.append(f"{label}: audit rows for frames {sorted(by_frame)} outside 1..{frames - 1}")


def _psnr_ok(value: float) -> bool:
    return 0.0 < value <= PSNR_CAP_DB


def check_experiment(out_dir: str, spec: dict) -> tuple[dict, dict, dict, list]:
    """Checks of a `run_experiment` output directory against its JSON spec."""
    errors: list[str] = []
    trials_dir = os.path.join(out_dir, "trials")
    audits_dir = os.path.join(out_dir, "audits")
    digests = {
        "report.csv": sha256_file(os.path.join(out_dir, "report.csv")),
        "trials": tree_digest(trials_dir),
        "audits": tree_digest(audits_dir),
    }
    modes, rates, n_trials = spec["modes"], spec["rates"], spec["trials"]
    counts = {f"engine.mbs_concealed.{m}": 0 for m in modes}
    counts["loss.mbs_lost"] = 0
    expected_files = 0
    for seq in spec["sequences"]:
        cols, rows_mb, frames = seq["width"] // MB, seq["height"] // MB, seq["frames"]
        for mode in modes:
            for rate in rates:
                per_frame = round(rate * cols * rows_mb)
                for k in range(n_trials):
                    expected_files += 1
                    tag = f"{seq['name']}_{mode}_r{rate:g}_t{k:03d}"
                    trial = _read_rows(os.path.join(trials_dir, tag + ".csv"),
                                       "frame_index,psnr_db,conceal_ms,mbs_concealed", errors, tag)
                    if [int(r[0]) for r in trial] != list(range(1, frames)):
                        errors.append(f"{tag}: trial rows cover frames {[r[0] for r in trial]}")
                    for r in trial:
                        if not _psnr_ok(float(r[1])) or int(r[3]) != per_frame:
                            errors.append(f"{tag}: bad trial row {r}")
                    counts[f"engine.mbs_concealed.{mode}"] += sum(int(r[3]) for r in trial)
                    audit = _read_rows(os.path.join(audits_dir, tag + ".csv"), AUDIT_HEADER, errors, tag)
                    check_audit(audit, spec["seed"], k, frames, cols, rows_mb, rate, mode, errors, tag)
                    counts["loss.mbs_lost"] += len(audit)
    for d in (trials_dir, audits_dir):
        if len(os.listdir(d)) != expected_files:
            errors.append(f"{d}: {len(os.listdir(d))} files, expected {expected_files}")

    report = _read_rows(os.path.join(out_dir, "report.csv"),
                        "sequence,mode,rate,trials,mean_psnr_db,mean_time_per_mb_ms", errors, "report.csv")
    cells = [(r[0], r[1], float(r[2])) for r in report]
    wanted = [(s["name"], m, float(f"{r:g}")) for s in spec["sequences"] for m in modes for r in rates]
    if sorted(cells) != sorted(wanted):
        errors.append(f"report.csv cells {cells} != {wanted}")
    psnr: dict[str, list[float]] = {m: [] for m in modes}
    for r in report:
        value = float(r[4])
        if not _psnr_ok(value) or int(r[3]) != n_trials:
            errors.append(f"report.csv: bad row {r}")
        psnr.setdefault(r[1], []).append(value)
    mean_psnr = {m: sum(v) / len(v) for m, v in psnr.items() if v}
    return digests, counts, mean_psnr, errors


_CONCEAL_LINE = re.compile(r"^frame (\d+): (\d+) MBs concealed, psnr ([0-9.]+) dB$")
_CONCEAL_MEAN = re.compile(r"^mean psnr over (\d+) concealed frames: ([0-9.]+) dB$")
_PSNR_LINE = re.compile(r"^frame (\d+): ([0-9.]+) dB$")
_PSNR_MEAN = re.compile(r"^mean: ([0-9.]+) dB$")


def check_cli(out_dir: str, clip_path: str, clip: dict, modes, rate: float, seed: int,
              search_p: int, stdout: dict) -> tuple[dict, dict, dict, list]:
    """Checks of the `estimate`, `conceal` (one per mode) and `psnr` outputs.
    ``stdout`` maps command names to their captured standard output."""
    errors: list[str] = []
    width, height, frames = clip["width"], clip["height"], clip["frames"]
    cols, rows_mb = width // MB, height // MB
    per_frame = round(rate * cols * rows_mb)
    digests = {"mv.csv": sha256_file(os.path.join(out_dir, "mv.csv")),
               "stdout.psnr": hashlib.sha256(stdout["psnr"].encode()).hexdigest()}
    counts = {"loss.mbs_lost": 0}

    mv = _read_rows(os.path.join(out_dir, "mv.csv"), "frame_index,mb_col,mb_row,vx,vy", errors, "mv.csv")
    cells = set()
    for r in mv:
        t, c, rw, vx, vy = (int(v) for v in r)
        cells.add((t, c, rw))
        i, j = MB * c, MB * rw
        if (max(abs(vx), abs(vy)) > search_p or not 0 <= i + vx <= width - MB
                or not 0 <= j + vy <= height - MB):
            errors.append(f"mv.csv: vector out of window or frame in row {r}")
    if len(mv) != (frames - 1) * cols * rows_mb or cells != {
        (t, c, rw) for t in range(1, frames) for c in range(cols) for rw in range(rows_mb)
    }:
        errors.append("mv.csv: rows do not cover every MB of every inter frame exactly once")

    frame_bytes = width * height * 3 // 2
    with open(clip_path, "rb") as f:
        first_frame = f.read(frame_bytes)
    mean_psnr = {}
    for mode in modes:
        yuv = os.path.join(out_dir, f"concealed_{mode}.yuv")
        digests[f"concealed.{mode}.yuv"] = sha256_file(yuv)
        digests[f"audit.{mode}.csv"] = sha256_file(os.path.join(out_dir, f"audit_{mode}.csv"))
        digests[f"stdout.conceal.{mode}"] = hashlib.sha256(stdout["conceal." + mode].encode()).hexdigest()
        with open(yuv, "rb") as f:
            same_first = f.read(frame_bytes) == first_frame
        if os.path.getsize(yuv) != frames * frame_bytes or not same_first:
            errors.append(f"{yuv}: wrong size or frame 0 differs from the input")
        audit = _read_rows(os.path.join(out_dir, f"audit_{mode}.csv"), AUDIT_HEADER, errors, f"audit_{mode}")
        check_audit(audit, seed, 0, frames, cols, rows_mb, rate, mode, errors, f"audit_{mode}")
        counts[f"engine.mbs_concealed.{mode}"] = len(audit)
        counts["loss.mbs_lost"] += len(audit)

        lines = stdout["conceal." + mode].splitlines() or [""]
        matched = [_CONCEAL_LINE.match(line) for line in lines[:-1]]
        mean = _CONCEAL_MEAN.match(lines[-1])
        if (len(matched) != frames - 1 or not all(matched) or mean is None
                or [int(m[1]) for m in matched] != list(range(1, frames))
                or any(int(m[2]) != per_frame or not _psnr_ok(float(m[3])) for m in matched)):
            errors.append(f"conceal {mode}: unexpected standard output")
        else:
            mean_psnr[mode] = float(mean[2])

    lines = stdout["psnr"].splitlines() or [""]
    matched = [_PSNR_LINE.match(line) for line in lines[:-1]]
    if (len(matched) != frames or not all(matched) or not _PSNR_MEAN.match(lines[-1])
            or any(not _psnr_ok(float(m[2])) for m in matched) or float(matched[0][2]) != PSNR_CAP_DB):
        errors.append("psnr: unexpected standard output")
    return digests, counts, mean_psnr, errors
