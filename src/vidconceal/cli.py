"""Command-line interface.

Subcommands:
  estimate    full-search MV fields of a raw YUV sequence -> CSV
  conceal     inject seeded MB losses and conceal the whole sequence
  experiment  run a multi-trial evaluation from a JSON/TOML spec
  psnr        per-frame and mean luma PSNR between two raw YUV files

``estimate`` and ``conceal`` run the frame loops of the experiment runner,
``experiment.encode_frames`` and ``experiment.decode_frames``, so a CLI run
and a trial with the same arguments produce the same output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .engine import MODES, audit_csv_header
from .experiment import decode_frames, encode_frames, load_spec_file, run_experiment
from .loss import TrialConfig
from .metrics import psnr
from .motion import SearchParams, save_mv_fields
from .yuv_io import YuvFrameRecord, open_sequence, read_frame, write_yuv_frame

# The benchmark tracer wraps these names on this module as well as on experiment.
from .engine import audit_csv_line, conceal_frame  # noqa: F401
from .experiment import blank_damaged  # noqa: F401
from .loss import apply_mask, make_mask  # noqa: F401
from .motion import estimate_field  # noqa: F401


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)


def cmd_estimate(args) -> int:
    header = open_sequence(args.infile, args.width, args.height)
    fields = [mv_field for _, mv_field in encode_frames(header, SearchParams(p=args.p))][1:]
    save_mv_fields(fields, args.out)
    print(f"estimated {len(fields)} MV fields ({header.frame_count} frames) -> {args.out}")
    return 0


def cmd_conceal(args) -> int:
    """Stream the sequence: frame t is read once, gets its MV field against
    original t-1, and is concealed against reconstructed t-1; only frames
    t-1 and t are held. The chroma planes pass through unchanged."""
    header = open_sequence(args.infile, args.width, args.height)
    cfg = TrialConfig(args.rate, args.seed, args.trial)
    stream = encode_frames(header, SearchParams(p=args.p))
    first, _ = next(stream)
    # decode_frames pulls frame t through inter(), which leaves its record
    # here for the chroma; an itertools.tee would buffer up to 57 frames.
    record = first

    def inter():
        nonlocal record
        for record, mv_field in stream:
            yield record.luma, mv_field

    psnrs = []
    with open(args.out_yuv, "wb") as sink, open(args.audit, "w", newline="") as audit:
        audit.write(audit_csv_header() + "\n")
        write_yuv_frame(first, sink)
        for d in decode_frames(first.luma, inter(), cfg, args.mode):
            audit.writelines(line + "\n" for line in d.audit_lines)
            write_yuv_frame(YuvFrameRecord(d.concealed, record.chroma_u, record.chroma_v), sink)
            psnrs.append(d.psnr_db)
            print(f"frame {d.index}: {len(d.audit_lines)} MBs concealed, psnr {d.psnr_db:.4f} dB")
    if psnrs:
        print(f"mean psnr over {len(psnrs)} concealed frames: {float(np.mean(psnrs)):.4f} dB")
    return 0


def cmd_experiment(args) -> int:
    spec = load_spec_file(args.spec)
    for row in run_experiment(spec, args.out_dir):
        print(
            f"{row.sequence} {row.mode} rate={row.rate:g}: "
            f"{row.mean_psnr_db:.4f} dB, {row.mean_time_per_mb_ms:.4f} ms/MB "
            f"({row.trials} trials)"
        )
    print(f"report written to {args.out_dir}/report.csv")
    return 0


def cmd_psnr(args) -> int:
    ha = open_sequence(args.a, args.width, args.height)
    hb = open_sequence(args.b, args.width, args.height)
    if ha.frame_count != hb.frame_count:
        print(f"frame count mismatch: {ha.frame_count} vs {hb.frame_count}", file=sys.stderr)
        return 1
    values = []
    for t in range(ha.frame_count):
        v = psnr(read_frame(ha, t).luma, read_frame(hb, t).luma)
        values.append(v)
        print(f"frame {t}: {v:.4f} dB")
    print(f"mean: {float(np.mean(values)):.4f} dB")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vidconceal",
        description="temporal error concealment toolkit for raw I420 video",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="write full-search MV fields as CSV")
    p.add_argument("--in", dest="infile", required=True, help="raw I420 input")
    _add_geometry(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--p", type=int, default=SearchParams.p, help="search radius (default %(default)s)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("conceal", help="inject losses and conceal a sequence")
    p.add_argument("--in", dest="infile", required=True, help="raw I420 input")
    _add_geometry(p)
    p.add_argument("--rate", type=float, required=True, help="MB loss rate in [0,1]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--out-yuv", required=True, help="concealed I420 output")
    p.add_argument("--audit", required=True, help="audit CSV output")
    p.add_argument("--trial", type=int, default=0, help="trial index for the loss PRNG")
    p.add_argument("--p", type=int, default=SearchParams.p, help="search radius (default %(default)s)")
    p.set_defaults(func=cmd_conceal)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--spec", required=True, help="JSON (or TOML on 3.11+) config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("psnr", help="luma PSNR between two raw I420 files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_geometry(p)
    p.set_defaults(func=cmd_psnr)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
