"""The measured process of one benchmark run.

It imports vidconceal from the checkout's ``src/``, runs the workload's
operation in a closed loop (each operation starts when the previous one has
returned and its outputs have been checked) until the time budget is spent,
and writes its metrics, counts, digests and errors as JSON.

With ``--trace 0`` the loop is untraced: one timer per ``run_trial`` call
(or per CLI command) gives the per-mode conceal cost, and every time is
scaled to the reference speed of calibrate.py. With ``--trace 1`` the
operations alternate between untraced and traced, which gives both the
per-layer metrics and the tracing overhead.

    PYTHONPATH=src python3 perfbench/worker.py --workload sparse --seed 7 \\
        --seconds 10 --trace 0 --inputs DIR --work DIR --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import CLI_STREAM, MODES, SCORED_MODES  # noqa: E402

MIN_OPS = 3


class ExperimentWork:
    """`sparse` and `burst`: one `run_experiment` call per operation."""

    def __init__(self, workload: str, seed: int, inputs: str):
        from vidconceal import experiment

        self.experiment = experiment
        spec_path = os.path.join(inputs, "spec.json")
        with open(spec_path) as f:
            self.spec_dict = json.load(f)
        self.spec = experiment.load_spec_file(spec_path)
        self.spec.sequences = [dataclasses.replace(s, path=os.path.join(inputs, s.path))
                               for s in self.spec.sequences]
        self.units = len(self.spec.sequences) * len(self.spec.modes) * len(self.spec.rates) * self.spec.trials
        self.mode_s = dict.fromkeys(MODES, 0.0)
        self._run_trial = experiment.run_trial

    def _timed_run_trial(self, ctx, mode, rate, *args, **kwargs):
        t0 = time.perf_counter()
        result = self._run_trial(ctx, mode, rate, *args, **kwargs)
        self.mode_s[mode] += time.perf_counter() - t0
        return result

    @contextlib.contextmanager
    def trial_timer(self):
        self.experiment.run_trial = self._timed_run_trial
        try:
            yield
        finally:
            self.experiment.run_trial = self._run_trial

    def run(self, out_dir: str) -> tuple[float, dict[str, float]]:
        """Wall time of one operation, and its `run_trial` time per mode
        (measured only under ``trial_timer``)."""
        self.mode_s = dict.fromkeys(MODES, 0.0)
        t0 = time.perf_counter()
        self.experiment.run_experiment(self.spec, out_dir)
        return time.perf_counter() - t0, self.mode_s

    def check(self, out_dir: str):
        return checks.check_experiment(out_dir, self.spec_dict)


class CliWork:
    """`cli-stream`: `estimate`, one `conceal` per mode, then `psnr` of the
    `ebmc` output, each through `vidconceal.cli.main` in this process."""

    def __init__(self, seed: int, inputs: str):
        from vidconceal import cli

        self.cli = cli
        self.seed = seed
        self.clip = workloads.clips(CLI_STREAM, seed)[0]
        self.path = os.path.join(inputs, self.clip["name"] + ".yuv")
        self.units = 2 + len(MODES)
        self.stdout: dict[str, str] = {}

    @contextlib.contextmanager
    def trial_timer(self):
        yield

    def commands(self, out_dir: str) -> list[tuple[str, list[str]]]:
        geometry = ["--width", str(self.clip["width"]), "--height", str(self.clip["height"])]
        cmds = [("estimate", ["estimate", "--in", self.path, *geometry,
                              "--out", os.path.join(out_dir, "mv.csv"), "--p", str(workloads.SEARCH_P)])]
        for mode in MODES:
            cmds.append((f"conceal.{mode}", [
                "conceal", "--in", self.path, *geometry, "--rate", str(workloads.CLI_RATE),
                "--seed", str(self.seed), "--mode", mode,
                "--out-yuv", os.path.join(out_dir, f"concealed_{mode}.yuv"),
                "--audit", os.path.join(out_dir, f"audit_{mode}.csv"), "--p", str(workloads.SEARCH_P),
            ]))
        cmds.append(("psnr", ["psnr", "--a", self.path, "--b", os.path.join(out_dir, "concealed_ebmc.yuv"),
                              *geometry]))
        return cmds

    def run(self, out_dir: str) -> tuple[float, dict[str, float]]:
        """Wall time of the seven commands, and the `conceal` command time
        per mode."""
        os.makedirs(out_dir, exist_ok=True)
        total = 0.0
        mode_s = {}
        for name, argv in self.commands(out_dir):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"vidconceal {name} exited with {code}")
            total += elapsed
            if name.startswith("conceal."):
                mode_s[name.split(".", 1)[1]] = elapsed
            self.stdout[name] = buf.getvalue()
        return total, mode_s

    def check(self, out_dir: str):
        return checks.check_cli(out_dir, self.path, self.clip, MODES, workloads.CLI_RATE, self.seed,
                                workloads.SEARCH_P, self.stdout)


def layer_metrics(stats: dict, counts: dict, n: int, traced_wall_s: float, overhead: float) -> dict:
    """Per-layer metrics of one traced operation: span statistics summed
    over the ``n`` traced operations, divided by ``n``; ``counts`` are one
    operation's (every traced operation must have the same). Span times are
    raw, not speed-normalised."""

    def calls(name, mode=None):
        return stats.get((name, mode) if mode else name, [0, 0.0, 0.0])[0] / n

    def total(name, mode=None):
        return stats.get((name, mode) if mode else name, [0, 0.0, 0.0])[1] / n

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2] / n

    def per_call_us(name, mode=None):
        return 1e6 * total(name, mode) / calls(name, mode)

    harness = ("experiment.run_experiment", "experiment.build_context", "experiment.run_trial",
               "cli.cmd_estimate", "cli.cmd_conceal", "cli.cmd_psnr")
    mbs = sum(counts[f"engine.mbs_concealed.{m}"] for m in MODES)
    candidates = sum(counts[f"engine.candidates.{m}"] for m in SCORED_MODES)
    m = {
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.unattributed_ms": (1e3 * self_s("op"), "ms"),
        "harness.self_ms": (1e3 * sum(self_s(h) for h in harness), "ms"),
        "harness.decode_loop.self_ms": (1e3 * (self_s("experiment.run_trial") + self_s("cli.cmd_conceal")), "ms"),
        "harness.output.ms": (1e3 * (total("experiment.write_trial_csv") + total("cli.save_mv_fields")
                                     + total("yuv_io.write_yuv_frame")), "ms"),
        "motion.estimate_field.calls": (calls("motion.estimate_field"), "count"),
        "motion.estimate_field.ms_per_mb": (1e3 * total("motion.estimate_field") / counts["motion.mbs"], "ms"),
        "motion.share": (total("motion.estimate_field") * n / traced_wall_s, "ratio"),
        "motion.search_points": (counts["motion.search_points"], "count"),
        "yuv_io.read_frame.calls": (calls("yuv_io.read_frame"), "count"),
        "yuv_io.read_frame.ms": (1e3 * total("yuv_io.read_frame"), "ms"),
        "yuv_io.bytes_read": (counts["yuv_io.bytes_read"], "count"),
        "loss.make_mask.ms": (1e3 * total("loss.make_mask"), "ms"),
        "loss.apply_mask.ms": (1e3 * total("loss.apply_mask"), "ms"),
        "experiment.blank_damaged.ms": (1e3 * total("experiment.blank_damaged"), "ms"),
        "loss.mbs_lost": (counts["loss.mbs_lost"], "count"),
        "metrics.psnr.us_per_call": (per_call_us("metrics.psnr"), "us"),
    }
    for mode in SCORED_MODES:
        m[f"engine.select_mv.us_per_call.{mode}"] = (per_call_us("engine.select_mv", mode), "us")
        m[f"engine.select_mv.us_per_candidate.{mode}"] = (
            1e6 * total("engine.select_mv", mode) / counts[f"engine.candidates.{mode}"], "us")
    m["engine.select_mv.ebmc_over_bma"] = (
        m["engine.select_mv.us_per_call.ebmc"][0] / m["engine.select_mv.us_per_call.bma"][0], "ratio")
    m.update({
        "engine.schedule.init.ms": (1e3 * total("engine.schedule.init"), "ms"),
        "engine.schedule.extract.calls": (calls("engine.schedule.extract"), "count"),
        "engine.schedule.extract.us_per_call": (per_call_us("engine.schedule.extract"), "us"),
        "engine.schedule.on_concealed.us_per_call": (per_call_us("engine.schedule.on_concealed"), "us"),
        "engine.neighbor_context.us_per_call": (per_call_us("engine.neighbor_context"), "us"),
        "engine.build_candidates.us_per_call": (per_call_us("engine.build_candidates"), "us"),
        "engine.conceal_frame.self_us_per_mb": (1e6 * self_s("engine.conceal_frame") / mbs, "us"),
        "engine.audit_csv_line.us_per_call": (per_call_us("engine.audit_csv_line"), "us"),
        "engine.candidates_per_mb": (
            candidates / sum(calls("engine.select_mv", mode) for mode in SCORED_MODES), "ratio"),
        "engine.candidates_in_frame_ratio": (counts["engine.candidates_in_frame"] / candidates, "ratio"),
    })
    for name in ("engine.side_wins.additional", "engine.side_wins.classic", "engine.collocated_fallbacks",
                 "engine.unscored_mbs", "engine.sides_absent"):
        m[name] = (counts.get(name, 0), "count")
    for mode in MODES:
        m[f"engine.mbs_concealed.{mode}"] = (counts[f"engine.mbs_concealed.{mode}"], "count")
    return m


def make_work(workload: str, seed: int, inputs: str):
    return CliWork(seed, inputs) if workload == CLI_STREAM else ExperimentWork(workload, seed, inputs)


def run_op(work, out_dir: str, tracer=None):
    """One operation into a fresh ``out_dir``, then its checks. Returns
    ``work.run``'s (wall time, conceal time per mode), the check's (digests,
    counts, psnr, errors) and, when traced, what the tracer took: (stats,
    counts, spans)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    taken = None
    if tracer is None:
        with work.trial_timer():
            timed = work.run(out_dir)
    else:
        tracer.install()
        root = tracer.begin(tracer.name_id("op"))
        try:
            timed = work.run(out_dir)
        finally:
            tracer.finish(root)
            tracer.uninstall()
            taken = tracer.take()
    return timed, work.check(out_dir), taken


def reference_errors(digests: dict, ref: dict | None) -> list[str]:
    if ref is None or digests == ref["outputs"]:
        return []
    bad = sorted(k for k in set(digests) | set(ref["outputs"]) if digests.get(k) != ref["outputs"].get(k))
    return [f"outputs differ from reference.json: {bad}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--ref-inputs", required=True, help="inputs of the default seed, for the warm-up")
    ap.add_argument("--work", required=True, help="scratch directory for the program's outputs")
    ap.add_argument("--src", required=True, help="directory vidconceal must be imported from")
    ap.add_argument("--out", required=True, help="result JSON")
    args = ap.parse_args(argv)

    import numpy
    import vidconceal

    src = os.path.abspath(args.src) + os.sep
    if not os.path.abspath(vidconceal.__file__).startswith(src):
        raise SystemExit(f"vidconceal imported from {vidconceal.__file__}, not from {src}")
    with open(os.path.join(HERE, "reference.json")) as f:
        references = json.load(f).get(args.workload, {})
    reference = references.get(str(args.seed))
    out_dir = os.path.join(args.work, "out")
    attempted = failed = 0
    errors: list[str] = []

    # Warm-up: one untimed operation at the default seed, checked against
    # reference.json, so that a run checks the recorded outputs whatever its
    # own seed.
    warm = make_work(args.workload, workloads.DEFAULT_SEED, args.ref_inputs)
    attempted += warm.units
    try:
        _, (digests, _, _, op_errors), _ = run_op(warm, out_dir)
        op_errors += reference_errors(digests, references.get(str(workloads.DEFAULT_SEED)))
    except Exception:
        op_errors = [traceback.format_exc(limit=8)]
    if op_errors:
        failed += warm.units
        errors += [f"warm-up at seed {workloads.DEFAULT_SEED}: {e}" for e in op_errors]

    work = make_work(args.workload, args.seed, args.inputs)
    tracer = None
    stats: dict = {}
    if args.trace:
        from tracing import Tracer, add_stats, install_targets

        tracer = Tracer()
        install_targets(tracer)

    # One entry per successful operation: raw wall time, speed factor
    # (calibrate.REFERENCE_S over the mean kernel time before and after
    # it), whether it was traced, and its conceal time per mode.
    ops: list[tuple[float, float, bool, dict]] = []
    kernel_s = [calibrate.measure()]
    first_digests = first_counts = first_trace_counts = psnr = spans = None
    min_ops = 2 * MIN_OPS - 2 if args.trace else MIN_OPS
    t_begin = time.perf_counter()
    while True:
        if len(ops) >= min_ops and (
            time.perf_counter() - t_begin + statistics.median(op[0] for op in ops) > args.seconds
        ):
            break
        if attempted - warm.units >= min_ops * work.units and not ops:
            break  # every operation so far failed
        traced = bool(args.trace) and len(ops) % 2 == 1
        attempted += work.units
        try:
            (wall, mode_s), (digests, counts, op_psnr, op_errors), taken = run_op(
                work, out_dir, tracer if traced else None)
        except Exception:
            op_errors, taken = [traceback.format_exc(limit=8)], None
        else:
            if first_digests is None:
                first_digests, first_counts, psnr = digests, counts, op_psnr
            elif (digests, counts) != (first_digests, first_counts):
                op_errors.append("outputs or work counts differ from the run's first operation")
            op_errors += reference_errors(digests, reference)
        if taken is not None:
            op_stats, trace_counts, spans = taken
            if first_trace_counts is None:
                first_trace_counts = dict(trace_counts)
            elif dict(trace_counts) != first_trace_counts:
                op_errors.append("traced work counts differ between operations")
        kernel_s.append(calibrate.measure())
        if op_errors:
            failed += work.units
            errors += op_errors
            continue
        if taken is not None:
            add_stats(stats, op_stats)
        factor = calibrate.REFERENCE_S / statistics.mean(kernel_s[-2:])
        ops.append((wall, factor, traced, mode_s))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "attempted": attempted, "failed": failed, "errors": errors, "ops": len(ops),
        "raw_walls_s": [op[0] for op in ops], "speed_factors": [op[1] for op in ops], "kernel_s": kernel_s,
        "digests": first_digests, "counts": first_counts,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
        "metrics": {},
    }
    if ops and not args.trace:
        metrics = result["metrics"]
        metrics["wall_s"] = {"value": statistics.median(w * f for w, f, _, _ in ops), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        for mode in MODES:
            seconds = sum(f * m[mode] for _, f, _, m in ops)
            mbs = len(ops) * first_counts[f"engine.mbs_concealed.{mode}"]
            metrics[f"conceal_ms_per_mb.{mode}"] = {"value": 1000.0 * seconds / mbs, "unit": "ms"}
        for mode in SCORED_MODES:
            metrics[f"psnr_db.{mode}"] = {"value": psnr[mode], "unit": "dB"}
    traced_ops = [op for op in ops if op[2]]
    if args.trace and traced_ops and len(traced_ops) < len(ops):
        if reference is not None:
            bad = sorted(k for k, v in reference["trace_counts"].items() if first_trace_counts.get(k, 0) != v)
            if bad:
                errors.append(f"traced work counts differ from reference.json: {bad}")
                result["failed"] = attempted
        result["trace_counts"] = first_trace_counts
        overhead = (statistics.median(w * f for w, f, traced, _ in ops if traced)
                    / statistics.median(w * f for w, f, traced, _ in ops if not traced))
        metrics = layer_metrics(stats, first_trace_counts, len(traced_ops),
                                sum(op[0] for op in traced_ops), overhead)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["spans"] = {"/".join(k) if isinstance(k, tuple) else k: v for k, v in sorted(stats.items(), key=str)}
        numpy.savez(os.path.join(args.work, "spans_last_op.npz"), **spans)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
