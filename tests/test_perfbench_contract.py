"""The benchmark's tracer contract, checked on a small run.

perfbench/tracing.py wraps module-level names of vidconceal, and
perfbench/worker.py's layer_metrics divides span times by the calls those
wrappers record. A change that stops calling a wrapped name through its
module, or calls it less often than the traced counts of
perfbench/reference.json pin, fails the benchmark's traced check; this test
catches it in tier-1 without running the benchmark. The inputs that
perfbench/gen.py generates are checked against the digests reference.json
records, so a change to synthesis names the clip that drifted. It edits
nothing under perfbench/.
"""

import hashlib
import json
import math
import os
import sys
import time

import pytest

from vidconceal import cli, engine, experiment
from vidconceal.experiment import ExperimentSpec, SequenceSpec
from vidconceal.synth import make_sequence, write_i420

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
with open(os.path.join(PERFBENCH, "reference.json")) as f:
    REFERENCE = json.load(f)


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracing and worker modules; sys.path, which importing
    worker extends, is restored afterwards."""
    monkeypatch.setattr(sys, "path", [PERFBENCH, *sys.path])
    import tracing
    import worker

    return tracing, worker


def test_layer_metrics_compute_on_an_all_modes_run(perfbench, tmp_path):
    tracing, worker = perfbench
    path = tmp_path / "clip.yuv"
    frames = 4
    write_i420(str(path), make_sequence(64, 64, frames, seed=5))
    spec = ExperimentSpec([SequenceSpec("clip", str(path), 64, 64, frames)], [0.25, 0.5], list(engine.MODES),
                          trials=2, measure_timing=False)
    tracer = tracing.Tracer()
    tracing.install_targets(tracer)
    tracer.install()
    try:
        t0 = time.perf_counter()
        experiment.run_experiment(spec, str(tmp_path / "out"))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    stats, counts, _ = tracer.take()
    # a name called too rarely would divide by zero calls here
    metrics = worker.layer_metrics(stats, counts, 1, wall, 1.0)
    assert all(math.isfinite(value) for value, _ in metrics.values())
    # every mode draws its masks through make_mask, on a 4 x 4 MB grid
    draws = sum(round(rate * 16) for rate in spec.rates) * (frames - 1) * spec.trials
    assert metrics["loss.mbs_lost"][0] == draws * len(spec.modes)
    for mode in engine.MODES:
        assert metrics[f"engine.mbs_concealed.{mode}"][0] == draws
    # the per-call layer metrics divide by these calls: each lost MB goes
    # through engine's module-level names once, in the modes that need them
    calls_by_mode = {
        "engine.neighbor_context": ("avg", "median", "bma", "ebmc"),
        "engine.build_candidates": ("bma", "ebmc"),
        "engine.select_mv": ("bma", "ebmc"),
    }
    for name, modes in calls_by_mode.items():
        calls = {mode: stats.get((name, mode), [0])[0] for mode in engine.MODES}
        assert calls == {mode: draws if mode in modes else 0 for mode in engine.MODES}, name


@pytest.mark.parametrize("workload,seed", [(w, seed) for w in sorted(REFERENCE) for seed in (7, 4099)])
def test_generated_inputs_match_reference_digests(perfbench, tmp_path, workload, seed):
    import gen

    gen.generate(workload, seed, str(tmp_path))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(tmp_path))}
    assert digests == REFERENCE[workload][str(seed)]["inputs"]


@pytest.fixture
def traced(perfbench):
    """A tracer installed on every wrapped name for the test's duration."""
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    tracing.install_targets(tracer)
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_run_experiment_searches_each_inter_frame_once(traced, tmp_path):
    # the fields are computed once per sequence and shared by every mode,
    # rate and trial; the traced motion.mbs and motion.search_points count
    # on it
    sequences = []
    for name, frames in (("a", 3), ("b", 5)):
        path = tmp_path / f"{name}.yuv"
        write_i420(str(path), make_sequence(64, 48, frames, seed=5))
        sequences.append(SequenceSpec(name, str(path), 64, 48, frames))
    spec = ExperimentSpec(sequences, [0.25, 0.5], list(engine.MODES), trials=2, measure_timing=False)
    experiment.run_experiment(spec, str(tmp_path / "out"))
    stats, counts, _ = traced.take()
    assert stats["motion.estimate_field"][0] == (3 - 1) + (5 - 1)
    assert counts["motion.mbs"] == 6 * 4 * 3


def test_cli_commands_search_each_inter_frame_once(traced, tmp_path):
    path = str(tmp_path / "clip.yuv")
    frames = 4
    write_i420(path, make_sequence(64, 64, frames, seed=5))
    geometry = ["--in", path, "--width", "64", "--height", "64"]
    commands = {"estimate": ["estimate", *geometry, "--out", str(tmp_path / "mv.csv")]}
    for mode in engine.MODES:
        commands[f"conceal {mode}"] = [
            "conceal", *geometry, "--rate", "0.25", "--seed", "5", "--mode", mode,
            "--out-yuv", str(tmp_path / "out.yuv"), "--audit", str(tmp_path / "audit.csv"),
        ]
    for label, argv in commands.items():
        assert cli.main(argv) == 0
        stats, _, _ = traced.take()
        assert stats["motion.estimate_field"][0] == frames - 1, label
