"""Workload definitions shared by the orchestrator, the input generator and
the measured worker. Standard library only: the orchestrator must not load
NumPy or vidconceal.

A workload seed fixes every input. The default seed reproduces the clips of
the acceptance suite (CIF 352x288 from synth seed 7, QCIF 176x144 from synth
seed 11, loss seed 20260810); any other seed shifts all of them together.
"""

from __future__ import annotations

SPARSE = "sparse"
BURST = "burst"
CLI_STREAM = "cli-stream"
WORKLOADS = (SPARSE, BURST, CLI_STREAM)

MODES = ("tr", "avg", "median", "bma", "ebmc")
SCORED_MODES = ("bma", "ebmc")

DEFAULT_SEED = 7
HELD_OUT_SEED = 4099
ACCEPTANCE_LOSS_SEED = 20260810

SEARCH_P = 7
# Trials per (sequence, mode, rate) cell in one experiment operation.
TRIALS = {SPARSE: 2, BURST: 1}
# Frame budget of the CIF clip in `burst`: rate 1.0 already conceals every
# MB of every inter frame, so a shorter run keeps the regime and leaves room
# for repeats within one run.
BURST_FRAMES = 10
# Length of the `cli-stream` clip. Each of its seven commands reads the whole
# clip, and `estimate` plus every `conceal` runs motion estimation on it.
CLI_FRAMES = 9
CLI_RATE = 0.1


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")


def clips(workload: str, seed: int) -> list[dict]:
    """The synthetic clips a workload reads: name, geometry, frame count and
    synth seed of each."""
    check_seed(seed)
    cif = {"name": "cif", "width": 352, "height": 288, "frames": 30, "synth_seed": seed}
    if workload == SPARSE:
        qcif = {"name": "qcif", "width": 176, "height": 144, "frames": 60, "synth_seed": seed + 4}
        return [cif, qcif]
    if workload == BURST:
        return [cif]
    if workload == CLI_STREAM:
        return [{"name": "stream", "width": 352, "height": 288, "frames": CLI_FRAMES,
                 "synth_seed": seed + 100}]
    raise ValueError(f"unknown workload {workload!r}")


def loss_seed(seed: int) -> int:
    return ACCEPTANCE_LOSS_SEED + seed - DEFAULT_SEED


def experiment_spec(workload: str, seed: int) -> dict:
    """JSON experiment spec of `sparse` and `burst`; clip paths are relative
    to the inputs directory."""
    if workload == SPARSE:
        sequences = [
            {"name": c["name"], "path": c["name"] + ".yuv", "width": c["width"],
             "height": c["height"], "frames": c["frames"]}
            for c in clips(workload, seed)
        ]
        rates = [0.1]
    elif workload == BURST:
        c = clips(workload, seed)[0]
        sequences = [{"name": c["name"], "path": c["name"] + ".yuv", "width": c["width"],
                      "height": c["height"], "frames": BURST_FRAMES}]
        rates = [0.5, 1.0]
    else:
        raise ValueError(f"{workload!r} has no experiment spec")
    return {
        "sequences": sequences,
        "rates": rates,
        "modes": list(MODES),
        "trials": TRIALS[workload],
        "seed": loss_seed(seed),
        "search_p": SEARCH_P,
        "measure_timing": False,
    }
