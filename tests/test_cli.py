import json
import os
import tracemalloc

import numpy as np
import pytest

from instances import read_mv_csv
from vidconceal import experiment
from vidconceal.cli import main
from vidconceal.engine import MODES
from vidconceal.loss import TrialConfig
from vidconceal.metrics import psnr
from vidconceal.motion import SearchParams
from vidconceal.synth import make_sequence, write_i420
from vidconceal.yuv_io import open_sequence, read_frame

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def seq64(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "seq.yuv"
    write_i420(str(path), make_sequence(64, 64, 4, seed=21))
    return str(path)


def test_estimate_writes_fields(seq64, tmp_path, capsys):
    out = tmp_path / "mv.csv"
    rc = main(["estimate", "--in", seq64, "--width", "64", "--height", "64", "--out", str(out)])
    assert rc == 0
    fields = read_mv_csv(str(out))
    assert sorted(fields) == [1, 2, 3]
    assert fields[1].vx.shape == (4, 4)
    assert "3 MV fields" in capsys.readouterr().out


def test_estimate_equals_build_context_fields(seq64, tmp_path):
    out = tmp_path / "mv.csv"
    main(["estimate", "--in", seq64, "--width", "64", "--height", "64", "--out", str(out), "--p", "3"])
    ctx = experiment.build_context(experiment.SequenceSpec("s", seq64, 64, 64, 4), search_p=3)
    fields = read_mv_csv(str(out))
    assert ctx.fields[0] is None and sorted(fields) == [1, 2, 3]
    for t in fields:
        assert np.array_equal(fields[t].vx, ctx.fields[t].vx) and np.array_equal(fields[t].vy, ctx.fields[t].vy)


@pytest.mark.parametrize("command", ["estimate", "conceal"])
def test_search_radius_default_is_the_search_params_one(command, capsys, monkeypatch):
    # the CLI and ExperimentSpec take the default radius from SearchParams;
    # the parser is built per call, so it reads the patched value
    monkeypatch.setattr(SearchParams, "p", 5)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "search radius (default 5)" in capsys.readouterr().out
    monkeypatch.undo()
    assert experiment.ExperimentSpec.search_p == SearchParams.p == 7


def test_conceal_writes_yuv_and_audit(seq64, tmp_path, capsys):
    out_yuv = tmp_path / "concealed.yuv"
    audit = tmp_path / "audit.csv"
    rc = main(
        [
            "conceal", "--in", seq64, "--width", "64", "--height", "64",
            "--rate", "0.25", "--seed", "5", "--mode", "ebmc",
            "--out-yuv", str(out_yuv), "--audit", str(audit),
        ]
    )
    assert rc == 0
    hdr = open_sequence(str(out_yuv), 64, 64)
    assert hdr.frame_count == 4
    lines = audit.read_text().splitlines()
    assert lines[0] == "frame,mb_col,mb_row,mode,vx,vy,total,bmc_total,sides_absent"
    assert len(lines) == 1 + 3 * 4  # 4 lost MBs per frame, frames 1..3
    assert "mean psnr" in capsys.readouterr().out


def test_conceal_holds_a_fixed_number_of_frames(tmp_path, capsys):
    def conceal(frames):
        path = tmp_path / f"{frames}.yuv"
        write_i420(str(path), make_sequence(64, 64, frames, seed=2))
        tracemalloc.start()
        main(["conceal", "--in", str(path), "--width", "64", "--height", "64", "--rate", "0.25", "--seed", "5",
              "--mode", "ebmc", "--out-yuv", str(tmp_path / "c.yuv"), "--audit", str(tmp_path / "a.csv")])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    conceal(4)  # warms up the caches the first run fills
    short, long = conceal(4), conceal(40)
    # holding every frame would add at least one I420 frame per extra frame
    assert long - short < (40 - 4) * (64 * 64 * 3 // 2) // 4


def test_conceal_rate_zero_round_trips_input(seq64, tmp_path):
    out_yuv = tmp_path / "copy.yuv"
    main(
        [
            "conceal", "--in", seq64, "--width", "64", "--height", "64",
            "--rate", "0", "--seed", "5", "--mode", "tr",
            "--out-yuv", str(out_yuv), "--audit", str(tmp_path / "a.csv"),
        ]
    )
    assert out_yuv.read_bytes() == open(seq64, "rb").read()


def test_psnr_identical_files(seq64, capsys):
    rc = main(["psnr", "--a", seq64, "--b", seq64, "--width", "64", "--height", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean: 100.0000 dB" in out


def test_psnr_frame_count_mismatch(seq64, tmp_path, capsys):
    short = tmp_path / "short.yuv"
    short.write_bytes(open(seq64, "rb").read()[: 64 * 64 * 3 // 2])
    rc = main(["psnr", "--a", seq64, "--b", str(short), "--width", "64", "--height", "64"])
    assert rc == 1


def test_experiment_from_spec_file(seq64, tmp_path, capsys):
    spec = {
        "sequences": [{"name": "s", "path": seq64, "width": 64, "height": 64, "frames": 4}],
        "rates": [0.25],
        "modes": ["tr", "ebmc"],
        "trials": 2,
        "seed": 77,
        "measure_timing": False,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "results"
    rc = main(["experiment", "--spec", str(spec_path), "--out-dir", str(out_dir)])
    assert rc == 0
    report = (out_dir / "report.csv").read_text().splitlines()
    assert len(report) == 3
    assert report[1].startswith("s,tr,0.25,2,")
    assert report[2].startswith("s,ebmc,0.25,2,")


def test_unknown_mode_rejected(seq64, tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "conceal", "--in", seq64, "--width", "64", "--height", "64",
                "--rate", "0.1", "--seed", "1", "--mode", "dtbma",
                "--out-yuv", str(tmp_path / "x.yuv"), "--audit", str(tmp_path / "x.csv"),
            ]
        )


def _conceal(seq, tmp_path, mode, trial):
    out_yuv, audit = tmp_path / f"{mode}.yuv", tmp_path / f"{mode}.csv"
    rc = main([
        "conceal", "--in", seq, "--width", "64", "--height", "64", "--rate", "0.25", "--seed", "5",
        "--trial", str(trial), "--mode", mode, "--p", "3", "--out-yuv", str(out_yuv), "--audit", str(audit),
    ])
    assert rc == 0
    return open_sequence(str(out_yuv), 64, 64), audit.read_text().splitlines()


@pytest.mark.parametrize("mode", MODES)
def test_conceal_equals_run_trial(seq64, tmp_path, mode):
    ctx = experiment.build_context(experiment.SequenceSpec("s", seq64, 64, 64, 4), search_p=3)
    tr = experiment.run_trial(ctx, mode, TrialConfig(0.25, 5, 2), measure_timing=False, keep_frames=(1, 2, 3))
    out, audit = _conceal(seq64, tmp_path, mode, trial=2)
    assert audit[1:] == tr.audit_lines
    for t, db in enumerate(tr.psnr_db, start=1):
        concealed = read_frame(out, t).luma
        assert np.array_equal(concealed.luma, tr.concealed_frames[t].luma)
        assert psnr(concealed, ctx.originals[t]) == db


def test_traced_names_reach_the_decode_loop(seq64, tmp_path, monkeypatch):
    """The benchmark's tracer wraps names on vidconceal.experiment and
    vidconceal.cli; each must exist and the shared loops must call them."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    tracing.install_targets(tracer)
    tracer.install()
    try:
        ctx = experiment.build_context(experiment.SequenceSpec("s", seq64, 64, 64, 4), search_p=3)
        audited = len(experiment.run_trial(ctx, "ebmc", TrialConfig(0.25, 5, 0), measure_timing=False).audit_lines)
        trial_stats, trial_counts, _ = tracer.take()
        _, audit = _conceal(seq64, tmp_path, "ebmc", trial=0)
        cli_stats, cli_counts, _ = tracer.take()
    finally:
        tracer.uninstall()
    assert audited == len(audit) - 1 == 12
    for stats, counts in ((trial_stats, trial_counts), (cli_stats, cli_counts)):
        assert counts["loss.mbs_lost"] == counts["engine.mbs_concealed.ebmc"] == audited
        assert stats["yuv_io.read_frame"][0] == 4
        assert stats["engine.conceal_frame"][0] == stats["motion.estimate_field"][0] == 3
