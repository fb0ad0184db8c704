import json
import os
import sys

import numpy as np
import pytest

from vidconceal import engine, experiment
from vidconceal.engine import audit_csv_header
from vidconceal.experiment import (
    ExperimentSpec,
    SequenceSpec,
    TrialResult,
    _cell_tag,
    _rate_tag,
    _render_report_csv,
    aggregate,
    build_context,
    load_spec_file,
    run_experiment,
    run_trial,
    write_trial_csv,
)
from vidconceal.loss import TrialConfig
from vidconceal.metrics import PSNR_CAP_DB
from vidconceal.motion import SearchParams
from vidconceal.synth import make_sequence, write_i420


def regenerate_report_csv(out_dir, spec: ExperimentSpec) -> str:
    """Rebuild the report.csv text from the persisted per-trial CSVs alone.
    Cells are keyed by the file-name rate tag, which keeps only six
    significant digits of the rate."""
    rows = []
    for seq in spec.sequences:
        for mode in spec.modes:
            for rate in spec.rates:
                cell = []
                for k in range(spec.trials):
                    path = os.path.join(out_dir, "trials", f"{seq.name}_{mode}_r{_rate_tag(rate)}_t{k:03d}.csv")
                    with open(path) as f:
                        values = [line.split(",") for line in f.read().splitlines()[1:]]
                    assert [int(t) for t, _, _, _ in values] == list(range(1, len(values) + 1))
                    cell.append(TrialResult(seq.name, mode, rate, [float(v) for _, v, _, _ in values],
                                            [float(ms) for _, _, ms, _ in values],
                                            [int(n) for _, _, _, n in values], []))
                rows.append(aggregate(cell))
    return _render_report_csv(rows)


@pytest.fixture(scope="module")
def small_seq(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "small.yuv"
    write_i420(str(path), make_sequence(64, 64, 5, seed=3))
    return SequenceSpec("small", str(path), 64, 64, 5)


@pytest.fixture(scope="module")
def small_ctx(small_seq):
    return build_context(small_seq, SearchParams.p)


@pytest.fixture(scope="module")
def static_ctx(tmp_path_factory, ):
    rng = np.random.Generator(np.random.PCG64(8))
    frame = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
    path = tmp_path_factory.mktemp("seq") / "static.yuv"
    write_i420(str(path), [frame.copy() for _ in range(5)])
    return build_context(SequenceSpec("static", str(path), 64, 64, 5), SearchParams.p)


class TestRunTrial:
    def test_rate_zero_all_capped(self, small_ctx):
        tr = run_trial(small_ctx, "ebmc", TrialConfig(0.0, 1, 0), measure_timing=False)
        assert tr.psnr_db == [PSNR_CAP_DB] * 4

    @pytest.mark.parametrize("mode", ["tr", "bma", "ebmc"])
    def test_static_sequence_all_capped(self, static_ctx, mode):
        tr = run_trial(static_ctx, mode, TrialConfig(0.25, 5, 0), measure_timing=False)
        assert tr.psnr_db == [PSNR_CAP_DB] * 4

    def test_repeat_identical(self, small_ctx):
        a = run_trial(small_ctx, "ebmc", TrialConfig(0.2, 9, 1), measure_timing=False)
        b = run_trial(small_ctx, "ebmc", TrialConfig(0.2, 9, 1), measure_timing=False)
        assert a.psnr_db == b.psnr_db
        assert a.audit_lines == b.audit_lines

    @pytest.mark.parametrize("mode", ["tr", "avg", "median", "bma", "ebmc"])
    def test_trials_leave_the_shared_fields_unchanged(self, small_seq, mode):
        # every trial of a sequence conceals against the same encoder-side
        # fields, so a concealed vector written into them would leak into
        # the trials after it
        ctx = build_context(small_seq, SearchParams.p)
        before = [(f.vx.copy(), f.vy.copy()) for f in ctx.fields[1:]]
        a = run_trial(ctx, mode, TrialConfig(0.5, 4, 0), measure_timing=False)
        b = run_trial(ctx, mode, TrialConfig(0.5, 4, 0), measure_timing=False)
        assert a.audit_lines == b.audit_lines
        for f, (vx, vy) in zip(ctx.fields[1:], before):
            assert np.array_equal(f.vx, vx) and np.array_equal(f.vy, vy)

    def test_distinct_trials_differ(self, small_ctx):
        a = run_trial(small_ctx, "ebmc", TrialConfig(0.2, 9, 0), measure_timing=False)
        b = run_trial(small_ctx, "ebmc", TrialConfig(0.2, 9, 1), measure_timing=False)
        assert a.audit_lines != b.audit_lines

    def test_frame_mbs_match_rate(self, small_ctx):
        tr = run_trial(small_ctx, "tr", TrialConfig(0.25, 2, 0), measure_timing=False)
        assert tr.frame_mbs == [4, 4, 4, 4]  # round(0.25 * 16)

    def test_timing_recorded_when_enabled(self, small_ctx, monkeypatch):
        # a timed run conceals each inter frame once, as an untimed one does,
        # and only the timings tell the two apart
        calls, conceal_frame = [], experiment.conceal_frame

        def spy(*args):
            calls.append(args[-2])
            return conceal_frame(*args)

        monkeypatch.setattr(experiment, "conceal_frame", spy)
        tr = run_trial(small_ctx, "bma", TrialConfig(0.25, 2, 0), measure_timing=True)
        assert len(calls) == len(small_ctx.originals) - 1
        assert all(ms > 0 for ms in tr.frame_ms)
        off = run_trial(small_ctx, "bma", TrialConfig(0.25, 2, 0), measure_timing=False)
        assert len(calls) == 2 * (len(small_ctx.originals) - 1)
        assert all(ms == 0.0 for ms in off.frame_ms)
        assert tr.psnr_db == off.psnr_db
        assert tr.audit_lines == off.audit_lines


class TestAggregate:
    def test_single_trial_is_identity(self, small_ctx):
        tr = run_trial(small_ctx, "tr", TrialConfig(0.25, 2, 0), measure_timing=False)
        row = aggregate([tr])
        assert row.trials == 1
        assert row.mean_psnr_db == pytest.approx(np.mean(tr.psnr_db))

    def test_two_trials_framewise_mean(self, small_ctx):
        a = run_trial(small_ctx, "tr", TrialConfig(0.25, 2, 0), measure_timing=False)
        b = run_trial(small_ctx, "tr", TrialConfig(0.25, 2, 1), measure_timing=False)
        row = aggregate([a, b])
        va, vb = np.array(a.psnr_db), np.array(b.psnr_db)
        assert row.mean_psnr_db == pytest.approx(((va + vb) / 2).mean())

    def test_time_per_mb_pools_all_trials(self, small_ctx):
        a = run_trial(small_ctx, "bma", TrialConfig(0.25, 2, 0), measure_timing=True)
        b = run_trial(small_ctx, "bma", TrialConfig(0.25, 2, 1), measure_timing=True)
        row = aggregate([a, b])
        want = (sum(a.frame_ms) + sum(b.frame_ms)) / (sum(a.frame_mbs) + sum(b.frame_mbs))
        assert row.mean_time_per_mb_ms == pytest.approx(want)


class TestRunExperiment:
    def _spec(self, seq, **kw):
        defaults = dict(
            sequences=[seq], rates=[0.1, 0.25], modes=["tr", "ebmc"],
            trials=2, seed=31, measure_timing=False,
        )
        defaults.update(kw)
        return ExperimentSpec(**defaults)

    def test_report_shape_and_fields(self, small_seq, tmp_path):
        spec = self._spec(small_seq)
        rows = run_experiment(spec, str(tmp_path / "out"))
        assert len(rows) == 4  # 2 modes x 2 rates
        text = (tmp_path / "out" / "report.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "sequence,mode,rate,trials,mean_psnr_db,mean_time_per_mb_ms"
        assert len(lines) == 5
        assert lines[1].startswith("small,tr,0.1,2,")

    def test_trial_and_audit_files_exist(self, small_seq, tmp_path):
        out = tmp_path / "out"
        run_experiment(self._spec(small_seq), str(out))
        trials = sorted(p.name for p in (out / "trials").iterdir())
        audits = sorted(p.name for p in (out / "audits").iterdir())
        assert len(trials) == len(audits) == 8  # 2 modes x 2 rates x 2 trials
        assert "small_ebmc_r0.1_t000.csv" in trials
        first_audit = (out / "audits" / audits[0]).read_text().splitlines()
        assert first_audit[0] == "frame,mb_col,mb_row,mode,vx,vy,total,bmc_total,sides_absent"

    def test_regenerated_report_is_bit_identical(self, small_seq, tmp_path):
        out = tmp_path / "out"
        spec = self._spec(small_seq)
        run_experiment(spec, str(out))
        regen = regenerate_report_csv(str(out), spec)
        assert regen == (out / "report.csv").read_text()

    def test_regenerated_report_with_rate_beyond_tag_precision(self, small_seq, tmp_path):
        # the r0.123457 file tag rounds the rate; the cells must still be found
        out = tmp_path / "out"
        spec = self._spec(small_seq, rates=[0.1234567], modes=["tr"], trials=1)
        run_experiment(spec, str(out))
        regen = regenerate_report_csv(str(out), spec)
        assert regen == (out / "report.csv").read_text()

    def test_two_runs_byte_identical_when_untimed(self, small_seq, tmp_path):
        spec = self._spec(small_seq)
        run_experiment(spec, str(tmp_path / "a"))
        run_experiment(spec, str(tmp_path / "b"))
        ra = (tmp_path / "a" / "report.csv").read_bytes()
        rb = (tmp_path / "b" / "report.csv").read_bytes()
        assert ra == rb
        for name in sorted(p.name for p in (tmp_path / "a" / "audits").iterdir()):
            assert (tmp_path / "a" / "audits" / name).read_bytes() == (
                tmp_path / "b" / "audits" / name
            ).read_bytes()

    def test_timed_run_writes_the_untimed_files_but_its_timings(self, small_seq, tmp_path):
        # dropping conceal_ms from trials/*.csv and mean_time_per_mb_ms from
        # report.csv leaves a timed run's files byte-identical to an untimed one's
        def without_timing(path, column):
            lines = [line.split(",") for line in path.read_text().splitlines()]
            at = lines[0].index(column)
            return [row[:at] + row[at + 1:] for row in lines], [row[at] for row in lines[1:]]

        modes = list(engine.MODES)
        timed, untimed = tmp_path / "timed", tmp_path / "untimed"
        run_experiment(self._spec(small_seq, modes=modes, measure_timing=True), str(timed))
        run_experiment(self._spec(small_seq, modes=modes), str(untimed))
        names = sorted(str(p.relative_to(timed)) for p in timed.rglob("*") if p.is_file())
        assert names == sorted(str(p.relative_to(untimed)) for p in untimed.rglob("*") if p.is_file())
        for name in names:
            if name == "report.csv" or name.startswith("trials"):
                column = "mean_time_per_mb_ms" if name == "report.csv" else "conceal_ms"
                rows_on, ms_on = without_timing(timed / name, column)
                rows_off, ms_off = without_timing(untimed / name, column)
                assert rows_on == rows_off, name
                assert ms_on and all(float(ms) > 0 for ms in ms_on), name
                assert all(float(ms) == 0.0 for ms in ms_off), name
            else:
                assert (timed / name).read_bytes() == (untimed / name).read_bytes(), name

    def test_make_mask_called_per_frame_mode_rate_and_trial(self, small_seq, tmp_path, monkeypatch):
        # perfbench's tracer counts loss.mbs_lost by wrapping
        # experiment.make_mask, and reference.json pins that count: every
        # mode must still call it once per inter frame, rate and trial
        calls, make_mask = [], experiment.make_mask

        def spy(*args):
            mask = make_mask(*args)
            calls.append(len(mask.lost))
            return mask

        monkeypatch.setattr(experiment, "make_mask", spy)
        spec = self._spec(small_seq)  # 5 frames of 4x4 MBs, 2 modes, 2 rates, 2 trials
        run_experiment(spec, str(tmp_path / "out"))
        frames, modes = small_seq.frames, len(spec.modes)
        assert len(calls) == (frames - 1) * modes * len(spec.rates) * spec.trials
        one_pass = sum(round(rate * 16) * (frames - 1) * spec.trials for rate in spec.rates)
        assert sum(calls) == modes * one_pass

    def test_one_schedule_per_trial_frame_shared_by_every_mode(self, small_seq, tmp_path, monkeypatch):
        # the concealment order depends on the loss draw alone: the first
        # mode builds each trial-frame's order, the later modes walk it
        built, init = [], engine.PrioritySchedule.__init__

        def spy(sched, status):
            built.append(status.shape)
            init(sched, status)

        monkeypatch.setattr(engine.PrioritySchedule, "__init__", spy)
        spec = self._spec(small_seq, modes=list(engine.MODES), measure_timing=True)
        run_experiment(spec, str(tmp_path / "out"))
        assert len(built) == (small_seq.frames - 1) * len(spec.rates) * spec.trials

    def test_outputs_equal_per_cell_trials_outside_the_memo(self, small_seq, tmp_path):
        spec = self._spec(small_seq, modes=["tr", "median", "ebmc"])
        out, want = tmp_path / "out", tmp_path / "want"
        run_experiment(spec, str(out))
        # the same files, built from run_trial calls whose memo-less configs
        # each draw their own masks
        ctx = build_context(small_seq, spec.search_p)
        os.makedirs(want / "trials")
        os.makedirs(want / "audits")
        rows = []
        for mode in spec.modes:
            for rate in spec.rates:
                cfgs = [TrialConfig(rate, spec.seed, k) for k in range(spec.trials)]
                cell = [run_trial(ctx, mode, cfg, measure_timing=False) for cfg in cfgs]
                for k, tr in enumerate(cell):
                    tag = _cell_tag("small", mode, rate, k)
                    write_trial_csv(tr, str(want / "trials" / f"{tag}.csv"))
                    (want / "audits" / f"{tag}.csv").write_text(
                        "".join(line + "\n" for line in [audit_csv_header(), *tr.audit_lines]))
                rows.append(aggregate(cell))
        (want / "report.csv").write_text(_render_report_csv(rows))
        got = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert got == sorted(str(p.relative_to(want)) for p in want.rglob("*") if p.is_file())
        for name in got:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize(
        "case, error, match",
        [("missing", FileNotFoundError, "missing.yuv"), ("short", ValueError, "has 2 frames, needs 4"),
         ("height", ValueError, "not a positive multiple")],
    )
    def test_bad_second_sequence_rejected_before_any_output(self, small_seq, tmp_path, case, error, match):
        # the first sequence's trial and audit files were written before the
        # second one was opened, and the run left no report.csv
        path = tmp_path / f"{case}.yuv"
        if case == "short":
            write_i420(str(path), make_sequence(64, 64, 2, seed=4))
        elif case == "height":
            path = small_seq.path
        bad = SequenceSpec("bad", str(path), 64, 48 if case == "height" else 64, 4)
        spec = self._spec(small_seq, sequences=[small_seq, bad], rates=[0.25], modes=["tr"], trials=1)
        with pytest.raises(error, match=match):
            run_experiment(spec, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_pgm_dumps(self, small_seq, tmp_path):
        out = tmp_path / "out"
        spec = self._spec(small_seq, rates=[0.25], modes=["ebmc"], dump_frames=[2])
        run_experiment(spec, str(out))
        names = {p.name for p in (out / "frames").iterdir()}
        assert names == {
            "small_f002_original.pgm",
            "small_ebmc_r0.25_f002_damaged.pgm",
            "small_ebmc_r0.25_f002_concealed.pgm",
        }


class TestSpecFile:
    def test_json_round_trip(self, small_seq, tmp_path):
        raw = {
            "sequences": [
                {"path": small_seq.path, "width": 64, "height": 64, "frames": 5}
            ],
            "rates": [0.1],
            "modes": ["bma"],
            "trials": 3,
            "seed": 17,
            "measure_timing": False,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        spec = load_spec_file(str(path))
        assert spec.sequences[0].name == "small"  # from file stem
        assert spec.trials == 3 and spec.seed == 17
        assert spec.rates == [0.1] and spec.modes == ["bma"]

    def test_toml_spec_loads_like_json_or_asks_for_json(self, small_seq, tmp_path):
        # no skip marker: each Python checks its own branch of load_spec_file
        table = {"rates": [0.1], "modes": ["bma"], "trials": 3, "seed": 17, "measure_timing": False}
        seq = {"path": small_seq.path, "width": 64, "height": 64, "frames": 5}
        (tmp_path / "spec.json").write_text(json.dumps({**table, "sequences": [seq]}))
        # these JSON strings, numbers, lists and booleans are TOML values too
        body = "".join(f"{k} = {json.dumps(v)}\n" for k, v in table.items())
        body += "[[sequences]]\n" + "".join(f"{k} = {json.dumps(v)}\n" for k, v in seq.items())
        (tmp_path / "spec.toml").write_text(body)
        (tmp_path / "twice.toml").write_text("seed = 1\n" + body)
        out = tmp_path / "out"
        if sys.version_info < (3, 11):
            with pytest.raises(RuntimeError, match="use JSON"):
                run_experiment(load_spec_file(str(tmp_path / "spec.toml")), str(out))
        else:
            import tomllib

            assert load_spec_file(str(tmp_path / "spec.toml")) == load_spec_file(str(tmp_path / "spec.json"))
            # tomllib rejects the repeated seed itself
            with pytest.raises(tomllib.TOMLDecodeError):
                run_experiment(load_spec_file(str(tmp_path / "twice.toml")), str(out))
        assert not out.exists()

    def test_frame_budget_defaults(self):
        assert SequenceSpec("c", "x.yuv", 352, 288).frame_budget() == 30
        assert SequenceSpec("q", "x.yuv", 176, 144).frame_budget() == 60

    def test_validation(self, small_seq):
        with pytest.raises(ValueError):
            ExperimentSpec([small_seq], [0.1], ["nope"])
        with pytest.raises(ValueError):
            ExperimentSpec([small_seq], [1.7], ["tr"])
        with pytest.raises(ValueError):
            ExperimentSpec([small_seq], [0.1], ["tr"], trials=0)
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec([small_seq], [0.1], ["tr"], trials=1.5)

    @pytest.mark.parametrize("copies, modes, what", [(2, ["tr"], "sequence name 'small'"), (1, ["tr", "ebmc", "tr"], "mode 'tr'")])
    def test_repeated_sequence_or_mode_rejected(self, small_seq, copies, modes, what):
        with pytest.raises(ValueError, match=f"repeated {what}"):
            ExperimentSpec([small_seq] * copies, [0.1], modes)

    def test_sequences_named_alike_from_their_paths_rejected(self, small_seq, tmp_path):
        # a/clip.yuv and b/clip.yuv are both named "clip" and would share
        # every trial and audit file
        raw = {"sequences": [], "rates": [0.25], "modes": ["ebmc"]}
        for d in ("a", "b"):
            os.makedirs(tmp_path / d)
            raw["sequences"].append({"path": str(tmp_path / d / "clip.yuv"), "width": 64, "height": 64, "frames": 5})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="repeated sequence name 'clip'"):
            load_spec_file(str(path))

    @pytest.mark.parametrize(
        "name, problem",
        [("../escape", "'/'"), ("a,b", "','"), ("a\nb", r"'\\n'"), ("a\rb", r"'\\r'"), (".", ". or .."),
         ("..", ". or .."), ("", "non-empty string"), (5, "non-empty string"), (None, "non-empty string")],
    )
    def test_name_unfit_for_outputs_rejected_before_any_output(self, small_seq, tmp_path, name, problem):
        # "../escape" wrote its trial and audit CSVs to one path outside
        # trials/ and audits/, and a comma added a field to its report row
        raw = {"sequences": [{"name": name, "path": small_seq.path, "width": 64, "height": 64, "frames": 5}],
               "rates": [0.25], "modes": ["tr"], "measure_timing": False}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"sequence name .* must .*{problem}") as err:
            run_experiment(load_spec_file(str(path)), str(tmp_path / "out"))
        assert "set the sequence's name" not in str(err.value)
        assert not (tmp_path / "out").exists()

    def test_stem_unfit_for_outputs_asks_for_a_name(self, small_seq, tmp_path):
        clip = tmp_path / "clip,v2.yuv"
        clip.write_bytes(open(small_seq.path, "rb").read())
        raw = {"sequences": [{"path": str(clip), "width": 64, "height": 64, "frames": 5}],
               "rates": [0.25], "modes": ["tr"], "measure_timing": False}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="sequence name 'clip,v2'.*must not contain ','.*set the sequence's name"):
            run_experiment(load_spec_file(str(path)), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()
        # named in the spec, the same clip runs, and its report row keeps six fields
        raw["sequences"][0]["name"] = "clip_v2"
        path.write_text(json.dumps(raw))
        run_experiment(load_spec_file(str(path)), str(tmp_path / "out"))
        rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert [len(r.split(",")) for r in rows] == [6, 6] and rows[1].startswith("clip_v2,tr,")

    def test_defaults_come_from_the_specs(self, small_seq, tmp_path):
        raw = {"sequences": [{"path": small_seq.path, "width": 64, "height": 64}], "rates": [0.1], "modes": ["tr"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        seq = SequenceSpec("small", small_seq.path, 64, 64)
        assert load_spec_file(str(path)) == ExperimentSpec([seq], [0.1], ["tr"])

    @pytest.mark.parametrize(
        "where, key",
        [("spec", "sequences"), ("spec", "rates"), ("spec", "modes"),
         ("sequence", "path"), ("sequence", "width"), ("sequence", "height")],
    )
    def test_missing_required_key_rejected(self, small_seq, tmp_path, where, key):
        raw = {"sequences": [{"path": small_seq.path, "width": 64, "height": 64}], "rates": [0.1], "modes": ["tr"]}
        del (raw if where == "spec" else raw["sequences"][0])[key]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"missing {where} key '{key}'"):
            load_spec_file(str(path))

    @pytest.mark.parametrize("where, key", [("spec", "trial"), ("spec", "measure_timings"), ("sequence", "frame")])
    def test_unknown_key_rejected(self, small_seq, tmp_path, where, key):
        raw = {"sequences": [{"path": small_seq.path, "width": 64, "height": 64}], "rates": [0.1], "modes": ["tr"]}
        (raw if where == "spec" else raw["sequences"][0])[key] = 2
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"unknown {where} key '{key}'"):
            load_spec_file(str(path))

    @pytest.mark.parametrize("index", [100, -1])
    def test_dump_frame_outside_sequence_rejected(self, small_seq, index):
        # a 5-frame sequence has no still at either index to write
        with pytest.raises(ValueError, match=f"dump_frames index {index} outside sequence small"):
            ExperimentSpec([small_seq], [0.1], ["tr"], dump_frames=[index])

    def test_measure_timing_string_rejected(self, small_seq, tmp_path):
        # "false" is a non-empty string, so it would switch timing on
        raw = {
            "sequences": [{"path": small_seq.path, "width": 64, "height": 64, "frames": 5}],
            "rates": [0.1], "modes": ["tr"], "measure_timing": "false",
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="measure_timing"):
            load_spec_file(str(path))

    @pytest.mark.parametrize("p", [-1, 2.5])
    def test_bad_search_p_rejected_before_any_output(self, small_seq, tmp_path, p):
        with pytest.raises(ValueError, match="search_p"):
            run_experiment(ExperimentSpec([small_seq], [0.1], ["tr"], search_p=p), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["sequences", "rates", "modes"])
    def test_empty_list_rejected(self, small_seq, key):
        lists = {"sequences": [small_seq], "rates": [0.1], "modes": ["tr"]}
        lists[key] = []
        with pytest.raises(ValueError, match=key):
            ExperimentSpec(**lists)

    @pytest.mark.parametrize(
        "where, key, value",
        [("spec", "sequences", {"path": "small.yuv", "width": 64, "height": 64}),
         ("spec", "rates", 0.1), ("spec", "rates", "0.1"), ("spec", "rates", [True]), ("spec", "rates", ["0.1"]),
         ("spec", "modes", "tr"), ("spec", "dump_frames", 1), ("spec", "dump_frames", [1.0]),
         ("spec", "seed", "x"), ("spec", "seed", 1.5), ("spec", "seed", True),
         ("sequence", "width", "64"), ("sequence", "height", 64.0), ("sequence", "frames", 2.5)],
    )
    def test_mistyped_value_rejected_before_any_output(self, small_seq, tmp_path, where, key, value):
        raw = {"sequences": [{"path": small_seq.path, "width": 64, "height": 64, "frames": 5}],
               "rates": [0.1], "modes": ["tr"], "measure_timing": False}
        (raw if where == "spec" else raw["sequences"][0])[key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=key):
            run_experiment(load_spec_file(str(path)), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("width", 40), ("width", -64), ("width", 0), ("height", 72), ("height", -16),
         ("path", 5), ("path", None), ("path", ["small.yuv"])],
    )
    def test_bad_size_or_path_rejected_before_any_output(self, small_seq, tmp_path, key, value):
        # a size used to fail in open_sequence, after the output tree was
        # made, and a path in os.path.basename with a bare TypeError
        raw = {"sequences": [{"path": small_seq.path, "width": 64, "height": 64, "frames": 5, key: value}],
               "rates": [0.1], "modes": ["tr"], "measure_timing": False}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=key):
            run_experiment(load_spec_file(str(path)), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", [["small.yuv"], {"sequences": ["small.yuv"], "rates": [0.1], "modes": ["tr"]}])
    def test_spec_or_sequence_not_a_table_rejected(self, tmp_path, raw):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="must be a table of keys"):
            load_spec_file(str(path))

    @pytest.mark.parametrize(
        "text, key",
        [('{"sequences": [{"path": PATH, "width": 64, "height": 64}], "rates": [0.1], "modes": ["tr"], "rates": [0.5]}',
          "rates"),
         ('{"sequences": [{"path": PATH, "width": 64, "width": 32, "height": 64}], "rates": [0.1], "modes": ["tr"]}',
          "width")],
        ids=["spec", "sequence"],
    )
    def test_repeated_json_key_rejected_before_any_output(self, small_seq, tmp_path, text, key):
        # json.load kept the last value, and ran rate 0.5 alone or width 32
        path = tmp_path / "spec.json"
        path.write_text(text.replace("PATH", json.dumps(small_seq.path)))
        with pytest.raises(ValueError, match=f"spec key '{key}' given twice"):
            run_experiment(load_spec_file(str(path)), str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_key_of_each_table_may_recur_in_another(self, small_seq, tmp_path):
        # the check is per table: two sequences both give path and sizes
        seq = {"path": small_seq.path, "width": 64, "height": 64, "frames": 5}
        raw = {"sequences": [{"name": "a", **seq}, {"name": "b", **seq}], "rates": [0.1], "modes": ["tr"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        spec = load_spec_file(str(path))
        assert [s.name for s in spec.sequences] == ["a", "b"]

    @pytest.mark.parametrize("rates", [[0.1234561, 0.1234564], [0.25, 0.25]])
    def test_rates_with_colliding_file_tags_rejected(self, small_seq, rates):
        # both rates would write small_tr_r0.123456_t000.csv (or r0.25)
        with pytest.raises(ValueError, match="tag"):
            ExperimentSpec([small_seq], rates, ["tr"])
