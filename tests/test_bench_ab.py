import importlib.util
import json
import os
import subprocess
import types

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
PSNR = {"name": "psnr_db.bma", "unit": "dB", "better": "higher", "bound": 0.25}


def runs_of(name, base, change):
    """One base and one change run per pair, with the given metric values."""
    out = []
    for pair, (b, c) in enumerate(zip(base, change)):
        out.append({"pair": pair, "side": "base", "failed": 0, "metrics": {name: b}})
        out.append({"pair": pair, "side": "change", "failed": 0, "metrics": {name: c}})
    return out


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.985-1.0175


@pytest.mark.parametrize(
    "change, wins, gain_met, regressed",
    [
        ([0.70] * 10, 10, True, False),
        # 9 of 10 is enough
        ([0.70] * 9 + [1.10], 9, True, False),
        # 8 of 10 is not
        ([0.70] * 8 + [1.10] * 2, 8, False, False),
        # wins every pair, but the medians differ by less than the base's
        # quartile spread of 0.0325
        ([b - 0.01 for b in BASE], 10, False, False),
        # 20 % worse is inside the 0.25 bound, 30 % is not
        ([1.20] * 10, 0, False, False),
        ([1.30] * 10, 0, False, True),
    ],
)
def test_lower_is_better(change, wins, gain_met, regressed):
    m = bench_ab.compare(runs_of("wall_s", BASE, change), [WALL])["metrics"]["wall_s"]
    assert (m["change_wins"], m["pairs"]) == (wins, 10)
    assert (m["gain_met"], m["regressed"]) == (gain_met, regressed)


@pytest.mark.parametrize(
    "change, gain_met, regressed",
    [([40.0] * 10, True, False), ([28.0] * 10, False, False), ([26.0] * 10, False, True)],
)
def test_higher_is_better(change, gain_met, regressed):
    # a 25 % bound on a 36 dB median allows 9 dB
    base = [36.0, 36.5, 35.5, 36.0, 36.2, 35.8, 36.1, 35.9, 36.0, 36.0]
    m = bench_ab.compare(runs_of("psnr_db.bma", base, change), [PSNR])["metrics"]["psnr_db.bma"]
    assert (m["gain_met"], m["regressed"]) == (gain_met, regressed)


@pytest.mark.parametrize(
    "change, slower",
    [
        # a steady 5 % slowdown loses every pair, by more than the base's
        # quartile spread of 0.0325, and is inside the 0.25 bound
        ([1.05 * b for b in BASE], True),
        ([1.05] * 9 + [0.90], True),
        # identical values lose no pair
        (BASE, False),
        # a 5/5 split, however far apart the medians
        ([1.30] * 5 + [0.70] * 5, False),
        # loses every pair, but by less than the quartile spread
        ([b + 0.01 for b in BASE], False),
    ],
)
def test_slower(change, slower):
    m = bench_ab.compare(runs_of("wall_s", BASE, change), [WALL])["metrics"]["wall_s"]
    assert (m["slower"], m["regressed"], m["gain_met"]) == (slower, False, False)


def test_slower_higher_is_better():
    base = [36.0, 36.5, 35.5, 36.0, 36.2, 35.8, 36.1, 35.9, 36.0, 36.0]
    m = bench_ab.compare(runs_of("psnr_db.bma", base, [b - 2.0 for b in base]), [PSNR])["metrics"]["psnr_db.bma"]
    assert (m["slower"], m["regressed"]) == (True, False)


def test_errored_pair_counts_as_lost_for_slower():
    # 8 pairs lost and one errored: 9 of the 10 pairs run are lost
    runs = runs_of("wall_s", BASE, [1.10] * 8 + [0.90] * 2)
    m = bench_ab.compare(errored(runs, 9), [WALL])["metrics"]["wall_s"]
    assert (m["pairs"], m["pairs_run"], m["slower"]) == (9, 10, True)
    # 8 lost of 10 run is not slower
    assert not bench_ab.compare(runs, [WALL])["metrics"]["wall_s"]["slower"]


def errored(runs, *pairs):
    """The runs with the change's run of each given pair errored."""
    return [{"pair": r["pair"], "side": "change", "error": "boom"} if r["side"] == "change" and r["pair"] in pairs
            else r for r in runs]


def test_errored_pair_counts_as_lost():
    # 9 wins of the 10 pairs run is still a gain
    out = bench_ab.compare(errored(runs_of("wall_s", BASE, [0.70] * 10), 1), [WALL])
    assert out["incomplete_pairs"] == [1]
    m = out["metrics"]["wall_s"]
    assert (m["pairs"], m["pairs_run"], m["change_wins"], m["gain_met"]) == (9, 10, 9, True)


def test_two_errored_pairs_no_gain():
    # every complete pair wins, but 8 wins of the 10 pairs run is not a gain
    out = bench_ab.compare(errored(runs_of("wall_s", BASE, [0.70] * 10), 1, 6), [WALL])
    assert out["incomplete_pairs"] == [1, 6]
    m = out["metrics"]["wall_s"]
    assert (m["pairs"], m["pairs_run"], m["change_wins"], m["gain_met"]) == (8, 10, 8, False)


def test_more_change_failures_no_gain():
    runs = runs_of("wall_s", BASE, [0.70] * 10)
    runs[5]["failed"] = 1
    out = bench_ab.compare(runs, [WALL])
    assert out["failed"] == {"base": 0, "change": 1}
    m = out["metrics"]["wall_s"]
    assert (m["change_wins"], m["gain_met"]) == (10, False)
    # as many failures on both sides leaves the gain standing
    runs[4]["failed"] = 1
    assert bench_ab.compare(runs, [WALL])["metrics"]["wall_s"]["gain_met"]


BASE_REV, CHANGE_REV = "0" * 40, "c" * 40


class FakeRuns:
    """Stands in for `subprocess.run` in `bench_ab.main`: git and tar
    succeed, every revision resolves to BASE_REV, the working tree's
    snapshot is ``stash`` (CHANGE_REV by default; "" for a clean tree), and
    each `perfbench/run.py` prints a manifest line and a result line in
    which a run from CHANGE_REV's root is a little faster than one from
    BASE_REV's."""

    def __init__(self, stash=CHANGE_REV):
        self.stash = stash
        self.bench, self.extracted = [], []

    def __call__(self, cmd, cwd=None, input=None, check=False, capture_output=False, text=False):
        if cmd[0] == "git":
            out = {"rev-parse": BASE_REV, "stash": self.stash, "archive": b""}.get(cmd[1], "")
            return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")
        if cmd[0] == "tar":
            self.extracted.append(cmd[cmd.index("-C") + 1])
            return subprocess.CompletedProcess(cmd, 0)
        self.bench.append((cmd, cwd))
        arg = lambda flag: cmd[cmd.index(flag) + 1]  # noqa: E731
        manifest = {"workload": arg("--workload"), "seed": int(arg("--seed"))}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": 0.9 if os.path.basename(cwd) == CHANGE_REV else 1.0}}}
        out = f"manifest {json.dumps(manifest)}\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")


@pytest.fixture
def fake_runs(tmp_path, monkeypatch):
    bench = {"workloads": [{"name": n} for n in ("sparse", "burst", "cli-stream")], "end_to_end": [WALL]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    fake = FakeRuns()
    monkeypatch.setattr(bench_ab, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_ab, "bench_sha256", lambda root: "0" * 64)
    # bench_ab's own subprocess only; platform.platform() still runs uname
    monkeypatch.setattr(bench_ab, "subprocess", types.SimpleNamespace(run=fake))
    return fake


@pytest.mark.parametrize(
    "flags, seed, workloads",
    [
        ([], 7, ["sparse", "burst", "cli-stream"]),
        (["--seed", "4099", "--workload", "sparse"], 4099, ["sparse"]),
        (["--workload", "cli-stream", "--seed", "11", "--workload", "sparse"], 11, ["cli-stream", "sparse"]),
    ],
)
def test_seed_and_workloads_reach_both_sides_and_the_report(fake_runs, tmp_path, flags, seed, workloads):
    assert bench_ab.main(["--label", "t", "--pairs", "2", *flags]) == 0
    # two pairs of a base and a change run per workload, in the order asked
    assert [cmd[cmd.index("--workload") + 1] for cmd, _ in fake_runs.bench] == [w for w in workloads for _ in range(4)]
    assert all(cmd[cmd.index("--seed") + 1] == str(seed) for cmd, _ in fake_runs.bench)
    # both sides run from the extracted trees, named by revision, not from
    # the working tree
    sides = {cwd for _, cwd in fake_runs.bench}
    assert sorted(os.path.basename(cwd) for cwd in sides) == [BASE_REV, CHANGE_REV]
    assert sorted(fake_runs.extracted) == sorted(sides)
    assert not any(cwd.startswith(str(tmp_path)) for cwd in sides)
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["base"]["revision"] == BASE_REV
    assert report["change"]["revision"] == CHANGE_REV and report["change"]["uncommitted_changes"]
    assert report["seed"] == seed and report["command"].endswith(f"--seed {seed}")
    assert list(report["workloads"]) == workloads
    for w in workloads:
        runs = report["workloads"][w]["runs"]
        assert [r["manifest"] for r in runs] == [{"workload": w, "seed": seed}] * 4
        assert report["workloads"][w]["metrics"]["wall_s"]["change_wins"] == 2


def test_equal_revisions_share_one_extracted_root(fake_runs, tmp_path):
    # a clean tree against --base HEAD: one tree, extracted once, runs both
    # sides, so the A/B is a null one
    fake_runs.stash = ""
    assert bench_ab.main(["--label", "t", "--pairs", "2", "--workload", "sparse"]) == 0
    assert len(fake_runs.extracted) == 1
    assert {cwd for _, cwd in fake_runs.bench} == set(fake_runs.extracted)
    assert os.path.basename(fake_runs.extracted[0]) == BASE_REV
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["change"]["revision"] == report["base"]["revision"] == BASE_REV
    assert not report["change"]["uncommitted_changes"]
    assert [r["side"] for r in report["workloads"]["sparse"]["runs"]] == ["base", "change", "change", "base"]
    assert report["workloads"]["sparse"]["metrics"]["wall_s"]["change_wins"] == 0


def test_unknown_workload_rejected(fake_runs, tmp_path):
    with pytest.raises(SystemExit):
        bench_ab.main(["--label", "t", "--workload", "sprase"])
    assert fake_runs.bench == [] and not (tmp_path / "BENCH_t.json").exists()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository with one commit of src/a.py, as bench_ab's root."""
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.com")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(["git", *cmd], cwd=tmp_path, check=True)
    monkeypatch.setattr(bench_ab, "ROOT", str(tmp_path))
    return tmp_path


def test_snapshot_holds_uncommitted_edit_and_leaves_the_tree(repo, tmp_path_factory):
    git = lambda *args: subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout  # noqa: E731
    head = git("rev-parse", "HEAD").strip()
    assert bench_ab.snapshot() == head  # a clean tree is HEAD
    (repo / "src" / "a.py").write_text("x = 2\n")
    status = git("status", "--porcelain")
    rev = bench_ab.snapshot()
    assert rev != head
    out = str(tmp_path_factory.mktemp("snap") / "change")
    bench_ab.extract(rev, out)
    assert open(os.path.join(out, "src", "a.py")).read() == "x = 2\n"
    # the edit is still in the working tree, uncommitted, and nothing was stashed
    assert (repo / "src" / "a.py").read_text() == "x = 2\n"
    assert git("status", "--porcelain") == status and git("rev-parse", "HEAD").strip() == head
    assert git("stash", "list") == ""


def test_untracked_source_stops_the_snapshot(repo):
    (repo / "src" / "b.py").write_text("y = 1\n")
    with pytest.raises(SystemExit, match="src/b.py"):
        bench_ab.snapshot()
