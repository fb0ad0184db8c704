import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_outputs.py")
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


FILES = {
    "experiment/report.csv": b"sequence,mode\ncif,ebmc\n",
    "experiment/audits/cif_ebmc_r0.1_t000.csv": b"frame,mb_col\n1,3\n",
    "stdout/estimate.txt": b"estimated 7 MV fields\n",
    "conceal_bma.yuv": bytes(range(256)),
}


def test_identical_trees_compare_equal(tmp_path):
    assert same_outputs.compare_trees(write_tree(tmp_path / "a", FILES), write_tree(tmp_path / "b", FILES)) == []


def test_every_difference_reported_in_path_order(tmp_path):
    changed = dict(FILES)
    # one byte of a binary output, a trailing newline of a CSV
    changed["conceal_bma.yuv"] = bytes(range(255)) + b"\0"
    changed["experiment/report.csv"] = FILES["experiment/report.csv"].rstrip(b"\n")
    del changed["stdout/estimate.txt"]
    changed["stdout/extra.txt"] = b""
    got = same_outputs.compare_trees(write_tree(tmp_path / "a", FILES), write_tree(tmp_path / "b", changed))
    assert got == [
        "differs: conceal_bma.yuv",
        "differs: experiment/report.csv",
        "only in base: stdout/estimate.txt",
        "only in change: stdout/extra.txt",
    ]


def test_runs_cover_the_experiment_and_every_cli_mode():
    names = [name for name, _ in same_outputs.commands("/inputs")]
    assert names == ["experiment", "estimate", *(f"conceal_{m}" for m in same_outputs.MODES)]
    assert set(same_outputs.SPEC["rates"]) == {0.1, 0.5, 1.0}
    assert same_outputs.SPEC["dump_frames"] and not same_outputs.SPEC["measure_timing"]
    assert {(w, h) for _, w, h, _, _ in same_outputs.CLIPS} == {(352, 288), (176, 144), (48, 32)}
