import importlib.util
import os

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
