"""The statistics and the claim rule of scripts/bench_pairs.py, on made-up pairs (no process is started)."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, metric="wall_s"):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def _verdict(parent, change):
    stats = bench_pairs.compare(_pairs(parent, change), "wall_s")
    return bench_pairs.claim_verdict("wall_s", stats, len(parent))


def test_claim_needs_nine_tenths_of_the_pairs_lower_and_ties_count_for_neither():
    parent = [1.0] * 10
    nine = _verdict(parent, [0.9] * 9 + [1.0])
    assert (nine["pairs_change_lower"], nine["pairs_needed"], nine["verdict"]) == (9, 9, "met")
    # two ties: were they wins the change would be lower in 10/10
    eight = _verdict(parent, [0.9] * 8 + [1.0, 1.0])
    assert (eight["pairs_change_lower"], eight["verdict"]) == (8, "not met")
    eight = _verdict(parent, [0.9] * 8 + [1.1, 1.0])
    assert (eight["pairs_change_lower"], eight["verdict"]) == (8, "not met")


def test_claim_needs_a_median_gain_beyond_the_parents_quartile_spread():
    parent = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225 and 1.0675
    spread = 0.045
    narrow = _verdict(parent, [p - 0.04 for p in parent])
    assert narrow["pairs_change_lower"] == 10
    assert narrow["parent_quartile_spread"] == pytest.approx(spread)
    assert narrow["verdict"] == "not met"
    assert _verdict(parent, [p - 0.05 for p in parent])["verdict"] == "met"


def test_an_identical_series_reads_ratio_one_inside_its_interval():
    values = [0.3 + 0.07 * ((7 * i) % 11) for i in range(20)]
    stats = bench_pairs.compare(_pairs(values, values), "wall_s")
    assert stats["median_pair_ratio"] == 1.0
    assert stats["change_vs_parent"] == 0.0
    assert stats["pairs_change_lower"] == 0
    lo, hi = stats["interval_95"]
    assert lo <= 1.0 <= hi


def test_the_same_pairs_give_the_same_interval_every_time():
    rng = random.Random(5)
    ratios = [rng.uniform(0.8, 1.3) for _ in range(20)]
    first = bench_pairs.bootstrap_interval(ratios)
    random.seed(12345)  # the interval has its own generator
    assert bench_pairs.bootstrap_interval(ratios) == first
    assert bench_pairs.bootstrap_interval(list(ratios)) == first
    lo, hi = first
    assert min(ratios) <= lo < hi <= max(ratios)


@pytest.mark.parametrize(
    "argv",
    [
        ["--parent", "HEAD", "--change", "HEAD", "--pairs", "2"],  # neither a workload nor an argv
        ["--parent", "HEAD", "--change", "HEAD", "--pairs", "2", "--workload", "orbits", "--", "cq"],
        ["--parent", "HEAD", "--change", "HEAD", "--pairs", "1", "--workload", "orbits"],
        ["--parent", "HEAD", "--change", "HEAD", "--pairs", "2", "--trace-seed", "0", "--", "cq"],
    ],
)
def test_bad_arguments_stop_before_any_run(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", *argv])
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main()
    assert stop.value.code == 2
