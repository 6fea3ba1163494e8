"""Verdicts of tools/bench_pairs.py, on made-up run values."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seed_list():
    assert bench_pairs.seed_list("31-34") == [31, 32, 33, 34]
    assert bench_pairs.seed_list("1,5-6,9") == [1, 5, 6, 9]


def test_gain_needs_ten_pairs_nine_wins_and_more_than_the_spread():
    base = [10.0 + 0.1 * i for i in range(10)]
    verdict = bench_pairs.compare(base, [v * 1.8 for v in base], "higher", 0.25)
    assert (verdict["verdict"], verdict["wins"], verdict["pairs"]) == ("gain", 10, 10)
    assert verdict["relative_change"] == pytest.approx(0.8, rel=1e-9)
    # nine pairs are too few for a claim, however large the gain
    assert bench_pairs.compare(base[:9], [v * 1.8 for v in base[:9]], "higher",
                               0.25)["verdict"] == "holds"
    # two losses in ten: no gain
    change = [v * 1.8 for v in base[:8]] + base[8:9] + [base[9] * 0.99]
    assert bench_pairs.compare(base, change, "higher", 0.25)["verdict"] == "holds"


def test_ties_count_for_neither_side():
    verdict = bench_pairs.compare([5.0] * 10, [5.0] * 9 + [4.0], "lower", 0.25)
    assert (verdict["wins"], verdict["losses"]) == (1, 0)
    assert verdict["verdict"] == "holds"


def test_regression_is_judged_by_the_bound_in_the_metric_direction():
    base = [100.0, 101.0, 99.0, 100.5]
    assert bench_pairs.compare(base, [v * 1.3 for v in base], "lower",
                               0.25)["verdict"] == "regressed"
    assert bench_pairs.compare(base, [v * 1.2 for v in base], "lower",
                               0.25)["verdict"] == "holds"
    assert bench_pairs.compare(base, [v * 0.7 for v in base], "higher",
                               0.25)["verdict"] == "regressed"


def test_wide_spread_is_unresolved_unless_every_change_run_is_better():
    base = [3.0, 5.0, 3.5, 4.5, 4.0]  # quartiles 3.25..4.75: 37% of the median
    assert bench_pairs.compare(base, [4.2, 3.1, 4.9, 3.6, 4.1], "lower",
                               0.25)["verdict"] == "unresolved"
    assert bench_pairs.compare(base, [2.9, 2.5, 2.0, 2.8, 2.1], "lower",
                               0.25)["verdict"] == "holds"


def test_zero_medians_hold():
    verdict = bench_pairs.compare([0.0, 0.0], [0.0, 0.0], "higher", 0.1)
    assert (verdict["verdict"], verdict["relative_change"]) == ("holds", 0.0)
