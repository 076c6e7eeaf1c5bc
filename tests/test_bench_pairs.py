"""The gain rule of ``scripts/bench_pairs.py`` on fixed numbers; no benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_verdict_on_fixed_numbers():
    verdict = _bench_pairs().verdict
    parent = [float(x) for x in range(1, 11)]  # quartiles 2.75 and 8.25
    found = verdict(parent, [p - 6 for p in parent])
    assert found["wins"] == found["pairs"] == 10
    assert found["parent"] == (2.75, 5.5, 8.25)
    assert found["spread"] == 5.5 and found["gain"] == 6
    assert found["holds"]
    # Every pair won, but the medians differ by less than the parent's spread.
    assert not verdict(parent, [p - 5 for p in parent])["holds"]
    # A tie counts for neither side: nine wins of ten still hold, eight do not.
    flat = [10.0] * 10
    nine = verdict(flat, [9.0] * 9 + [10.0])
    assert (nine["wins"], nine["spread"], nine["holds"]) == (9, 0.0, True)
    eight = verdict(flat, [9.0] * 8 + [10.0, 11.0])
    assert (eight["wins"], eight["gain"], eight["holds"]) == (8, 1.0, False)
    # Where higher is better, the same numbers read the other way.
    higher = [p + 6 for p in parent]
    assert verdict(parent, higher, lower_is_better=False)["holds"]
    assert verdict(parent, higher)["wins"] == 0
    with pytest.raises(ValueError):
        verdict(parent, parent[:-1])


def test_bench_pairs_claims_nothing_from_fewer_than_ten_pairs():
    verdict = _bench_pairs().verdict
    three = verdict([10.0, 11.0, 12.0], [5.0, 6.0, 7.0])
    assert (three["wins"], three["pairs"], three["holds"]) == (3, 3, False)
    nine = verdict([10.0] * 9, [5.0] * 9)
    assert (nine["wins"], nine["holds"]) == (9, False)
    assert verdict([10.0] * 10, [5.0] * 10)["holds"]


def test_bench_pairs_claims_nothing_when_more_operations_fail():
    verdict = _bench_pairs().verdict
    parent = [float(x) for x in range(1, 11)]
    change = [p - 6 for p in parent]
    assert verdict(parent, change, parent_failed=0.1, change_failed=0.1)["holds"]
    assert verdict(parent, change, parent_failed=0.1, change_failed=0.0)["holds"]
    worse = verdict(parent, change, parent_failed=0.0, change_failed=0.01)
    assert (worse["wins"], worse["holds"]) == (10, False)


def test_bench_pairs_takes_run_length_and_pair_count_from_no_option():
    module = _bench_pairs()
    seconds, lower, bounds = module.benchmark()
    assert seconds > 0 and lower["wall_s"]
    assert set(bounds) == set(lower) and bounds["wall_s"] > 0
    for option in ("--pairs", "--seconds"):
        with pytest.raises(SystemExit):
            module.main(["--parent", ".", "--workload", "cli-27", option, "3"])


def test_bench_pairs_bound_on_fixed_numbers():
    verdict = _bench_pairs().verdict
    parent = [float(x) for x in range(1, 11)]  # median 5.5
    # 10 % worse in the median, within a 25 % bound.
    within = verdict(parent, [p + 0.55 for p in parent], bound=0.25)
    assert within["bound"] == 0.25
    assert within["worse"] == pytest.approx(0.1)
    assert not within["regresses"] and not within["holds"]
    # 30 % worse is beyond it.
    beyond = verdict(parent, [p + 1.65 for p in parent], bound=0.25)
    assert beyond["worse"] == pytest.approx(0.3) and beyond["regresses"]
    # A gain is never a regression, and where higher is better a fall is.
    assert not verdict(parent, [p - 6 for p in parent], bound=0.0)["regresses"]
    assert verdict(parent, [p - 2 for p in parent], lower_is_better=False, bound=0.25)["regresses"]
    assert not verdict(parent, [p + 2 for p in parent], lower_is_better=False, bound=0.0)["regresses"]
