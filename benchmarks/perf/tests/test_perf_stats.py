import math

import pytest

from stats import percentile, quartiles, self_time, tail_percentile, timing_summary


@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0),
    (99, 50.0), (20, 50.0), (19, 50.0), (1, 50.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_summary_reports_tail_and_count():
    values = list(range(1, 1001))
    summary = timing_summary(values)
    assert summary["n"] == 1000
    assert summary["tail_p"] == 99.0
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["tail"] == pytest.approx(percentile(values, 99.0))


def test_percentile_interpolates_and_keeps_infinite_misses():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([1.0, math.inf, math.inf], 90.0) == math.inf
    assert percentile([1.0, 2.0, math.inf], 50.0) == 2.0


def test_quartiles_of_one_value():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(0.0, 10.0, []) == 10.0


def test_self_time_with_nested_children_counts_cover_once():
    # (2, 3) lies inside (1, 5): the covered part is 4, not 5.
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == 6.0


def test_self_time_with_overlapping_children_and_overhang():
    # Union inside [0, 10]: [1, 6] and [8, 10] -> 7 covered.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0), (-3.0, -1.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)
