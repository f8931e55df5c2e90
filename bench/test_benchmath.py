"""Hand-computed cases for the benchmark's own arithmetic."""
import statistics

import pytest

from benchmath import (covered, front_hypervolume, hypervolume, interquartile_mean,
                       percentile, quartile_spread, self_time, tail_percentile)


def test_hypervolume_one_point():
    assert hypervolume([(0.5, 0.5, 0.5)], (1, 1, 1)) == pytest.approx(0.125)


def test_hypervolume_two_points_overlap_counted_once():
    # boxes 0.5*1*1 and 1*0.5*1 overlap in 0.5*0.5*1
    pts = [(0.5, 0.0, 0.0), (0.0, 0.5, 0.0)]
    assert hypervolume(pts, (1, 1, 1)) == pytest.approx(0.75)


def test_hypervolume_three_points_staircase():
    pts = [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    # z in [0, .5): only the third point, area .5*.5, volume .125
    # z in [.5, 1): union of the three in (x, y) has area 1 - .5*.5, volume .375
    assert hypervolume(pts, (1, 1, 1)) == pytest.approx(0.125 + 0.375)


def test_hypervolume_dominated_and_outside_points_add_nothing():
    base = hypervolume([(0.2, 0.2, 0.2)], (1, 1, 1))
    assert hypervolume([(0.2, 0.2, 0.2), (0.5, 0.5, 0.5), (1.0, 0.0, 0.0)],
                       (1, 1, 1)) == pytest.approx(base)
    assert hypervolume([], (1, 1, 1)) == 0.0


def test_front_hypervolume_normalises_gate_axes():
    records = [{"accuracy": 0.8, "local_gates": 10, "cnot_gates": 0}]
    # point (.2, .25, 0) under reference (1, 1.1, 1.1): box .8 * .85 * 1.1
    assert front_hypervolume(records, 40, 8) == pytest.approx(0.8 * 0.85 * 1.1 / 1.21)
    # a point using every gate still counts
    full = [{"accuracy": 0.9, "local_gates": 40, "cnot_gates": 8}]
    assert front_hypervolume(full, 40, 8) == pytest.approx(0.9 * 0.1 * 0.1 / 1.21)


def test_self_time_subtracts_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert covered([(-5.0, -1.0)], 0.0, 10.0) == 0.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_percentile_interpolates_like_numpy():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([3, 1, 2], 100) == 3
    assert percentile([5], 95) == 5


def test_interquartile_mean_drops_a_quarter_from_each_end():
    assert interquartile_mean([5.0]) == 5.0
    assert interquartile_mean([1.0, 2.0, 3.0]) == 2.0
    assert interquartile_mean([4.0, 1.0, 3.0, 2.0]) == 2.5
    # one stalled round of eight does not move it
    assert interquartile_mean([1, 2, 3, 4, 5, 6, 7, 100]) == 4.5
    assert interquartile_mean([1, 2, 3, 4, 5, 6, 7, 8, 9]) == 5.0
    with pytest.raises(ValueError):
        interquartile_mean([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 11.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)
