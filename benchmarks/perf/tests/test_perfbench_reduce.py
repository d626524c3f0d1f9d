"""Reducers on hand-made samples."""

import pathlib
import statistics
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench import reduce  # noqa: E402


def test_wall_is_the_sum_of_per_unit_minima_not_the_best_pass():
    # pass 0 was disturbed during unit b, pass 1 during unit a: neither
    # pass is clean, yet every unit has one clean sample; unit c was
    # singled out for a third sample
    samples = [[1.0, 7.0], [9.0, 2.0], [3.0, 3.5, 2.9]]
    assert reduce.sum_of_unit_minima(samples) == 1.0 + 2.0 + 2.9
    assert min(1.0 + 9.0 + 3.0, 7.0 + 2.0 + 3.5) == 12.5   # a pass-min


def test_unit_minima_reject_a_unit_without_samples():
    with pytest.raises(ValueError):
        reduce.sum_of_unit_minima([])
    with pytest.raises(ValueError):
        reduce.sum_of_unit_minima([[1.0, 2.0], []])


def test_a_minimum_is_confirmed_when_seen_twice():
    assert not reduce.confirmed([1.0], 0.02)
    assert not reduce.confirmed([1.0, 1.3, 1.5], 0.02)     # one clean sample
    assert reduce.confirmed([1.3, 1.0, 1.5, 1.015], 0.02)  # seen again
    assert not reduce.confirmed([1.0, 1.021], 0.02)


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert reduce.percentile(values, 50) == 5
    assert reduce.percentile(values, 90) == 9
    assert reduce.percentile(values, 100) == 10
    assert reduce.percentile([42.0], 90) == 42.0
    with pytest.raises(ValueError):
        reduce.percentile([], 50)


def test_quartile_spread_matches_the_drivers_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert reduce.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_digest_ignores_wall_fields_and_key_order():
    a = [{"app": "ring", "c3_seconds": 0.5, "wall_seconds": 1.25}]
    b = [{"wall_seconds": 99.0, "c3_seconds": 0.5, "app": "ring"}]
    assert reduce.digest(a) == reduce.digest(b)
    assert reduce.digest(a) != reduce.digest(
        [{"app": "ring", "c3_seconds": 0.5000001}])


def test_first_difference_names_the_field():
    pinned = reduce.canonical([[{"app": "CG", "restarts": 1, "t": [1, 2]}]])
    moved = reduce.canonical([[{"app": "CG", "restarts": 2, "t": [1, 2]}]])
    assert reduce.first_difference(pinned, pinned) is None
    assert reduce.first_difference(pinned, moved).startswith(
        "[0][0].restarts: expected 1, got 2")
