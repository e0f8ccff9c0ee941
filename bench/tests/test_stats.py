"""`stats.fast_unit`, which turns a run's timed calls into one figure."""

import pytest

from stats import fast_unit


def test_fast_unit_is_the_fastest_call_per_unit():
    calls = [(3.0, 10, 0), (1.0, 5, 0), (4.0, 10, 0)]
    assert fast_unit(calls) == pytest.approx(0.2)


def test_fast_unit_weights_each_variant_by_its_work():
    # variant "a" is at best 0.05 s a unit, variant "b" at best 0.5
    a = [(1.0, 10, "a"), (2.0, 10, "a"), (0.5, 10, "a")]
    b = [(5.0, 10, "b"), (9.0, 10, "b")]
    assert fast_unit(a + b[:1]) == pytest.approx(0.75 * 0.05 + 0.25 * 0.5)
    assert fast_unit(a + b) == pytest.approx(0.6 * 0.05 + 0.4 * 0.5)
