"""The survey's and margulis's quantiles against np.median and np.percentile, bit for bit."""

import math

import numpy as np
import pytest

from opplab.projection import _median_and_p95

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# a small pool makes ties (and ties of infinities and zeros) common
TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, 5e-324, 1.7e308, -1.7e308])
VALUES = st.lists(st.one_of(st.floats(allow_nan=False), TIES), min_size=1, max_size=300)


def _assert_same(got: float, want: float, zero_sign: bool = True) -> None:
    if math.isnan(want):
        assert math.isnan(got), got
    elif want == 0.0 and not zero_sign:
        assert got == 0.0, got
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def _assert_matches_numpy(values: list[float]) -> None:
    a = np.array(values, dtype=float)
    with np.errstate(all="ignore"):  # numpy warns on inf - inf, which gives NaN for both
        want_median, want_p95 = float(np.median(a)), float(np.percentile(a, 95))
    got_median, got_p95 = _median_and_p95(a)
    _assert_same(got_median, want_median)
    # ties of 0.0 and -0.0: numpy's partition and a sort may put either sign
    # next to the percentile's index, so a zero p95 is fixed only in value
    _assert_same(got_p95, want_p95, zero_sign=False)


@settings(max_examples=400, deadline=None)
@given(VALUES, st.booleans())
@example([math.inf], False)  # numpy's lerp of inf with itself: NaN, not inf
@example([-math.inf], False)
@example([1.0, math.inf], False)
@example([-math.inf, math.inf], False)  # the median sums to NaN
@example([-0.0], False)  # numpy's mean sums from +0.0
@example([-0.0, -0.0], False)
@example([1.0], False)
def test_median_and_p95_match_numpy_bit_for_bit(values, with_nan):
    _assert_matches_numpy(values)
    if with_nan:  # a NaN anywhere makes both NaN
        _assert_matches_numpy([*values[: len(values) // 2], math.nan, *values[len(values) // 2 :]])


def test_median_and_p95_match_numpy_on_random_arrays():
    # odd and even lengths, ties from rounding to a grid, one NaN in some
    rng = np.random.default_rng(7)
    for n in range(1, 301):
        values = rng.standard_normal(n)
        if n % 3 == 0:
            values = np.round(values, 1)
        if n % 17 == 0:
            values[n // 2] = math.nan
        _assert_matches_numpy(values.tolist())
