"""Fuzz test of the command line: every subcommand exits 0 or 1, never crashes."""

import contextlib
import io
import json
import warnings

import pytest

from opplab import errors

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from opplab.cli import main  # noqa: E402

SQF2 = "[1,-1,-1.4142135623730951]"
NONFINITE = st.sampled_from(["nan", "inf", "-inf"])
FORMATS = st.sampled_from(["csv", "json"])
GRAM_KEYS = ("m11", "m22", "m33", "m12", "m13", "m23")


def _num(lo, hi):
    """A float option value: mostly a small finite number, one time in ten non-finite."""
    finite = st.floats(lo, hi).map(repr)
    return st.integers(0, 9).flatmap(lambda k: NONFINITE if k == 0 else finite)


def _num_list(lo, hi):
    values = st.lists(_num(lo, hi), min_size=1, max_size=3, unique=True)
    return values.map(lambda v: ",".join(sorted(v, key=float)))


FUZZ_FORMS = st.one_of(
    st.sampled_from([SQF2, "[1,-1,-1]", "[1,1,1]", "[1,-1,0]", "[NaN,-1,-1]", "[1,-1,Infinity]"]),
    st.lists(st.floats(-3, 3), min_size=6, max_size=6).map(lambda v: json.dumps(dict(zip(GRAM_KEYS, v)))),
)


def _argv(command, *pairs):
    # --flag=value, so that values such as -inf or -1e-05 are not read as flags;
    # every subcommand is fuzzed in both output formats
    pairs = (*pairs, ("--format", FORMATS))
    return st.tuples(*(value.map(lambda v, f=flag: f"{f}={v}") for flag, value in pairs)).map(
        lambda opts: [command, *opts]
    )


FUZZ_ARGV = st.one_of(
    _argv(
        "witness", ("--form", FUZZ_FORMS), ("--s-min", _num(-2, 0)), ("--s-max", _num(0, 2)),
        ("--grid", _num(0.25, 1)), ("--eps", _num(0.01, 0.5)), ("--T", _num(1, 15)),
    ),
    _argv(
        "count", ("--form", FUZZ_FORMS), ("--a", _num(-2, 0)), ("--b", _num(0, 2)),
        ("--T", _num_list(1, 10)), ("--delta", _num(0.01, 0.1)),
        ("--samples", st.integers(10_000, 20_000).map(str)),
    ),
    _argv(
        "cq", ("--form", FUZZ_FORMS), ("--delta", _num(0.01, 0.1)),
        ("--samples", st.integers(10_000, 20_000).map(str)),
    ),
    _argv(
        "rational", ("--form", FUZZ_FORMS), ("--R", _num_list(1, 6)),
        ("--exhaustive-limit", st.integers(0, 6).map(str)),
    ),
    _argv(
        "dichotomy", ("--form", FUZZ_FORMS), ("--R", _num(1, 3)), ("--T", _num(1, 200)),
        ("--eps", _num(0.01, 0.5)), ("--coverage-floor", st.just("0")),
    ),
    _argv(
        "equidist", ("--form", FUZZ_FORMS), ("--T", _num_list(1.5, 5)),
        ("--N", st.integers(10, 16).map(str)), ("--f-radius", _num(0.5, 2)),
    ),
    _argv(
        "projection", ("--random-theta", st.integers(1, 20).map(str)),
        ("--ball-radius", _num(0.1, 1)), ("--alpha", _num(0.5, 2.5)), ("--b", _num(0.01, 0.5)),
        ("--C", _num(1, 20)), ("--c", _num(0, 20)), ("--r-count", st.integers(0, 5).map(str)),
    ),
    _argv(
        "margulis", ("--random-theta", st.integers(1, 10).map(str)),
        ("--ball-radius", _num(0.01, 1)), ("--alpha", _num(0.5, 2)), ("--ell", _num(0, 2)),
        ("--b", _num(0.01, 0.1)), ("--M", st.integers(0, 2).map(str)),
        ("--r-samples", st.integers(1, 2).map(str)),
    ),
)


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(FUZZ_ARGV)
def test_cli_fuzz_exits_0_or_1(argv):
    # --coverage-floor 0 keeps dichotomy off its documented exit 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1), argv
    if rc == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    elif "--format=json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_nonfinite)


#: a count option's value, anywhere from 0 to 10^12
COUNT = st.integers(0, 10**12).map(str)

#: a witness grid step from 1 down to 1e-300
GRID = st.floats(-300.0, 0.0).map(lambda e: repr(10.0**e))

FUZZ_COUNT_ARGV = st.one_of(
    _argv("projection", ("--random-theta", st.integers(1, 20).map(str)), ("--r-count", COUNT)),
    _argv(
        "margulis", ("--random-theta", st.integers(1, 10).map(str)), ("--ball-radius", st.just("0.05")),
        ("--r-samples", COUNT),
    ),
    _argv("equidist", ("--form", st.just(SQF2)), ("--T", st.just("2")), ("--N", COUNT)),
    _argv(
        "count", ("--form", st.just(SQF2)), ("--a", st.just("-1")), ("--b", st.just("1")),
        ("--T", st.just("5")), ("--samples", COUNT),
    ),
    _argv("cq", ("--form", st.just(SQF2)), ("--samples", COUNT)),
    # witness targets: the grid step and the span (out to +-1e300) set their count
    _argv(
        "witness", ("--form", st.just(SQF2)), ("--s-min", st.floats(-1e300, 0.0).map(repr)),
        ("--s-max", st.floats(0.0, 1e300).map(repr)), ("--grid", GRID), ("--T", st.just("5")),
    ),
    _argv(
        "dichotomy", ("--form", st.just(SQF2)), ("--R", st.sampled_from(["3", "4"])),
        ("--T", st.just("1e9")), ("--grid", GRID), ("--coverage-floor", st.just("0")),
    ),
)


@settings(max_examples=100, deadline=3000, derandomize=True, database=None)
@given(FUZZ_COUNT_ARGV)
def test_cli_fuzz_counts_are_charged_before_the_work(argv):
    # every count is charged to the work ceiling before the loop it counts,
    # so a run either fits the ceiling or exits 1 at once.  The ceiling is
    # lowered to 10^6 units here, so that what fits also runs within the
    # deadline (under the real ceiling that is tens of seconds of work)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "DEFAULT_CEILING", 10**6)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1), argv
    if rc == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


#: a float option's value, log-uniform in magnitude from 1e-300 to 1e300, either sign
WIDE = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(
    lambda t: repr(t[0] * 10.0 ** t[1])
)
WIDE_LIST = st.lists(WIDE, min_size=1, max_size=3).map(",".join)

FUZZ_WIDE_ARGV = st.one_of(
    _argv(
        "witness", ("--form", st.just(SQF2)), ("--s-min", WIDE), ("--s-max", WIDE), ("--grid", WIDE),
        ("--eps", WIDE), ("--T", WIDE),
    ),
    _argv(
        "count", ("--form", st.just(SQF2)), ("--a", WIDE), ("--b", WIDE), ("--T", WIDE_LIST),
        ("--delta", WIDE), ("--samples", st.just("10000")),
    ),
    _argv("cq", ("--form", st.just(SQF2)), ("--delta", WIDE), ("--samples", st.just("10000"))),
    _argv(
        "rational", ("--form", st.just(SQF2)), ("--R", WIDE_LIST),
        ("--exhaustive-limit", st.integers(0, 6).map(str)),
    ),
    _argv(
        "dichotomy", ("--form", st.just(SQF2)), ("--R", WIDE), ("--T", WIDE), ("--eps", WIDE),
        ("--grid", WIDE), ("--a-exp", WIDE), ("--k-exp", WIDE), ("--coverage-floor", WIDE),
    ),
    _argv(
        "equidist", ("--form", st.just(SQF2)), ("--T", WIDE_LIST), ("--N", st.just("10")),
        ("--f-radius", WIDE),
    ),
    _argv(
        "projection", ("--random-theta", st.integers(1, 20).map(str)), ("--ball-radius", WIDE),
        ("--alpha", WIDE), ("--b", WIDE), ("--b1", WIDE), ("--pvare", WIDE), ("--C", WIDE),
        ("--c", WIDE), ("--r-grid", WIDE_LIST),
    ),
    _argv(
        "margulis", ("--random-theta", st.integers(1, 10).map(str)), ("--ball-radius", WIDE),
        ("--alpha", WIDE), ("--ell", WIDE), ("--b", WIDE), ("--r-samples", st.just("2")),
    ),
)


@settings(max_examples=600, deadline=3000, derandomize=True, database=None)
@given(FUZZ_WIDE_ARGV)
def test_cli_fuzz_float_options_over_the_double_range(argv):
    # every float option from 1e-300 to 1e300 in magnitude, either sign:
    # a value out of a command's domain, or one whose work or result leaves
    # float64, exits 1 with a message, at once, under the 10^6 ceiling of
    # the test above.  dichotomy's exit 2 is its documented coverage verdict
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a numpy overflow warning would print on stderr
        mp.setattr(errors, "DEFAULT_CEILING", 10**6)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert rc in ((0, 1, 2) if argv[0] == "dichotomy" else (0, 1)), argv
    if rc == 1:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
        if "--format=json" in argv:
            json.loads(out.getvalue(), parse_constant=_reject_nonfinite)


def _reject_nonfinite(name):
    """RFC 8259 JSON has no NaN or Infinity; Python's parser accepts them unless told not to."""
    raise AssertionError(f"non-finite JSON value {name}")
