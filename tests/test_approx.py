"""Tests for integral approximation of forms and the dichotomy driver."""

import math

import numpy as np
import pytest

from opplab import approx, errors
from opplab.approx import (
    ApproxResult,
    IntegralForm,
    _best_row,
    _exhaustive_search,
    _heuristic_candidates,
    _incumbent,
    _power_law_fit,
    _score,
    algebraicity_gap,
    best_rational_approx,
    dichotomy_report,
    signed_inverse_cuberoot,
)
from opplab.cli import _json_obj, main
from opplab.errors import CapacityExceeded
from opplab.forms import TernaryForm, gram_determinant, normalize

SQF2 = normalize(TernaryForm(1.0, -1.0, -math.sqrt(2.0)))
RATIONAL = normalize(TernaryForm(1.0, -1.0, -1.0))


def oracle_min_dist(q6, r):
    # plain full-box scan over every integral form with entries in [-r, r],
    # no canonical-half pruning; same scalar arithmetic as the library so
    # exact equality of the minimum is meaningful
    q6 = np.asarray(q6, dtype=float)
    ax = np.arange(-r, r + 1, dtype=np.int64)
    g = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    tail = np.stack([x.ravel() for x in g], axis=1)
    m33, m12, m13, m23 = tail[:, 0], tail[:, 1], tail[:, 2], tail[:, 3]
    best = np.inf
    for m11 in range(-r, r + 1):
        for m22 in range(-r, r + 1):
            det = (
                m11 * (m22 * m33 - m23 * m23)
                - m12 * (m12 * m33 - m23 * m13)
                + m13 * (m12 * m23 - m22 * m13)
            )
            detf = det.astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = np.sign(detf) * np.abs(detf) ** (-1.0 / 3.0)
            d = np.stack(
                [
                    np.abs(q6[0] - lam * m11),
                    np.abs(q6[1] - lam * m22),
                    np.abs(q6[2] - lam * m33),
                    np.abs(q6[3] - lam * m12),
                    np.abs(q6[4] - lam * m13),
                    np.abs(q6[5] - lam * m23),
                ]
            ).max(axis=0)
            d[det == 0] = np.inf
            m = float(d.min())
            if m < best:
                best = m
    return best


def full_box_minimizer(q6, r):
    # the canonical full-box scan the certified search replaced: every
    # (m11, m22) chunk of the canonical half scores all (2r+1)^4 tails with
    # _best_row, and the chunk minima are reduced in (dist, entries) order
    q6 = np.asarray(q6, dtype=float)
    ax = np.arange(-r, r + 1, dtype=np.int64)
    g = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    tail = np.stack([x.ravel() for x in g], axis=1)
    best = None
    for m11 in range(0, r + 1):
        for m22 in range(-r if m11 > 0 else 0, r + 1):
            head = np.broadcast_to(np.array([m11, m22], dtype=np.int64), (len(tail), 2))
            res = _best_row(q6, np.hstack([head, tail]))
            if res is None:
                continue
            if best is None or res[0] < best[0] or (res[0] == best[0] and res[1] < best[1]):
                best = res
    return IntegralForm(*best[1])


def rand_normalized(rng):
    while True:
        f = TernaryForm(*rng.normal(size=6))
        try:
            if f.is_indefinite():
                return normalize(f)
        except Exception:
            continue


def test_signed_inverse_cuberoot():
    assert signed_inverse_cuberoot(8) == 0.5
    assert signed_inverse_cuberoot(-8) == -0.5
    assert signed_inverse_cuberoot(1) == 1.0
    assert signed_inverse_cuberoot(-1) == -1.0
    assert signed_inverse_cuberoot(27.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_integral_form_exact_determinant():
    f = IntegralForm(1, -1, -1)
    assert f.determinant() == 1
    assert isinstance(f.determinant(), int)
    g = IntegralForm(1000000, -999999, 999998, 7, -13, 41)
    m11, m22, m33, m12, m13, m23 = 1000000, -999999, 999998, 7, -13, 41
    by_cofactors = (
        m11 * (m22 * m33 - m23 * m23)
        - m12 * (m12 * m33 - m23 * m13)
        + m13 * (m12 * m23 - m22 * m13)
    )
    assert g.determinant() == by_cofactors
    # too large for float64 determinants to certify, hence the exact path
    m11, m22, m33, m12, m13, m23 = g.entries
    gram = np.array([[m11, m12, m13], [m12, m22, m23], [m13, m23, m33]], dtype=float)
    assert g.determinant() != round(float(np.linalg.det(gram)))
    assert g.sup_norm() == 1000000


def test_exact_integral_form_is_its_own_approximation():
    res = best_rational_approx(RATIONAL, 1.0)
    assert res.qprime.entries == (1, -1, -1, 0, 0, 0)
    assert res.lam == 1.0
    assert res.dist == 0.0
    assert res.certified


def test_perturbed_form_snaps_to_nearby_integral():
    q = normalize(TernaryForm(1.0, -1.0, -(1.0 + 1e-6)))
    res = best_rational_approx(q, 2.0)
    assert res.qprime.entries == (1, -1, -1, 0, 0, 0)
    assert res.dist <= 1e-5
    assert res.lam == pytest.approx(1.0, rel=1e-5)


def test_irrational_form_stays_far_from_small_integrals():
    res = best_rational_approx(SQF2, 10.0)
    assert res.certified
    assert res.dist >= 1e-3


def test_exhaustive_equals_full_box_oracle():
    rng = np.random.default_rng(41)
    for _ in range(4):
        q = rand_normalized(rng)
        res = best_rational_approx(q, 3.0)
        assert res.dist == oracle_min_dist(q.form.entries, 3)


def test_certified_search_never_scores_above_its_incumbent():
    # the search needs no empty-result branch: (1,-1,-1,0,0,0) is in every
    # entry box and in _incumbent's pool, so the bound covers the optimum and
    # the minimizer's box is searched; r cycles through 1..12
    rng = np.random.default_rng(30)
    for i in range(200):
        q6 = np.array(rand_normalized(rng).form.entries)
        r = 1 + i % 12
        bound = _incumbent(q6, r)
        assert bound <= _score(q6, (1, -1, -1, 0, 0, 0))[0]
        dist, entries, _ = _exhaustive_search(q6, r)
        assert dist <= bound
        assert max(abs(x) for x in entries) <= r


def test_certified_search_returns_full_box_minimizer():
    rng = np.random.default_rng(44)
    cases = [(SQF2, r) for r in range(1, 9)]
    cases += [(rand_normalized(rng), 3 + k % 4) for k in range(20)]
    # (1,-1,-1) and (2,-2,-2) tie at dist 0; the least canonical one wins
    cases.append((RATIONAL, 2))
    near = normalize(TernaryForm(1.0, -1.0, -(1.0 + 1e-6)))
    near_offdiag = normalize(TernaryForm(2.0, -1.0, 3.0 + 1e-6, 1.0, -1e-6, -1.0))
    cases += [(near, 3), (near_offdiag, 3)]
    for q, r in cases:
        res = best_rational_approx(q, float(r))
        assert res.qprime == full_box_minimizer(q.form.entries, r), (q.form.entries, r)
    assert _score(RATIONAL.form.entries, (2, -2, -2, 0, 0, 0)) == (0.0, 0.5)
    assert best_rational_approx(RATIONAL, 2.0).qprime.entries == (1, -1, -1, 0, 0, 0)
    assert best_rational_approx(near_offdiag, 3.0).qprime.entries == (2, -1, 3, 1, 0, -1)


def test_certified_search_tiles_match_one_tile(monkeypatch):
    rng = np.random.default_rng(45)
    forms = [rand_normalized(rng) for _ in range(3)] + [SQF2]
    whole = [best_rational_approx(q, 4.0).qprime for q in forms]
    # 48 rows keep every multiple of the incumbent (k <= 4) and split most
    # boxes of these forms (up to 108 points) into two or three tiles
    monkeypatch.setattr(approx, "_TILE_ROWS", 48)
    assert [best_rational_approx(q, 4.0).qprime for q in forms] == whole


def test_certified_search_stops_at_the_ceiling(monkeypatch, capsys):
    monkeypatch.setattr(errors, "DEFAULT_CEILING", 10)

    def no_tiles(ranges):
        raise AssertionError("a tile was built past the ceiling")

    monkeypatch.setattr(approx, "_box_tiles", no_tiles)
    with pytest.raises(CapacityExceeded, match="candidates"):
        best_rational_approx(SQF2, 12.0)
    assert main(["rational", "--form", "[1,-1,-1.4142135623730951]", "--R", "12"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_certified_search_charges_its_walk_before_walking(monkeypatch, capsys):
    def no_walk(q6, r, d):
        raise AssertionError("the search walked past the ceiling")

    monkeypatch.setattr(approx, "_search_boxes", no_walk)
    with pytest.raises(CapacityExceeded, match="candidates of the certified search"):
        best_rational_approx(SQF2, 1e7, exhaustive_limit=10**7)
    argv = ["rational", "--form", "[1,-1,-1.4142135623730951]", "--R", "10000000", "--exhaustive-limit", "10000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_dist_invariant_under_qprime_negation():
    rng = np.random.default_rng(42)

    for _ in range(50):
        q6 = rng.normal(size=6)
        ints = [int(x) for x in rng.integers(-5, 6, size=6)]
        f = IntegralForm(*ints)
        if f.determinant() == 0:
            continue
        dist, lam = _score(q6, ints)
        assert _score(q6, [-x for x in ints]) == (dist, -lam)


def test_best_row_breaks_a_near_tie_by_the_scalar_score():
    # A (det -251) and B (det -270) score the same under _score; numpy's
    # vectorized pow rounds one lam an ulp away on some CPUs (AVX512), which
    # made B win there though A is the lexicographically least
    a, b = (9, 9, 10, -10, 2, -5), (9, 9, 11, -10, 2, -5)
    q6 = np.array([float.fromhex(h) for h in (
        "-0x1.6d4037a627a94p+0", "-0x1.6d4037a627a94p+0", "-0x1.a4c32af6de6f7p+0",
        "0x1.95d5932a64f4fp+0", "-0x1.44aadc21ea5d9p-2", "0x1.95d5932a64f4fp-1",
    )])
    dist, lam = _score(q6, a)
    assert dist == _score(q6, b)[0] == 0.058312880917108956
    for rows in ([a, b], [b, a]):
        assert _best_row(q6, np.array(rows)) == (dist, a, lam)
        assert _best_row(q6, np.array(rows, dtype=object)) == (dist, a, lam)


def test_dist_nonincreasing_in_bound():
    rng = np.random.default_rng(43)
    q = rand_normalized(rng)
    dists = [best_rational_approx(q, R).dist for R in (1.0, 2.0, 3.0, 4.0)]
    assert all(b <= a for a, b in zip(dists, dists[1:]))


def test_heuristic_path_flagged_and_bounded():
    res = best_rational_approx(SQF2, 40.0, exhaustive_limit=3)
    assert not res.certified
    # the pool always contains the unit determinant diagonal fallback
    assert res.dist <= best_rational_approx(SQF2, 1.0).dist + 1e-15
    assert res.qprime.determinant() != 0
    assert res.qprime.sup_norm() <= 40


def test_heuristic_representative_is_canonical_for_negative_m11():
    rng = np.random.default_rng(44)
    forms = [q for q in (rand_normalized(rng) for _ in range(60)) if q.form.m11 < 0][:20]
    assert len(forms) == 20
    for q in forms:
        for R in (16.0, 64.0):
            res = best_rational_approx(q, R)
            assert not res.certified
            assert next(x for x in res.qprime.entries if x) > 0, (q.form, R, res.qprime)


def test_both_paths_choose_and_print_by_the_scalar_score():
    # the heuristic result is the least (dist, entries) by _score over its
    # whole pool, and on both paths dist and lam are _score of the printed row
    rng = np.random.default_rng(47)
    for q in [SQF2] + [rand_normalized(rng) for _ in range(12)]:
        q6 = np.asarray(q.form.entries, dtype=float)
        for R in (2.0, 4.0, 16.0, 100.0, 1000.0):
            res = best_rational_approx(q, R)
            assert (res.dist, res.lam) == _score(q6, res.qprime.entries), (q.form, R)
            if res.certified:
                continue
            pool = _heuristic_candidates(q6, int(R))
            assert pool.dtype == object
            rows = [tuple(row) for row in pool.tolist() if gram_determinant(*row) != 0]
            assert all(next(x for x in row if x) > 0 for row in rows)
            assert (res.dist, res.qprime.entries) == min((_score(q6, row)[0], row) for row in rows)


def test_dist_is_a_python_float_on_both_paths():
    q = normalize(TernaryForm(10.0, -1.0, -0.1))
    certified = best_rational_approx(q, 4.0)
    heuristic = best_rational_approx(q, 8.0, exhaustive_limit=1)
    assert (certified.certified, heuristic.certified) == (True, False)
    for res in (certified, heuristic):
        assert type(res.dist) is float and type(res.lam) is float, res


def test_best_rational_approx_validation():
    with pytest.raises(ValueError):
        best_rational_approx(SQF2, 0.5)
    with pytest.raises(ValueError, match="R must be"):
        best_rational_approx(SQF2, math.nan)
    with pytest.raises(ValueError, match="R must be"):
        best_rational_approx(SQF2, math.inf)


def test_approx_result_json():
    res = best_rational_approx(RATIONAL, 2.0)
    obj = _json_obj(res)
    assert obj["dist"] == 0.0
    assert obj["certified"] is True
    assert obj["qprime"]["m11"] == 1
    assert isinstance(res, ApproxResult)


def test_dichotomy_rational_branch():
    out = dichotomy_report(RATIONAL, 2.0, 16.0)
    assert out.branch == "rational_approx"
    assert out.approx.dist <= 1e-12
    assert out.witness is None
    assert out.table is None
    assert out.thresholds["R"] == 2.0
    assert out.thresholds["T"] == 16.0
    obj = _json_obj(out)
    assert obj["branch"] == "rational_approx"
    assert obj["witness_summary"] is None


def test_dichotomy_small_values_branch():
    out = dichotomy_report(SQF2, 2.0, 1e8)
    assert out.branch == "small_values"
    assert out.approx.dist > out.thresholds["approx_threshold"]
    assert out.witness.fraction == 1.0
    assert out.witness.targets == len(out.table.targets)
    assert out.witness.witnessed == out.table.witnessed
    # threshold bookkeeping reproduces the decision
    assert out.thresholds["approx_threshold"] == pytest.approx(
        2.0**4 * math.log(1e8) ** 4 / 1e8, rel=1e-12
    )


def test_dichotomy_deterministic():
    a = dichotomy_report(SQF2, 2.0, 1e8)
    b = dichotomy_report(SQF2, 2.0, 1e8)
    assert a.branch == b.branch
    assert a.approx.dist == b.approx.dist
    assert [r.v for r in a.table.records] == [r.v for r in b.table.records]


def test_dichotomy_eps_override_lowers_coverage():
    out = dichotomy_report(SQF2, 1.0, 100.0, eps=1e-9, a_exp=0.0)
    assert out.branch == "small_values"
    assert out.thresholds["eps"] == 1e-9
    # only the exactly represented target 0 survives such a tolerance
    assert out.witness.witnessed == 1
    assert out.witness.fraction < 0.1


def test_dichotomy_degenerate_grid_single_target():
    out = dichotomy_report(SQF2, 2.0, 100.0, a_exp=0.0, k_exp=-6.0)
    assert out.branch == "small_values"
    assert out.table.targets == [0.0]
    assert out.witness.targets == 1


def test_dichotomy_requires_meaningful_threshold():
    with pytest.raises(ValueError):
        dichotomy_report(SQF2, 10.0, 100.0)  # T < R**4
    with pytest.raises(ValueError):
        dichotomy_report(SQF2, 0.5, 100.0)


@pytest.mark.parametrize("grid_step", [0.0, -1.0, math.inf, math.nan])
def test_dichotomy_grid_step_is_checked_before_the_search(grid_step, monkeypatch):
    # the rational branch never builds the grid, so a bad step used to be
    # echoed in the thresholds instead of refused
    def no_search(*args, **kwargs):
        raise AssertionError("the approximation search ran")

    monkeypatch.setattr(approx, "best_rational_approx", no_search)
    with pytest.raises(ValueError, match="grid_step must be positive and finite"):
        dichotomy_report(SQF2, 2.0, 20.0, grid_step=grid_step)


def test_dichotomy_accepts_raw_form():
    out = dichotomy_report(TernaryForm(1.0, -1.0, -1.0), 2.0, 16.0)
    assert out.branch == "rational_approx"


def test_algebraicity_gap_rational_all_zero():
    res = algebraicity_gap(RATIONAL, [1.0, 2.0, 3.0])
    assert [row.dist for row in res.rows] == [0.0, 0.0, 0.0]
    assert res.fit_exponent is None


def test_algebraicity_gap_irrational_profile():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    q = normalize(TernaryForm(1.0, -1.0, -phi))
    res = algebraicity_gap(q, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    dists = [row.dist for row in res.rows]
    assert all(d > 0 for d in dists)
    assert all(b <= a for a, b in zip(dists, dists[1:]))
    assert res.fit_exponent is not None
    assert res.fit_exponent > 0
    assert res.fit_coefficient > 0


def test_algebraicity_gap_single_entry_matches_direct():
    res = algebraicity_gap(SQF2, [5.0])
    direct = best_rational_approx(SQF2, 5.0)
    assert res.rows[0].dist == direct.dist
    assert res.rows[0].qprime == direct.qprime


def test_algebraicity_gap_carry_forward_with_heuristic_tail():
    res = algebraicity_gap(SQF2, [1.0, 2.0, 8.0], exhaustive_limit=2)
    dists = [row.dist for row in res.rows]
    assert all(b <= a for a, b in zip(dists, dists[1:]))
    assert res.rows[0].certified and res.rows[1].certified


def test_power_law_fit_closed_form():
    rng = np.random.default_rng(46)
    for _ in range(20):
        xs = np.sort(rng.uniform(1.0, 50.0, size=rng.integers(2, 8)))
        ys = rng.uniform(1e-6, 1.0, size=len(xs))
        slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        c, e = _power_law_fit(list(xs), list(ys))
        assert c == pytest.approx(math.exp(intercept), rel=1e-12)
        assert e == pytest.approx(-slope, rel=1e-12)
    # dist = c R^-E at powers of two: the base-2 logarithms are exact
    rs = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert _power_law_fit(rs, [0.5 * R**-2.0 for R in rs]) == (0.5, 2.0)
    assert _power_law_fit(rs, [8.0 * R**-0.75 for R in rs]) == (8.0, 0.75)


def test_algebraicity_gap_validation():
    with pytest.raises(ValueError):
        algebraicity_gap(SQF2, [])
    with pytest.raises(ValueError):
        algebraicity_gap(SQF2, [2.0, 2.0])
    with pytest.raises(ValueError):
        algebraicity_gap(SQF2, [3.0, 1.0])
