"""Tests for the diagonal/unipotent flows, basepoints, and Siegel averages."""

import math
import tracemalloc

import numpy as np
import pytest
import sympy

from opplab import flows, lattice
from opplab.cli import EQUIDIST_CSV_HEADER, _columns, _json_obj
from opplab.errors import SignatureMismatch
from opplab.flows import (
    Basepoint,
    EquidistReport,
    GroupElement,
    LatticePoint,
    act,
    bump_mass,
    bump_values,
    discrepancy_scan,
    flow_a,
    flow_u,
    form_to_basepoint,
    siegel_average,
    v_elem,
)
from opplab.forms import REFERENCE_FORM, TernaryForm, normalize
from opplab.lattice import shortest_vector_coeffs

SQF2 = normalize(TernaryForm(1.0, -1.0, -math.sqrt(2.0)))


def test_flows_at_zero_are_identity():
    eye = np.eye(3)
    assert np.array_equal(flow_a(0.0).mat, eye)
    assert np.array_equal(flow_u(0.0).mat, eye)
    assert np.array_equal(v_elem(0.0, 0.0).mat, eye)


def test_u_is_a_one_parameter_group():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r1, r2 = rng.normal(size=2)
        lhs = (flow_u(r1) @ flow_u(r2)).mat
        assert np.allclose(lhs, flow_u(r1 + r2).mat, atol=1e-12)


def test_a_conjugation_scales_u():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t, r = rng.normal(size=2)
        lhs = (flow_a(t) @ flow_u(r) @ flow_a(-t)).mat
        rhs = flow_u(math.exp(t) * r).mat
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_a_conjugation_scales_v_with_two_rates():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t, s, z = rng.normal(size=3)
        lhs = (flow_a(t) @ v_elem(s, z) @ flow_a(-t)).mat
        rhs = v_elem(math.exp(t) * s, math.exp(2.0 * t) * z).mat
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_conjugation_identities_symbolically():
    t, r, s, z = sympy.symbols("t r s z", real=True)
    e = sympy.exp
    a = sympy.diag(e(t), 1, e(-t))
    a_inv = sympy.diag(e(-t), 1, e(t))
    u = sympy.Matrix([[1, r, r**2 / 2], [0, 1, r], [0, 0, 1]])
    u_scaled = u.subs(r, e(t) * r)
    assert sympy.simplify(a * u * a_inv - u_scaled) == sympy.zeros(3)
    v = sympy.Matrix([[1, -s, z], [0, 1, s], [0, 0, 1]])
    v_scaled = v.subs([(s, e(t) * s), (z, e(2 * t) * z)], simultaneous=True)
    assert sympy.simplify(a * v * a_inv - v_scaled) == sympy.zeros(3)


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        GroupElement(np.eye(2))
    g = GroupElement.identity()
    assert np.array_equal(g.mat, np.eye(3))


def test_group_element_inverse_and_product():
    g = flow_a(0.4) @ flow_u(-1.3) @ v_elem(0.2, 0.9)
    assert isinstance(g, GroupElement)
    prod = (g @ GroupElement(np.linalg.inv(g.mat))).mat
    assert np.allclose(prod, np.eye(3), atol=1e-12)


def test_act_identity_and_associativity():
    x = LatticePoint.standard()
    assert np.array_equal(act(GroupElement.identity(), x).basis, x.basis)
    g, h = flow_a(0.7), flow_u(0.3)
    left = act(g, act(h, x)).basis
    right = act(g @ h, x).basis
    assert np.allclose(left, right, atol=1e-14)


def test_lattice_point_validation():
    with pytest.raises(ValueError):
        LatticePoint(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        LatticePoint(np.eye(4))


def test_det_check_matches_numpy_det_and_rejects_nan():
    # non-finite entries give a NaN determinant, which must not pass
    for bad in (np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 0.0])):
        with pytest.raises(ValueError, match="determinant"):
            GroupElement(bad)
        with pytest.raises(ValueError, match="determinant"):
            LatticePoint(bad)
    rng = np.random.default_rng(30)
    for _ in range(200):
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-3, 4)
        assert flows._det3(m) == pytest.approx(np.linalg.det(m), rel=1e-9, abs=1e-300)
    g = flow_a(1.3) @ flow_u(-0.7) @ v_elem(0.4, 2.0)
    assert abs(flows._det3(g.mat) - 1.0) <= flows._DET_TOL


def test_lattice_equality_mod_integral_basis_change():
    x = LatticePoint.standard()
    gamma = GroupElement(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert act(gamma, x) == x
    # a non-integral shift leaves the coset
    assert act(flow_u(0.5), x) != x
    # equality is a property of the lattice, not the basis matrix: a
    # right integral unimodular basis change fixes the lattice
    y = LatticePoint(flow_a(0.2).mat @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert y == act(flow_a(0.2), x)
    assert not np.allclose(y.basis, flow_a(0.2).mat)


def test_shortest_vector_standard_lattice():
    coeffs, length = shortest_vector_coeffs(LatticePoint.standard().basis)
    assert tuple(coeffs) == (0, 0, 1)
    assert length == 1.0


def test_shortest_vector_contracting_direction():
    x = act(flow_a(1.0), LatticePoint.standard())
    coeffs, length = shortest_vector_coeffs(x.basis)
    assert tuple(coeffs) == (0, 0, 1)
    assert length == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_shortest_vector_brute_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        b /= np.cbrt(np.linalg.det(b))
        x = LatticePoint(b)
        coeffs, length = shortest_vector_coeffs(x.basis)
        ax = np.arange(-4, 5)
        grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[np.any(grid != 0, axis=1)]
        brute = float(np.min(np.linalg.norm(grid @ b.T, axis=1)))
        assert length == pytest.approx(brute, rel=1e-12)
        assert np.linalg.norm(b @ np.array(coeffs, dtype=float)) == pytest.approx(
            length, rel=1e-12
        )


def test_shortest_vector_rotation_invariant():
    rng = np.random.default_rng(4)
    b = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    b /= np.cbrt(np.linalg.det(b))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    _, len0 = shortest_vector_coeffs(LatticePoint(b).basis)
    _, len1 = shortest_vector_coeffs(LatticePoint(q @ b).basis)
    assert len1 == pytest.approx(len0, rel=1e-9)


def test_reference_form_basepoint_is_identity():
    base = form_to_basepoint(REFERENCE_FORM)
    assert isinstance(base, Basepoint)
    assert base.sign == 1.0
    assert float(np.max(np.abs(base.g.mat - np.eye(3)))) <= 1e-12
    assert base.residual <= 1e-12
    assert base.x0 == LatticePoint.standard()


def test_basepoint_factorization_residual_random_forms():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 6:
        f = TernaryForm(*rng.normal(size=6))
        try:
            nq = normalize(f)
        except Exception:
            continue
        checked += 1
        # normalize always lands on det +1, the eps = -1 side
        assert nq.form.determinant() == pytest.approx(1.0, abs=1e-9)
        base = form_to_basepoint(nq)
        assert base.residual <= 1e-9
        assert base.sign == -1.0
        # entrywise negation flips the determinant into the reference class
        neg = TernaryForm(*(-e for e in nq.form.entries))
        nbase = form_to_basepoint(neg)
        assert nbase.sign == 1.0
        assert nbase.residual <= 1e-9
        # g is special: determinant one on the nose after polishing
        assert np.linalg.det(base.g.mat) == pytest.approx(1.0, abs=1e-10)
        # the factorization reconstructs the form pointwise
        dirs = rng.normal(size=(200, 3))
        lhs = nq.form.evaluate(dirs)
        rhs = base.sign * REFERENCE_FORM.evaluate(dirs @ base.g.mat.T)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(lhs)))


def test_basepoint_of_group_translate():
    h = (flow_a(0.3) @ flow_u(0.7)).mat
    gram = h.T @ np.array(REFERENCE_FORM.matrix) @ h
    q = TernaryForm.from_matrix(gram)
    base = form_to_basepoint(q)
    assert base.sign == 1.0
    rng = np.random.default_rng(6)
    dirs = rng.normal(size=(200, 3))
    via_h = REFERENCE_FORM.evaluate(dirs @ h.T)
    via_g = REFERENCE_FORM.evaluate(dirs @ base.g.mat.T)
    assert np.max(np.abs(via_h - via_g)) <= 1e-8


def test_basepoint_rejects_definite_and_unnormalized():
    with pytest.raises(SignatureMismatch):
        form_to_basepoint(TernaryForm(1.0, 1.0, 1.0))
    with pytest.raises(SignatureMismatch):
        form_to_basepoint(TernaryForm(2.0, -1.0, -1.0))
    with pytest.raises(TypeError):
        form_to_basepoint([1.0, -1.0, -1.0])
    with pytest.raises(TypeError):
        discrepancy_scan([1.0, -1.0, -1.0], [2.0], 10, 1.0)


def test_bump_values_shape():
    vals = bump_values(np.array([0.0, 0.5, 0.999, 1.0, 2.0]), 1.0)
    assert vals[0] == 1.0
    assert 0.0 < vals[1] < 1.0
    assert vals[3] == 0.0 and vals[4] == 0.0
    # radial decrease
    grid = np.linspace(0.0, 1.0, 200)
    v = bump_values(grid, 1.0)
    assert np.all(np.diff(v) <= 1e-12)
    # radius only rescales the argument
    assert bump_values(np.array([1.0]), 2.0)[0] == bump_values(np.array([0.5]), 1.0)[0]


def test_bump_mass_frozen_and_scaling():
    assert bump_mass(2.0) == 9.592031256153767
    assert bump_mass(2.0) / bump_mass(1.0) == 8.0
    from scipy.integrate import quad

    ref, err = quad(lambda t: math.exp(1.0 - 1.0 / (1.0 - t * t)) * t * t, 0.0, 1.0)
    assert bump_mass(2.0) == pytest.approx(4.0 * math.pi * 8.0 * ref, rel=1e-13)
    assert err < 1e-8


def test_siegel_average_validation():
    x = LatticePoint.standard()
    with pytest.raises(ValueError):
        siegel_average(1.5, x, 1.0, 100)
    with pytest.raises(ValueError):
        siegel_average(1.5, x, 10.0, 9)
    with pytest.raises(ValueError):
        siegel_average(0.0, x, 10.0, 100)
    with pytest.raises(ValueError, match="T must be"):
        siegel_average(1.5, x, math.nan, 100)
    with pytest.raises(ValueError, match="f_radius must be"):
        siegel_average(math.nan, x, 10.0, 100)
    with pytest.raises(ValueError, match="T must be"):
        discrepancy_scan(SQF2, [math.nan], 20, 0.5)


def test_siegel_average_deterministic():
    x = form_to_basepoint(SQF2).x0
    r1 = siegel_average(1.5, x, 30.0, 40, seed=11)
    r2 = siegel_average(1.5, x, 30.0, 40, seed=11)
    assert r1.empirical == r2.empirical
    assert r1.min_inj == r2.min_inj
    r3 = siegel_average(1.5, x, 30.0, 40, seed=12)
    assert r3.empirical != r1.empirical


def test_siegel_average_reduces_each_sample_once(monkeypatch):
    calls = []
    lll_3d = lattice._lll_3d

    def counting(cols):
        calls.append(1)
        return lll_3d(cols)

    x = form_to_basepoint(SQF2).x0
    want = siegel_average(1.5, x, 400.0, 40, seed=3)
    monkeypatch.setattr(lattice, "_lll_3d", counting)
    got = siegel_average(1.5, x, 400.0, 40, seed=3)
    assert len(calls) == 40
    assert got == want


def test_siegel_average_traced_peak_stays_under_one_mib():
    # the samples run in blocks of _SAMPLE_BLOCK and each walk level in
    # chunks of util._RANGE_CHUNK; one block of all 400 samples, walked
    # unchunked, peaked at about 4 MiB
    x = form_to_basepoint(SQF2).x0
    siegel_average(2.0, x, 8000.0, 400)
    tracemalloc.start()
    try:
        siegel_average(2.0, x, 8000.0, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge", "Haswell", "SkylakeX"])
def test_stacked_sample_bases_have_the_bits_of_one_product_at_a_time(run_under_coretype, coretype):
    code = """
import math
import numpy as np
from opplab import flows
from opplab.forms import TernaryForm, normalize
x0 = flows.form_to_basepoint(normalize(TernaryForm(1.0, -1.0, -math.sqrt(2.0)))).x0
rng = np.random.default_rng(3)
for T in (5.0, 20.0, 400.0, 8000.0, 1e6):
    a = flows.flow_a(math.log(T)).mat
    rs = (np.arange(400) + rng.random(400)) / 400
    want = np.array([a @ flows.flow_u(r).mat @ x0.basis for r in rs])
    print(flows._sample_bases(a, rs, x0.basis).tobytes() == want.tobytes())
"""
    assert run_under_coretype(coretype, code).split() == ["True"] * 5


def test_siegel_average_haar_side_is_geometry_free():
    x = form_to_basepoint(SQF2).x0
    a = siegel_average(1.5, x, 20.0, 40, seed=0)
    b = siegel_average(1.5, LatticePoint.standard(), 50.0, 40, seed=7)
    assert a.haar == b.haar == bump_mass(1.5)
    assert a.deviation == abs(a.empirical - a.haar)


def test_siegel_average_small_bump_sees_no_lattice_points():
    x = form_to_basepoint(SQF2).x0
    rep = siegel_average(0.05, x, 5.0, 10, seed=0)
    assert rep.empirical == 0.0
    assert rep.haar < 1e-3
    assert rep.min_inj > 0.05
    # reproduce min_inj from the documented sampling rule
    rng = np.random.default_rng(0)
    rs = (np.arange(10) + rng.random(10)) / 10
    a = flow_a(math.log(5.0))
    lens = [shortest_vector_coeffs(act(a @ flow_u(r), x).basis)[1] for r in rs]
    assert rep.min_inj == min(lens)


def test_equidist_report_csv_row():
    rep = EquidistReport(
        T=10.0, n_samples=16, f_radius=1.5, empirical=1.25, haar=1.0,
        deviation=0.25, min_inj=0.5,
    )
    assert EQUIDIST_CSV_HEADER == ("T", "N", "empirical", "haar", "deviation", "min_inj")
    obj = _json_obj(rep)
    (row,) = _columns([obj], EQUIDIST_CSV_HEADER)
    assert row[0] == 10.0 and row[1] == 16
    assert obj["deviation"] == 0.25


def test_discrepancy_scan_matches_single_calls():
    reports = discrepancy_scan(SQF2, [20.0, 40.0], 40, 1.5, seed=3)
    x = form_to_basepoint(SQF2).x0
    single = siegel_average(1.5, x, 20.0, 40, seed=3)
    assert reports[0].empirical == single.empirical
    assert reports[0].haar == reports[1].haar


def test_discrepancy_scan_normalizes_input():
    scaled = TernaryForm(2.0, -2.0, -2.0 * math.sqrt(2.0))
    a = discrepancy_scan(scaled, [25.0], 40, 1.5, seed=5)[0]
    b = discrepancy_scan(SQF2, [25.0], 40, 1.5, seed=5)[0]
    assert a.empirical == pytest.approx(b.empirical, rel=1e-9)
