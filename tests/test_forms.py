"""Tests for ternary form arithmetic, invariants, and normalization."""

import json
import math

import numpy as np
import pytest

from opplab.errors import DefiniteForm, DegenerateForm
from opplab.forms import (
    REFERENCE_FORM,
    TernaryForm,
    normalize,
    parse_form,
)


def poly_eval(entries, v):
    # independent evaluation straight from the polynomial, no matrix products
    m11, m22, m33, m12, m13, m23 = entries
    x, y, z = v
    return (
        m11 * x * x + m22 * y * y + m33 * z * z
        + 2.0 * m12 * x * y + 2.0 * m13 * x * z + 2.0 * m23 * y * z
    )


def rand_form(rng, scale=1.0):
    return TernaryForm(*(scale * rng.normal(size=6)))


def test_evaluate_reference_form_values():
    assert REFERENCE_FORM.evaluate((1.0, 0.0, 0.0)) == 0.0
    assert REFERENCE_FORM.evaluate((0.0, 1.0, 0.0)) == 1.0
    assert REFERENCE_FORM.evaluate((1.0, 1.0, 1.0)) == -1.0
    assert REFERENCE_FORM.evaluate((0.0, 0.0, 1.0)) == 0.0
    assert REFERENCE_FORM.evaluate((1.0, 0.0, 1.0)) == -2.0


def test_reference_form_frozen_invariants():
    assert REFERENCE_FORM.entries == (0.0, 1.0, 0.0, 0.0, -1.0, 0.0)
    assert REFERENCE_FORM.determinant() == -1.0
    assert REFERENCE_FORM.signature() == (2, 1)
    assert REFERENCE_FORM.sup_norm() == 1.0
    np.testing.assert_allclose(
        sorted(REFERENCE_FORM.eigenvalues()), [-1.0, 1.0, 1.0], atol=1e-12
    )


def test_evaluate_matches_polynomial_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = rand_form(rng, scale=3.0)
        v = rng.normal(size=3)
        want = poly_eval(f.entries, v)
        got = f.evaluate(v)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(12)
    f = rand_form(rng)
    vs = rng.normal(size=(40, 3))
    batch = f.evaluate(vs)
    assert batch.shape == (40,)
    for i in range(40):
        assert batch[i] == pytest.approx(f.evaluate(vs[i]), rel=1e-14)


def test_gram_matrix_reconstruction_from_evaluate():
    # evaluate(e_i) recovers the diagonal, polarization recovers cross entries
    rng = np.random.default_rng(13)
    f = rand_form(rng)
    e = np.eye(3)
    m = f.matrix
    for i in range(3):
        assert f.evaluate(e[i]) == pytest.approx(m[i, i], rel=1e-12, abs=1e-15)
        for j in range(i + 1, 3):
            val = f.evaluate(e[i] + e[j]) - m[i, i] - m[j, j]
            assert val == pytest.approx(2.0 * m[i, j], rel=1e-12, abs=1e-14)


def test_determinant_examples_and_numpy_oracle():
    assert TernaryForm(1.0, -1.0, -1.0).determinant() == 1.0
    assert TernaryForm(2.0, 2.0, -2.0).determinant() == -8.0
    rng = np.random.default_rng(15)
    for _ in range(50):
        f = rand_form(rng, scale=2.0)
        assert f.determinant() == pytest.approx(
            float(np.linalg.det(f.matrix)), rel=1e-10, abs=1e-12
        )


def test_sup_norm():
    assert TernaryForm(2.0, -1.0, -1.0).sup_norm() == 2.0
    assert TernaryForm(0.0, 0.0, 0.0).sup_norm() == 0.0
    assert TernaryForm(0.0, 0.0, 0.0, 0.0, 0.0, -3.5).sup_norm() == 3.5


def test_signature_examples():
    assert TernaryForm(1.0, 1.0, -1.0).signature() == (2, 1)
    assert TernaryForm(1.0, 1.0, 1.0).signature() == (3, 0)
    assert TernaryForm(-1.0, -2.0, -3.0).signature() == (0, 3)
    assert TernaryForm(1.0, 1.0, -1.0).is_indefinite()
    assert not TernaryForm(1.0, 2.0, 3.0).is_indefinite()


def test_signature_charpoly_oracle():
    # coefficients of det(M - t I) give eigenvalue signs via sign changes
    rng = np.random.default_rng(16)
    for _ in range(50):
        f = rand_form(rng)
        try:
            p, n = f.signature()
        except DegenerateForm:
            continue
        roots = np.roots(np.poly(f.matrix))
        assert p == int(np.sum(roots.real > 0))
        assert n == int(np.sum(roots.real < 0))


def test_signature_degenerate_raises():
    with pytest.raises(DegenerateForm):
        TernaryForm(1.0, -1.0, 0.0).signature()


def test_signature_invariant_under_congruence():
    # Sylvester: signature of S^T M S equals signature of M
    rng = np.random.default_rng(17)
    for _ in range(25):
        f = rand_form(rng)
        try:
            sig = f.signature()
        except DegenerateForm:
            continue
        while True:
            s = rng.normal(size=(3, 3))
            if abs(np.linalg.det(s)) > 0.3:
                break
        g = TernaryForm.from_matrix(s.T @ f.matrix @ s)
        assert g.signature() == sig


def test_entries_are_plain_finite_floats():
    f = TernaryForm(1, -2, 3)
    for x in f.entries:
        assert type(x) is float
    with pytest.raises(ValueError):
        TernaryForm(1.0, 1.0, math.nan)
    with pytest.raises(ValueError):
        TernaryForm(math.inf, 1.0, 1.0)


def test_scaled():
    f = TernaryForm(1.0, -1.0, -1.0, 0.5, 0.0, 0.0)
    g = f.scaled(2.0)
    assert g.entries == (2.0, -2.0, -2.0, 1.0, 0.0, 0.0)
    v = (1.0, 2.0, 3.0)
    assert g.evaluate(v) == pytest.approx(2.0 * f.evaluate(v), rel=1e-14)


def test_from_matrix_roundtrip_and_symmetry_check():
    f = TernaryForm(1.0, 2.0, 3.0, 0.1, -0.2, 0.3)
    assert TernaryForm.from_matrix(f.matrix) == f
    with pytest.raises(ValueError):
        TernaryForm.from_matrix(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        TernaryForm.from_matrix(np.eye(2))


def test_normalize_diag_examples():
    n = normalize(TernaryForm(1.0, -1.0, -1.0))
    assert n.form.entries == (1.0, -1.0, -1.0, 0.0, 0.0, 0.0)
    assert n.scale == 1.0
    assert n.signature == (1, 2)

    n = normalize(TernaryForm(1.0, 1.0, -1.0))
    np.testing.assert_allclose(n.form.entries, (-1.0, -1.0, 1.0, 0, 0, 0), atol=1e-15)
    assert n.scale == 1.0

    n = normalize(TernaryForm(2.0, -2.0, -2.0))
    np.testing.assert_allclose(n.form.entries, (1.0, -1.0, -1.0, 0, 0, 0), rtol=1e-12)
    assert n.scale == pytest.approx(0.5, rel=1e-12)


def test_normalize_random_forms_determinant_one():
    rng = np.random.default_rng(18)
    done = 0
    while done < 40:
        f = rand_form(rng, scale=4.0)
        try:
            n = normalize(f)
        except (DegenerateForm, DefiniteForm):
            continue
        done += 1
        assert abs(n.form.determinant() - 1.0) < 1e-10
        assert n.signature == (1, 2)
        assert n.determinant == pytest.approx(1.0, abs=1e-10)
        # scale recovers the input up to the sign flip
        back = n.form.scaled(1.0 / n.scale)
        sign = 1.0 if f.determinant() > 0 else -1.0
        np.testing.assert_allclose(back.entries, [sign * x for x in f.entries], rtol=1e-9, atol=1e-12)


def test_normalize_idempotent():
    n = normalize(TernaryForm(3.0, -2.0, -1.5, 0.3, 0.1, -0.2))
    n2 = normalize(n.form)
    assert n2.scale == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(n2.form.entries, n.form.entries, rtol=1e-9)


def test_normalize_rejects_degenerate_and_definite():
    with pytest.raises(DegenerateForm):
        normalize(TernaryForm(1.0, -1.0, 0.0))
    with pytest.raises(DefiniteForm):
        normalize(TernaryForm(1.0, 2.0, 3.0))
    with pytest.raises(DefiniteForm):
        normalize(TernaryForm(-1.0, -2.0, -3.0))


def test_json_roundtrip():
    f = TernaryForm(1.25, -0.5, 2.0, 0.0, -1.0, 0.125)
    obj = f.to_json_obj()
    assert set(obj) == {"m11", "m22", "m33", "m12", "m13", "m23"}
    assert TernaryForm.from_json_obj(obj) == f
    assert TernaryForm.from_json_obj(json.loads(json.dumps(obj))) == f


def test_from_json_obj_shapes():
    assert TernaryForm.from_json_obj([1, -1, -2]) == TernaryForm(1.0, -1.0, -2.0)
    f = TernaryForm.from_json_obj({"m11": 0, "m22": 1, "m33": 0, "m13": -1})
    assert f == REFERENCE_FORM
    with pytest.raises(ValueError):
        TernaryForm.from_json_obj([1, 2])
    with pytest.raises(ValueError):
        TernaryForm.from_json_obj({"m11": 1, "m22": 1})
    with pytest.raises(ValueError):
        TernaryForm.from_json_obj({"m11": 1, "m22": 1, "m33": 1, "bogus": 2})
    with pytest.raises(ValueError):
        TernaryForm.from_json_obj("diag")


def test_parse_form_inline_and_file(tmp_path):
    f = parse_form('[1, -1, -1.5]')
    assert f == TernaryForm(1.0, -1.0, -1.5)
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"m11": 0, "m22": 1, "m33": 0, "m13": -1}))
    assert parse_form(str(path)) == REFERENCE_FORM
    with pytest.raises(ValueError):
        parse_form("not json and not a file")
