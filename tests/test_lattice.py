"""Tests for LLL reduction and exact ball enumeration on 3-d lattices."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opplab import approx, errors, flows, lattice, util
from opplab.errors import CapacityExceeded
from opplab.flows import flow_a, flow_u, form_to_basepoint
from opplab.forms import TernaryForm, normalize
from opplab.lattice import enumerate_ball, lll_reduce, shortest_vector_coeffs


def brute_coeff_box(basis, radius):
    # exhaustive coefficient box guaranteed to cover the ball: |m| is bounded
    # by |B^-1| * radius per coordinate
    B = np.asarray(basis, dtype=float)
    lim = int(math.ceil(np.linalg.norm(np.linalg.inv(B), 2) * radius)) + 1
    rng = np.arange(-lim, lim + 1)
    g = np.meshgrid(rng, rng, rng, indexing="ij")
    m = np.stack([x.ravel() for x in g], axis=1)
    pts = m @ B.T
    keep = (np.einsum("ij,ij->i", pts, pts) <= radius * radius) & np.any(m != 0, axis=1)
    return {tuple(int(v) for v in row) for row in m[keep]}


def rand_basis(rng, n=3):
    while True:
        b = rng.normal(size=(n, n))
        if abs(np.linalg.det(b)) > 0.2:
            return b


def elementary_unimodular(rng, n=3, steps=6):
    u = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        u[:, j] += int(rng.integers(-2, 3)) * u[:, i]
    return u


def test_lll_transform_is_unimodular_and_consistent():
    rng = np.random.default_rng(21)
    for n in (3, 3, 3, 7):
        b = rand_basis(rng, n)
        red, u = lll_reduce(b)
        assert u.dtype == np.int64
        assert abs(round(float(np.linalg.det(u.astype(float))))) == 1
        np.testing.assert_allclose(red, b @ u, rtol=1e-9, atol=1e-12)


def test_lll_shortens_first_vector():
    rng = np.random.default_rng(22)
    for _ in range(20):
        b = rand_basis(rng)
        red, _ = lll_reduce(b)
        assert np.min(np.linalg.norm(red, axis=0)) <= np.min(np.linalg.norm(b, axis=0)) + 1e-9


def test_lll_singular_raises():
    with pytest.raises(ValueError):
        lll_reduce(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        lll_reduce(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("n", [3, 7])
def test_lll_non_finite_entry_raises_value_error(n, bad):
    # the determinant is NaN or inf, not 0, so the entry reaches the LLL body
    basis = np.eye(n)
    basis[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        lll_reduce(basis)


@pytest.mark.parametrize("n", [3, 7])
def test_lll_reduces_bases_whose_squared_norms_overflow(n):
    # columns of entries near 1.3e154 square past float64; such a basis is
    # reduced scaled by a power of two, so it returns what the same basis
    # scaled by 2^-600 returns, scaled back, bit for bit
    rng = np.random.default_rng(60 + n)
    bases = [rng.normal(size=(n, n)) * 1.3e154 for _ in range(30)]
    overflowing = [b for b in bases if not np.isfinite(np.einsum("ij,ij->j", b, b)).all()]
    assert len(overflowing) >= 10
    for b in bases:
        red, u = lll_reduce(b)
        red_small, u_small = lll_reduce(np.ldexp(b, -600))
        np.testing.assert_array_equal(u, u_small)
        np.testing.assert_array_equal(red, np.ldexp(red_small, 600))


def test_lll_refuses_an_overflowing_basis_it_cannot_scale_exactly():
    # 1e-200 leaves the normal range when 1e200 is scaled below 1
    with pytest.raises(CapacityExceeded, match="too large to reduce in float64"):
        lll_reduce(np.diag([1e200, 1e-200, 1.0]))


def test_lll_reduces_a_stack_as_one_call_per_basis():
    # the checks are made once for the stack and applied basis by basis, so
    # each basis of a stack gets the bits of its own call, the scaled path too
    rng = np.random.default_rng(35)
    unimodular = [elementary_unimodular(rng, steps=12).astype(float) for _ in range(50)]
    huge = np.array([[1e200, 3e199, -7e198], [2e199, 1e200, 5e199], [0.0, -4e199, 1e200]])
    mixed = [rand_basis(rng), huge, rand_basis(rng), -1e50 * huge.T, rand_basis(rng)]
    for stack in (_siegel_bases(), unimodular, mixed, [rand_basis(rng, 7) for _ in range(5)]):
        red, u = lll_reduce(np.array(stack))
        assert red.shape == u.shape == np.shape(stack)
        for k, basis in enumerate(stack):
            want_red, want_u = lll_reduce(basis)
            assert np.array_equal(red[k], want_red) and np.array_equal(u[k], want_u)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]),
        np.diag([1.0, math.nan, 1.0]),
        np.diag([1.0, 1.0, -math.inf]),
        np.diag([1e200, 1e-200, 1.0]),
    ],
    ids=["singular", "nan", "inf", "unscalable"],
)
def test_lll_stack_holding_a_bad_basis_raises_as_its_own_call(bad):
    with pytest.raises((ValueError, CapacityExceeded)) as one:
        lll_reduce(bad)
    with pytest.raises(type(one.value)) as many:
        lll_reduce(np.array([np.eye(3), bad, 2.0 * np.eye(3)]))
    assert type(many.value) is type(one.value) and str(many.value) == str(one.value)


def test_enumerate_ball_matches_brute_box():
    rng = np.random.default_rng(23)
    for _ in range(15):
        b = rand_basis(rng)
        radius = float(rng.uniform(0.8, 2.6))
        got = enumerate_ball(b, radius)
        want = brute_coeff_box(b, radius)
        assert {tuple(int(v) for v in row) for row in got} == want


def test_enumerate_ball_include_zero_and_norms():
    rng = np.random.default_rng(24)
    b = rand_basis(rng)
    plain = enumerate_ball(b, 2.0)
    assert len(plain) > 0 and not np.any(np.all(plain == 0, axis=1))
    frame = lattice._Frames(*lll_reduce(b))
    coeffs, norms2, _ = frame.walk(2.0)
    cands, norms = frame.original(coeffs), np.sqrt(np.asarray(norms2))
    np.testing.assert_array_equal(cands, plain)
    np.testing.assert_allclose(
        norms, np.linalg.norm(cands @ b.T, axis=1), rtol=1e-9, atol=1e-12
    )
    assert np.all(norms <= 2.0 * (1.0 + 1e-9))


def test_enumerate_ball_unimodular_invariance():
    # the lattice, hence the set of lattice points in the ball, is unchanged
    rng = np.random.default_rng(25)
    b = rand_basis(rng)
    u = elementary_unimodular(rng)
    pts_a = enumerate_ball(b, 2.2) @ b.T
    pts_b = enumerate_ball(b @ u, 2.2) @ (b @ u).T
    key_a = {tuple(np.round(p, 6)) for p in pts_a}
    key_b = {tuple(np.round(p, 6)) for p in pts_b}
    assert key_a == key_b


def test_enumerate_ball_validation_and_ceiling(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_ball(np.eye(2), 1.0)
    with pytest.raises(ValueError):
        enumerate_ball(np.eye(3), -1.0)
    assert len(enumerate_ball(np.eye(3), 0.5)) == 0
    monkeypatch.setattr(errors, "DEFAULT_CEILING", 100)
    with pytest.raises(CapacityExceeded):
        enumerate_ball(np.eye(3), 50.0)


def test_enumerate_ball_rejects_non_finite_radius():
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be finite"):
            enumerate_ball(np.eye(3), radius)


def test_shortest_vector_identity_lattice():
    coeffs, length = shortest_vector_coeffs(np.eye(3))
    assert length == 1.0
    assert tuple(coeffs) == (0, 0, 1)  # lexicographically least canonical tie


def test_shortest_vector_brute_oracle():
    rng = np.random.default_rng(26)
    for _ in range(15):
        b = rand_basis(rng)
        b /= np.cbrt(np.linalg.det(b))  # unimodular, keeps conditioning mild
        coeffs, length = shortest_vector_coeffs(b)
        assert length == pytest.approx(np.linalg.norm(b @ coeffs), rel=1e-12)
        box = brute_coeff_box(b, length * (1.0 + 1e-9))
        best = min(np.linalg.norm(b @ np.array(m)) for m in box)
        assert length == pytest.approx(best, rel=1e-9)


def test_shortest_vector_sheared_flow_basis():
    # strongly sheared unimodular basis: diag(T, 1, 1/T) times a unipotent;
    # regression for catastrophic cancellation at large T
    for T, r in ((40.0, 0.37), (400.0, 0.37), (400.0, 0.91)):
        a = np.diag([T, 1.0, 1.0 / T])
        u = np.array([[1.0, r, r * r / 2.0], [0.0, 1.0, r], [0.0, 0.0, 1.0]])
        b = a @ u
        coeffs, length = shortest_vector_coeffs(b)
        assert 0.0 < length <= np.min(np.linalg.norm(lll_reduce(b)[0], axis=0)) + 1e-9
        assert length == pytest.approx(np.linalg.norm(b @ coeffs), rel=1e-9)
    # independent brute check at the moderate shear
    b = np.diag([40.0, 1.0, 1.0 / 40.0]) @ np.array(
        [[1.0, 0.37, 0.37**2 / 2.0], [0.0, 1.0, 0.37], [0.0, 0.0, 1.0]]
    )
    coeffs, length = shortest_vector_coeffs(b)
    box = brute_coeff_box(b, length * (1.0 + 1e-9))
    best = min(np.linalg.norm(b @ np.array(m)) for m in box)
    assert length == pytest.approx(best, rel=1e-9)


def test_shortest_vector_canonical_sign():
    rng = np.random.default_rng(27)
    for _ in range(10):
        b = rand_basis(rng)
        coeffs, _ = shortest_vector_coeffs(b)
        first = next(c for c in coeffs if c != 0)
        assert first > 0


# numpy LLL as it stood before the scalar rewrite, kept as a bit-for-bit
# reference: same algorithm and decisions, numpy slicing and BLAS dot products
def _reference_gram_schmidt(B):
    n = B.shape[1]
    Bs = np.zeros_like(B)
    mu = np.zeros((n, n))
    norms2 = np.zeros(n)
    for i in range(n):
        v = B[:, i].astype(float).copy()
        for j in range(i):
            mu[i, j] = (B[:, i] @ Bs[:, j]) / norms2[j] if norms2[j] > 0 else 0.0
            v -= mu[i, j] * Bs[:, j]
        Bs[:, i] = v
        norms2[i] = float(v @ v)
    return mu, norms2


def _reference_lll_reduce(basis, delta=0.99):
    B = np.array(basis, dtype=float)
    n = B.shape[1]
    U = np.eye(n, dtype=np.int64)
    k = 1
    for _ in range(10_000):
        if k >= n:
            break
        mu, norms2 = _reference_gram_schmidt(B)
        for j in range(k - 1, -1, -1):
            q = int(np.rint(mu[k, j]))
            if q != 0:
                B[:, k] -= q * B[:, j]
                U[:, k] -= q * U[:, j]
                mu, norms2 = _reference_gram_schmidt(B)
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            U[:, [k - 1, k]] = U[:, [k, k - 1]]
            k = max(k - 1, 1)
    return B, U


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()


def _sqf2():
    return normalize(TernaryForm(1.0, -1.0, -math.sqrt(2.0)))


def _siegel_bases():
    # the Siegel-sample bases a(log T) u(r) x0 of the equidist experiment
    x0 = form_to_basepoint(_sqf2()).x0
    rng = np.random.default_rng(28)
    rs = (np.arange(70) + rng.random(70)) / 70
    bases = []
    for T in (20.0, 400.0, 8000.0):
        a_mat = flow_a(math.log(T)).mat
        bases.extend(a_mat @ flow_u(r).mat @ x0.basis for r in rs)
    return bases


def test_lll_matches_numpy_reference_on_sheared_bases():
    rng = np.random.default_rng(29)
    unipotent = np.array([[1.0, 0.37, 0.37**2 / 2.0], [0.0, 1.0, 0.37], [0.0, 0.0, 1.0]])
    bases = [
        *_siegel_bases(),
        np.diag([1e4, 1.0, 1e-4]),
        np.diag([1e5, 1.0, 1e-5]) @ unipotent,
        *(rand_basis(rng, 3) for _ in range(50)),
    ]
    for basis in bases:
        _assert_same_bits(lll_reduce(basis), _reference_lll_reduce(basis))
    assert len(bases) >= 260


def _integer_bases(rng, count):
    bases = []
    while len(bases) < count:
        b = rng.integers(-4, 5, size=(3, 3)).astype(float)
        if round(abs(np.linalg.det(b))) != 0:
            bases.append(b)
    return bases


def test_lll_3d_body_matches_general_body():
    # integer bases put exact half-integer mu ties in the reduction, where
    # the numpy reference's BLAS dot rounds to either side; the general body
    # sums in the same order as the 3-D body, so the two agree bit for bit
    rng = np.random.default_rng(30)
    bases = [*_integer_bases(rng, 3000), *(rand_basis(rng, 3) for _ in range(200)), *_siegel_bases()]
    for basis in bases:
        general = lattice._reduced_arrays(*lattice._lll_general(basis.T.tolist()))
        _assert_same_bits(lll_reduce(basis), general)


def _mirror(v):
    # the symmetry m11 <-> -m22 of SQF2's candidate lattice, up to sign: it
    # swaps coordinates 1 and 2 of a coefficient vector and of a lattice vector
    w = -v
    w[[1, 2]] = v[[2, 1]]
    return w


def test_lll_matches_numpy_reference_on_diophantine_bases(monkeypatch):
    # the six 7-d lattices of approx's heuristic candidate pool for SQF2, one
    # per weight w.  For w = 1e4 and 1e8, q11 = -q22 puts an exact tie in the
    # reduction: a mu of -1.5 or 31.5 in exact arithmetic.  The reference's
    # BLAS dot product is fused and rounds it to either side by its own
    # error, so one reduced column comes out as the mirror image of the other.
    # The pool reduces the six as one stack.
    stacks = []

    def recording(basis, *args, **kwargs):
        stacks.append(np.array(basis))
        return lll_reduce(basis, *args, **kwargs)

    monkeypatch.setattr(lattice, "lll_reduce", recording)
    approx._heuristic_candidates(np.asarray(_sqf2().form.entries, dtype=float), 16)
    (stack,) = stacks
    bases = list(stack)
    weights = [float(-b[1, 1]) for b in bases]
    assert weights == [1e2, 1e4, 1e6, 1e8, 1e10, 1e12]
    for w, basis in zip(weights, bases):
        got, want = lll_reduce(basis), _reference_lll_reduce(basis)
        if w in (1e4, 1e8):
            for g, r in zip(got, want):
                np.testing.assert_array_equal(g[:, 3], _mirror(r[:, 3]))
                g[:, 3] = r[:, 3]
        _assert_same_bits(got, want)


def test_shortest_vector_reduces_once(monkeypatch):
    calls = []

    def counting(basis, *args, **kwargs):
        calls.append(1)
        return lll_reduce(basis, *args, **kwargs)

    monkeypatch.setattr(lattice, "lll_reduce", counting)
    b = np.diag([40.0, 1.0, 1.0 / 40.0]) @ np.array(
        [[1.0, 0.37, 0.37**2 / 2.0], [0.0, 1.0, 0.37], [0.0, 0.0, 1.0]]
    )
    coeffs, length = shortest_vector_coeffs(b)
    assert len(calls) == 1
    assert length == pytest.approx(np.linalg.norm(b @ coeffs), rel=1e-9)


# numpy ball traversal as it stood before the scalar walk (Cholesky, SVD and
# BLAS norms), kept as an oracle for the coefficient sets of the walk
def _reference_enumerate_frame(Bred, U, radius):
    G = Bred.T @ Bred
    jitter = 1e-14 * max(1.0, float(G.trace()))
    R = np.linalg.cholesky(G + np.eye(3) * jitter).T
    r2 = radius * radius * (1.0 + 1e-12) + 1e-300
    s_min = float(np.linalg.svd(Bred, compute_uv=False)[-1])
    r2_trav = r2 * (1.0 + jitter / (s_min * s_min)) + jitter
    rows = []
    lim2 = math.floor(math.sqrt(r2_trav) / abs(R[2, 2]))
    for m2 in range(-lim2, lim2 + 1):
        rem2 = r2_trav - (R[2, 2] * m2) ** 2
        if rem2 < 0:
            continue
        c1, half1 = -R[1, 2] * m2, math.sqrt(rem2)
        for m1 in range(math.ceil((c1 - half1) / R[1, 1]), math.floor((c1 + half1) / R[1, 1]) + 1):
            rem1 = rem2 - (R[1, 1] * m1 + R[1, 2] * m2) ** 2
            if rem1 < 0:
                continue
            c0, half0 = -(R[0, 1] * m1 + R[0, 2] * m2), math.sqrt(rem1)
            for m0 in range(math.ceil((c0 - half0) / R[0, 0]), math.floor((c0 + half0) / R[0, 0]) + 1):
                rows.append((m0, m1, m2))
    reduced = np.array(rows, dtype=np.int64).reshape(-1, 3)
    pts = reduced @ Bred.T
    keep = (np.einsum("ij,ij->i", pts, pts) <= r2) & np.any(reduced != 0, axis=1)
    return reduced[keep] @ U.T


def test_walk_matches_reference_traversal_on_siegel_bases():
    checked = 0
    for b in _siegel_bases():
        Bred, U = lll_reduce(b)
        frame = lattice._Frames(Bred, U)
        for radius in (2.0, frame.shortest_radii()[0]):
            coeffs, norms2, _ = frame.walk(radius)
            cands, norms = frame.original(coeffs), np.sqrt(np.asarray(norms2))
            np.testing.assert_array_equal(cands, enumerate_ball(b, radius))
            got = {tuple(row) for row in cands.tolist()}
            assert len(got) == len(cands) > 0
            assert got == {tuple(row) for row in _reference_enumerate_frame(Bred, U, radius).tolist()}
            # the same points in the reduced frame: Bred @ reduced = b @ cands
            reduced = np.rint(np.linalg.solve(U, cands.T)).T
            want = np.linalg.norm(reduced @ Bred.T, axis=1)
            assert np.all(np.abs(norms - want) <= 4 * np.spacing(want))
            checked += 1
    assert checked == 420


class _ScalarFrame:
    """The scalar Fincke-Pohst walk that the block walk replaced, kept as an oracle.

    One frame in Python floats: the same jitter, widening, rows and norm
    sums as lattice._Frames, walked one coefficient at a time.
    """

    def __init__(self, Bred, U):
        self.cols = Bred.T.tolist()
        c0, c1, c2 = self.cols
        dot = lattice._dot
        g00, g01, g02 = dot(c0, c0), dot(c0, c1), dot(c0, c2)
        g11, g12, g22 = dot(c1, c1), dot(c1, c2), dot(c2, c2)
        r00 = math.sqrt(g00 + 1e-14 * g00)
        r01, r02 = g01 / r00, g02 / r00
        r11 = math.sqrt(g11 + 1e-14 * g11 - r01 * r01)
        r12 = (g12 - r01 * r02) / r11
        r22 = math.sqrt(g22 + 1e-14 * g22 - r02 * r02 - r12 * r12)
        (a, b, c), (d, e, f), (g, h, i) = Bred.tolist()
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        terms = (
            abs(a) * (abs(e * i) + abs(f * h))
            + abs(b) * (abs(d * i) + abs(f * g))
            + abs(c) * (abs(d * h) + abs(e * g))
        )
        det_lo = abs(det) - 1e-14 * terms
        hadamard = (1.0 + 1e-9) * 3.0 * g00 * g11 * g22 / (det_lo * det_lo)
        self.r = (r00, r01, r02, r11, r12, r22)
        self.widen = 2e-14 * hadamard

    def _rows(self, r2_trav):
        r00, r01, r02, r11, r12, r22 = self.r
        lim2 = math.floor(math.sqrt(r2_trav) / r22)
        for m2 in range(-lim2, lim2 + 1):
            rem2 = r2_trav - (r22 * m2) ** 2
            if rem2 < 0:
                continue
            c1, half1 = -r12 * m2, math.sqrt(rem2)
            for m1 in range(math.ceil((c1 - half1) / r11), math.floor((c1 + half1) / r11) + 1):
                rem1 = rem2 - (r11 * m1 + r12 * m2) ** 2
                if rem1 < 0:
                    continue
                c0, half0 = -(r01 * m1 + r02 * m2), math.sqrt(rem1)
                yield m1, m2, math.ceil((c0 - half0) / r00), math.floor((c0 + half0) / r00)

    def walk(self, radius):
        """Coefficients and squared norms of the nonzero points in the ball, in walk order."""
        r2 = radius * radius * (1.0 + 1e-12) + 1e-300
        (b00, b10, b20), (b01, b11, b21), (b02, b12, b22) = self.cols
        coeffs, norms2 = [], []
        for m1, m2, lo0, hi0 in self._rows(r2 * (1.0 + self.widen)):
            x1, y1, z1 = m1 * b01, m1 * b11, m1 * b21
            x2, y2, z2 = m2 * b02, m2 * b12, m2 * b22
            for m0 in range(lo0, hi0 + 1):
                x = m0 * b00 + x1 + x2
                y = m0 * b10 + y1 + y2
                z = m0 * b20 + z1 + z2
                n2 = x * x + y * y + z * z
                if n2 <= r2 and (m0 or m1 or m2):
                    coeffs.append((m0, m1, m2))
                    norms2.append(n2)
        return coeffs, norms2

    def shortest_radius(self):
        return math.sqrt(min(lattice._dot(c, c) for c in self.cols))


def _scalar_siegel_sample(basis, f_radius):
    # the per-sample path the Siegel blocks replaced: the bump values summed
    # one by one in walk order, and the shortest length off the bump ball or,
    # if it is empty, off the ball of the shortest reduced column
    frame = _ScalarFrame(*lll_reduce(basis))
    _, norms2 = frame.walk(f_radius)
    total = 0.0
    for n2 in norms2:
        t = math.sqrt(n2) / f_radius
        total += math.exp(1.0 - 1.0 / (1.0 - t * t)) if t < 1.0 else 0.0
    if not norms2:
        _, norms2 = frame.walk(frame.shortest_radius())
    return total, math.sqrt(min(norms2))


@pytest.mark.parametrize("f_radius", [2.0, 1.5, 0.05])
def test_siegel_samples_match_the_scalar_walk(f_radius):
    # 0.05 leaves every bump ball empty, so every length comes off the
    # shortest-column walk
    rng = np.random.default_rng(31)
    siegel = _siegel_bases()
    bases = [*siegel, *(rand_basis(rng) for _ in range(50))]
    want = [_scalar_siegel_sample(b, f_radius) for b in bases]
    totals, lengths = flows._siegel_samples(bases, f_radius)
    assert totals.tolist() == [t for t, _ in want]
    assert lengths.tolist() == [length for _, length in want]
    # siegel_average at the sampling rule of _siegel_bases, in blocks of 64
    x0 = form_to_basepoint(_sqf2()).x0
    for j, T in enumerate((20.0, 400.0, 8000.0)):
        rep = flows.siegel_average(f_radius, x0, T, 70, seed=28)
        part = want[70 * j : 70 * (j + 1)]
        assert rep.empirical == math.fsum(t for t, _ in part) / 70
        assert rep.min_inj == min(length for _, length in part)


def test_block_walk_matches_the_scalar_walk_point_for_point(monkeypatch):
    # tiny chunks split rows and frames across chunk boundaries
    rng = np.random.default_rng(33)
    bases = [*_siegel_bases()[::10], *(rand_basis(rng) for _ in range(10))]
    reduced = [lll_reduce(b) for b in bases]
    frames = lattice._Frames(np.array([r for r, _ in reduced]), np.array([u for _, u in reduced]))
    want = [_ScalarFrame(*red).walk(1.7) for red in reduced]
    for chunk in (util._RANGE_CHUNK, 5):
        monkeypatch.setattr(util, "_RANGE_CHUNK", chunk)
        coeffs, norms2, owner = frames.walk(1.7)
        assert owner.tolist() == [k for k, (c, _) in enumerate(want) for _ in c]
        assert [tuple(c) for c in coeffs.tolist()] == [c for w in want for c in w[0]]
        assert norms2.tolist() == [n2 for w in want for n2 in w[1]]


def test_expand_yields_every_interval_in_order_in_bounded_chunks(monkeypatch):
    monkeypatch.setattr(util, "_RANGE_CHUNK", 7)
    rng = np.random.default_rng(34)
    lo = rng.integers(-20, 20, size=40)
    hi = lo + rng.integers(-3, 25, size=40)  # some intervals are empty
    chunks = list(util.expand_ranges(lo, hi))
    assert all(len(i) == len(v) <= 7 for i, v in chunks)
    got = [(int(i), int(v)) for ii, vv in chunks for i, v in zip(ii, vv)]
    assert got == [(i, v) for i in range(40) for v in range(lo[i], hi[i] + 1)]


@pytest.mark.parametrize("radius", [1e300, 1e155, 1e150])
def test_an_overflowing_ball_raises_before_the_walk_starts(monkeypatch, radius):
    # 1e300 and 1e155 overflow the squared radius; 1e150 gives a box of
    # 2e150 integers a side, past what float64 counts exactly
    def no_rows(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(lattice, "_rows", no_rows)
    with pytest.raises(CapacityExceeded, match="too large to walk"):
        enumerate_ball(np.eye(3), radius)
    x0 = flows.LatticePoint(np.eye(3))
    with pytest.raises(CapacityExceeded, match="too large to walk"):
        flows.siegel_average(radius, x0, 2.0, 10)


@pytest.mark.parametrize("f_radius", [1.5, 0.05])
def test_siegel_sample_reads_shortest_length_off_the_bump_ball(monkeypatch, f_radius):
    # f_radius 1.5 holds a nonzero point at every sample, 0.05 at none, so the
    # two cover the bump-ball minimum and the ball widened to the shortest
    # reduced column; either way one walk per sample, and one per
    # shortest_vector_coeffs call
    walks = []
    walk = lattice._Frames.walk

    def counting(self, *args, **kwargs):
        walks.append(1)
        return walk(self, *args, **kwargs)

    bases = _siegel_bases()
    monkeypatch.setattr(lattice._Frames, "walk", counting)
    for b in bases:
        assert flows._siegel_samples([b], f_radius)[1][0] == shortest_vector_coeffs(b)[1]
    assert len(walks) == len(bases) * 2


def test_ceiling_trips_before_the_walk_stores_points():
    # about 4e12 points lie in this ball; at the default ceiling the walk
    # must refuse it before storing one (an enumerator that stored every
    # visited row grew the peak RSS by about 235 MB at 10^7 slots)
    code = """
import resource
import numpy as np
from opplab.errors import CapacityExceeded
from opplab.lattice import enumerate_ball
enumerate_ball(np.eye(3), 2.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    enumerate_ball(np.eye(3), 1e4)
except CapacityExceeded:
    print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""
    pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB only on Linux")
    src = str(Path(lattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120
    )
    assert float(proc.stdout) < 20.0


def test_spread_frame_walks_close_to_its_ball(monkeypatch):
    # a jitter set by the longest column widened this walk 150-fold:
    # 1,063,949 slots for 74,722 points
    slots = []
    rows = lattice._rows

    def counting(frames, r2_trav):
        for chunk in rows(frames, r2_trav):
            *_, lo0, hi0 = chunk
            slots.append(int(np.sum(hi0 - lo0 + 1)))
            yield chunk

    monkeypatch.setattr(lattice, "_rows", counting)
    pts = enumerate_ball(np.diag([1e4, 1.0, 1e-4]), 1.5)
    assert len(pts) == 74_722
    assert sum(slots) <= 2 * len(pts)


def test_spread_frame_ball_matches_brute_force_under_the_ceiling(monkeypatch):
    # about 7.5e5 points; the old widening refused this walk at a ceiling of
    # 10^7 slots.  The reduced frame is a signed permutation of the columns,
    # so the walk's norm (x^2 + y^2) + z^2 has the same bits as the one below
    monkeypatch.setattr(errors, "DEFAULT_CEILING", 10**7)
    got = enumerate_ball(np.diag([1e5, 1.0, 1e-5]), 1.5)
    r2 = 1.5 * 1.5 * (1.0 + 1e-12) + 1e-300
    m2 = np.arange(-150_001, 150_002)
    want = []
    for m0 in (-1, 0, 1):
        for m1 in range(-2, 3):
            x, y, z = m0 * 1e5, m1 * 1.0, m2 * 1e-5
            keep = ((x * x + y * y) + z * z <= r2) & ((m0 != 0) | (m1 != 0) | (m2 != 0))
            k = int(np.count_nonzero(keep))
            want.append(np.stack([np.full(k, m0), np.full(k, m1), m2[keep]], axis=1))
    want = np.concatenate(want)
    assert len(want) > 7 * 10**5

    def lex_sorted(a):
        return a[np.lexsort(a.T[::-1])]

    np.testing.assert_array_equal(lex_sorted(got), lex_sorted(want))


def test_enumeration_does_not_depend_on_the_blas_kernel(run_under_coretype):
    # the bases are built here once, so both runs enumerate the same floats
    bases = json.dumps([b.tolist() for b in _siegel_bases()])
    code = f"""
import hashlib, json
import numpy as np
from opplab.lattice import _Frames, enumerate_ball, lll_reduce, shortest_vector_coeffs
h = hashlib.sha256()
for b in json.loads({bases!r}):
    frame = _Frames(*lll_reduce(b))
    parts = (enumerate_ball(b, 2.0), *frame.walk(2.0), *shortest_vector_coeffs(b))
    for part in parts:
        h.update(np.asarray(part).tobytes())
print(h.hexdigest())
"""
    assert run_under_coretype("Haswell", code) == run_under_coretype("Prescott", code)
