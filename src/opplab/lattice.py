"""Lattice utilities: LLL basis reduction and ball enumeration.

Bases are stored column-wise, so a basis matrix B spans the lattice
{B @ m : m integer}.  Reduction is the textbook floating-point LLL
(delta = 0.99) with the unimodular transform tracked in exact integers;
ball enumeration is Fincke-Pohst, walking nested coordinate intervals of
the Cholesky factor from the last coordinate inward.  Dimensions here are
tiny (3 for lattices in space, 7 for the Diophantine candidate lattice in
module approx), so the reduction works on Python floats and ints, one
list per column, and recomputes the Gram-Schmidt data from scratch at
every step: simple and numerically fresh.  Dot products are plain
sequential sums, which on 3x3 data cost less than a numpy call and, unlike
a BLAS dot product, do not depend on the BLAS kernel.

One reduced frame (Bred, U) serves any number of enumerations: callers
that need several balls of the same lattice reduce it once and enumerate
through ``_enumerate_frame`` and ``_shortest_in_frame``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityExceeded

_MAX_LLL_ITER = 10_000


def _dot(a: list[float], b: list[float]) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _gram_schmidt(cols: list[list[float]], n: int) -> tuple[list[list[float]], list[float]]:
    """Orthogonalization data for the first n columns: (mu rows, squared norms of B*).

    Column i of B* depends only on columns 0..i, so the data of a leading
    block equals that of the whole basis.
    """
    stars: list[list[float]] = []
    mu: list[list[float]] = []
    norms2: list[float] = []
    for i in range(n):
        b = cols[i]
        v = b
        row = []
        for j in range(i):
            m = _dot(b, stars[j]) / norms2[j] if norms2[j] > 0 else 0.0
            row.append(m)
            v = [x - m * y for x, y in zip(v, stars[j])]
        stars.append(v)
        mu.append(row)
        norms2.append(_dot(v, v))
    return mu, norms2


def lll_reduce(basis, delta: float = 0.99) -> tuple[np.ndarray, np.ndarray]:
    """LLL-reduce the columns of ``basis``.

    Returns (reduced, transform) with reduced = basis @ transform and
    transform integral unimodular (float64 and int64 arrays).  The
    iteration count is capped; hitting the cap leaves a partially reduced
    basis, which only costs enumeration speed, never correctness.
    """
    B = np.array(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"expected a square basis matrix, got shape {B.shape}")
    n = B.shape[1]
    if abs(np.linalg.det(B)) == 0.0:
        raise ValueError("basis is singular")
    cols = B.T.tolist()
    U = [[int(i == j) for i in range(n)] for j in range(n)]
    k = 1
    for _ in range(_MAX_LLL_ITER):
        if k >= n:
            break
        mu, norms2 = _gram_schmidt(cols, k + 1)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
                U[k] = [x - q * y for x, y in zip(U[k], U[j])]
                mu, norms2 = _gram_schmidt(cols, k + 1)
        m = mu[k][k - 1]
        if norms2[k] >= (delta - m * m) * norms2[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            k = max(k - 1, 1)
    return np.array(cols, dtype=float).T.copy(), np.array(U, dtype=np.int64).T.copy()


def enumerate_ball(
    basis,
    radius: float,
    *,
    include_zero: bool = False,
    ceiling: int | None = None,
    return_norms: bool = False,
):
    """All integer coefficient vectors m with ``|basis @ m| <= radius``.

    ``basis`` must be 3x3 nonsingular.  Returns an (k, 3) int64 array in a
    deterministic (but otherwise unspecified) order, or (array, norms)
    when ``return_norms`` is set.  The zero vector is included only on
    request.  ``ceiling`` bounds the number of candidate coefficient slots
    visited before the exact norm filter.

    Norms are evaluated against the LLL-reduced columns: for strongly
    sheared bases (diagonal-flow images of a lattice) the reduced frame is
    well conditioned while recombining the original columns cancels
    catastrophically.
    """
    B = _basis3(basis)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    Bred, U = lll_reduce(B)
    return _enumerate_frame(
        Bred, U, radius, include_zero=include_zero, ceiling=ceiling, return_norms=return_norms
    )


def _basis3(basis) -> np.ndarray:
    B = np.array(basis, dtype=float)
    if B.shape != (3, 3):
        raise ValueError(f"expected a 3x3 basis, got {B.shape}")
    return B


def _enumerate_frame(
    Bred: np.ndarray,
    U: np.ndarray,
    radius: float,
    *,
    include_zero: bool = False,
    ceiling: int | None = None,
    return_norms: bool = False,
):
    """enumerate_ball on an already reduced frame: Bred = basis @ U from lll_reduce.

    Coefficients are returned with respect to the original basis; each call
    counts its own visited slots against ``ceiling``.
    """
    G = Bred.T @ Bred
    # tiny diagonal jitter keeps Cholesky factorizable on nearly degenerate
    # input; the traversal radius is widened to cover the inflated norms
    # (jitter adds at most jitter*|m|^2 <= jitter * r^2 / s_min^2), so the
    # traversal stays a superset and the exact filter below is authoritative
    jitter = 1e-14 * max(1.0, float(G.trace()))
    R = np.linalg.cholesky(G + np.eye(3) * jitter).T
    r2 = radius * radius * (1.0 + 1e-12) + 1e-300
    s_min = float(np.linalg.svd(Bred, compute_uv=False)[-1])
    r2_trav = r2 * (1.0 + jitter / (s_min * s_min)) + jitter

    out: list[np.ndarray] = []
    visited = 0
    lim2 = math.floor(math.sqrt(r2_trav) / abs(R[2, 2]))
    for m2 in range(-lim2, lim2 + 1):
        rem2 = r2_trav - (R[2, 2] * m2) ** 2
        if rem2 < 0:
            continue
        c1 = -R[1, 2] * m2
        half1 = math.sqrt(rem2)
        lo1 = math.ceil((c1 - half1) / R[1, 1])
        hi1 = math.floor((c1 + half1) / R[1, 1])
        for m1 in range(lo1, hi1 + 1):
            rem1 = rem2 - (R[1, 1] * m1 + R[1, 2] * m2) ** 2
            if rem1 < 0:
                continue
            c0 = -(R[0, 1] * m1 + R[0, 2] * m2)
            half0 = math.sqrt(rem1)
            lo0 = math.ceil((c0 - half0) / R[0, 0])
            hi0 = math.floor((c0 + half0) / R[0, 0])
            if hi0 < lo0:
                continue
            visited += hi0 - lo0 + 1
            if ceiling is not None and visited > ceiling:
                raise CapacityExceeded(
                    f"ball enumeration visited more than {ceiling} coefficient slots"
                )
            m0 = np.arange(lo0, hi0 + 1, dtype=np.int64)
            block = np.empty((len(m0), 3), dtype=np.int64)
            block[:, 0] = m0
            block[:, 1] = m1
            block[:, 2] = m2
            out.append(block)

    if not out:
        reduced = np.empty((0, 3), dtype=np.int64)
    else:
        reduced = np.concatenate(out, axis=0)
    pts = reduced @ Bred.T
    norms2 = np.einsum("ij,ij->i", pts, pts)
    keep = norms2 <= r2
    if not include_zero:
        keep &= np.any(reduced != 0, axis=1)
    cands = reduced[keep] @ U.T.astype(np.int64)
    if return_norms:
        return cands, np.sqrt(norms2[keep])
    return cands


def shortest_vector_coeffs(basis, *, ceiling: int | None = None) -> tuple[np.ndarray, float]:
    """Shortest nonzero vector of the column lattice of ``basis``.

    Returns (m, length) where m is the integer coefficient vector; the
    sign is canonicalized (first nonzero coefficient positive) and ties in
    length resolve to the lexicographically least coefficient tuple.
    """
    Bred, U = lll_reduce(_basis3(basis))
    return _shortest_in_frame(Bred, U, ceiling=ceiling)


def _shortest_in_frame(
    Bred: np.ndarray, U: np.ndarray, *, ceiling: int | None = None
) -> tuple[np.ndarray, float]:
    """shortest_vector_coeffs on an already reduced frame (see _enumerate_frame)."""
    bound = float(np.min(np.linalg.norm(Bred, axis=0)))
    cands, lens = _enumerate_frame(Bred, U, bound, ceiling=ceiling, return_norms=True)
    if len(cands) == 0:
        # cannot happen for a nonsingular basis: the first reduced column qualifies
        raise CapacityExceeded("shortest-vector enumeration returned no candidates")
    # canonical sign per candidate
    first_nz = np.argmax(cands != 0, axis=1)
    signs = np.sign(cands[np.arange(len(cands)), first_nz])
    cands = cands * signs[:, None]
    best = min(range(len(cands)), key=lambda i: (lens[i], tuple(cands[i])))
    return cands[best].copy(), float(lens[best])
