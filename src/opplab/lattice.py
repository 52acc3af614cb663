"""Lattice utilities: LLL basis reduction and ball enumeration.

Bases are stored column-wise, so a basis matrix B spans the lattice
{B @ m : m integer}.  Reduction is the textbook floating-point LLL
(delta = 0.99) with the unimodular transform tracked in exact integers;
ball enumeration is Fincke-Pohst, walking nested coordinate intervals of
the Cholesky factor from the last coordinate inward.  Dimensions here are
tiny (3 for lattices in space, 7 for the Diophantine candidate lattice in
module approx), so everything runs on Python floats and ints.  A 3x3
basis is reduced by an unrolled body (``_lll_3d``) that holds each column
in three float locals; any other size runs the general loop
(``_lll_general``, one list per column), whose only caller is the 7-D
heuristic candidate lattice and which goes when that path is deleted.
Both take the same steps with the same sums, so they return the same
bits; the tests compare them with each other and with a numpy reference.
Both keep the Gram-Schmidt rows of the columns they have not touched and
recompute only the rows from the first changed column on.

Dot products and lattice vectors are plain sequential sums in a fixed
order: on 3x3 data they cost less than a numpy call, and unlike a BLAS
product (whose kernel may fuse or reorder the multiply-adds) they give the
same bits on every machine.  Every norm the 3-D enumeration returns is
((m0 b0 + m1 b1) + m2 b2) per coordinate, summed as (x^2 + y^2) + z^2, over
the reduced columns b0, b1, b2.

One reduced frame (``_Frame``) serves any number of enumerations: callers
that need several balls of the same lattice reduce it once and walk each
ball in the frame.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import CapacityExceeded, _Capacity

_MAX_LLL_ITER = 10_000


def _dot(a: list[float], b: list[float]) -> float:
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _extend_gram_schmidt(
    cols: list[list[float]],
    stars: list[list[float]],
    mu: list[list[float]],
    norms2: list[float],
    n: int,
) -> None:
    """Append the Gram-Schmidt rows (B*, mu, |B*|^2) of columns len(stars)..n-1.

    Row i depends only on columns 0..i, so rows of leading columns that
    have not changed stay valid and are kept as they are.
    """
    for i in range(len(stars), n):
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


def _lll_general(cols: list[list[float]]) -> tuple[list[list[float]], list[list[int]]]:
    """LLL steps of any dimension on columns ``cols`` (changed in place).

    Returns (cols, U) with U[j] the integer column j of the transform.  Each
    step extends the Gram-Schmidt data to the columns it needs and drops
    the rows of the columns it changes (column k after a size reduction,
    columns k-1 and k after a swap); every row is computed by the same sums
    from the same columns as a full recomputation would, so the result does
    not depend on what was kept.
    """
    n = len(cols)
    U = [[int(i == j) for i in range(n)] for j in range(n)]
    stars: list[list[float]] = []
    mu: list[list[float]] = []
    norms2: list[float] = []
    k = 1
    for _ in range(_MAX_LLL_ITER):
        if k >= n:
            break
        _extend_gram_schmidt(cols, stars, mu, norms2, k + 1)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
                U[k] = [x - q * y for x, y in zip(U[k], U[j])]
                del stars[k:], mu[k:], norms2[k:]
                _extend_gram_schmidt(cols, stars, mu, norms2, k + 1)
        m = mu[k][k - 1]
        if norms2[k] >= (0.99 - m * m) * norms2[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            del stars[k - 1 :], mu[k - 1 :], norms2[k - 1 :]
            k = max(k - 1, 1)
    return cols, U


def _lll_3d(cols: list[list[float]]) -> tuple[list[list[float]], list[list[int]]]:
    """The steps of ``_lll_general`` on three columns, unrolled.

    Same decisions in the same order, from the same sums: a column is three
    float locals, and a Gram-Schmidt value is recomputed only when a column
    it depends on changed, just before it is read.  Row 0 is n0 = |b0|^2
    (b0* = b0), row 1 is mu10, b1* = (sx1, sy1, sz1) and n1 = |b1*|^2, and
    row 2 is mu20, mu21 and n2 = |b2*|^2 (b2* is never read).  Each mu is
    the dot product of the column itself with b_j*, so mu21 does not depend
    on mu20 and is read first.  Entering k = 2, rows 0 and 1 are current.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = cols
    u0, u1, u2 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    n0 = 0.0 + x0 * x0 + y0 * y0 + z0 * z0
    k = 1
    for _ in range(_MAX_LLL_ITER):
        if k == 1:
            m10 = (0.0 + x1 * x0 + y1 * y0 + z1 * z0) / n0 if n0 > 0 else 0.0
            q = round(m10)
            if q != 0:
                x1, y1, z1 = x1 - q * x0, y1 - q * y0, z1 - q * z0
                u1 = [a - q * b for a, b in zip(u1, u0)]
                m10 = (0.0 + x1 * x0 + y1 * y0 + z1 * z0) / n0 if n0 > 0 else 0.0
            sx1, sy1, sz1 = x1 - m10 * x0, y1 - m10 * y0, z1 - m10 * z0
            n1 = 0.0 + sx1 * sx1 + sy1 * sy1 + sz1 * sz1
            if n1 >= (0.99 - m10 * m10) * n0:
                k = 2
            else:
                x0, y0, z0, x1, y1, z1 = x1, y1, z1, x0, y0, z0
                u0, u1 = u1, u0
                n0 = 0.0 + x0 * x0 + y0 * y0 + z0 * z0
        elif k == 2:
            m21 = (0.0 + x2 * sx1 + y2 * sy1 + z2 * sz1) / n1 if n1 > 0 else 0.0
            q = round(m21)
            if q != 0:
                x2, y2, z2 = x2 - q * x1, y2 - q * y1, z2 - q * z1
                u2 = [a - q * b for a, b in zip(u2, u1)]
            m20 = (0.0 + x2 * x0 + y2 * y0 + z2 * z0) / n0 if n0 > 0 else 0.0
            q = round(m20)
            if q != 0:
                x2, y2, z2 = x2 - q * x0, y2 - q * y0, z2 - q * z0
                u2 = [a - q * b for a, b in zip(u2, u0)]
                m20 = (0.0 + x2 * x0 + y2 * y0 + z2 * z0) / n0 if n0 > 0 else 0.0
            m21 = (0.0 + x2 * sx1 + y2 * sy1 + z2 * sz1) / n1 if n1 > 0 else 0.0
            vx, vy, vz = x2 - m20 * x0, y2 - m20 * y0, z2 - m20 * z0
            vx, vy, vz = vx - m21 * sx1, vy - m21 * sy1, vz - m21 * sz1
            n2 = 0.0 + vx * vx + vy * vy + vz * vz
            if n2 >= (0.99 - m21 * m21) * n1:
                k = 3
            else:
                x1, y1, z1, x2, y2, z2 = x2, y2, z2, x1, y1, z1
                u1, u2 = u2, u1
                k = 1
        else:
            break
    return [[x0, y0, z0], [x1, y1, z1], [x2, y2, z2]], [u0, u1, u2]


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _reduced_arrays(cols: list[list[float]], U: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, transform) as C-contiguous float64 and int64 arrays of the columns."""
    if not all(_INT64_MIN <= x <= _INT64_MAX for col in U for x in col):
        raise CapacityExceeded(
            "LLL transform has an entry beyond the int64 range: the basis is too sheared"
        )
    return np.array(cols, dtype=float).T.copy(), np.array(U, dtype=np.int64).T.copy()


def lll_reduce(basis) -> tuple[np.ndarray, np.ndarray]:
    """LLL-reduce the columns of ``basis`` with delta = 0.99.

    Returns (reduced, transform) with reduced = basis @ transform and
    transform integral unimodular (float64 and int64 arrays).  The
    iteration count is capped; hitting the cap leaves a partially reduced
    basis, which only costs enumeration speed, never correctness.  A
    transform entry beyond the int64 range raises CapacityExceeded, and so
    does a basis too large to scale into float64 (below).  A NaN or
    infinite entry raises ValueError.

    A 3x3 basis runs the unrolled body ``_lll_3d``; any other size runs
    ``_lll_general``, whose one caller is the 7-D candidate lattice of
    ``approx._heuristic_candidates`` (it goes when that heuristic path is
    deleted).  Both take the same steps with the same sums and so return
    the same bits; tests/test_lattice.py pins both to the numpy reference
    ``_reference_lll_reduce`` and to each other.

    A basis whose squared column norms overflow float64 (entries past about
    1.3e154) is reduced scaled by an exact power of two, 2^-e with e the
    binary exponent of its largest entry, and scaled back: the steps of the
    body compare ratios and round quotients, which the scale does not move,
    so the result is the reduction of the basis as if float64 had no top.
    The scale is exact only if no entry leaves the normal range; a basis
    whose entries span more binades than that raises CapacityExceeded.
    Every basis whose squared norms fit is reduced unscaled, bit for bit.
    """
    B = np.array(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"expected a square basis matrix, got shape {B.shape}")
    cols = B.T.tolist()
    scale = 0
    if not all(math.isfinite(_dot(c, c)) for c in cols):
        if not np.isfinite(B).all():
            raise ValueError("basis has a non-finite entry")
        scale = math.frexp(float(np.abs(B).max()))[1]
        scaled = np.ldexp(B, -scale)
        if not np.array_equal(np.ldexp(scaled, scale), B):
            raise CapacityExceeded(
                "basis is too large to reduce in float64: a squared column norm is not "
                "finite, and its entries span too many binades to scale"
            )
        B = scaled
        cols = B.T.tolist()
    if abs(np.linalg.det(B)) == 0.0:
        raise ValueError("basis is singular")
    body = _lll_3d if B.shape[1] == 3 else _lll_general
    cols, U = body(cols)
    reduced, transform = _reduced_arrays(cols, U)
    if scale:
        reduced = np.ldexp(reduced, scale)
        if not np.isfinite(reduced).all():
            raise CapacityExceeded("LLL-reduced basis is too large for float64")
    return reduced, transform


def _basis3(basis) -> np.ndarray:
    B = np.array(basis, dtype=float)
    if B.shape != (3, 3):
        raise ValueError(f"expected a 3x3 basis, got {B.shape}")
    return B


def _pivot(p: float) -> float:
    """Square root of a Cholesky pivot, which must be positive."""
    if not p > 0.0:
        raise ValueError("reduced basis is numerically singular")
    return math.sqrt(p)


class _Frame:
    """An LLL-reduced frame (Bred, U) of a 3-D lattice, ready for ball walks.

    Holds the reduced columns c0, c1, c2, U, and the upper Cholesky factor
    R of G + D, with G the Gram matrix of the reduced columns and
    D = 1e-14 diag(g00, g11, g22) a per-column jitter that keeps the
    factorization defined on nearly degenerate input.  The jitter inflates
    the traversal norm of a coefficient vector m by 1e-14 S, with
    S = sum g_ii m_i^2, so each walk widens its traversal radius to stay a
    superset of the ball.  The exact norm filter decides membership.

    The widening comes from Cramer's rule: m_i is det(Bred) with column i
    replaced by v = Bred m, divided by det(Bred), so Hadamard's inequality
    gives |m_i| |c_i| <= |v| |c0| |c1| |c2| / |det|.  In the ball of radius
    r that is S <= h r^2 with h = 3 g00 g11 g22 / det^2, which is at least 3
    and, for a reduced frame, a small constant.  The jitter of each column
    scales with that column, so frames whose column lengths spread widely
    are walked as tightly as round ones.  Rounding margins: the cofactor
    determinant is off by at most 5 eps times the sum of the absolute
    values of its terms, and det_lo subtracts 1e-14 times that sum; the
    few roundings of the products in h are covered by the factor 1 + 1e-9.
    The walk widens r^2 by 2e-14 h r^2: 1e-14 h r^2 for the jitter itself,
    and the rest for the rounding of G, of the jitter, of the
    factorization, of the walk's intervals and of the filter's norms.  Each
    of those is a few eps |m_i| |m_j| |c_i| |c_j| per entry (i, j), or a
    few eps r_t^2 with r_t the traversal radius, and by Cauchy-Schwarz
    (sum |m_i| |c_i|)^2 <= 3 S, so together they stay below
    20 eps (3 (1 + 1e-14) S + r_t^2) <= 0.67e-14 h r^2
    + 0.23e-14 (1 + 2e-14 h) r^2, which is less than the 1e-14 h r^2 left
    over because h >= 3.
    """

    __slots__ = ("cols", "U", "r00", "r01", "r02", "r11", "r12", "r22", "widen")

    def __init__(self, Bred: np.ndarray, U: np.ndarray):
        self.cols = Bred.T.tolist()
        self.U = U
        c0, c1, c2 = self.cols
        g00, g01, g02 = _dot(c0, c0), _dot(c0, c1), _dot(c0, c2)
        g11, g12, g22 = _dot(c1, c1), _dot(c1, c2), _dot(c2, c2)
        r00 = _pivot(g00 + 1e-14 * g00)
        r01, r02 = g01 / r00, g02 / r00
        r11 = _pivot(g11 + 1e-14 * g11 - r01 * r01)
        r12 = (g12 - r01 * r02) / r11
        r22 = _pivot(g22 + 1e-14 * g22 - r02 * r02 - r12 * r12)

        (a, b, c), (d, e, f), (g, h, i) = Bred.tolist()
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        terms = (
            abs(a) * (abs(e * i) + abs(f * h))
            + abs(b) * (abs(d * i) + abs(f * g))
            + abs(c) * (abs(d * h) + abs(e * g))
        )
        det_lo = abs(det) - 1e-14 * terms
        if not det_lo > 0.0:
            raise ValueError("reduced basis is numerically singular")
        hadamard = (1.0 + 1e-9) * 3.0 * g00 * g11 * g22 / (det_lo * det_lo)

        self.r00, self.r01, self.r02 = r00, r01, r02
        self.r11, self.r12, self.r22 = r11, r12, r22
        self.widen = 2e-14 * hadamard

    def _rows(self, r2_trav: float):
        """Fincke-Pohst rows (m1, m2, lo0, hi0) of the traversal ellipsoid."""
        r00, r01, r02 = self.r00, self.r01, self.r02
        r11, r12, r22 = self.r11, self.r12, self.r22
        lim2 = math.floor(math.sqrt(r2_trav) / r22)
        for m2 in range(-lim2, lim2 + 1):
            rem2 = r2_trav - (r22 * m2) ** 2
            if rem2 < 0:
                continue
            c1 = -r12 * m2
            half1 = math.sqrt(rem2)
            lo1 = math.ceil((c1 - half1) / r11)
            hi1 = math.floor((c1 + half1) / r11)
            for m1 in range(lo1, hi1 + 1):
                rem1 = rem2 - (r11 * m1 + r12 * m2) ** 2
                if rem1 < 0:
                    continue
                c0 = -(r01 * m1 + r02 * m2)
                half0 = math.sqrt(rem1)
                lo0 = math.ceil((c0 - half0) / r00)
                hi0 = math.floor((c0 + half0) / r00)
                if hi0 >= lo0:
                    yield m1, m2, lo0, hi0

    def walk(self, radius: float) -> tuple[array, array]:
        """Reduced coefficients and squared norms of the nonzero lattice points in the ball.

        Returns (coefficients, norms2): flat ``array('q')`` triples
        (m0, m1, m2) with respect to the reduced columns and an
        ``array('d')``, both in walk order (m2, then m1, then m0
        ascending).  Only points that pass the norm filter are stored.
        The coefficient slots the walk visits are charged to the work
        ceiling: when the traversal's box could pass it, the slots are
        counted, without storing anything, before the walk, so a ball too
        large for the ceiling raises CapacityExceeded before it stores a
        point.
        """
        r2 = radius * radius * (1.0 + 1e-12) + 1e-300
        r2_trav = r2 * (1.0 + self.widen)
        tally = _Capacity("coefficient slots of the ball walk")
        s2 = 2.0 * math.sqrt(r2_trav)
        box = (s2 / self.r00 + 2.0) * (s2 / self.r11 + 2.0) * (s2 / self.r22 + 2.0)
        if box > tally.ceiling:
            for _, _, lo0, hi0 in self._rows(r2_trav):
                tally.add(hi0 - lo0 + 1)
        (b00, b10, b20), (b01, b11, b21), (b02, b12, b22) = self.cols
        coeffs = array("q")
        norms2 = array("d")
        for m1, m2, lo0, hi0 in self._rows(r2_trav):
            x1, y1, z1 = m1 * b01, m1 * b11, m1 * b21
            x2, y2, z2 = m2 * b02, m2 * b12, m2 * b22
            for m0 in range(lo0, hi0 + 1):
                x = m0 * b00 + x1 + x2
                y = m0 * b10 + y1 + y2
                z = m0 * b20 + z1 + z2
                n2 = x * x + y * y + z * z
                if n2 <= r2 and (m0 or m1 or m2):
                    coeffs.extend((m0, m1, m2))
                    norms2.append(n2)
        return coeffs, norms2

    def shortest_radius(self) -> float:
        """Length of the shortest reduced column, by the walk's own norm sums."""
        return math.sqrt(min(_dot(c, c) for c in self.cols))

    def original(self, coeffs: array) -> np.ndarray:
        """Reduced coefficient triples as a (k, 3) int64 array in the original basis."""
        return np.frombuffer(coeffs, dtype=np.int64).reshape(-1, 3) @ self.U.T


def enumerate_ball(basis, radius: float) -> np.ndarray:
    """All nonzero integer coefficient vectors m with ``|basis @ m| <= radius``.

    ``basis`` must be 3x3 nonsingular.  Returns an (k, 3) int64 array in a
    deterministic (but otherwise unspecified) order.  The walk is always
    bounded: a ball whose candidate coefficient slots would pass the work
    ceiling (errors.DEFAULT_CEILING) raises CapacityExceeded before it
    stores any point.

    Norms are evaluated against the LLL-reduced columns: for strongly
    sheared bases (diagonal-flow images of a lattice) the reduced frame is
    well conditioned while recombining the original columns cancels
    catastrophically.
    """
    B = _basis3(basis)
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    frame = _Frame(*lll_reduce(B))
    coeffs, _ = frame.walk(radius)
    return frame.original(coeffs)


def shortest_vector_coeffs(basis) -> tuple[np.ndarray, float]:
    """Shortest nonzero vector of the column lattice of ``basis``.

    Returns (m, length) where m is the integer coefficient vector; the
    sign is canonicalized (first nonzero coefficient positive) and ties in
    length resolve to the lexicographically least coefficient tuple.
    """
    frame = _Frame(*lll_reduce(_basis3(basis)))
    coeffs, norms2 = frame.walk(frame.shortest_radius())
    if not norms2:
        # cannot happen for a nonsingular basis: the shortest reduced column qualifies
        raise CapacityExceeded("shortest-vector enumeration returned no candidates")
    best = None
    for cand, n2 in zip(frame.original(coeffs).tolist(), norms2):
        if next(c for c in cand if c) < 0:
            cand = [-c for c in cand]
        key = (math.sqrt(n2), cand)
        if best is None or key < best:
            best = key
    length, cand = best
    return np.array(cand, dtype=np.int64), length
