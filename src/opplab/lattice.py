"""Lattice utilities: LLL basis reduction and ball enumeration.

Bases are stored column-wise, so a basis matrix B spans the lattice
{B @ m : m integer}.  Reduction is the textbook floating-point LLL
(delta = 0.99) with the unimodular transform tracked in exact integers;
ball enumeration is Fincke-Pohst, walking nested coordinate intervals of
the Cholesky factor from the last coordinate inward.  Dimensions here are
tiny (3 for lattices in space, 7 for the Diophantine candidate lattice in
module approx), so reduction runs on Python floats and ints, one basis at
a time; lll_reduce, the one entry point, takes one basis or a stack of
them and makes its checks once per stack.  A 3x3 basis is reduced by an
unrolled body (``_lll_3d``) that holds each column in three float locals;
any other size runs the general loop (``_lll_general``, one list per
column), whose only caller is the 7-D heuristic candidate lattice and
which goes when that path is deleted.
Both take the same steps with the same sums, so they return the same
bits; the tests compare them with each other and with a numpy reference.
Both keep the Gram-Schmidt rows of the columns they have not touched and
recompute only the rows from the first changed column on.

Ball walks run in numpy on a block of reduced frames (``_Frames``) at
once: each level of the walk (m2 values, m1 rows, m0 slots) is expanded
for every frame of the block together, in chunks of at most 2,048
entries, by ``util.expand_ranges`` (the package's one range expander).
One frame is the block of one; the Siegel samples of module flows are
reduced and walked 64 at a time.

Dot products and lattice vectors are plain sums in a fixed order, taken
by scalar or elementwise operations and never by a BLAS product (whose
kernel may fuse or reorder the multiply-adds), so they give the same bits
on every machine and in every block.  Every norm the 3-D enumeration
returns is ((m0 b0 + m1 b1) + m2 b2) per coordinate, summed as
(x^2 + y^2) + z^2, over the reduced columns b0, b1, b2.

One reduced frame serves any number of enumerations: callers that need
several balls of the same lattice reduce it once and walk each ball in
the frame.  The shortest vector takes util.canonical_mask's sign.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityExceeded, _Capacity
from .util import canonical_mask, expand_ranges

_MAX_LLL_ITER = 10_000


def _dot(a, b):
    """((0 + a0 b0) + a1 b1) + ...: on floats, or entry by entry on arrays of them."""
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


def _reduced_arrays(cols, U) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, transform) of the columns of one basis, or of a stack of them.

    C-contiguous float64 and int64 arrays whose columns are the reduced
    vectors and the transform's integer columns.
    """
    try:
        transform = np.array(U, dtype=np.int64)
    except OverflowError:
        raise CapacityExceeded(
            "LLL transform has an entry beyond the int64 range: the basis is too sheared"
        ) from None
    return np.array(cols, dtype=float).swapaxes(-1, -2).copy(), transform.swapaxes(-1, -2).copy()


def lll_reduce(basis) -> tuple[np.ndarray, np.ndarray]:
    """LLL-reduce the columns of one (n, n) basis, or of each in a (K, n, n) stack.

    Returns (reduced, transform), shaped like ``basis``, with reduced =
    basis @ transform and transform integral unimodular (float64 and int64
    arrays), delta = 0.99.  The checks below are made once for a stack and
    applied basis by basis, so each basis gets the bits of its own call.
    The iteration count is capped; hitting the cap leaves a partially
    reduced basis, which only costs enumeration speed, never correctness.
    A transform entry beyond the int64 range raises CapacityExceeded, and
    so does a basis too large to scale into float64 (below).  A NaN or
    infinite entry, or a singular basis, raises ValueError.

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
    if B.ndim not in (2, 3) or B.shape[-1] != B.shape[-2]:
        raise ValueError(f"expected a square basis matrix or a stack of them, got shape {B.shape}")
    stack = B.reshape(-1, *B.shape[-2:])
    over = []  # the bases whose squared column norms overflow; none below 2^500
    if not np.abs(stack).max() < 2.0**500:
        rows = stack.transpose(1, 0, 2)  # row i of every basis
        with np.errstate(over="ignore", invalid="ignore"):
            over = np.flatnonzero(~np.isfinite(_dot(rows, rows)).all(axis=1))
    if len(over):
        if not np.isfinite(stack).all():
            raise ValueError("basis has a non-finite entry")
        scale = np.frexp(np.abs(stack[over]).max(axis=(1, 2)))[1][:, None, None]
        scaled = np.ldexp(stack[over], -scale)
        if not np.array_equal(np.ldexp(scaled, scale), stack[over]):
            raise CapacityExceeded(
                "basis is too large to reduce in float64: a squared column norm is not "
                "finite, and its entries span too many binades to scale"
            )
        stack[over] = scaled
    if not np.linalg.det(stack).all():  # a zero determinant
        raise ValueError("basis is singular")
    body = _lll_3d if stack.shape[1] == 3 else _lll_general
    cols, U = zip(*map(body, stack.swapaxes(1, 2).tolist()))
    reduced, transform = _reduced_arrays(cols, U)
    if len(over):
        reduced[over] = np.ldexp(reduced[over], scale)
        if not np.isfinite(reduced[over]).all():
            raise CapacityExceeded("LLL-reduced basis is too large for float64")
    return reduced.reshape(B.shape), transform.reshape(B.shape)


def _basis3(basis) -> np.ndarray:
    B = np.array(basis, dtype=float)
    if B.shape != (3, 3):
        raise ValueError(f"expected a 3x3 basis, got {B.shape}")
    return B


def _pivot(p: np.ndarray) -> np.ndarray:
    """Square roots of Cholesky pivots, which must be positive."""
    if not np.all(p > 0.0):
        raise ValueError("reduced basis is numerically singular")
    return np.sqrt(p)


def _rows(frames: "_Frames", r2_trav: np.ndarray):
    """Chunks (k, m1, m2, lo0, hi0) of the Fincke-Pohst rows of the traversal ellipsoids.

    Row (m1, m2) of frame k holds the m0 in [lo0, hi0]; coefficients and
    bounds are integers held as float64.  Only nonempty rows are yielded,
    frame by frame, each frame's rows m2 then m1 ascending.
    """
    r01, r02, r11, r12, r22 = frames.r01, frames.r02, frames.r11, frames.r12, frames.r22
    lim2 = np.floor(np.sqrt(r2_trav) / r22)
    for k, m2 in expand_ranges(-lim2, lim2):
        t = r22[k] * m2
        rem2 = r2_trav[k] - t * t
        live = rem2 >= 0
        k, m2, rem2 = k[live], m2[live], rem2[live]
        c1, half1 = -r12[k] * m2, np.sqrt(rem2)
        lo1, hi1 = np.ceil((c1 - half1) / r11[k]), np.floor((c1 + half1) / r11[k])
        for i, m1 in expand_ranges(lo1, hi1):
            ki, m2i = k[i], m2[i]
            t = r11[ki] * m1 + r12[ki] * m2i
            rem1 = rem2[i] - t * t
            c0, half0 = -(r01[ki] * m1 + r02[ki] * m2i), np.sqrt(np.maximum(rem1, 0.0))
            lo0 = np.ceil((c0 - half0) / frames.r00[ki])
            hi0 = np.floor((c0 + half0) / frames.r00[ki])
            keep = (rem1 >= 0) & (hi0 >= lo0)
            yield ki[keep], m1[keep], m2i[keep], lo0[keep], hi0[keep]


class _Frames:
    """LLL-reduced frames (Bred, U) of K 3-D lattices, ready for ball walks.

    Built from stacks of K reduced bases and transforms, shape (K, 3, 3); a
    single (3, 3) pair is the frame block of one lattice.  Every per-frame
    value is a length-K array computed by elementwise float64 operations in a
    fixed order, so a frame has the same bits alone as in any block.

    A frame holds its reduced columns c0, c1, c2 and the upper Cholesky
    factor R of G + D, with G the Gram matrix of the reduced columns and
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

    __slots__ = ("Bred", "U", "cols", "r00", "r01", "r02", "r11", "r12", "r22", "widen", "short2")

    @np.errstate(all="ignore")  # a non-finite value fails the checks below
    def __init__(self, Bred: np.ndarray, U: np.ndarray):
        self.Bred = np.asarray(Bred, dtype=float).reshape(-1, 3, 3)
        self.U = np.asarray(U, dtype=np.int64).reshape(-1, 3, 3)
        # rows x, y, z of column 0, then of columns 1 and 2; one entry per frame
        self.cols = self.Bred.transpose(2, 1, 0).reshape(9, -1)
        c0, c1, c2 = self.cols[0:3], self.cols[3:6], self.cols[6:9]
        g00, g01, g02 = _dot(c0, c0), _dot(c0, c1), _dot(c0, c2)
        g11, g12, g22 = _dot(c1, c1), _dot(c1, c2), _dot(c2, c2)
        r00 = _pivot(g00 + 1e-14 * g00)
        r01, r02 = g01 / r00, g02 / r00
        r11 = _pivot(g11 + 1e-14 * g11 - r01 * r01)
        r12 = (g12 - r01 * r02) / r11
        r22 = _pivot(g22 + 1e-14 * g22 - r02 * r02 - r12 * r12)

        # cofactor determinant of the rows (a, b, c), (d, e, f), (g, h, i)
        (a, d, g), (b, e, h), (c, f, i) = c0, c1, c2
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        terms = (
            abs(a) * (abs(e * i) + abs(f * h))
            + abs(b) * (abs(d * i) + abs(f * g))
            + abs(c) * (abs(d * h) + abs(e * g))
        )
        det_lo = abs(det) - 1e-14 * terms
        if not np.all(det_lo > 0.0):
            raise ValueError("reduced basis is numerically singular")
        hadamard = (1.0 + 1e-9) * 3.0 * g00 * g11 * g22 / (det_lo * det_lo)

        self.r00, self.r01, self.r02 = r00, r01, r02
        self.r11, self.r12, self.r22 = r11, r12, r22
        self.widen = 2e-14 * hadamard
        self.short2 = np.minimum(np.minimum(g00, g11), g22)

    def __len__(self) -> int:
        return len(self.Bred)

    def take(self, idx) -> "_Frames":
        """The frames at ``idx``, as a block of their own."""
        return _Frames(self.Bred[idx], self.U[idx])

    def walk(self, radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduced coefficients and squared norms of the nonzero lattice points in the balls.

        ``radii`` is one radius for every frame or one per frame.  Returns
        (coeffs, norms2, owner): (n, 3) int64 triples (m0, m1, m2) with
        respect to each frame's reduced columns, their float64 squared norms
        ((m0 b0 + m1 b1) + m2 b2 per coordinate, (x^2 + y^2) + z^2), and the
        int64 index of the frame each point is in.  Points come frame by
        frame, each frame's in walk order (m2, then m1, then m0 ascending).
        Only points that pass the norm filter are stored, and the walk's
        temporaries are made chunk by chunk (util.expand_ranges).

        A radius whose squared traversal radius is not finite, or whose
        traversal box spans 2^53 or more integers on a side, raises
        CapacityExceeded before the walk starts.  The coefficient
        slots each frame visits are charged to the work ceiling, one tally
        per frame: when a frame's box could pass the ceiling its slots are
        counted, without storing anything, before the walk, so a ball too
        large for the ceiling raises CapacityExceeded before any point is
        stored.
        """
        radii = np.broadcast_to(np.asarray(radii, dtype=float), (len(self),))
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = radii * radii * (1.0 + 1e-12) + 1e-300
            r2_trav = r2 * (1.0 + self.widen)
        overflow = ~np.isfinite(r2_trav)
        if overflow.any():
            raise CapacityExceeded(
                f"a ball of radius {radii[overflow][0]:.6g} is too large to walk: its squared "
                "traversal radius is not finite in float64"
            )
        s2 = 2.0 * np.sqrt(r2_trav)
        sides = (s2 / self.r00 + 2.0, s2 / self.r11 + 2.0, s2 / self.r22 + 2.0)
        if not all(np.all(side < 2.0**53) for side in sides):
            raise CapacityExceeded(
                "a ball is too large to walk: its traversal box spans 2^53 or more "
                "integers on a side"
            )
        box = sides[0] * sides[1] * sides[2]
        label = "coefficient slots of the ball walk"
        for k in np.flatnonzero(box > _Capacity(label).ceiling):
            tally = _Capacity(label)
            for *_, lo0, hi0 in _rows(self.take([k]), r2_trav[[k]]):
                tally.add(int(np.sum(hi0 - lo0 + 1)))

        parts = []
        for k, m1, m2, lo0, hi0 in _rows(self, r2_trav):
            b0x, b0y, b0z, b1x, b1y, b1z, b2x, b2y, b2z = self.cols[:, k]
            # the m1 and m2 terms of each row's points
            x1, y1, z1, x2, y2, z2 = m1 * b1x, m1 * b1y, m1 * b1z, m2 * b2x, m2 * b2y, m2 * b2z
            r2_row, nonzero = r2[k], (m1 != 0) | (m2 != 0)
            for i, m0 in expand_ranges(lo0, hi0):
                x = (m0 * b0x[i] + x1[i]) + x2[i]
                y = (m0 * b0y[i] + y1[i]) + y2[i]
                z = (m0 * b0z[i] + z1[i]) + z2[i]
                n2 = (x * x + y * y) + z * z
                keep = (n2 <= r2_row[i]) & ((m0 != 0) | nonzero[i])
                i = i[keep]
                parts.append((np.stack((m0[keep], m1[i], m2[i]), axis=1), n2[keep], k[i]))
        if not parts:
            return np.empty((0, 3), dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
        coeffs, norms2, owner = (np.concatenate(part) for part in zip(*parts))
        return coeffs.astype(np.int64), norms2, owner

    def shortest_radii(self) -> np.ndarray:
        """Length of each frame's shortest reduced column, by the walk's own norm sums."""
        return np.sqrt(self.short2)

    def original(self, coeffs: np.ndarray) -> np.ndarray:
        """Reduced coefficient triples of a one-frame block in the original basis, (k, 3) int64."""
        return coeffs @ self.U[0].T


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
    frame = _Frames(*lll_reduce(B))
    coeffs, _, _ = frame.walk(radius)
    return frame.original(coeffs)


def shortest_vector_coeffs(basis) -> tuple[np.ndarray, float]:
    """Shortest nonzero vector of the column lattice of ``basis``.

    Returns (m, length) where m is the integer coefficient vector; the
    sign is canonicalized (first nonzero coefficient positive) and ties in
    length resolve to the lexicographically least coefficient tuple.
    """
    frame = _Frames(*lll_reduce(_basis3(basis)))
    # never empty: the shortest reduced column's walk norm is the very sum of short2
    coeffs, norms2, _ = frame.walk(frame.shortest_radii())
    coeffs = frame.original(coeffs)
    coeffs = np.where(canonical_mask(coeffs)[:, None], coeffs, -coeffs)
    lengths = np.sqrt(norms2)
    j = np.lexsort((*coeffs.T[::-1], lengths))[0]
    return coeffs[j], float(lengths[j])
