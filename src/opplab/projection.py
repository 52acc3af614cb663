"""Finite-set laboratory for the 5-dimensional representation machinery.

Vectors live in weight coordinates (w0, ..., w4), coordinate i carrying
weight (2 - i) for the diagonal flow: adjoint_a(t) scales coordinate i by
e^((2-i)t).  The unipotent action is the exponential of the coordinate
shift (N w)_i = w_{i+1}:

    adjoint_u(r, w)_i = sum_{k >= i} w_k r^(k-i) / (k-i)!

This factorial-free normalization is the unique one reproducing the
projection family

    xi_r(w) = (adjoint_u(r, w)_0, adjoint_u(r, w)_1),

a polynomial in r with coefficients w0 + w1 r + w2 r^2/2 + ... in the top
coordinate.  The "plus part" w+ = (w0, w1) collects the positive-weight
coordinates; coordinates are declared orthonormal, which fixes all norms.

The survey machinery measures, for a finite set Theta in the unit ball,
how often the projections xi_r concentrate more than an alpha-dimensional
set should: a point w violates at scale b when more than
C * egbd * b^(alpha - c*eps) * #Theta of the images land within b of
xi_r(w), and a parameter r is exceptional when the violating fraction
exceeds b^eps.  All implied constants of the motivating asymptotics are
explicit knobs here (C, c, eps); nothing asymptotic is asserted.

The Margulis-style function on a finite configuration is a truncated
energy: given the displacement vectors w of near returns (closer than
b, the injectivity radius being frozen to 1 in this linearized picture),

    value = b^(-alpha)                              if #returns <= M,
            sum of |w|^(-alpha) over all but the M smallest norms otherwise,

where dropping exactly the M smallest norms (_truncated_energies, for
margulis_value and each point of a profile) realizes the minimum over all
ways to discard M returns (exchange argument; the test suite cross-checks
against exhaustive subset enumeration).

Every pairwise quantity (neighbour counts, clipped energies, near returns)
comes from one kernel, ``_pair_tiles``, which yields the squared-distance
matrix (sq_i + sq_j) - 2 x_i . x_j of a configuration (the sum from an
exact k = 2 matmul, the Gram block from x[rows] @ x.T; see _pair_tiles)
in blocks of rows, each at most ``_TILE_ENTRIES`` entries (512 KiB per
float64 buffer, so a tile and its Gram block stay in a 2 MiB L2 cache).
The matrix is symmetric, so the counts of projection_concentration and
nonconcentration_constant (one _strip_counts pass) and the counts and
energies of a survey take upper-triangle strips (rows [i, i + m) by
columns [i, n)) and evaluate each unordered pair once; _add_strip adds a strip's row sums to its own
points and the column sums of its off-diagonal part to the later points.
The truncated-energy profiles of improvement_step_sim take whole rows.
The kernel allocates its two buffers once per call and refills them for
every tile, so a yielded tile is a reused buffer: the consumer must reduce
it (or copy it) before the generator advances, and may overwrite it in
place.  A point's entry with itself is +inf in every tile, whatever its
rounding residue, so no count, energy or return takes the self-pair and
no consumer needs a special case for it: every count starts at 1 for the
point itself.  A tile is not clipped at 0: rounding can leave an entry
slightly negative.  The neighbour counts compare with a square b^2 >= 0
and the energies clip at b^2 themselves, so neither needs the clip; the
near returns clip the entries they gather.  Counts are exact in any
order.  A
survey energy sums a point's terms in a fixed order: the column sums of
the strips before the point's own, in strip order, then its own row sum
(pairwise, as numpy sums a row).  That order, like the tile layout,
depends on the number of points and ``_TILE_ENTRIES`` alone, never on the
worker count; up to 256 points it is one strip, a plain row sum.  A
profile reduces each row of a whole-row tile with an order-independent
sum, so its value is what it would be over the full matrix.  The bits of
a tile do depend on its shape, though: BLAS edge kernels round the Gram
block differently for different block shapes, so ``_TILE_ENTRIES`` is
part of the output contract until every product is
fixed-order arithmetic.  A configuration charges its n^2 pairs to the
package's work ceiling (errors.DEFAULT_CEILING, the same one that bounds
every enumeration), so above 31,622 points it raises CapacityExceeded
before any point is drawn or any tile is built.  A survey also charges
its r values, improvement_step_sim its profiles and
nonconcentration_constant its dyadic scales, before the first tile (see
_ITEM_WORK).  The r values of a survey and the rho samples of
improvement_step_sim are shared out to forked worker processes by
util.parallel_map, which joins the results in item order.  The kernel
refuses points whose squared distances would overflow float64, such as a
configuration transported by a large ell.

The quantiles a survey row and improvement_step_sim report (medians and
95th percentiles) are opplab's own, _median_and_p95: one sort and numpy's
'linear' rule, step for step, so they have the bits np.median and
np.percentile give in numpy 2.4 but no longer follow numpy's
implementation, and a run never imports numpy.ma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyConfig, _Capacity
from .util import parallel_map, power, uniform_ball

#: a_t-weight of each coordinate.
WEIGHTS = np.array([2.0, 1.0, 0.0, -1.0, -2.0])

_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0, 24.0])

#: Entries per tile of the pairwise kernel: 512 KiB per float64 buffer, two
#: buffers per call, reused for every tile.  Changing it can move output bits
#: (see the module docstring).
_TILE_ENTRIES = 1 << 16

#: What one r of projection_survey, or one truncated-energy profile of
#: improvement_step_sim, charges to the work ceiling, in scanned pairs of the
#: window enumeration (set at 70 ns each, the unit of the other sample loops):
#: _PAIRS_PER_UNIT of the n^2 ordered point pairs count as one unit, and each
#: pass _ITEM_WORK units more at any n.  Measured at one worker (2 vCPUs,
#: numpy 2.4.6), a survey r, whose strips evaluate each unordered pair once,
#: takes 160-190 us at n = 50 and 10-13 ms at n = 2,000 (39-112 ns a unit),
#: and a profile, which evaluates whole rows, 29 ms at n = 2,000 (114 ns a
#: unit).  The charges date from a survey r of 32 ms at n = 2,000 and are
#: kept, so a survey of 2,000 points still takes at most 3,976 r values.
#: Each call charges all its r values (or profiles) before the first tile.
_PAIRS_PER_UNIT = 16
_ITEM_WORK = 1_500


def shift_exponential(r: float) -> np.ndarray:
    """The 5x5 matrix of adjoint_u(r): upper triangular, entry r^(k-i)/(k-i)!."""
    mat = np.zeros((5, 5))
    for i in range(5):
        for k in range(i, 5):
            mat[i, k] = r ** (k - i) / _FACTORIALS[k - i]
    return mat


def adjoint_u(r: float, w) -> np.ndarray:
    """Unipotent action on a vector or an (n, 5) batch."""
    w = np.asarray(w, dtype=float)
    return w @ shift_exponential(r).T


def adjoint_a(t: float, w) -> np.ndarray:
    """Diagonal action: coordinate i scales by e^((2-i) t)."""
    w = np.asarray(w, dtype=float)
    return w * np.exp(WEIGHTS * t)


def xi(r: float, w) -> np.ndarray:
    """The restricted projection: plus part of the transported vector."""
    return adjoint_u(r, w)[..., :2]


def adjoint_u_rows(W: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row i of the result is adjoint_u(r[i], W[i]); vectorized over rows."""
    W = np.asarray(W, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(W)
    for i in range(5):
        for k in range(i, 5):
            out[:, i] += W[:, k] * r ** (k - i) / _FACTORIALS[k - i]
    return out


def expansion_check_rows(W: np.ndarray, r: np.ndarray, ell: np.ndarray):
    """Verify |adjoint_a(ell_i, y_i)| >= e^ell_i * |y_i+| for y_i = adjoint_u(r_i, W_i).

    Returns (lhs, rhs, ok) arrays, one entry per row.  The inequality is
    exact in the weight basis (the plus coordinates scale by e^(2 ell) and
    e^ell, both >= e^ell for ell >= 0); ok allows 1e-9 slack for floating
    point.
    """
    ell = np.asarray(ell, dtype=float)
    if not np.all((ell >= 0) & (ell < math.inf)):
        raise ValueError("ell must be finite and >= 0")
    if not np.all(np.isfinite(r)):
        raise ValueError("r must be finite")
    y = adjoint_u_rows(W, r)
    scaled = y * np.exp(WEIGHTS[None, :] * ell[:, None])
    lhs = np.linalg.norm(scaled, axis=1)
    rhs = np.exp(ell) * np.linalg.norm(y[:, :2], axis=1)
    return lhs, rhs, lhs >= rhs - 1e-9


@dataclass
class FiniteConfig:
    """A finite set of representation vectors: an (n, 5) array of finite points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 5:
            raise ValueError(f"points must be an (n, 5) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def random_ball(cls, n: int, radius: float = 1.0, seed: int = 0) -> "FiniteConfig":
        _check_point_ceiling(n)
        rng = np.random.default_rng(seed)
        return cls(points=uniform_ball(rng, n, 5) * radius)

    @classmethod
    def from_json_obj(cls, obj) -> "FiniteConfig":
        """Parse a list of points, or an object whose one key is "points"; other keys raise ValueError."""
        if isinstance(obj, dict):
            if set(obj) != {"points"}:
                raise ValueError(f"a configuration object takes the one key 'points', got keys {sorted(obj)}")
            obj = obj["points"]
        return cls(points=np.asarray(obj, dtype=float))


def _check_point_ceiling(n: int) -> None:
    _Capacity(f"point pairs of a {n}-point configuration").add(n * n)


def _tile_rows(n: int) -> int:
    """Rows of a tile (or strip) of an n-point configuration: fixed by n and _TILE_ENTRIES alone."""
    return min(max(1, _TILE_ENTRIES // n), n)


def _tile_buffer(n: int, dtype=float) -> np.ndarray:
    """An uninitialized flat buffer the size of the largest tile of an n-point configuration."""
    return np.empty(_tile_rows(n) * n, dtype)


def _tile_view(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The first entries of a flat tile buffer as a C-contiguous array of ``shape``."""
    return buf[: shape[0] * shape[1]].reshape(shape)


def _charge_items(count: int, n: int, what: str) -> None:
    """Charge ``count`` passes over the pairs of an n-point configuration to the ceiling."""
    work = count * (n * n // _PAIRS_PER_UNIT + _ITEM_WORK)
    _Capacity(f"scanned-pair units of {count} {what} on {n} points").add(work)


def _add_strip(acc: np.ndarray, first: int, strip: np.ndarray) -> None:
    """Add an upper-triangle strip of _pair_tiles(x, upper=True) into per-point totals.

    Each row's sum goes to its own point, and each column's sum over the
    off-diagonal part strip[:, m:] to the later point that column stands
    for, so every unordered pair reaches both of its points once.  A point
    in a later strip receives the column sums of the strips before its own,
    in strip order, and then its own row sum; that order is fixed by n and
    _TILE_ENTRIES.  A boolean strip is counted with a uint16 accumulator,
    about three times faster than intp and exact while a row has fewer than
    2^16 entries (a strip has no more rows than columns).
    """
    m = len(strip)
    dtype = None
    if strip.dtype == bool:
        dtype = np.uint16 if strip.shape[1] < 1 << 16 else np.intp
    acc[first : first + m] += strip.sum(axis=1, dtype=dtype)
    acc[first + m :] += strip[:, m:].sum(axis=0, dtype=dtype)


def _add_strip_hits(counts: np.ndarray, first: int, strip: np.ndarray, b2: float, mask_buf: np.ndarray) -> None:
    """Add the pairs of an upper-triangle strip within sqrt(b2) to per-point counts.

    The self-entries are +inf and never hit, so counts that hold the point
    itself start at 1.
    """
    _add_strip(counts, first, np.less_equal(strip, b2, out=_tile_view(mask_buf, strip.shape)))


def _strip_counts(x: np.ndarray, b2s: Sequence[float]) -> np.ndarray:
    """counts[k, i]: how many points of x lie within sqrt(b2s[k]) of point i, itself included.

    One pass over the upper-triangle strips serves every square b2 in b2s.
    """
    counts = np.ones((len(b2s), len(x)), dtype=np.int64)
    mask_buf = _tile_buffer(len(x), bool)
    for i, d2 in _pair_tiles(x, upper=True):
        for row, b2 in zip(counts, b2s):
            _add_strip_hits(row, i, d2, b2, mask_buf)
    return counts


def _pair_tiles(x: np.ndarray, upper: bool = False):
    """Yield (first_row, d2), d2[k, j] ~ |x[first_row + k] - x[first_col + j]|^2, in row order.

    With upper=False a tile holds whole rows (first_col = 0).  With
    upper=True it is a strip of the upper triangle, rows [i, i + m) by
    columns [i, n) (first_col = first_row = i), so every unordered pair is
    evaluated once: in the strip of its smaller index, inside the m x m
    diagonal block when both points are rows of that strip.  Strips and
    tiles have the same row counts, fixed by n and _TILE_ENTRIES.  A strip's
    Gram block has another shape than the whole-row tile's, so BLAS edge
    kernels may round its entries differently; a consumer that promises
    the bits of a whole-row reduction keeps upper=False.

    d2 is a C-contiguous view of one buffer that the next tile overwrites:
    reduce it before advancing.  A point's entry with itself, (k, k) of a
    strip and (k, first_row + k) of a whole-row tile, is +inf: it is no
    pair.  The other entries are computed as
    (sq_i + sq_j) - 2 * (x_i . x_j), operation for operation, and are not
    clipped: rounding can leave an entry slightly negative, so a consumer
    that needs a distance clips at 0 itself.  The sum sq_i + sq_j comes
    from one k = 2 matmul, [sq_i, 1] . [1, sq_j], written straight into the
    tile: both products multiply by 1, so they are exact, and a sum of two
    terms rounds once in any order, with or without FMA, so the tile has the
    bits of a plain addition on every BLAS kernel.  The Gram block keeps its
    operands, x[rows] @ x.T[:, cols] on the transposed view: a contiguous
    copy of x.T changes which kernel path BLAS takes and moves Gram bits.
    It is doubled in a pass of its own: folding the 2 into an operand
    changes the rounding of subnormal products.
    """
    n = len(x)
    _check_point_ceiling(n)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(x**2, axis=1)
    # every |d2| is at most 4 max(sq); past that the tiles overflow to inf or NaN
    if not np.all(sq <= 0.25 * np.finfo(float).max):
        raise ValueError("the points are too far apart: their squared distances overflow float64")
    # [sq_i, 1] . [1, sq_j] is sq_i + sq_j, rounded once whatever the BLAS kernel
    ones = np.ones(n)
    lhs, rhs = np.column_stack([sq, ones]), np.vstack([ones, sq])
    d2_buf, gram_buf = _tile_buffer(n), _tile_buffer(n)
    step = _tile_rows(n)
    for i in range(0, n, step):
        rows, cols = slice(i, i + step), slice(i if upper else 0, n)
        shape = (min(step, n - i), n - cols.start)
        d2, gram = _tile_view(d2_buf, shape), _tile_view(gram_buf, shape)
        np.matmul(lhs[rows], rhs[:, cols], out=d2)
        np.matmul(x[rows], x.T[:, cols], out=gram)
        gram *= 2.0
        d2 -= gram
        k = np.arange(shape[0])
        d2[k, k + i - cols.start] = math.inf
        yield i, d2


def _require_unit_ball(config: FiniteConfig) -> np.ndarray:
    if len(config) == 0:
        raise EmptyConfig("the configuration has no points")
    pts = config.points
    with np.errstate(over="ignore"):  # a norm past float64 is inf, and out of the ball
        top = float(np.max(np.linalg.norm(pts, axis=1)))
    if top > 1.0 + 1e-9:
        raise ValueError(f"points must lie in the closed unit ball (max norm {top:.6g})")
    return pts


def _check_scale(alpha: float, b1: float) -> None:
    """alpha in (0, 2] and b1 in (0, 1] with b1^-alpha, so every b^-alpha for b >= b1, finite."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not 0 < b1 <= 1:
        raise ValueError(f"b1 must be in (0, 1], got {b1}")
    if not power(b1, -alpha) < math.inf:
        raise ValueError(f"b1**-alpha overflows float64 at b1={b1}, alpha={alpha}")


def nonconcentration_constant(config: FiniteConfig, alpha: float, b1: float) -> float:
    """Least egbd with #(B(w,b) & Theta) <= egbd * b^alpha * #Theta on the test family.

    The test family is all centers w in Theta and the dyadic scales
    b1, 2*b1, 4*b1, ..., capped at 1; the continuous supremum over
    b in [b1, 1] exceeds this by at most a factor 2^alpha.
    """
    _check_scale(alpha, b1)
    pts = _require_unit_ball(config)
    n = len(pts)
    scales = [b1]
    while scales[-1] < 1.0:
        scales.append(min(2.0 * scales[-1], 1.0))
    # one pass over the pairs per scale
    _Capacity(f"scanned-pair units of {len(scales)} scales on {n} points").add(
        len(scales) * (n * n // _PAIRS_PER_UNIT)
    )
    top = _strip_counts(pts, [scale * scale for scale in scales]).max(axis=1).tolist()
    return max(float(count) / (scale**alpha * n) for count, scale in zip(top, scales))


def projection_concentration(config: FiniteConfig, r: float, b: float) -> np.ndarray:
    """For each point, how many of the xi_r-images lie within b of its own."""
    if len(config) == 0:
        raise EmptyConfig("the configuration has no points")
    if not (math.isfinite(r) and math.isfinite(b)):
        raise ValueError(f"r and b must be finite, got r={r}, b={b}")
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b}")
    return _strip_counts(xi(r, config.points), [b * b])[0]


@dataclass(frozen=True)
class ProjectionParams:
    """Scales and the measured non-concentration constant for a survey."""

    alpha: float
    b1: float
    b: float
    eps: float
    egbd: float

    def __post_init__(self):
        _check_scale(self.alpha, self.b1)
        if not self.b1 <= self.b < math.inf:
            raise ValueError(f"need finite b >= b1, got b={self.b}, b1={self.b1}")
        if not 0 < self.eps < 1e-4 * self.alpha:
            raise ValueError(f"eps must be in (0, {1e-4 * self.alpha:g}), got {self.eps}")
        if not 1 <= self.egbd < math.inf:
            raise ValueError(f"egbd must be finite and >= 1, got {self.egbd}")

    @classmethod
    def measured(
        cls,
        config: FiniteConfig,
        alpha: float,
        b1: float,
        b: float,
        eps: Optional[float] = None,
    ) -> "ProjectionParams":
        """Measure egbd from the configuration itself (clamped up to 1)."""
        egbd = max(1.0, nonconcentration_constant(config, alpha, b1))
        if eps is None:
            eps = 0.5e-4 * alpha
        return cls(alpha=alpha, b1=b1, b=b, eps=eps, egbd=egbd)


def uniform_r_grid(count: int, n: int) -> list[float]:
    """np.linspace(0, 1, count) as the r grid of a survey of n points.

    The grid is charged to the work ceiling like the survey itself, before
    it is built, so a count the survey would refuse allocates nothing.
    """
    _charge_items(count, n, "r values of the survey")
    return np.linspace(0.0, 1.0, count).tolist()


@dataclass(frozen=True)
class SurveyRow:
    r: float
    exceptional_fraction: float
    max_count: int
    energy_median: float
    energy_p95: float


@dataclass
class SurveyResult:
    rows: list[SurveyRow]
    exceptional_r_fraction: float
    count_bound: float
    row_threshold: float


def _image_sums(img: np.ndarray, b2: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(counts, energies) per point of an image, from the strips of its pairs.

    counts[i] is how many images lie within sqrt(b2) of image i, itself
    always included; energies[i] is the sum over the other images j of
    max(d2_ij, b2)^(-alpha/2).  Each unordered pair is evaluated once and
    summed in the order of _add_strip.  The +inf self-entry adds a term of
    0 to the energy.
    """
    n = len(img)
    counts = np.ones(n, dtype=np.int64)
    energies = np.zeros(n)
    mask_buf = _tile_buffer(n, bool)
    for i, d2 in _pair_tiles(img, upper=True):
        _add_strip_hits(counts, i, d2, b2, mask_buf)
        # b2 >= 0, so this also clips the negative rounding residues
        np.maximum(d2, b2, out=d2)
        if alpha == 2.0:
            np.divide(1.0, d2, out=d2)
        else:
            np.power(d2, -alpha / 2.0, out=d2)
        _add_strip(energies, i, d2)
    return counts, energies


def _median_and_p95(values: np.ndarray) -> tuple[float, float]:
    """(np.median(values), np.percentile(values, 95)) of a nonempty array, from one sorted copy.

    The steps are numpy's own, so the bits are too: the median is the middle
    value, or (a + b) / 2.0 of the two middle values, summed from +0.0 as
    numpy's mean sums (so a zero median is +0.0); the 95th percentile is
    numpy's 'linear' rule, virtual index (n - 1) * 0.95 between its floor
    and the next value, interpolated as numpy's _lerp does, and at an index
    of n - 1 or more (n = 1) the last value twice at weight index + 1, which
    gives NaN for an infinite value as numpy does.  A NaN anywhere gives NaN
    for both.  Unlike np.median and np.percentile, it does not import
    numpy.ma.
    """
    s = np.sort(values, axis=None)
    n = len(s)
    if math.isnan(s[-1]):  # the sort puts every NaN last
        return math.nan, math.nan
    mid = n // 2
    median = float(s[mid]) + 0.0 if n % 2 else (float(s[mid - 1]) + float(s[mid]) + 0.0) / 2.0
    index = (n - 1) * 0.95
    if index >= n - 1:
        a = b = float(s[-1])
        g = index + 1.0
    else:
        k = math.floor(index)
        a, b = float(s[k]), float(s[k + 1])
        g = index - k
    diff = b - a
    p95 = b - diff * (1.0 - g) if g >= 0.5 else a + diff * g
    return median, p95


def projection_survey(
    config: FiniteConfig,
    params: ProjectionParams,
    r_grid: Sequence[float],
    *,
    survey_const: float = 10.0,
    survey_exp: float = 10.0,
) -> SurveyResult:
    """Concentration statistics of xi_r over a grid of r in [0, 1].

    A point violates at r when more than
    survey_const * egbd * b^(alpha - survey_exp*eps) * #Theta images fall
    within b of its own; r is exceptional when the violating fraction
    exceeds row_threshold = b^eps.  Truncated-at-b pairwise energies of the
    image are reported per r as summary quantiles.
    """
    pts = _require_unit_ball(config)
    n = len(pts)
    _charge_items(len(r_grid), n, "r values of the survey")
    rs = [float(r) for r in r_grid]
    if not rs:
        raise ValueError("r_grid must be nonempty")
    if not all(0 <= r <= 1 for r in rs):
        raise ValueError("r_grid must lie in [0, 1]")
    for name, value in {"survey_const": survey_const, "survey_exp": survey_exp}.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    b, alpha = params.b, params.alpha
    bound = survey_const * params.egbd * power(b, alpha - survey_exp * params.eps) * n
    if not math.isfinite(bound):
        raise ValueError(f"the count bound survey_const egbd b**(alpha - survey_exp eps) n is {bound}")
    threshold = b**params.eps
    b2 = b * b

    def one_r(r: float) -> SurveyRow:
        counts, row_energy = _image_sums(xi(r, pts), b2, alpha)
        median, p95 = _median_and_p95(row_energy)
        return SurveyRow(
            r=r,
            exceptional_fraction=float(np.count_nonzero(counts > bound) / n),
            max_count=int(counts.max()),
            energy_median=median,
            energy_p95=p95,
        )

    rows = parallel_map(one_r, rs)
    exc = sum(row.exceptional_fraction > threshold for row in rows) / len(rows)
    return SurveyResult(
        rows=rows,
        exceptional_r_fraction=float(exc),
        count_bound=bound,
        row_threshold=threshold,
    )


@dataclass(frozen=True)
class MargulisParams:
    """Knobs of the truncated-energy function."""

    b: float
    truncation: int
    alpha: float

    def __post_init__(self):
        if not 0 < self.b <= 0.1:
            raise ValueError(f"b must be in (0, 1/10], got {self.b}")
        if not (self.truncation >= 0 and float(self.truncation).is_integer()):
            raise ValueError(f"truncation must be a nonnegative integer, got {self.truncation}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not power(self.b, -self.alpha) < math.inf:
            raise ValueError(f"b**-alpha overflows float64 at b={self.b}, alpha={self.alpha}")


def margulis_value(neighbors, params: MargulisParams) -> float:
    """Truncated energy of the near returns listed in ``neighbors``.

    The caller supplies the displacement vectors of returns closer than
    b (no filtering happens here, so the floor case can be exercised
    directly).  With more than ``truncation`` returns, the M smallest norms
    are dropped and the rest contribute |w|^(-alpha); a zero norm makes the
    value infinite, as it should.
    """
    arr = np.asarray(neighbors, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 5)
    if arr.ndim != 2:
        raise ValueError(f"neighbors must be a (k, 5) array, got shape {arr.shape}")
    norms = np.sort(np.linalg.norm(arr, axis=1))
    return _truncated_energies(norms[None, :], [len(norms)], params.b, params.truncation, params.alpha)[0]


def _truncated_energies(nearest: np.ndarray, counts: list[int], b: float, m: int, alpha: float) -> list[float]:
    """Truncated energy of each row: its counts[k] return distances, ascending, then padding.

    A row with at most m returns gets the floor b^-alpha; any other sums
    |w|^-alpha past its m smallest with math.fsum, which is correctly
    rounded in any term order, so independent references can match it.
    """
    floor = float(b ** (-alpha))
    with np.errstate(divide="ignore"):
        energy = nearest[:, m:] ** (-alpha)
    return [math.fsum(row[: count - m]) if count > m else floor for row, count in zip(energy.tolist(), counts)]


@dataclass
class ImprovementStats:
    """Ratio distribution of transported to original truncated energies."""

    rho_values: list[float]
    rho_medians: list[float]
    ratio_median: float
    ratio_mean: float
    ratio_p95: float
    ratio_min: float
    ratio_max: float
    floor_fraction_before: float
    floor_fraction_after: float
    ratios: np.ndarray = field(repr=False)


def _margulis_profile(pts: np.ndarray, b: float, m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-point truncated energy over a configuration, one tile at a time.

    A return of point i is a point j != i with sqrt(max(d2[i, j], 0)) < b
    (the tile's self-entries are +inf, so a coincident point still counts
    as a return at distance 0).
    The tile is first cut at d2 < max(b*b*(1 + 1e-12), tiny), which keeps
    every return: sqrt is correctly rounded, so a rounded root below b
    means the exact root is below b and d2 < b^2 exactly, while the cut
    is above b^2 (b*b and the product each lose at most 2^-53 relatively,
    far less than the 1e-12 pad, and the smallest normal float covers a
    b*b that underflows).  The exact test then runs on the gathered entries
    only.  Each row's returns are sorted and reduced by
    _truncated_energies, the same reduction as margulis_value's, so the
    values equal a row-by-row reduction.
    """
    n = len(pts)
    values = np.empty(n)
    at_floor = np.empty(n, dtype=bool)
    cut = max(b * b * (1.0 + 1e-12), np.finfo(float).tiny)
    mask_buf = _tile_buffer(n, bool)
    for first, d2 in _pair_tiles(pts):
        rows = len(d2)
        flat = np.flatnonzero(np.less(d2, cut, out=_tile_view(mask_buf, d2.shape)))
        dist = np.sqrt(np.maximum(d2.ravel()[flat], 0.0))
        near = dist < b
        owner, dist = flat[near] // n, dist[near]
        # flat is in row order, so each row's returns are contiguous: row k
        # of ``nearest`` holds those of tile row k, then inf padding
        returns = np.bincount(owner, minlength=rows)
        slot = np.arange(len(owner)) - (np.cumsum(returns) - returns)[owner]
        nearest = np.full((rows, int(returns.max())), math.inf)
        nearest[owner, slot] = dist
        nearest.sort(axis=1)
        at_floor[first : first + rows] = returns <= m
        values[first : first + rows] = _truncated_energies(nearest, returns.tolist(), b, m, alpha)
    return values, at_floor


def _reject_undefined_ratios(pts: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
    """Raise ValueError if a point's energy is infinite before and after (inf/inf).

    That happens when more points coincide with it than the truncation
    drops; the error names the point and its nearest neighbour.
    """
    both = np.flatnonzero(np.isinf(old) & np.isinf(new))
    if both.size:
        i = int(both[0])
        dist = np.linalg.norm(pts - pts[i], axis=1)
        dist[i] = math.inf
        j = int(np.argmin(dist))
        raise ValueError(
            f"points {i} and {j} coincide (distance {dist[j]:.3g}): their truncated energy "
            "is infinite before and after the transport, so its ratio is undefined"
        )


def improvement_step_sim(
    config: FiniteConfig,
    alpha: float,
    ell: float,
    b: float,
    r_samples: int,
    truncation: int,
    seed: int = 0,
) -> ImprovementStats:
    """Transport the configuration by adjoint_a(ell) o adjoint_u(rho) and
    compare truncated energies before and after, averaged over sampled rho.

    Purely observational: the returned statistics assert nothing beyond
    their own arithmetic.  Deterministic for a fixed seed.  Raises
    ValueError when coincident points make a ratio inf/inf.
    """
    if not 0 < alpha < 2:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if not math.isfinite(ell):
        raise ValueError(f"ell must be finite, got {ell}")
    if r_samples < 1:
        raise ValueError(f"r_samples must be >= 1, got {r_samples}")
    MargulisParams(b=b, truncation=truncation, alpha=alpha)  # range validation
    pts = _require_unit_ball(config)
    _charge_items(r_samples + 1, len(pts), "truncated-energy profiles")
    old, old_floor = _margulis_profile(pts, b, truncation, alpha)
    rng = np.random.default_rng(seed)
    rhos = (np.arange(r_samples) + rng.random(r_samples)) / r_samples

    def one_rho(rho: float) -> tuple[np.ndarray, float]:
        with np.errstate(over="ignore", invalid="ignore"):  # _pair_tiles refuses what overflows
            moved = adjoint_a(ell, adjoint_u(rho, pts))
        new, new_floor = _margulis_profile(moved, b, truncation, alpha)
        _reject_undefined_ratios(pts, old, new)
        return new / old, float(np.mean(new_floor))

    results = parallel_map(one_rho, rhos.tolist())
    ratios = np.stack([r for r, _ in results])
    flat = ratios.ravel()
    ratio_median, ratio_p95 = _median_and_p95(flat)
    return ImprovementStats(
        rho_values=[float(r) for r in rhos],
        rho_medians=[_median_and_p95(row)[0] for row in ratios],
        ratio_median=ratio_median,
        ratio_mean=float(np.mean(flat)),
        ratio_p95=ratio_p95,
        ratio_min=float(np.min(flat)),
        ratio_max=float(np.max(flat)),
        floor_fraction_before=float(np.mean(old_floor)),
        floor_fraction_after=float(np.mean([f for _, f in results])),
        ratios=ratios,
    )
