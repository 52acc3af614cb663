"""Proximity of a real form to scalar multiples of integral forms.

For an integral form Q' (integer Gram entries, det != 0) put

    lam(Q') = sign(det Q') * |det Q'|^(-1/3)

so that lam*Q' always has determinant +1, matching the normalize()
convention.  best_rational_approx minimizes dist = sup-norm of the entry
difference Q - lam(Q')*Q' over integral Q' with entries bounded by R.  A
heuristic candidate generator (integer-multiple rounding plus a weighted
7-dimensional lattice reduction) gives an upper bound.  Up to R = 12 a
branch-and-bound certifies the optimum over the canonical half of the
entry box (dist is invariant under Q' -> -Q', so only representatives
with util.canonical_mask's sign count): the best heuristic distance
confines lam, and with it every entry, to a few integers, and only those
candidates are scored.  Beyond R = 12 the best canonical heuristic
candidate is reported, flagged non-certified.

"Integral form" means integer Gram entries, not merely integer values:
the classical integer-valued forms with half-integer cross entries are
representable here after doubling.

The dichotomy driver compares the approximation distance against the
threshold R^a_exp (log T)^a_exp / T and falls back to a witness-table run
over targets |s| <= R^k_exp with tolerance R^(-k_exp); the exponents stand
in for absolute constants that are not pinned down numerically, so they
are configuration, not truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import lattice
from .enumeration import WitnessTable, witness_table
from .errors import NoCandidate, _Capacity
from .forms import NormalizedForm, as_form, gram_determinant, normalize
from .util import canonical_mask, power

EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class IntegralForm:
    """Integer Gram entries, same (m11, m22, m33, m12, m13, m23) order as TernaryForm."""

    m11: int
    m22: int
    m33: int
    m12: int = 0
    m13: int = 0
    m23: int = 0

    @property
    def entries(self) -> tuple[int, int, int, int, int, int]:
        return (self.m11, self.m22, self.m33, self.m12, self.m13, self.m23)

    def determinant(self) -> int:
        """Exact integer determinant of the Gram matrix."""
        return gram_determinant(*self.entries)

    def sup_norm(self) -> int:
        return max(abs(x) for x in self.entries)


def signed_inverse_cuberoot(det: int | float) -> float:
    """sign(det) * |det|^(-1/3); the unique lam with det(lam*Q') = +1."""
    d = float(det)
    return math.copysign(abs(d) ** (-1.0 / 3.0), d)


def _entry_distance(q_entries: Sequence[float], qprime: IntegralForm) -> float:
    lam = signed_inverse_cuberoot(qprime.determinant())
    return float(max(abs(q - lam * m) for q, m in zip(q_entries, qprime.entries)))


@dataclass(frozen=True)
class ApproxResult:
    """Best (or best-found) integral approximation at entry bound R."""

    qprime: IntegralForm
    lam: float
    dist: float
    bound: float
    certified: bool


# rows of one scored tile: bounds the length of every scoring temporary
_TILE_ROWS = 1 << 16

#: What one integer multiple of the heuristic pool charges, in candidates of
#: the certified search: building, keeping and scoring it takes 15-30 us (SQF2
#: at R = 4e207, 200,000 multiples, 2 cores), against about 150 ns to score a
#: candidate.  _heuristic_candidates charges its multiples before it builds them.
_MULTIPLE_WORK = 200

#: What one m11 step of _search_boxes charges, in candidates: the walk over
#: a step takes about 20 us (SQF2 at R = 10^4, 2 cores), against about
#: 150 ns to score a candidate, so 1,000 leaves room for slower hosts.  A
#: search charges its r + 1 steps before it walks.
_STEP_WORK = 1_000


def _best_row(q6: np.ndarray, m: np.ndarray) -> Optional[tuple[float, tuple[int, ...]]]:
    """Least (dist, entries) over the canonical nondegenerate rows of m (n x 6 int64)."""
    m11, m22, m33, m12, m13, m23 = m.T
    det = gram_determinant(*m.T)
    valid = (det != 0) & canonical_mask(m)
    if not np.any(valid):
        return None
    detf = det.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.sign(detf) * np.abs(detf) ** (-1.0 / 3.0)
    dist = np.abs(q6[0] - lam * m11)
    np.maximum(dist, np.abs(q6[1] - lam * m22), out=dist)
    np.maximum(dist, np.abs(q6[2] - lam * m33), out=dist)
    np.maximum(dist, np.abs(q6[3] - lam * m12), out=dist)
    np.maximum(dist, np.abs(q6[4] - lam * m13), out=dist)
    np.maximum(dist, np.abs(q6[5] - lam * m23), out=dist)
    dist[~valid] = np.inf
    j = int(np.argmin(dist))
    if not np.isfinite(dist[j]):
        return None
    return float(dist[j]), tuple(int(x) for x in m[j])


def _incumbent(q6: np.ndarray, r: int) -> float:
    """dist of the best rounded multiple t*q in the box: an upper bound on the optimum.

    The multipliers t = k/|q_i| put entry i exactly on +-k; k stops at r,
    or earlier so that the rows fit one tile.  The fallback (1,-1,-1)
    keeps the pool nondegenerate.
    """
    ks = np.arange(1, min(r, _TILE_ROWS // 12) + 1)
    # a tiny entry gives infinite multipliers; the box test drops their rows
    with np.errstate(over="ignore", invalid="ignore"):
        ts = np.concatenate([ks / abs(x) for x in q6 if x != 0])
        m = np.rint(np.outer(ts, q6))
    m = m[np.max(np.abs(m), axis=1) <= r].astype(np.int64)
    return _best_row(q6, np.concatenate([m, -m, [[1, -1, -1, 0, 0, 0]]]))[0]


_Pieces = list[tuple[float, float]]


def _lam_pieces(q: float, m: int, d: float, pieces: _Pieces) -> _Pieces:
    """The parts of the lam intervals ``pieces`` where |q - lam*m| <= d."""
    if m == 0:
        return pieces if abs(q) <= d else []
    lo, hi = sorted(((q - d) / m, (q + d) / m))
    return [(max(a, lo), min(b, hi)) for a, b in pieces if max(a, lo) <= min(b, hi)]


def _entry_range(q: float, d: float, pieces: _Pieces, lo: int, hi: int) -> tuple[int, int]:
    """Integers m in [lo, hi] with |q - lam*m| <= d for some lam in ``pieces``, padded by one.

    Each piece lies on one side of 0, where (q -+ d)/lam is monotone in
    lam, so the values at the ends of the pieces bound every solution.
    """
    ends = [(q + s * d) / lam for s in (-1.0, 1.0) for piece in pieces for lam in piece]
    return max(lo, math.ceil(min(ends)) - 1), min(hi, math.floor(max(ends)) + 1)


def _search_boxes(q6: np.ndarray, r: int, d: float) -> Iterator[list[tuple[int, int]]]:
    """Boxes of the canonical half of [-r, r]^6 that hold every form within d.

    Yields the inclusive (lo, hi) range of each of the six entries, with
    m11 and m22 fixed: at most one box per (m11, m22).  A form within d of
    q has |q_i - lam*m_i| <= d for every entry, and 1 <= |det| <= 6 r^3
    gives 0.5/r < (6 r^3)^(-1/3) <= |lam| <= 1; m11 and m22 narrow lam to
    at most one interval per sign, and these bound the other entries.
    """
    lam_min = 0.5 / r
    for m11 in range(0, r + 1):
        p1 = _lam_pieces(q6[0], m11, d, [(-1.0, -lam_min), (lam_min, 1.0)])
        if not p1:
            continue
        lo22, hi22 = _entry_range(q6[1], d, p1, -r if m11 > 0 else 0, r)
        for m22 in range(lo22, hi22 + 1):
            p2 = _lam_pieces(q6[1], m22, d, p1)
            if not p2:
                continue
            tail = [_entry_range(q, d, p2, -r, r) for q in q6[2:]]
            if all(lo <= hi for lo, hi in tail):
                yield [(m11, m11), (m22, m22), *tail]


def _box_tiles(ranges: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """The integer points of a box in lexicographic order, at most _TILE_ROWS at a time."""
    shape = tuple(hi - lo + 1 for lo, hi in ranges)
    lows = np.array([lo for lo, _ in ranges], dtype=np.int64)
    total = math.prod(shape)
    for start in range(0, total, _TILE_ROWS):
        idx = np.arange(start, min(start + _TILE_ROWS, total), dtype=np.int64)
        yield np.stack(np.unravel_index(idx, shape), axis=1) + lows


def _exhaustive_search(q6: np.ndarray, r: int) -> IntegralForm:
    """Certified minimizer over the canonical half of the entry box [-r, r]^6.

    Branch and bound: the incumbent bounds the optimum, and only the boxes
    of _search_boxes within that bound are scored.  The scores use the
    same arithmetic as a scan of the whole half-box, and the minimum is
    taken in (dist, entries) order, so the result is the same
    lexicographically least minimizer, bit for bit.
    """
    incumbent = _incumbent(q6, r)
    # rounding in the scores and in the bounds of _search_boxes is a few
    # ulps of the largest |q_i|; the pad is far above that, so no form that
    # scores at most the incumbent is pruned
    d = incumbent + 1e-9 * (incumbent + float(np.max(np.abs(q6))))
    # the walk is charged to the work ceiling before it runs, and every box
    # before any tile is built
    tally = _Capacity(f"candidates of the certified search at R={r}")
    tally.add(_upfront_work(q6, r, True))
    boxes = list(_search_boxes(q6, r, d))
    for ranges in boxes:
        tally.add(math.prod(hi - lo + 1 for lo, hi in ranges))
    best: Optional[tuple[float, tuple[int, ...]]] = None
    for ranges in boxes:
        for m in _box_tiles(ranges):
            res = _best_row(q6, m)
            if res is not None and (best is None or res < best):
                best = res
    if best is None:
        raise NoCandidate(f"no nondegenerate integral form with entries in [-{r}, {r}]")
    return IntegralForm(*best[1])


def _multiples(q6: np.ndarray, r: int) -> int:
    """How many integer multiples n q the heuristic pool rounds at bound r."""
    return min(int(r / max(float(np.max(np.abs(q6))), 1e-12)) + 1, 200_000)


def _upfront_work(q6: np.ndarray, r: int, certified: bool) -> int:
    """Candidates a search at bound r charges first: its m11 walk, or its heuristic multiples."""
    return _STEP_WORK * (r + 1) if certified else _MULTIPLE_WORK * _multiples(q6, r)


def _heuristic_candidates(q6: np.ndarray, r: int) -> list[IntegralForm]:
    """Non-certified candidate pool: rounded multiples and reduced lattice columns.

    Each is canonical, as on the certified path: a form and its negation are one candidate.
    """
    _Capacity(f"candidates of the heuristic pool at R={r}").add(_upfront_work(q6, r, False))
    ns = np.arange(1, _multiples(q6, r) + 1, dtype=float)
    mult = np.rint(ns[:, None] * q6[None, :]).astype(np.int64)

    # lattices of pairs (n, m), one per weight W, reduced as one stack: short
    # vectors of (n, W*(n*q - m)) give m ~ n*q
    scales = np.array([1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    bases = np.zeros((len(scales), 7, 7))
    bases[:, 0, 0] = 1.0
    bases[:, 1:, 0] = scales[:, None] * q6
    for i in range(6):
        bases[:, 1 + i, 1 + i] = -scales
    _, transforms = lattice.lll_reduce(bases)
    cols = np.concatenate([t[:, t[0] != 0].T for t in transforms])[:, 1:]

    m = np.concatenate([mult, cols])
    m = m[np.max(np.abs(m), axis=1) <= r]
    m = np.where(canonical_mask(m)[:, None], m, -m)
    # (1, -1, -1) guarantees a nondegenerate fallback
    cands = {(1, -1, -1, 0, 0, 0), *map(tuple, m.tolist())}
    forms = [IntegralForm(*t) for t in sorted(cands)]
    return [f for f in forms if f.determinant() != 0]


def _entry_bound(R: float) -> int:
    """floor(R) of an entry bound R, which must be finite and at least 1."""
    if not 1 <= R < math.inf:
        raise ValueError(f"R must be finite and >= 1, got {R}")
    return int(math.floor(R))


def best_rational_approx(
    q, R: float, *, exhaustive_limit: int = EXHAUSTIVE_LIMIT
) -> ApproxResult:
    """Best integral approximation with entries bounded by R.

    Certified by branch-and-bound for floor(R) <= exhaustive_limit,
    heuristic upper bound otherwise.  Ties resolve to the lexicographically
    least canonical representative, so results are deterministic.
    """
    r = _entry_bound(R)
    q6 = np.asarray(as_form(q).entries, dtype=float)
    if r <= exhaustive_limit:
        qprime = _exhaustive_search(q6, r)
        certified = True
    else:
        pool = _heuristic_candidates(q6, r)
        if not pool:
            raise NoCandidate(f"heuristic pool empty at R={R}")
        qprime = min(pool, key=lambda f: (_entry_distance(q6, f), f.entries))
        certified = False
    return ApproxResult(
        qprime=qprime,
        lam=signed_inverse_cuberoot(qprime.determinant()),
        dist=_entry_distance(q6, qprime),
        bound=float(R),
        certified=certified,
    )


@dataclass(frozen=True)
class WitnessSummary:
    """Coverage summary of the witness-table run inside a dichotomy report."""

    targets: int
    witnessed: int
    fraction: float
    eps: float
    grid_step: float
    span: float


@dataclass
class DichotomyOutcome:
    """Tagged outcome: branch is "rational_approx" or "small_values".

    The approximation result is echoed on both branches (the decision used
    it either way); the witness summary and table exist only on the
    small-values branch.
    """

    branch: str
    thresholds: dict
    approx: ApproxResult
    witness: Optional[WitnessSummary] = None
    table: Optional[WitnessTable] = None


def dichotomy_report(
    q,
    R: float,
    T: float,
    *,
    eps: Optional[float] = None,
    grid_step: float = 0.1,
    a_exp: float = 4.0,
    k_exp: float = 0.125,
) -> DichotomyOutcome:
    """Decide which side of the witness-or-rational dichotomy the form is on.

    If the best integral approximation at bound R comes within
    R^a_exp (log T)^a_exp / T, that branch wins.  Otherwise a witness table
    runs over s in [-R^k_exp, R^k_exp] with tolerance eps (default
    R^(-k_exp)); a grid coarser than that span degenerates to the single
    target s = 0.
    """
    _entry_bound(R)
    floor = power(R, a_exp)
    if T < floor:
        raise ValueError(f"need T >= R**a_exp = {floor:.6g} for a meaningful threshold")
    if not 1 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 1, got {T}")
    threshold = floor * power(math.log(T), a_exp) / T
    eps_eff = float(eps) if eps is not None else power(R, -k_exp)
    span = power(R, k_exp)
    for name, value in (("R**a_exp (log T)**a_exp / T", threshold), ("R**k_exp", span)):
        if not value < math.inf:
            raise ValueError(f"{name} is not finite: a_exp={a_exp}, k_exp={k_exp}")
    if not 0 < eps_eff < math.inf:
        raise ValueError(f"eps (by default R**-k_exp) must be positive and finite, got {eps_eff}")
    qn = q if isinstance(q, NormalizedForm) else normalize(q)
    approx = best_rational_approx(qn, R)
    thresholds = {
        "R": float(R),
        "T": float(T),
        "a_exp": a_exp,
        "k_exp": k_exp,
        "approx_threshold": threshold,
        "eps": eps_eff,
        "grid_step": grid_step,
        "target_span": span,
    }
    if approx.dist <= threshold:
        return DichotomyOutcome(branch="rational_approx", thresholds=thresholds, approx=approx)
    if 2.0 * span < grid_step:
        table = witness_table(qn, 0.0, 0.0, grid_step, eps_eff, T)
    else:
        table = witness_table(qn, -span, span, grid_step, eps_eff, T)
    summary = WitnessSummary(
        targets=len(table.targets),
        witnessed=table.witnessed,
        fraction=table.witnessed / len(table.targets),
        eps=eps_eff,
        grid_step=grid_step,
        span=span,
    )
    return DichotomyOutcome(
        branch="small_values",
        thresholds=thresholds,
        approx=approx,
        witness=summary,
        table=table,
    )


@dataclass(frozen=True)
class GapRow:
    R: float
    dist: float
    qprime: IntegralForm
    lam: float
    certified: bool


@dataclass
class GapResult:
    """dist(R) profile; non-increasing because best-so-far is carried forward."""

    rows: list[GapRow]
    fit_coefficient: Optional[float]
    fit_exponent: Optional[float]


def _power_law_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(c, E) of the least-squares line log y = log c - E log x.

    Closed form over math.fsum sums in base-2 logarithms, so the bytes do
    not depend on a LAPACK kernel, and powers of two fit exactly.
    """
    lx = [math.log2(x) for x in xs]
    ly = [math.log2(y) for y in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    sxx = math.fsum((a - mx) ** 2 for a in lx)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
    slope = sxy / sxx
    return 2.0 ** (my - slope * mx), -slope


def algebraicity_gap(q, R_list: Sequence[float], *, exhaustive_limit: int = EXHAUSTIVE_LIMIT) -> GapResult:
    """Approximation distance as a function of the entry bound R.

    R_list must be ascending.  The reported distance at each R is the best
    found at any bound up to R, which makes the column non-increasing even
    on the heuristic path (the exhaustive path is nested, hence already
    monotone).  When at least two distances are positive, a log-log least
    squares fit dist ~ c * R^(-E) is reported.  What every search charges
    up front (_upfront_work) is charged for the whole ladder, to one tally,
    before the first search, so a long ladder raises at once.
    """
    rs = [float(x) for x in R_list]
    if not rs:
        raise ValueError("R_list must be nonempty")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("R_list must be strictly ascending")
    q6 = np.asarray(as_form(q).entries, dtype=float)
    _Capacity(f"candidates of the searches of a ladder of {len(rs)} entry bounds").add(
        sum(_upfront_work(q6, r, r <= exhaustive_limit) for r in map(_entry_bound, rs))
    )
    rows: list[GapRow] = []
    best: Optional[ApproxResult] = None
    for R in rs:
        res = best_rational_approx(q, R, exhaustive_limit=exhaustive_limit)
        if best is None or res.dist < best.dist:
            best = res
        rows.append(
            GapRow(R=R, dist=best.dist, qprime=best.qprime, lam=best.lam, certified=best.certified)
        )
    fit_c = fit_e = None
    dists = [row.dist for row in rows]
    if len(rows) >= 2 and all(d > 0 for d in dists):
        fit_c, fit_e = _power_law_fit(rs, dists)
    return GapResult(rows=rows, fit_coefficient=fit_c, fit_exponent=fit_e)
