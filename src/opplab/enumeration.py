"""Integer vectors and values of ternary forms: witnesses, counts, C_Q.

One window enumerator, _window_hits, lists every nonzero integer vector v
with |v| <= T and a <= Q(v) <= b.  It scans half the disc of the two outer
coordinates (the other half is its mirror image) and prunes the innermost
coordinate through the quadratic formula.  Two consumers share it:

* count_values and count_vs_main_term count its hits (both signs,
  imprimitive included); a ladder of T is counted from one pass at the
  largest T, binning the hits by |v|^2 (_ladder_counts);
* find_witness / witness_table run it over doubling norm shells on the
  window spanned by the targets, keep the canonical primitive hits, and
  pick the minimal one for each target.

Each call of a consumer charges its scanned pairs and candidates to one
tally against the package's work ceiling (errors.DEFAULT_CEILING); no
entry point takes a ceiling of its own.

main_term_constant estimates the coarea constant

    C_Q = lim vol{v in B(0,1): |Q(v)| <= delta} / (2*delta)

by Monte Carlo, which is the main-term constant of the counting asymptotic
#{v: |v| <= T, a <= Q(v) <= b} ~ C_Q (b-a) T.

Witness conventions: vectors are canonicalized up to sign (first nonzero
coordinate positive), ordered lexicographically by (|v|^2, v), and a
returned witness is the minimal-norm hit with lexicographic tie-break, so
all outputs are deterministic.

Candidate generation is a superset pass followed by an exact membership
mask that reevaluates the form the same way a brute-force oracle would;
counts therefore match plain loops bit for bit.  The superset comes from a
proven rounding margin, not from padding each interval by an integer.  The
window is widened by 16 eps ((rho + rho^2/alpha) T^2 + |a| + |b|), with
eps = 2^-53, rho the largest row sum of |M| and alpha the pruned diagonal
entry.  That bounds the rounding of form.evaluate and of the discriminant
arithmetic at every point of the ball.  So the computed discriminant of
the widened window never falls below the exact one of any window the
rounded values can reach, and no row or hole test drops a hit.  The roots
are then padded by 8 eps ((rho (T + 1) + S)/alpha + T + 2), where S bounds
the square roots, and the integer ends are ceil/floor of the padded roots
(_rounding_margin has the derivation).  An integer w falls within the pad
of a root only where Q takes, or nearly takes, a window end, as at a
tangency; the margin keeps such a w and the exact mask decides it.

That per-pair arithmetic costs about 60 numpy passes a pair, while nearly
every pair of a narrow window has no candidate.  So the scan runs in two
stages.  Stage 1 writes the condition on w as (alpha w + half)^2 in
[P + alpha c_lo, P + alpha c_hi], with P = p11 u^2 + p12 u v + p22 v^2 a
binary form and mid = -half/alpha linear in (u, v), builds P and mid on a
block of rows by columns from per-row and per-column vectors, and keeps a
pair where one of its two segments mid -+ [s_lo, s_hi] may hold an integer
(about 20 passes).  Where p22 < 0 the discriminant is not negative on one
interval of each row only, found once per row, and stage 1 scans just
those columns.  Stage 2 runs the arithmetic above on the kept pairs.
Stage 1 widens the window by the margin once more and pads its segments by
the prune pad, so each of its intervals holds the exact stage's unclipped
padded one (_rounding_margin and _live_columns have the derivations).  A
pair stage 1 drops has no candidate but those the ball clip collapses onto
w = +-wl when every root lies outside the ball, and they are never hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import DefiniteForm, _Capacity
from .forms import TernaryForm, as_form
from .util import chunk_sizes, spawn_rngs, uniform_ball, weighted_mean_stderr

#: What one call charges to the work ceiling (errors.DEFAULT_CEILING): the
#: (u, v) pairs every _window_hits pass scans plus the candidate vectors it
#: evaluates, summed over the passes of the call.  Each pass charges its
#: whole disc before its first block, so a T too large for the ceiling
#: raises at once instead of after the scan.  Only the pairs stage 1 keeps
#: charge candidates, so a pair whose padded roots all lie outside the
#: ball, and whose ball clip collapsed them onto w = +-wl (never a hit),
#: no longer charges one.
_WORK = "scanned pairs and candidates of the window enumeration"

#: What one Monte Carlo sample of main_term_constant charges, in the same
#: unit: about three scanned pairs' time (10^6 samples in 0.17 s against
#: 70 ns a pair).  A call charges all its samples before its first chunk.
_SAMPLE_WORK = 3

#: Most entries (rows x columns) of one block of _window_hits: stage 1 runs
#: in four float and two bool scratch arrays of this many entries (544 KiB),
#: allocated once per pass.  A row wider than this is split into column
#: chunks.  A fixed budget, not an option; 2^13 entries ran slower, and 2^15
#: put the traced peak of a T = 2000 count over the memory test's bound.
_BLOCK_ENTRIES = 1 << 14

#: Most (u, v) pairs of one stage-2 call of _window_hits.  Stage 2 runs once
#: an eighth of this many pairs is kept, not once per block: a call costs
#: about 75 numpy passes, and holds about 400 bytes of temporaries a pair.
_EXACT_PAIRS = 1 << 11

_EPS = 2.0**-53  # unit roundoff of float64
_TINY = 1e-300  # absolute slack for underflowed products
_SHELL_BASE = 8.0
_V_BALL = 4.0 * math.pi / 3.0
_SQRT2 = math.sqrt(2.0)


def _ragged_aranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated integer ranges start_i..stop_i and their source row index."""
    lengths = np.maximum(stops - starts + 1, 0)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    owner = np.repeat(np.arange(len(starts), dtype=np.int64), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    return starts[owner] + within, owner


def _shell_windows(T: float) -> Iterator[float]:
    """Outer norm-squared bounds of doubling shells, ending at T^2."""
    T2 = float(T) * float(T)
    hi = _SHELL_BASE
    while True:
        hi2 = min(hi * hi, T2)
        yield hi2
        if hi2 >= T2:
            return
        hi *= 2.0


@dataclass(frozen=True)
class WitnessRecord:
    """A primitive vector nearly realizing a target value of the form."""

    s: float
    v: tuple[int, int, int]
    value: float
    gap: float
    norm: float


@dataclass
class WitnessTable:
    """Witness search results over a grid of targets."""

    targets: list[float]
    records: list[Optional[WitnessRecord]]
    eps: float
    T: float

    @property
    def witnessed(self) -> int:
        return sum(r is not None for r in self.records)


def _grid(s_min: float, s_max: float, step: float) -> list[float]:
    n = int(math.floor((s_max - s_min) / step + 1e-9)) + 1
    return [s_min + i * step for i in range(n)]


def witness_table(
    q, s_min: float, s_max: float, step: float, eps: float, T: float
) -> WitnessTable:
    """Minimal-norm primitive witnesses |Q(v) - s| <= eps for a grid of s.

    A degenerate grid (s_min = s_max) yields the single target s_min.  Each
    doubling shell takes the window hits of the whole ball |v|^2 <= hi2 on
    the span of all targets.  A target still open has no hit in the inner
    ball of an earlier shell, so its first hit in norm order lies in the
    new shell; no inner radius is needed.  The ceiling bounds the (u, v)
    pairs plus the candidates of those passes, summed over the shells
    walked; each shell charges its disc before scanning it, so the shell
    that would cross the ceiling raises before it starts.  The search stops
    as soon as every target is witnessed, so easy targets never pay for the
    full ball of radius T.
    """
    form = as_form(q)
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 1 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 1, got {T}")
    if not -math.inf < s_min <= s_max < math.inf:
        raise ValueError(f"need finite s_min <= s_max, got {s_min}, {s_max}")
    targets = _grid(s_min, s_max, step)
    records: list[Optional[WitnessRecord]] = [None] * len(targets)
    # a superset of every target's window; |Q(v) - s| <= eps decides below
    pad = eps * 1e-9 + 1e-300
    win_lo, win_hi = targets[0] - eps - pad, targets[-1] + eps + pad
    counter = _Capacity(_WORK)

    for hi2 in _shell_windows(T):
        blocks = list(_window_hits(form, win_lo, win_hi, hi2, counter))
        if not blocks:
            continue
        v = np.concatenate([blk[0] for blk in blocks])
        vals = np.concatenate([blk[1] for blk in blocks])
        n2 = np.einsum("ij,ij->i", v, v)
        first = np.where(v[:, 0] != 0, v[:, 0], np.where(v[:, 1] != 0, v[:, 1], v[:, 2]))
        keep = (first > 0) & (np.gcd.reduce(np.abs(v), axis=1) == 1)
        v, vals, n2 = v[keep], vals[keep], n2[keep]
        order = np.lexsort((v[:, 2], v[:, 1], v[:, 0], n2))
        v, vals, n2 = v[order], vals[order], n2[order]
        for ti, s in enumerate(targets):
            if records[ti] is not None:
                continue
            hit = np.flatnonzero(np.abs(vals - s) <= eps)  # authoritative window
            if len(hit) == 0:
                continue
            k = hit[0]
            value = float(vals[k])
            records[ti] = WitnessRecord(
                s=s,
                v=(int(v[k, 0]), int(v[k, 1]), int(v[k, 2])),
                value=value,
                gap=abs(value - s),
                norm=math.sqrt(int(n2[k])),
            )
        if all(rec is not None for rec in records):
            break
    return WitnessTable(targets=targets, records=records, eps=eps, T=T)


def find_witness(q, s: float, eps: float, T: float) -> Optional[WitnessRecord]:
    """Minimal-norm primitive v with |Q(v) - s| <= eps and |v| <= T, if any."""
    table = witness_table(q, s, s, 1.0, eps, T)
    return table.records[0]


def _rounding_margin(
    M: np.ndarray, alpha: float, quad: bool, a: float, b: float, T2: float, tol: float
) -> tuple[float, float, float, bool]:
    """(value margin, root pad, prune pad, bounded) for the intervals of _window_hits.

    One bound serves every (u, v) of the disc: it is taken at the worst point
    of the ball, which costs nothing per pair and widens each interval by far
    less than one integer.  With eps = 2^-53, rho the largest row sum of |M|
    (so |x|^T |M| |x| <= rho |x|^2) and every |x|^2 <= T2:

    * form.evaluate rounds Q(x) by at most 5 eps rho T2;
    * half and gamma carry at most 2 and 4 roundings of terms bounded by
      rho sqrt(T2) and rho T2;
    * the discriminant half^2 - alpha gamma + alpha c, divided by alpha,
      then errs by less than 8 eps (rho^2 / alpha + rho) T2 + 3 eps |c|.

    The margin, 16 eps ((rho + rho^2 / alpha) T2 + |a| + |b|), covers their
    sum: the computed discriminant of the widened window is at least the
    exact one of the window widened by the evaluate error, so the nonempty
    test never drops a row whose rounded values can reach [a, b], and the
    hole test (on the narrowed window) never removes a value that can.  The
    root pad, 8 eps ((rho R + S) / alpha + R + 1) with R = sqrt(T2) + 1 and
    S bounding every sqrt of a discriminant, covers the rounding of half,
    of the square root, of the products by 1/alpha and of mid -+ s; its
    relative part is taken at the edge of the ball, because a root past the
    edge is clipped to it.  The linear branch (|alpha| <= tol) keeps its
    classification blur tol (T2 + 2 sqrt(T2)): dropping alpha w^2, and
    2 half w where |half| <= tol, moves a value by no more.  A tiny
    absolute term covers underflow.  ``bounded`` is False when a bound
    leaves the float range; the caller then scans whole rows.

    The prune pad serves stage 1 of the quadratic branch, which must keep
    every pair whose exact stage (the arithmetic above) has an integer in
    one of its padded, unclipped intervals.  Stage 1 takes the discriminant
    as P(u, v) + k, P = p11 u^2 + p12 u v + p22 v^2, on the window widened
    by the margin once more: k = alpha (c_lo - margin), alpha (c_hi +
    margin).  Let A = (rho^2 + alpha rho) T2 bound the sum of the absolute
    terms of P, which are those of half^2 - alpha gamma.  The exact stage's
    half^2 - alpha gamma and stage 1's P (3 roundings in the coefficients,
    4 in the assembly) each err by less than 7 eps A, and alpha c and k by
    1 and 2 roundings of at most alpha (|c| + margin).  Together that is
    less than alpha margin, so stage 1's sum P + k is at least the exact
    stage's sum at the upper end and at most at the lower end (clipped at
    0, where the exact stage has no hole).  Rounding is monotone, so the
    same order holds after the last rounding of the sums, their square
    roots and their products by the same 1/alpha.  Stage 1 pads s_hi up and
    s_lo down by the prune pad, pad + 16 eps (M + S + pad), with
    M = rho R / alpha bounding |mid| and S / alpha every s; the exact
    stage pads by pad.  The two mids each carry four roundings of terms
    bounded by M, so they differ by less than 8 eps M; the exact stage's
    mid -+ s rounds once more, by at most eps (M + S + pad); and the pads
    themselves round by 2 eps (S + prune pad).  The rest of the prune pad
    covers these, so each interval of stage 1 holds the exact stage's.
    Stage 1's last steps, floor(mid + s_hi) - mid >= s_lo for an integer
    in [mid + s_lo, mid + s_hi] and its mirror image for [mid - s_hi,
    mid - s_lo], are monotone in the same way and never lose an integer
    the real intervals hold.  So a pair stage 1 drops has no candidate but
    those the ball clip collapses onto w = +-wl, when every root of the
    pair lies outside the ball, and they are never hits.
    """
    rho = float(np.abs(M).sum(axis=1).max())
    R = math.sqrt(T2) + 1.0
    window = abs(a) + abs(b)
    if quad:
        margin = 16.0 * _EPS * ((rho + rho * rho / alpha) * T2 + window) + _TINY
        S2 = 4.0 * (rho * rho * T2 + alpha * (window + margin))
        reach = (rho * R + math.sqrt(S2)) / alpha
        pad = 8.0 * _EPS * (reach + R + 1.0)
        prune_pad = pad + 16.0 * _EPS * (reach + pad) + _TINY
        bounded = math.isfinite(S2) and math.isfinite(prune_pad / _EPS)
    else:
        margin = 16.0 * _EPS * (rho * T2 + window) + tol * (T2 + 2.0 * R) + _TINY
        pad = 8.0 * _EPS * (R + 1.0)
        prune_pad = math.nan  # no stage 1: every pair goes to the exact stage
        bounded = math.isfinite(margin / (_EPS * tol))
    return margin, pad, prune_pad, bounded


def _live_columns(
    us: np.ndarray, vmin: np.ndarray, vmax: np.ndarray, p11: float, p12: float, p22: float,
    k_hi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Float columns [lo, hi] of each row u that stage 1 must scan, for p22 < 0.

    A pair can hold a candidate only where p11 u^2 + p12 u v + p22 v^2 + k_hi
    is not negative in exact arithmetic on these float coefficients: where
    the exact stage's upper discriminant is not negative, this one is
    larger, by the argument of _rounding_margin with only the coefficients'
    roundings.  With n = -p22 > 0 that is the interval (v - vc)^2 <= h^2,
    vc = p12 u / (2 n), h^2 = (p11 u^2 + k_hi) / n + vc^2.  The float vc
    errs by 3 roundings (3 eps |vc|) and h^2 by less than 9 eps (r / n +
    vc^2), r = |p11| u^2 + |k_hi|.  16 eps (r / n + vc^2), added to h^2
    before its root, and then 8 eps (|vc| + h) plus a tiny term for
    underflow, added to h, cover those errors and the roundings of the
    root, of h and of vc -+ h.  A row whose widened h^2 is negative has no
    candidate; lo > hi marks it.  A bound that leaves the float range (n
    near 0) keeps the whole row.
    """
    n = -p22
    with np.errstate(all="ignore"):
        vc = (p12 * us) * (0.5 / n)
        p11uu = (p11 * us) * us
        h2 = (p11uu + k_hi) * (1.0 / n)
        vc2 = vc * vc
        h2 += vc2
        h2 += 16.0 * _EPS * ((np.abs(p11uu) + abs(k_hi)) * (1.0 / n) + vc2)
        h = np.sqrt(h2)
        h += 8.0 * _EPS * (np.abs(vc) + h) + _TINY
        lo = np.fmax(np.ceil(vc - h), vmin)  # NaN: the whole row
        hi = np.fmin(np.floor(vc + h), vmax)
    missed = h2 < 0.0  # the row misses the window
    lo[missed], hi[missed] = 1.0, 0.0
    return lo, hi


def _blocks(lo: list[int], hi: list[int]) -> list[tuple[int, int, int, int]]:
    """Blocks (r0, r1, c0, c1): rows [r0, r1) by the union [c0, c1] of their columns.

    A block grows by whole rows while rows x union columns stays within
    _BLOCK_ENTRIES; a row wider than that is split into column chunks of its own.
    """
    blocks = []
    r0 = 0
    while r0 < len(lo):
        c0, c1 = lo[r0], hi[r0]
        if c1 - c0 + 1 > _BLOCK_ENTRIES:
            blocks.extend(
                (r0, r0 + 1, c, min(c + _BLOCK_ENTRIES - 1, c1))
                for c in range(c0, c1 + 1, _BLOCK_ENTRIES)
            )
            r0 += 1
            continue
        r1 = r0 + 1
        while r1 < len(lo):
            d0, d1 = min(c0, lo[r1]), max(c1, hi[r1])
            if (r1 + 1 - r0) * (d1 - d0 + 1) > _BLOCK_ENTRIES:
                break
            c0, c1 = d0, d1
            r1 += 1
        blocks.append((r0, r1, c0, c1))
        r0 = r1
    return blocks


def _window_hits(
    form: TernaryForm, a: float, b: float, T2: float, counter: _Capacity
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (v (k,3) int64, Q(v) (k,)) of v != 0, |v|^2 <= T2, a <= Q(v) <= b.

    Every such vector is yielded exactly once, both signs and imprimitive
    vectors included.  Only the half space u > 0, or u = 0 and v > 0, or
    u = v = 0 and w > 0 is scanned, and each hit is yielded with its mirror
    image -v: every term of form.evaluate has even degree, so it rounds
    Q(-v) to the same bits as Q(v).  The innermost coordinate w (the one
    with the largest |diagonal| entry) is pruned with the quadratic formula
    on a window widened by _rounding_margin, and the candidates then pass
    through an exact evaluate-and-compare mask, so the hits match a
    brute-force triple loop exactly.

    The half disc of the two outer coordinates (u, v) is scanned in 2-D
    blocks of rows by columns (_blocks), in two stages.  Stage 1 (quadratic
    branch) tests every pair of a block with a few broadcast passes over
    per-row and per-column vectors and keeps the pairs whose padded
    intervals may hold an integer; where p22 < 0 it scans only each row's
    live columns (_live_columns).  Stage 2 (exact) runs the per-pair
    arithmetic on the kept pairs: roots, ball clip, candidates and the
    exact mask.  The linear branch and a bound past the float range keep
    every pair of the disc.  The call itself charges the disc's pairs to
    the counter, before any block is scanned; the candidates of the kept
    pairs are charged before they are built.  Stage 1 computes in four
    float and two bool scratch arrays allocated once per pass.
    """
    M = form.matrix
    k = int(np.argmax(np.abs(np.diag(M))))
    i, j = (ax for ax in range(3) if ax != k)
    tol = 1e-12 * max(1.0, form.sup_norm())
    alpha = float(M[k, k])
    # Q(u, v, w) = sgn (alpha w^2 + 2 half w + gamma), alpha > 0 on the quadratic branch
    sgn = -1.0 if alpha < -tol else 1.0
    alpha *= sgn
    quad = alpha > tol
    w_lo, w_hi = (-b, -a) if sgn < 0 else (a, b)
    margin, pad, prune_pad, bounded = _rounding_margin(M, alpha, quad, a, b, T2, tol)
    c_lo, c_hi = w_lo - margin, w_hi + margin
    m_ik, m_jk = sgn * float(M[i, k]), sgn * float(M[j, k])
    m_ii, m_ij2, m_jj = sgn * float(M[i, i]), sgn * 2.0 * float(M[i, j]), sgn * float(M[j, j])

    # the half disc u > 0 or (u = 0, v >= 0); the other half is its mirror image
    rmax = math.floor(math.sqrt(T2))
    us = np.arange(rmax + 1, dtype=float)
    vmax = np.floor(np.sqrt(np.maximum(T2 - us * us, 0.0)))
    vmin = -vmax
    vmin[0] = 0.0
    counter.add(int((vmax - vmin).sum()) + len(us))
    prune = quad and bounded

    def exact(u_pairs: np.ndarray, v_pairs: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Stage 2: the hits among the candidates of pairs (u, v), or None."""
        u, v, wl, nwl, half, gamma, tmp, s_hi, s_lo = np.empty((9, len(u_pairs)))
        u[:] = u_pairs
        v[:] = v_pairs
        np.multiply(v, v, out=tmp)
        np.multiply(u, u, out=wl)
        wl += tmp
        np.subtract(T2, wl, out=wl)
        np.sqrt(np.maximum(wl, 0.0, out=wl), out=wl)  # |w| <= wl inside the ball
        np.negative(wl, out=nwl)
        # gamma = m_ii u u + m_ij2 u v + m_jj v^2 and half = m_ik u + m_jk v
        np.multiply(u, m_ii, out=gamma)
        gamma *= u
        np.multiply(u, m_ij2, out=half)
        half *= v
        gamma += half
        tmp *= m_jj
        gamma += tmp
        np.multiply(u, m_ik, out=half)
        np.multiply(v, m_jk, out=tmp)
        half += tmp

        if not bounded:
            segments = [(np.ceil(nwl), np.floor(wl))]
        elif quad:
            # value <= w_hi on mid -+ s_hi; value >= w_lo outside the hole mid -+ s_lo
            np.multiply(half, half, out=s_lo)
            gamma *= alpha
            s_lo -= gamma
            np.add(s_lo, alpha * c_hi, out=s_hi)
            s_lo += alpha * c_lo
            with np.errstate(invalid="ignore"):  # NaN: the row misses the window / has no hole
                np.sqrt(s_hi, out=s_hi)
                np.sqrt(s_lo, out=s_lo)
            s_hi *= 1.0 / alpha
            s_hi += pad
            s_lo *= 1.0 / alpha
            s_lo -= pad
            mid = half
            mid *= -1.0 / alpha
            lo1 = np.subtract(mid, s_hi, out=gamma)
            hi2 = np.add(mid, s_hi, out=s_hi)
            hi1 = np.fmin(np.subtract(mid, s_lo, out=tmp), hi2, out=tmp)
            lo2 = np.add(mid, s_lo, out=s_lo)
            # integer ends clipped to [-wl, wl]; a NaN start goes to wl and a NaN end to -wl
            st1 = np.ceil(np.fmax(np.fmin(lo1, wl, out=lo1), nwl, out=lo1), out=lo1)
            en1 = np.floor(np.fmin(np.fmax(hi1, nwl, out=hi1), wl, out=hi1), out=hi1)
            en2 = np.floor(np.fmin(np.fmax(hi2, nwl, out=hi2), wl, out=hi2), out=hi2)
            # the second segment starts past the first, so no w is counted twice
            st2 = np.fmax(np.ceil(lo2, out=lo2), np.add(en1, 1.0, out=mid), out=lo2)
            segments = [(st1, en1), (st2, en2)]
        else:
            lin = np.abs(half) > tol
            slope = np.where(lin, 2.0 * half, np.nan)
            t_lo = (c_lo - gamma) / slope
            t_hi = (c_hi - gamma) / slope
            const_ok = ~lin & (gamma >= c_lo) & (gamma <= c_hi)
            lo = np.where(const_ok, -np.inf, np.fmin(t_lo, t_hi) - pad)
            hi = np.where(const_ok, np.inf, np.fmax(t_lo, t_hi) + pad)
            # a NaN start goes to wl and a NaN end to -wl: the row is empty
            st = np.ceil(np.fmax(np.fmin(lo, wl), nwl))
            en = np.floor(np.fmin(np.fmax(hi, nwl), wl))
            segments = [(st, en)]

        picks = []  # (pairs, starts, ends) of nonempty rows, segment by segment
        for st, en in segments:
            length = np.maximum(en - st + 1.0, 0.0)
            counter.add(int(length.sum()))
            nz = np.flatnonzero(length)
            picks.append((nz, st[nz], en[nz]))
        pair = np.concatenate([nz for nz, _, _ in picks])
        if len(pair) == 0:
            return None
        w, owner = _ragged_aranges(
            np.concatenate([st for _, st, _ in picks]).astype(np.int64),
            np.concatenate([en for _, _, en in picks]).astype(np.int64),
        )
        pair = pair[owner]
        cand = np.empty((len(w), 3), dtype=np.int64)
        cand[:, i] = u[pair]
        cand[:, j] = v[pair]
        cand[:, k] = w
        vals = form.evaluate(cand)
        n2 = np.einsum("ij,ij->i", cand, cand)
        half_space = (cand[:, i] != 0) | (cand[:, j] != 0) | (w > 0)
        keep = np.flatnonzero((vals >= a) & (vals <= b) & (n2 <= T2) & half_space)
        if len(keep) == 0:
            return None
        hits = cand[keep]
        return np.concatenate((hits, -hits)), np.concatenate((vals[keep], vals[keep]))

    def kept() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stage 1: block by block, the pairs (u, v) that may hold a candidate."""
        lo, hi = vmin, vmax
        if prune:
            # (alpha w + half)^2 in [P + k_lo, P + k_hi], mid = -half / alpha
            p11 = m_ik * m_ik - alpha * m_ii
            p12 = 2.0 * m_ik * m_jk - alpha * m_ij2
            p22 = m_jk * m_jk - alpha * m_jj
            k_lo, k_hi = alpha * (c_lo - margin), alpha * (c_hi + margin)
            if p22 < 0.0:
                lo, hi = _live_columns(us, vmin, vmax, p11, p12, p22, k_hi)
        live = lo <= hi
        rows = us[live]
        lo, hi = lo[live].astype(np.int64), hi[live].astype(np.int64)
        blocks = _blocks(lo.tolist(), hi.tolist())
        if not blocks:
            return
        if prune:
            inv = 1.0 / alpha
            vs = np.arange(-rmax, rmax + 1, dtype=float)  # column c is vs[c + rmax]
            p11uu = (p11 * rows) * rows
            p12u = p12 * rows
            p22vv = p22 * (vs * vs)
            mid_u = rows * (m_ik * (-1.0 / alpha))
            mid_v = vs * (m_jk * (-1.0 / alpha))
            size = max((r1 - r0) * (c1 - c0 + 1) for r0, r1, c0, c1 in blocks)
            fbuf = np.empty((4, size))
            bbuf = np.empty((2, size), dtype=bool)
        for r0, r1, c0, c1 in blocks:
            if not prune:
                v, row = _ragged_aranges(np.maximum(lo[r0:r1], c0), np.minimum(hi[r0:r1], c1))
                yield rows[row + r0], v
                continue
            shape = (r1 - r0, c1 - c0 + 1)
            n = shape[0] * shape[1]
            s_hi, s_lo, mid, t = (x[:n].reshape(shape) for x in fbuf)
            ok, ok2 = (x[:n].reshape(shape) for x in bbuf)
            rs, cs = slice(r0, r1), slice(c0 + rmax, c1 + rmax + 1)
            np.multiply(p12u[rs, None], vs[cs], out=s_hi)  # P = p11 u^2 + p12 u v + p22 v^2
            s_hi += p11uu[rs, None]
            s_hi += p22vv[cs]
            np.add(s_hi, k_lo, out=s_lo)
            np.sqrt(np.maximum(s_lo, 0.0, out=s_lo), out=s_lo)  # no hole: s_lo = 0
            s_lo *= inv
            s_lo -= prune_pad
            s_hi += k_hi
            with np.errstate(invalid="ignore"):  # NaN: the pair misses the window
                np.sqrt(s_hi, out=s_hi)
            s_hi *= inv
            s_hi += prune_pad
            np.add(mid_u[rs, None], mid_v[cs], out=mid)
            # an integer in [mid + s_lo, mid + s_hi], or in [mid - s_hi, mid - s_lo]
            np.floor(np.add(mid, s_hi, out=t), out=t)
            np.greater_equal(np.subtract(t, mid, out=t), s_lo, out=ok)
            np.floor(np.subtract(s_hi, mid, out=t), out=t)
            np.greater_equal(np.add(t, mid, out=t), s_lo, out=ok2)
            ok |= ok2
            row, col = np.divmod(np.flatnonzero(ok), shape[1])
            row += r0
            v = col + c0
            inside = (v >= lo[row]) & (v <= hi[row])  # the rows' own columns
            yield rows[row[inside]], v[inside]

    def batches() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # stage 2 on runs of _EXACT_PAIRS / 8 to _EXACT_PAIRS kept pairs
        run_u, run_v, size = [], [], 0
        for u, v in kept():
            run_u.append(u)
            run_v.append(v)
            size += len(u)
            if size >= _EXACT_PAIRS // 8:
                u, v = np.concatenate(run_u), np.concatenate(run_v)
                for s in range(0, size, _EXACT_PAIRS):
                    yield u[s : s + _EXACT_PAIRS], v[s : s + _EXACT_PAIRS]
                run_u, run_v, size = [], [], 0
        if size:
            yield np.concatenate(run_u), np.concatenate(run_v)

    def scan() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for u, v in batches():
            found = exact(u, v)
            if found is not None:
                yield found

    return scan()


def _check_count_args(a: float, b: float, T_list: list[float]) -> None:
    if not T_list:
        raise ValueError("need at least one T")
    if not -math.inf < a <= b < math.inf:
        raise ValueError(f"need finite a <= b, got a={a}, b={b}")
    for T in T_list:
        if not 1 <= T < math.inf:
            raise ValueError(f"T must be finite and >= 1, got {T}")


def _ladder_counts(
    blocks: Iterator[tuple[np.ndarray, np.ndarray]], T_list: list[float]
) -> list[int]:
    """Hits of one window pass with |v| <= T, for every T of the ladder.

    The pass must cover the largest T.  Each hit is binned by the first
    ladder level T^2 (the float count_values compares against) that holds
    its |v|^2; the cumulative bins are the counts, in the order of T_list.
    """
    T2s = np.array([T * T for T in T_list])
    levels = np.unique(T2s)
    hist = np.zeros(len(levels), dtype=np.int64)
    for v, _ in blocks:
        n2 = np.einsum("ij,ij->i", v, v)
        hist += np.bincount(np.searchsorted(levels, n2), minlength=len(levels))
    totals = np.cumsum(hist)
    return [int(totals[np.searchsorted(levels, t2)]) for t2 in T2s]


def count_values(q, a: float, b: float, T: float) -> int:
    """#{v integer, v != 0, |v| <= T, a <= Q(v) <= b}, exactly.

    Both signs and imprimitive vectors are counted; only v = 0 is excluded.
    The count is the number of _window_hits, so it matches a brute-force
    triple loop exactly.  The ceiling bounds the (u, v) pairs of the half
    disc |(u, v)| <= T plus the candidate vectors evaluated; both are
    charged before the scan they pay for, so a T whose disc alone is over
    the ceiling raises at once.
    """
    form = as_form(q)
    T = float(T)
    _check_count_args(a, b, [T])
    return _ladder_counts(_window_hits(form, a, b, T * T, _Capacity(_WORK)), [T])[0]


def main_term_constant(
    q, delta: float = 0.05, samples: int = 1_000_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of C_Q = lim vol{|Q| <= d}/(2d) over the unit ball.

    The raw estimator at level delta has leading bias proportional to
    sqrt(delta): the gradient of Q vanishes at the cone vertex (which sits
    inside the ball), and the delta-neighborhood of the cone gains an extra
    delta^(3/2) of volume there.  Richardson extrapolation over (delta,
    delta/2) with exponent 1/2 removes that term; the remaining bias is
    O(delta^(3/2)).  Returns (estimate, standard error), the latter from the
    spread of independent seeded chunks.
    """
    form = as_form(q)
    if not 0 < delta <= 0.1:
        raise ValueError(f"delta must be in (0, 0.1], got {delta}")
    if samples < 10_000:
        raise ValueError(f"samples must be >= 10000, got {samples}")
    p, n = form.signature()  # raises DegenerateForm on singular input
    if p == 0 or n == 0:
        raise DefiniteForm("the coarea constant needs an indefinite form")
    _Capacity("scanned-pair units of the Monte Carlo samples").add(_SAMPLE_WORK * samples)

    sizes = chunk_sizes(samples, min(262_144, max(625, samples // 16)))
    # every chunk is drawn into one buffer: freed chunk arrays stayed resident
    points = np.empty((sizes[0], 3))
    estimates = []
    for rng, size in zip(spawn_rngs(seed, len(sizes)), sizes):
        av = np.abs(form.evaluate(uniform_ball(rng, size, 3, points[:size])))
        e_full = np.count_nonzero(av <= delta) / size * _V_BALL / (2.0 * delta)
        e_half = np.count_nonzero(av <= delta / 2.0) / size * _V_BALL / delta
        estimates.append((_SQRT2 * e_half - e_full) / (_SQRT2 - 1.0))
    return weighted_mean_stderr(estimates, sizes)


@dataclass(frozen=True)
class CountReport:
    """One row of the count-versus-main-term comparison."""

    a: float
    b: float
    T: float
    count: int
    main_constant: float
    main_constant_stderr: float
    main_term: float
    ratio: float
    degenerate_window: bool


def count_vs_main_term(
    q,
    a: float,
    b: float,
    T_list,
    *,
    delta: float = 0.05,
    samples: int = 1_000_000,
    seed: int = 0,
) -> list[CountReport]:
    """Exact counts against the main term C_Q (b-a) T for each T.

    Every T is checked, and the disc of the largest T charged to the
    ceiling, before the Monte Carlo runs.  The counts come from one window
    pass at the largest T (_ladder_counts), so the ceiling bounds that pass
    alone; the reports follow the order of T_list, repeats included.  A
    window with b = a has main term zero; its report is flagged degenerate
    and carries no ratio.
    """
    form = as_form(q)
    T_list = [float(T) for T in T_list]
    _check_count_args(a, b, T_list)
    blocks = _window_hits(form, a, b, max(T * T for T in T_list), _Capacity(_WORK))
    c_q, stderr = main_term_constant(q, delta=delta, samples=samples, seed=seed)
    counts = _ladder_counts(blocks, T_list)
    reports = []
    degenerate = b == a
    for T, n in zip(T_list, counts):
        main = c_q * (b - a) * T
        reports.append(
            CountReport(
                a=float(a),
                b=float(b),
                T=T,
                count=n,
                main_constant=c_q,
                main_constant_stderr=stderr,
                main_term=main,
                ratio=math.nan if degenerate else n / main,
                degenerate_window=degenerate,
            )
        )
    return reports
