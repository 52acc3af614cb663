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

Witness conventions: vectors are canonicalized up to sign by
util.canonical_mask (first nonzero coordinate positive), ordered
lexicographically by (|v|^2, v), and a returned witness is the
minimal-norm hit with lexicographic tie-break, so all outputs are
deterministic.

Candidate generation is a superset pass followed by an exact membership
mask that reevaluates the form the same way a brute-force oracle would;
counts therefore match plain loops bit for bit.  The superset comes from a
proven rounding margin, not from padding each interval by an integer.  On
the quadratic branch the condition on w is written as (alpha w + half)^2 in
[P + k_lo, P + k_hi], with P = p11 u^2 + p12 u v + p22 v^2 a binary form in
the outer coordinates (u, v) and mid = -half/alpha linear in them.  The
window is widened by the margin 16 eps ((rho + rho^2/alpha) T^2 + |a|
+ |b|), with eps = 2^-53, rho the largest row sum of |M| and alpha the
pruned diagonal entry, and the roots are padded by about 24 eps ((rho (T +
1) + S)/alpha) + 8 eps (T + 2), where S bounds the square roots.  The
margin bounds the rounding of form.evaluate and of P at every point of the
ball, so every hit's w lies in one of the two segments mid -+ [s_lo,
s_hi] that the code computes (_rounding_margin has the derivation).  An
integer w falls within the pad of a root only where Q takes, or nearly
takes, a window end, as at a tangency; the margin keeps such a w and the
exact mask decides it.

Nearly every pair of a narrow window has no candidate, so the scan runs in
two stages.  Stage 1 builds P and mid on a block of rows by columns from
per-row and per-column vectors, computes each pair's s_lo and s_hi, and
keeps a pair where one of its segments may hold an integer (about 20
passes).  Where p22 < 0 the upper end P + k_hi is not negative on one
interval of each row only, found once per row, and stage 1 scans just those
columns (_live_columns).  Stage 2 takes the kept pairs' mid, s_lo and s_hi,
clips the two segments to the ball and evaluates the integers in them.  The
linear branch (alpha near 0) and a margin past the float range have no
stage 1; there stage 2 derives each pair's interval itself.  Both stages
expand integer intervals through util.expand_ranges, as the lattice walk
does, and stage 2 builds, evaluates and filters its candidates one chunk of
2,048 at a time, so a wide window runs in a few MiB.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import DefiniteForm, _Capacity
from .forms import TernaryForm, as_form
from .util import canonical_mask, chunk_sizes, expand_ranges, spawn_rngs, uniform_ball, weighted_mean_stderr

#: What one call charges to the work ceiling (errors.DEFAULT_CEILING): the
#: (u, v) pairs every _window_hits pass scans plus the candidate vectors it
#: evaluates, summed over the passes of the call.  Each pass charges its
#: whole disc before its first block, so a T too large for the ceiling
#: raises at once instead of after the scan.  Only the pairs stage 1 keeps
#: charge candidates: the integers of their segments, clipped to the ball.
#: The two kinds of unit cost differently (in-process, 2 cores, numpy
#: 2.4.6): a scanned pair 7.5 ns on SQF2 over [-1, 1] at T = 3000, where
#: stage 1 scans the live columns, and 16 ns where it scans whole rows; a
#: candidate 82 ns (SQF2 over [-1e8, 1e8] at T = 150) to 111 ns (the same
#: window at T = 1000, which stops at the ceiling after 111 s).
_WORK = "scanned pairs and candidates of the window enumeration"

#: What one Monte Carlo sample of main_term_constant charges, in the same
#: unit.  Set at three pairs of 70 ns; a sample now costs 94 ns (10^6 in
#: 0.094 s), 31 ns a unit.  A call charges all its samples before its
#: first chunk.
_SAMPLE_WORK = 3

#: What one target of witness_table charges per shell, in the same unit: a
#: shell compares every open target with the hits in its value window.  Set
#: against 70 ns a pair; a target now costs 0.17 us a shell when most
#: windows are empty and 2.6 us when most hold hits (20,001 targets on
#: [-1, 1], SQF2, T = 64), 3-52 ns a unit.  A call charges all its targets,
#: over every shell up to T, before it builds the grid.
_TARGET_WORK = 50

#: Most entries (rows x columns) of one block of _window_hits: stage 1 runs
#: in four float and two bool scratch arrays of this many entries (544 KiB),
#: allocated once per pass.  A row wider than this is split into column
#: chunks.  A fixed budget, not an option; 2^13 entries ran slower, and 2^15
#: put the traced peak of a T = 2000 count over the memory test's bound.
_BLOCK_ENTRIES = 1 << 14

#: Most (u, v) pairs of one stage-2 call of _window_hits.  Stage 2 runs once
#: an eighth of this many pairs is kept, not once per block: a call costs
#: about 70 numpy passes and holds about 20 float arrays of its pairs' size.
_EXACT_PAIRS = 1 << 11

_EPS = 2.0**-53  # unit roundoff of float64
_TINY = 1e-300  # absolute slack for underflowed products
_SHELL_BASE = 8.0
_V_BALL = 4.0 * math.pi / 3.0
_SQRT2 = math.sqrt(2.0)


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


def _grid(s_min: float, s_max: float, step: float, shells: int) -> list[float]:
    """The targets s_min + i step up to s_max, charged to the ceiling before they are built.

    The count is taken in floats, so a grid past the int range (inf
    included) raises instead of overflowing.
    """
    span = (s_max - s_min) / step + 1e-9
    n = math.floor(span) + 1.0 if math.isfinite(span) else math.inf
    _Capacity(f"scanned-pair units of {n:.6g} witness targets in {shells} shells").add(
        n * shells * _TARGET_WORK
    )
    return [s_min + i * step for i in range(int(n))]


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
    that would cross the ceiling raises before it starts.  The targets
    themselves are charged to a tally of their own, each over every shell
    up to T, before the grid is built (_grid).  The search stops as soon as
    every target is witnessed, so easy targets never pay for the full ball
    of radius T.
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
    shells = list(_shell_windows(T))
    targets = _grid(s_min, s_max, step, len(shells))
    records: list[Optional[WitnessRecord]] = [None] * len(targets)
    # a superset of every target's window; |Q(v) - s| <= eps decides below
    pad = eps * 1e-9 + 1e-300
    win_lo, win_hi = targets[0] - eps - pad, targets[-1] + eps + pad
    counter = _Capacity(_WORK)

    for hi2 in shells:
        blocks = list(_window_hits(form, win_lo, win_hi, hi2, counter))
        if not blocks:
            continue
        v, vals, n2 = (np.concatenate(col) for col in zip(*blocks))
        keep = canonical_mask(v) & (np.gcd.reduce(np.abs(v), axis=1) == 1)
        v, vals, n2 = v[keep], vals[keep], n2[keep]
        order = np.lexsort((v[:, 2], v[:, 1], v[:, 0], n2))
        v, vals, n2 = v[order], vals[order], n2[order]
        # each open target looks only at the hits whose values lie in its
        # padded window, and takes the least (n2, v) rank that passes.  A
        # value that passes |x - s| <= eps in floats lies within
        # eps (1 + 2^-52) of s; the pad covers that and the rounding of the
        # window's ends
        by_value = np.argsort(vals, kind="stable")
        sorted_vals = vals[by_value]
        open_ti = [ti for ti, rec in enumerate(records) if rec is None]
        s_open = np.array([targets[ti] for ti in open_ti])
        s_pad = 1e-9 * (np.abs(s_open) + eps) + 1e-300
        lo = np.searchsorted(sorted_vals, (s_open - eps) - s_pad, side="left").tolist()
        hi = np.searchsorted(sorted_vals, (s_open + eps) + s_pad, side="right").tolist()
        for ti, start, stop in zip(open_ti, lo, hi):
            if start == stop:
                continue
            s = targets[ti]
            near = by_value[start:stop]
            hit = near[np.abs(vals[near] - s) <= eps]  # authoritative window
            if len(hit) == 0:
                continue
            k = hit.min()
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
) -> tuple[float, float, bool]:
    """(value margin, pad, bounded) for the w-intervals of _window_hits.

    One bound serves every (u, v) of the disc: it is taken at the worst point
    of the ball, which costs nothing per pair and widens each interval by far
    less than one integer.  With eps = 2^-53, rho the largest row sum of |M|
    (so |x|^T |M| |x| <= rho |x|^2), every |x|^2 <= T2, R = sqrt(T2) + 1 and
    the signs of _window_hits (alpha > 0 on the quadratic branch):

    A hit x = (u, v, w) has form.evaluate(x) in [a, b], and form.evaluate
    rounds Q(x) by at most 5 eps rho T2.  So in exact arithmetic on the
    float entries alpha w^2 + 2 half w + gamma lies in [w_lo - e, w_hi + e],
    e = 5 eps rho T2, and (alpha w + half)^2 lies in [P + alpha (w_lo - e),
    P + alpha (w_hi + e)], with P = half^2 - alpha gamma = p11 u^2 + p12 u v
    + p22 v^2.  Let A = (rho^2 + alpha rho) T2 bound the sum of the absolute
    terms of P.  Stage 1 computes P (3 roundings in the coefficients, 4 in
    the assembly) with an error below 7 eps A, and adds k_lo = alpha (w_lo -
    margin) or k_hi = alpha (w_hi + margin), each within 2 roundings of
    alpha (|a| + |b| + margin), before one last rounding of the sum, at most
    eps (A + alpha (|a| + |b| + margin)).  The margin, 16 eps ((rho + rho^2 /
    alpha) T2 + |a| + |b|), times alpha is 16 eps (A + alpha (|a| + |b|)),
    and exceeds e alpha <= 5 eps A and all these errors (below 8 eps A + 4
    eps alpha (|a| + |b|)), so the computed upper sum is at least the exact
    upper end, and the computed lower sum, clipped at
    0 (no hole), at most the exact lower end clipped at 0.  Their correctly
    rounded square roots times the rounded 1 / alpha err by at most 3
    roundings of S / alpha, S bounding every square root (S^2 = 4 (rho^2 T2
    + alpha (|a| + |b| + margin))), and mid = -half / alpha, summed from
    per-row and per-column products, by at most 4 of M = rho R / alpha.
    The quadratic pad, 8 eps (reach + R + 1) + 16 eps (reach + 8 eps (reach
    + R + 1)) with reach = M + S / alpha, plus a tiny absolute term for
    underflow, covers those errors and the roundings of s -+ pad more than
    twice.  So s_hi = root + pad and s_lo = root - pad hold every hit's w in
    mid -+ [s_lo, s_hi] in real arithmetic on the computed mid, s_lo and
    s_hi.  Every integer there is a float, and rounding is monotone, so the
    computed ends mid -+ s of those segments, and stage 1's test that one
    of them holds an integer, never lose one.  Neither does the ball clip:
    a hit's w^2 is at most T2 - u^2 - v^2, so |w| is at most its computed
    square root.

    The linear branch (|alpha| <= tol) widens the window by the margin 16
    eps (rho T2 + |a| + |b|) plus its classification blur tol (T2 + 2 R):
    dropping alpha w^2, and 2 half w where |half| <= tol, moves a value by
    no more.  Its pad, 8 eps (R + 1), covers the roundings of the roots
    (c - gamma) / (2 half) inside the ball; a root past its edge is clipped
    to it.  ``bounded`` is False when a bound leaves the float range; the
    caller then scans whole rows.
    """
    rho = float(np.abs(M).sum(axis=1).max())
    R = math.sqrt(T2) + 1.0
    window = abs(a) + abs(b)
    if quad:
        margin = 16.0 * _EPS * ((rho + rho * rho / alpha) * T2 + window) + _TINY
        S2 = 4.0 * (rho * rho * T2 + alpha * (window + margin))
        reach = (rho * R + math.sqrt(S2)) / alpha
        root_pad = 8.0 * _EPS * (reach + R + 1.0)
        pad = root_pad + 16.0 * _EPS * (reach + root_pad) + _TINY
        bounded = math.isfinite(S2) and math.isfinite(pad / _EPS)
    else:
        margin = 16.0 * _EPS * (rho * T2 + window) + tol * (T2 + 2.0 * R) + _TINY
        pad = 8.0 * _EPS * (R + 1.0)
        bounded = math.isfinite(margin / (_EPS * tol))
    return margin, pad, bounded


def _live_columns(
    us: np.ndarray, vmin: np.ndarray, vmax: np.ndarray, p11: float, p12: float, p22: float,
    k_hi: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Float columns [lo, hi] of each row u that stage 1 must scan, for p22 < 0.

    A pair can hold a hit only where p11 u^2 + p12 u v + p22 v^2 + k_hi is
    not negative in exact arithmetic on these float coefficients: the
    coefficients err by at most 3 eps A together (_rounding_margin's
    notation), and k_hi = alpha (w_hi + margin), within its 2 roundings,
    exceeds alpha (w_hi + e) by more than that, so the sum is at least the
    exact upper end P + alpha (w_hi + e), which is at least a hit's (alpha
    w + half)^2 >= 0.  With n = -p22 > 0 that is the
    interval (v - vc)^2 <= h^2, vc = p12 u / (2 n), h^2 = (p11 u^2 + k_hi)
    / n + vc^2.  The float vc errs by 3 roundings (3 eps |vc|) and h^2 by
    less than 9 eps (r / n + vc^2), r = |p11| u^2 + |k_hi|.  16 eps (r / n
    + vc^2), added to h^2 before its root, and then 8 eps (|vc| + h) plus a
    tiny term for underflow, added to h, cover those errors and the
    roundings of the root, of h and of vc -+ h.  A row whose widened h^2 is
    negative has no candidate; lo > hi marks it.  A bound that leaves the
    float range (n near 0) keeps the whole row.
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
) -> Iterator[tuple[np.ndarray, ...]]:
    """Chunks (v (k,3), Q(v), |v|^2 (k,) int64) of v != 0, |v|^2 <= T2, a <= Q(v) <= b.

    Every such vector is yielded exactly once, both signs and imprimitive
    vectors included.  Only the half space u > 0, or u = 0 and v > 0, or
    u = v = 0 and w > 0 is scanned, and each hit is yielded with its mirror
    image -v: every term of form.evaluate has even degree, so it rounds
    Q(-v) to the same bits as Q(v).  The innermost coordinate w (the one
    with the largest |diagonal| entry) is pruned to intervals that hold
    every hit (_rounding_margin), and the candidates then pass through an
    exact evaluate-and-compare mask, so the hits match a brute-force triple
    loop exactly.

    The half disc of the two outer coordinates (u, v) is scanned in 2-D
    blocks of rows by columns (_blocks), in two stages.  Stage 1 (quadratic
    branch) computes every pair's mid, s_lo and s_hi with a few broadcast
    passes over per-row and per-column vectors and keeps the pairs where
    one of the segments mid -+ [s_lo, s_hi] may hold an integer; where
    p22 < 0 it scans only each row's live columns (_live_columns).  Stage 2
    builds the candidates of the kept pairs from those two segments,
    clipped to the ball, and applies the exact mask, one util.expand_ranges
    chunk at a time.  The linear branch and a bound past the float range
    keep every pair of the disc, and stage 2 derives their intervals per
    pair.  The call itself charges the disc's pairs to the counter, before
    any block is scanned; each segment's candidates are charged before its
    chunks are built.  Stage 1 computes in four float and two bool scratch
    arrays allocated once per pass.
    """
    # the disc of radius r - 2 lies inside the unit squares of the half disc's
    # pairs, with room for the rounding of every row's ends: a disc that
    # cannot fit the ceiling is refused before any array is built
    r = math.sqrt(T2) - 2.0
    least = 0.5 * math.pi * r * r if r > 0.0 else 0.0
    if counter.used + least > counter.ceiling:
        counter.add(least)
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
    margin, pad, bounded = _rounding_margin(M, alpha, quad, a, b, T2, tol)
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

    def exact(u: np.ndarray, v: np.ndarray, *segs: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Stage 2: the hits among the candidates of pairs (u, v), chunk by chunk.

        On the pruned branch segs are stage 1's mid, s_lo and s_hi of each pair.
        """
        v = v.astype(float)
        wl = np.sqrt(np.maximum(T2 - (u * u + v * v), 0.0))  # |w| <= wl inside the ball
        nwl = -wl

        def clip(lo, hi):
            # integer ends clipped to [-wl, wl]; a NaN start goes to wl and a NaN end to -wl
            return np.ceil(np.fmax(np.fmin(lo, wl), nwl)), np.floor(np.fmin(np.fmax(hi, nwl), wl))

        if prune:
            mid, s_lo, s_hi = segs
            st1, en1 = clip(mid - s_hi, mid - s_lo)
            en2 = np.floor(np.fmin(np.fmax(mid + s_hi, nwl), wl))
            # the second segment starts past the first, so no w is counted twice
            st2 = np.fmax(np.ceil(mid + s_lo), en1 + 1.0)
            segments = [(st1, en1), (st2, en2)]
        elif bounded:
            half = u * m_ik + v * m_jk
            gamma = (u * m_ii) * u + (u * m_ij2) * v + (v * v) * m_jj
            lin = np.abs(half) > tol
            slope = np.where(lin, 2.0 * half, np.nan)
            t_lo = (c_lo - gamma) / slope
            t_hi = (c_hi - gamma) / slope
            const_ok = ~lin & (gamma >= c_lo) & (gamma <= c_hi)
            lo = np.where(const_ok, -np.inf, np.fmin(t_lo, t_hi) - pad)
            hi = np.where(const_ok, np.inf, np.fmax(t_lo, t_hi) + pad)
            segments = [clip(lo, hi)]  # a NaN root empties the row
        else:
            segments = [clip(nwl, wl)]

        for st, en in segments:  # each segment's candidates, charged before they are built
            counter.add(int(np.maximum(en - st + 1.0, 0.0).sum()))
        starts, ends = (np.concatenate(x) for x in zip(*segments))
        for idx, w in expand_ranges(starts, ends):
            pair = idx % len(u)  # the segments of all pairs, one after the other
            cand = np.empty((len(w), 3), dtype=np.int64)
            cand[:, i] = u[pair]
            cand[:, j] = v[pair]
            cand[:, k] = w
            vals = form.evaluate(cand)
            n2 = np.einsum("ij,ij->i", cand, cand)
            half_space = (cand[:, i] != 0) | (cand[:, j] != 0) | (w > 0)
            keep = np.flatnonzero((vals >= a) & (vals <= b) & (n2 <= T2) & half_space)
            if len(keep):
                hits = cand[keep]
                yield np.concatenate((hits, -hits)), np.tile(vals[keep], 2), np.tile(n2[keep], 2)

    def kept() -> Iterator[tuple[np.ndarray, ...]]:
        """Stage 1: block by block, the pairs (u, v) that may hold a candidate.

        On the pruned branch each pair comes with its mid, s_lo and s_hi.
        """
        lo, hi = vmin, vmax
        if prune:
            # (alpha w + half)^2 in [P + k_lo, P + k_hi], mid = -half / alpha
            p11 = m_ik * m_ik - alpha * m_ii
            p12 = 2.0 * m_ik * m_jk - alpha * m_ij2
            p22 = m_jk * m_jk - alpha * m_jj
            k_lo, k_hi = alpha * c_lo, alpha * c_hi
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
                # one part a block, so stage 2's runs do not depend on the chunks
                chunks = expand_ranges(np.maximum(lo[r0:r1], c0), np.minimum(hi[r0:r1], c1))
                row, v = (np.concatenate(x) for x in zip(*chunks))
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
            np.sqrt(np.maximum(s_lo, 0.0, out=s_lo), out=s_lo)  # no hole: s_lo = -pad
            s_lo *= inv
            s_lo -= pad
            s_hi += k_hi
            with np.errstate(invalid="ignore"):  # NaN: the pair misses the window
                np.sqrt(s_hi, out=s_hi)
            s_hi *= inv
            s_hi += pad
            np.add(mid_u[rs, None], mid_v[cs], out=mid)
            # an integer in [mid + s_lo, mid + s_hi], or in [mid - s_hi, mid - s_lo]
            np.floor(np.add(mid, s_hi, out=t), out=t)
            np.greater_equal(np.subtract(t, mid, out=t), s_lo, out=ok)
            np.floor(np.subtract(s_hi, mid, out=t), out=t)
            np.greater_equal(np.add(t, mid, out=t), s_lo, out=ok2)
            ok |= ok2
            flat = np.flatnonzero(ok)
            row, col = np.divmod(flat, shape[1])
            row += r0
            v = col + c0
            inside = (v >= lo[row]) & (v <= hi[row])  # the rows' own columns
            flat = flat[inside]
            yield rows[row[inside]], v[inside], mid.take(flat), s_lo.take(flat), s_hi.take(flat)

    def scan() -> Iterator[tuple[np.ndarray, ...]]:
        # stage 2 on runs of _EXACT_PAIRS / 8 to _EXACT_PAIRS kept pairs;
        # the closing None sends the last, shorter run
        run, size = [], 0
        for part in itertools.chain(kept(), [None]):
            if part is not None:
                run.append(part)
                size += len(part[0])
                if size < _EXACT_PAIRS // 8:
                    continue
            cols = [np.concatenate(col) for col in zip(*run)]
            for s in range(0, size, _EXACT_PAIRS):
                yield from exact(*(col[s : s + _EXACT_PAIRS] for col in cols))
            run, size = [], 0

    return scan()


def _check_count_args(a: float, b: float, T_list: list[float]) -> None:
    if not T_list:
        raise ValueError("need at least one T")
    if not -math.inf < a <= b < math.inf:
        raise ValueError(f"need finite a <= b, got a={a}, b={b}")
    for T in T_list:
        if not 1 <= T < math.inf:
            raise ValueError(f"T must be finite and >= 1, got {T}")


def _ladder_counts(blocks: Iterator[tuple[np.ndarray, ...]], T_list: list[float]) -> list[int]:
    """Hits of one window pass with |v| <= T, for every T of the ladder.

    The pass must cover the largest T.  Each hit is binned by the first
    ladder level T^2 (the float count_values compares against) that holds
    its |v|^2; the cumulative bins are the counts, in the order of T_list.
    A repeated level bins nothing past its first copy, so the levels need
    no deduplication (np.unique would also import numpy.ma).
    """
    T2s = np.array([T * T for T in T_list])
    levels = np.sort(T2s)
    hist = np.zeros(len(levels), dtype=np.int64)
    for _, _, n2 in blocks:
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
    degenerate = b == a
    if c_q == 0.0 and not degenerate:
        raise ValueError(
            f"the main term is 0: no Monte Carlo sample has |Q| <= delta = {delta:g}; "
            "raise delta or samples"
        )
    counts = _ladder_counts(blocks, T_list)
    reports = []
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
