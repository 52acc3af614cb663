"""Integer vectors and values of ternary forms: witnesses, counts, C_Q.

One window enumerator, _window_hits, lists every nonzero integer vector v
with |v| <= T and a <= Q(v) <= b.  It scans half the disc of the two outer
coordinates in blocks of whole rows (the other half is its mirror image)
and prunes the innermost coordinate through the quadratic formula.  Two
consumers share it:

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
#: raises at once instead of after the scan.
_WORK = "scanned pairs and candidates of the window enumeration"

#: What one Monte Carlo sample of main_term_constant charges, in the same
#: unit: about three scanned pairs' time (10^6 samples in 0.17 s against
#: 70 ns a pair).  A call charges all its samples before its first chunk.
_SAMPLE_WORK = 3

#: Most (u, v) pairs in one block of _window_hits (a row longer than this is
#: a block of its own): nine 64 KiB scratch rows that stay cache-resident
#: and keep a pass's memory flat.  A fixed budget, not an option; 16,384
#: pairs ran slower and added about 1 MB to the peak RSS of ``count``.
_BLOCK_PAIRS = 1 << 13

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
) -> tuple[float, float, bool]:
    """(value margin, root pad, bounded) for the candidate intervals of _window_hits.

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
    """
    rho = float(np.abs(M).sum(axis=1).max())
    R = math.sqrt(T2) + 1.0
    window = abs(a) + abs(b)
    if quad:
        margin = 16.0 * _EPS * ((rho + rho * rho / alpha) * T2 + window) + _TINY
        S2 = 4.0 * (rho * rho * T2 + alpha * (window + margin))
        pad = 8.0 * _EPS * ((rho * R + math.sqrt(S2)) / alpha + R + 1.0)
        bounded = math.isfinite(S2) and math.isfinite(pad / _EPS)
    else:
        margin = 16.0 * _EPS * (rho * T2 + window) + tol * (T2 + 2.0 * R) + _TINY
        pad = 8.0 * _EPS * (R + 1.0)
        bounded = math.isfinite(margin / (_EPS * tol))
    return margin, pad, bounded


def _row_blocks(widths: np.ndarray) -> list[tuple[int, int]]:
    """Runs [r0, r1) of whole rows holding at most _BLOCK_PAIRS pairs (or one row)."""
    ends = np.cumsum(widths)
    blocks = []
    r0 = 0
    while r0 < len(widths):
        base = int(ends[r0] - widths[r0])
        r1 = max(int(np.searchsorted(ends, base + _BLOCK_PAIRS, side="right")), r0 + 1)
        blocks.append((r0, r1))
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
    Q(-v) to the same bits as Q(v).  The half disc of the two outer
    coordinates (u, v) is scanned in blocks of whole u rows (_row_blocks).
    The innermost coordinate w (the one with the largest |diagonal| entry)
    is pruned with the quadratic formula on a window widened by
    _rounding_margin, and the candidates then pass through an exact
    evaluate-and-compare mask, so the hits match a brute-force triple loop
    exactly.  The call itself charges the disc's pairs to the counter, before
    any block is scanned; each block's candidates are charged before they
    are built.  A block's float work runs in place in one scratch buffer.
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
    margin, pad, bounded = _rounding_margin(M, alpha, quad, a, b, T2, tol)
    c_lo, c_hi = w_lo - margin, w_hi + margin
    m_ik, m_jk = sgn * float(M[i, k]), sgn * float(M[j, k])
    m_ii, m_ij2, m_jj = sgn * float(M[i, i]), sgn * 2.0 * float(M[i, j]), sgn * float(M[j, j])

    # the half disc u > 0 or (u = 0, v >= 0); the other half is its mirror image
    us = np.arange(math.floor(math.sqrt(T2)) + 1, dtype=float)
    vmax = np.floor(np.sqrt(np.maximum(T2 - us * us, 0.0)))
    vmin = -vmax
    vmin[0] = 0.0
    widths = (vmax - vmin).astype(np.int64) + 1
    counter.add(int(widths.sum()))
    lead = np.cumsum(widths) - widths - vmin  # flat index of each row's v = 0
    blocks = _row_blocks(widths)

    def scan() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        buf = np.empty((9, max(int(widths[r0:r1].sum()) for r0, r1 in blocks)))

        flat = 0
        for r0, r1 in blocks:
            rows = slice(r0, r1)
            n = int(widths[rows].sum())
            u, v, wl, nwl, half, gamma, tmp, s_hi, s_lo = (row[:n] for row in buf)
            u[:] = np.repeat(us[rows], widths[rows])
            v[:] = np.arange(flat, flat + n, dtype=float)
            v -= np.repeat(lead[rows], widths[rows])
            flat += n
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
                continue
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
            if len(keep):
                hits = cand[keep]
                yield np.concatenate((hits, -hits)), np.concatenate((vals[keep], vals[keep]))

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
    estimates = []
    for rng, size in zip(spawn_rngs(seed, len(sizes)), sizes):
        av = np.abs(form.evaluate(uniform_ball(rng, size, 3)))
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
