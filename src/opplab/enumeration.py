"""Integer vectors and values of ternary forms: witnesses, counts, C_Q.

One window enumerator, _window_hits, lists every nonzero integer vector v
with |v| <= T and a <= Q(v) <= b, pruning the innermost coordinate through
the quadratic formula.  Two consumers share it:

* count_values counts its hits (both signs, imprimitive included);
* find_witness / witness_table run it over doubling norm shells on the
  window spanned by the targets, keep the canonical primitive hits, and
  pick the minimal one for each target.

main_term_constant estimates the coarea constant

    C_Q = lim vol{v in B(0,1): |Q(v)| <= delta} / (2*delta)

by Monte Carlo, which is the main-term constant of the counting asymptotic
#{v: |v| <= T, a <= Q(v) <= b} ~ C_Q (b-a) T.

Witness conventions: vectors are canonicalized up to sign (first nonzero
coordinate positive), ordered lexicographically by (|v|^2, v), and a
returned witness is the minimal-norm hit with lexicographic tie-break, so
all outputs are deterministic.

Candidate generation is a superset pass (interval bounds padded by one
integer, windows widened by the classification blur) followed by an exact
membership mask that reevaluates the form the same way a brute-force oracle
would; counts therefore match plain loops bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityExceeded, DefiniteForm
from .forms import NormalizedForm, TernaryForm
from .util import chunk_sizes, parallel_map, spawn_rngs, uniform_ball, weighted_mean_stderr

#: Hard ceiling on lattice points an enumeration may touch (spec default):
#: the padded window candidates of _window_hits, summed over all its calls.
DEFAULT_CEILING = 10**9

_SHELL_BASE = 8.0
_V_BALL = 4.0 * math.pi / 3.0
_SQRT2 = math.sqrt(2.0)

WITNESS_CSV_HEADER = ("s", "v1", "v2", "v3", "value", "gap", "norm")
COUNT_CSV_HEADER = ("T", "count", "c_q", "main_term", "ratio", "degenerate_window")


def _as_form(q) -> TernaryForm:
    if isinstance(q, NormalizedForm):
        return q.form
    if isinstance(q, TernaryForm):
        return q
    raise TypeError(f"expected TernaryForm or NormalizedForm, got {type(q).__name__}")


class _Capacity:
    """Running tally of enumerated candidates against a hard ceiling."""

    def __init__(self, ceiling: Optional[int]):
        self.ceiling = ceiling
        self.used = 0

    def add(self, n: int) -> None:
        self.used += int(n)
        if self.ceiling is not None and self.used > self.ceiling:
            raise CapacityExceeded(
                f"enumeration touched {self.used} lattice points, over the ceiling {self.ceiling}"
            )


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


def _shell_windows(T: float) -> Iterator[tuple[float, float]]:
    """Norm-squared windows (lo2, hi2] covering (0, T^2] in doubling shells."""
    T2 = float(T) * float(T)
    hi = _SHELL_BASE
    lo2 = 0.0
    while True:
        hi2 = min(hi * hi, T2)
        yield lo2, hi2
        if hi2 >= T2:
            return
        lo2 = hi2
        hi *= 2.0


@dataclass(frozen=True)
class WitnessRecord:
    """A primitive vector nearly realizing a target value of the form."""

    s: float
    v: tuple[int, int, int]
    value: float
    gap: float
    norm: float

    def csv_row(self) -> tuple:
        return (self.s, *self.v, self.value, self.gap, self.norm)

    def to_json_obj(self) -> dict:
        return {
            "s": self.s,
            "v": list(self.v),
            "value": self.value,
            "gap": self.gap,
            "norm": self.norm,
        }


@dataclass
class WitnessTable:
    """Witness search results over a grid of targets."""

    targets: list[float]
    records: list[Optional[WitnessRecord]]
    eps: float
    T: float

    @property
    def entries(self) -> list[tuple[float, Optional[WitnessRecord]]]:
        return list(zip(self.targets, self.records))

    @property
    def witnessed(self) -> int:
        return sum(r is not None for r in self.records)

    @property
    def missing_fraction(self) -> float:
        return 1.0 - self.witnessed / len(self.targets)

    def csv_rows(self) -> list[tuple]:
        """One row per target; unwitnessed targets leave the vector cells empty."""
        rows = []
        for s, rec in zip(self.targets, self.records):
            if rec is None:
                rows.append((s, "", "", "", "", "", ""))
            else:
                rows.append(rec.csv_row())
        return rows

    def to_json_obj(self) -> dict:
        return {
            "eps": self.eps,
            "T": self.T,
            "targets": list(self.targets),
            "witnessed": self.witnessed,
            "records": [None if r is None else r.to_json_obj() for r in self.records],
        }


def _grid(s_min: float, s_max: float, step: float) -> list[float]:
    n = int(math.floor((s_max - s_min) / step + 1e-9)) + 1
    return [s_min + i * step for i in range(n)]


def witness_table(
    q,
    s_min: float,
    s_max: float,
    step: float,
    eps: float,
    T: float,
    ceiling: Optional[int] = DEFAULT_CEILING,
) -> WitnessTable:
    """Minimal-norm primitive witnesses |Q(v) - s| <= eps for a grid of s.

    A degenerate grid (s_min = s_max) yields the single target s_min.  Each
    doubling shell lo2 < |v|^2 <= hi2 takes the window hits of the ball
    |v|^2 <= hi2 on the span of all targets, so the ceiling bounds the
    padded window candidates summed over the shells walked, not the lattice
    points of the ball.  The search stops as soon as every target is
    witnessed, so easy targets never pay for the full ball of radius T.
    """
    form = _as_form(q)
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
    counter = _Capacity(ceiling)

    for lo2, hi2 in _shell_windows(T):
        blocks = list(_window_hits(form, win_lo, win_hi, math.sqrt(hi2), counter))
        if not blocks:
            continue
        v = np.concatenate([blk[0] for blk in blocks])
        vals = np.concatenate([blk[1] for blk in blocks])
        n2 = np.einsum("ij,ij->i", v, v)
        first = np.where(v[:, 0] != 0, v[:, 0], np.where(v[:, 1] != 0, v[:, 1], v[:, 2]))
        keep = (n2 > lo2) & (first > 0) & (np.gcd.reduce(np.abs(v), axis=1) == 1)
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


def find_witness(
    q, s: float, eps: float, T: float, ceiling: Optional[int] = DEFAULT_CEILING
) -> Optional[WitnessRecord]:
    """Minimal-norm primitive v with |Q(v) - s| <= eps and |v| <= T, if any."""
    table = witness_table(q, s, s, 1.0, eps, T, ceiling=ceiling)
    return table.records[0]


def _window_hits(
    form: TernaryForm, a: float, b: float, T: float, counter: _Capacity
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (v (k,3) int64, Q(v) (k,)) of v != 0, |v| <= T, a <= Q(v) <= b.

    Every such vector is yielded exactly once, both signs and imprimitive
    vectors included.  The innermost coordinate (the one with the largest
    |diagonal| entry) is pruned with the quadratic formula; candidates from
    the padded intervals then pass through an exact evaluate-and-compare
    mask, so the hits match a brute-force triple loop exactly.
    """
    M = form.matrix
    k = int(np.argmax(np.abs(np.diag(M))))
    i, j = (ax for ax in range(3) if ax != k)
    scale = max(1.0, form.sup_norm())
    tol = 1e-12 * scale
    T2 = float(T) * float(T)
    # classification blur: treating |coef| <= tol as zero perturbs values on
    # the ball by at most tol * T^2, so superset windows widen by that much
    blur = tol * T2

    alpha = float(M[k, k])
    m_ik, m_jk = float(M[i, k]), float(M[j, k])
    m_ii, m_ij, m_jj = float(M[i, i]), float(M[i, j]), float(M[j, j])
    flip = alpha < -tol
    if flip:
        alpha = -alpha
    w_lo, w_hi = (-b, -a) if flip else (a, b)
    quad = alpha > tol

    u_max = int(math.floor(T + 1e-9))
    for u in range(-u_max, u_max + 1):
        ru2 = T2 - float(u) * float(u)
        if ru2 < 0:
            continue
        vmax = int(math.floor(math.sqrt(ru2))) + 1
        vs = np.arange(-vmax, vmax + 1, dtype=np.int64)
        vsf = vs.astype(float)
        wcap = np.floor(np.sqrt(np.maximum(ru2 - vsf**2, 0.0))).astype(np.int64) + 1
        sgn = -1.0 if flip else 1.0
        half = sgn * (m_ik * u + m_jk * vsf)  # half the linear coefficient
        gamma = sgn * (m_ii * u * u + 2.0 * m_ij * u * vsf + m_jj * vsf**2)

        segments: list[tuple[np.ndarray, np.ndarray]] = []
        if quad:
            disc_hi = half**2 - alpha * (gamma - w_hi)
            disc_lo = half**2 - alpha * (gamma - w_lo)
            sq_hi = np.sqrt(np.maximum(disc_hi, 0.0))
            sq_lo = np.sqrt(np.maximum(disc_lo, 0.0))
            p = (-half - sq_hi) / alpha
            qq = (-half + sq_hi) / alpha
            r1 = (-half - sq_lo) / alpha
            r2 = (-half + sq_lo) / alpha
            nonempty = disc_hi >= 0
            hole = disc_lo >= 0
            # value <= w_hi on [p, qq]; value >= w_lo outside (r1, r2)
            st1 = _int_bounds(p, True)
            en1 = _int_bounds(np.where(hole, r1, qq), False)
            st2 = np.where(hole, _int_bounds(r2, True), 1).astype(np.int64)
            en2 = np.where(hole, _int_bounds(qq, False), 0).astype(np.int64)
            # disjointness: segment padding must not double-count the overlap
            st2 = np.maximum(st2, en1 + 1)
            empty = ~nonempty
            st1, en1 = np.where(empty, 1, st1), np.where(empty, 0, en1)
            st2, en2 = np.where(empty, 1, st2), np.where(empty, 0, en2)
            segments.append((st1, en1))
            segments.append((st2, en2))
        else:
            lin = np.abs(half) > tol
            t1 = (w_lo - blur - gamma) / np.where(lin, 2.0 * half, 1.0)
            t2 = (w_hi + blur - gamma) / np.where(lin, 2.0 * half, 1.0)
            lo_t = np.minimum(t1, t2)
            hi_t = np.maximum(t1, t2)
            const_ok = ~lin & (gamma >= w_lo - blur) & (gamma <= w_hi + blur)
            st = np.where(lin, _int_bounds(lo_t, True), np.where(const_ok, -wcap, 1))
            en = np.where(lin, _int_bounds(hi_t, False), np.where(const_ok, wcap, 0))
            segments.append((st, en))

        for st, en in segments:
            st = np.maximum(st, -wcap)
            en = np.minimum(en, wcap)
            counter.add(int(np.maximum(en - st + 1, 0).sum()))
            w, owner = _ragged_aranges(st, en)
            if len(w) == 0:
                continue
            vv = vs[owner]
            cand = np.empty((len(w), 3), dtype=np.int64)
            cand[:, i] = u
            cand[:, j] = vv
            cand[:, k] = w
            vals = form.evaluate(cand)
            keep = (vals >= a) & (vals <= b)
            keep &= (u * u + vv * vv + w * w) <= T2
            if u == 0:
                keep &= (vv != 0) | (w != 0)
            hit = np.flatnonzero(keep)
            if len(hit):
                yield cand[hit], vals[hit]


def count_values(
    q, a: float, b: float, T: float, ceiling: Optional[int] = DEFAULT_CEILING
) -> int:
    """#{v integer, v != 0, |v| <= T, a <= Q(v) <= b}, exactly.

    Both signs and imprimitive vectors are counted; only v = 0 is excluded.
    The count is the number of _window_hits, so it matches a brute-force
    triple loop exactly.
    """
    form = _as_form(q)
    if not -math.inf < a <= b < math.inf:
        raise ValueError(f"need finite a <= b, got a={a}, b={b}")
    if not 1 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 1, got {T}")
    return sum(len(v) for v, _ in _window_hits(form, a, b, T, _Capacity(ceiling)))


def _int_bounds(x: np.ndarray, is_start: bool) -> np.ndarray:
    """Integer interval ends padded outward by one against rounding error."""
    safe = np.where(np.isfinite(x), x, 0.0)
    clipped = np.clip(safe, -9.2e18, 9.2e18)
    return (np.floor(clipped) - 1 if is_start else np.ceil(clipped) + 1).astype(np.int64)


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
    form = _as_form(q)
    if not 0 < delta <= 0.1:
        raise ValueError(f"delta must be in (0, 0.1], got {delta}")
    if samples < 10_000:
        raise ValueError(f"samples must be >= 10000, got {samples}")
    p, n = form.signature()  # raises DegenerateForm on singular input
    if p == 0 or n == 0:
        raise DefiniteForm("the coarea constant needs an indefinite form")

    sizes = chunk_sizes(samples, min(262_144, max(625, samples // 16)))
    rngs = spawn_rngs(seed, len(sizes))

    def one_chunk(idx: int) -> float:
        pts = uniform_ball(rngs[idx], sizes[idx], 3)
        av = np.abs(form.evaluate(pts))
        e_full = np.count_nonzero(av <= delta) / sizes[idx] * _V_BALL / (2.0 * delta)
        e_half = np.count_nonzero(av <= delta / 2.0) / sizes[idx] * _V_BALL / delta
        return (_SQRT2 * e_half - e_full) / (_SQRT2 - 1.0)

    estimates = parallel_map(one_chunk, range(len(sizes)))
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

    def csv_row(self) -> tuple:
        return (
            self.T,
            self.count,
            self.main_constant,
            self.main_term,
            "" if self.degenerate_window else self.ratio,
            int(self.degenerate_window),
        )

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "T": self.T,
            "count": self.count,
            "c_q": self.main_constant,
            "c_q_stderr": self.main_constant_stderr,
            "main_term": self.main_term,
            "ratio": None if self.degenerate_window else self.ratio,
            "degenerate_window": self.degenerate_window,
        }


def count_vs_main_term(
    q,
    a: float,
    b: float,
    T_list,
    *,
    delta: float = 0.05,
    samples: int = 1_000_000,
    seed: int = 0,
    ceiling: Optional[int] = DEFAULT_CEILING,
) -> list[CountReport]:
    """Exact counts against the main term C_Q (b-a) T for each T.

    A window with b = a has main term zero; its report is flagged degenerate
    and carries no ratio.
    """
    c_q, stderr = main_term_constant(q, delta=delta, samples=samples, seed=seed)
    reports = []
    for T in T_list:
        n = count_values(q, a, b, T, ceiling=ceiling)
        main = c_q * (b - a) * float(T)
        degenerate = b == a
        reports.append(
            CountReport(
                a=float(a),
                b=float(b),
                T=float(T),
                count=n,
                main_constant=c_q,
                main_constant_stderr=stderr,
                main_term=main,
                ratio=math.nan if degenerate else n / main,
                degenerate_window=degenerate,
            )
        )
    return reports
