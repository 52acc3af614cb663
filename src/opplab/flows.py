"""Flows on the space of unimodular lattices and the equidistribution run.

The space is X = SL3(R)/SL3(Z), a point being the lattice (basis matrix g
times Z^3) with det g = 1, which _det1 checks.  Three one-parameter
families act:

    flow_a(t) = diag(e^t, 1, e^-t)
    flow_u(r) = [[1, r, r^2/2], [0, 1, r], [0, 0, 1]]
    v_elem(s, z) = [[1, -s, z], [0, 1, s], [0, 0, 1]]

The equidistribution experiment averages a Siegel transform
F(lattice) = sum over nonzero lattice vectors of f(v), where f is a fixed
radial smooth bump supported in |v| < radius, along the expanding circle
{flow_a(log T) flow_u(r) x0 : r in [0, 1]}.  The Haar-side reference value
needs no sampling of X at all: by the Siegel mean value identity the Haar
average of F equals the plain integral of f over R^3, which is
4 pi radius^3 C with C the radial integral int_0^1 exp(1 - 1/(1-t^2)) t^2 dt.
C is the frozen value of a 200-point Gauss-Legendre rule, stored as a
literal so that output bytes do not depend on the numpy version; it sits
5.8e-15 relative above the exact integral.  The identity is classical
plumbing, not something this package verifies.

form_to_basepoint converts a unimodular indefinite form into the lattice
point whose shape encodes it: it produces g with det g = +1 and a sign
eps in {+1, -1} such that

    Q(v) = eps * ref(g v)   for all v,

with ref the package-wide reference hyperbolic form.  The sign is forced:
congruence preserves the sign of the determinant, the reference form has
det -1, and normalized forms have det +1, so eps = -sign(det Q).  A
built-in residual self-check over 1000 deterministic unit directions
guards the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SignatureMismatch, _Capacity
from .forms import REFERENCE_FORM, as_form, normalize
from .lattice import _Frames, lll_reduce

_DET_TOL = 1e-10

#: What one Siegel sample charges to the work ceiling (errors.DEFAULT_CEILING),
#: in scanned pairs of the window enumeration: a sample took about 125 us
#: when this was set, against 70 ns a pair, and takes 45-68 us in blocks
#: today (in-process, N = 400 at T = 20, 400 and 8000, 2 cores), 23-34 ns
#: a unit.  The charge stays, so the largest N a call accepts does not
#: move.  siegel_average charges its N samples before the first one, and
#: discrepancy_scan the samples of all its T values before the first T.
_SAMPLE_WORK = 2_000

#: Siegel samples walked together in one block (see _siegel_samples).
_SAMPLE_BLOCK = 64

# int_0^1 exp(1 - 1/(1-t^2)) t^2 dt by a 200-point Gauss-Legendre rule, frozen
# (exact value 0.0954136992943015777..., 50-digit mpmath)
_BUMP_RADIAL_INTEGRAL = 0.09541369929430213


def _det3(m: np.ndarray) -> float:
    """Cofactor determinant of a 3x3 matrix, for the det-1 checks only."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det1(mat, word: str) -> np.ndarray:
    """``mat`` as a float 3x3 array of determinant 1; ValueError naming the ``word`` otherwise."""
    m = np.array(mat, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 {word}, got {m.shape}")
    det = _det3(m)
    if not abs(det - 1.0) <= _DET_TOL:  # also rejects a NaN determinant
        raise ValueError(f"{word} determinant {det} is not 1")
    return m


@dataclass(frozen=True)
class GroupElement:
    """A 3x3 real matrix of determinant 1."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _det1(self.mat, "matrix"))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.mat @ other.mat)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(np.eye(3))


def flow_a(t: float) -> GroupElement:
    return GroupElement(np.diag([math.exp(t), 1.0, math.exp(-t)]))


def flow_u(r: float) -> GroupElement:
    return GroupElement(np.array([[1.0, r, r * r / 2.0], [0.0, 1.0, r], [0.0, 0.0, 1.0]]))


def v_elem(s: float, z: float) -> GroupElement:
    return GroupElement(np.array([[1.0, -s, z], [0.0, 1.0, s], [0.0, 0.0, 1.0]]))


class LatticePoint:
    """The unimodular lattice (basis @ Z^3); a point of X."""

    def __init__(self, basis):
        self.basis = _det1(basis, "basis")

    @classmethod
    def standard(cls) -> "LatticePoint":
        return cls(np.eye(3))

    def __eq__(self, other) -> bool:
        """Same lattice iff the basis change other^-1 @ self is integral unimodular."""
        if not isinstance(other, LatticePoint):
            return NotImplemented
        change = np.linalg.solve(other.basis, self.basis)
        rounded = np.rint(change)
        if np.max(np.abs(change - rounded)) > 1e-9 * max(1.0, np.max(np.abs(change))):
            return False
        return abs(round(float(np.linalg.det(rounded)))) == 1

    __hash__ = None  # mutable ndarray payload; equality is geometric


def act(g: GroupElement, x: LatticePoint) -> LatticePoint:
    return LatticePoint(g.mat @ x.basis)


@dataclass(frozen=True)
class Basepoint:
    """Result of form_to_basepoint: Q(v) = sign * ref(g v), x0 = g Z^3."""

    g: GroupElement
    x0: LatticePoint
    sign: float
    residual: float


# congruence ref(C w) = w1^2 + w2^2 - w3^2 =: s-diagonal; rows verified by hand
_C_TO_DIAG = np.array(
    [
        [1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)],
        [0.0, 1.0, 0.0],
        [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)],
    ]
)


def form_to_basepoint(q) -> Basepoint:
    """Factor a unimodular indefinite ternary form through the reference form.

    Accepts a NormalizedForm, or any TernaryForm with |det| within 1e-6 of 1
    and mixed signature.  Returns g (det +1) and the sign eps with
    Q(v) = eps * ref(g v); eps is +1 exactly when det Q = -1 (the reference
    form's own class).
    """
    form = as_form(q)
    m = form.matrix
    det = float(np.linalg.det(m))
    if abs(abs(det) - 1.0) > 1e-6:
        raise SignatureMismatch(
            f"|det| = {abs(det):.6g}, expected 1; normalize the form first"
        )
    eps = -math.copysign(1.0, det)
    a = eps * m  # must be congruent to diag(1, 1, -1)
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(-evals)
    evals, evecs = evals[order], evecs[:, order]
    if not (evals[0] > 0 and evals[1] > 0 and evals[2] < 0):
        raise SignatureMismatch(
            f"eps*Q has eigenvalues {evals}, not signature (2,1); "
            "the form is outside the reference class"
        )
    # canonicalize the eigenbasis sign ambiguity (first sizable entry
    # positive); this also maps the reference form itself to g = identity
    for col in range(3):
        lead = int(np.argmax(np.abs(evecs[:, col]) > 1e-12))
        if evecs[lead, col] < 0:
            evecs[:, col] = -evecs[:, col]
    b = np.diag(np.sqrt(np.abs(evals))) @ evecs.T
    g = np.linalg.solve(_C_TO_DIAG, b)
    if np.linalg.det(g) < 0:
        # diag(1,-1,1) preserves the reference form and flips orientation
        g = np.diag([1.0, -1.0, 1.0]) @ g
    g = g / np.cbrt(np.linalg.det(g))  # polish rounding drift in the determinant

    rng = np.random.default_rng(0)  # fixed seed: the check is part of the contract
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    residual = float(
        np.max(np.abs(form.evaluate(dirs) - eps * REFERENCE_FORM.evaluate(dirs @ g.T)))
    )
    if residual > 1e-6:
        raise SignatureMismatch(f"factorization residual {residual:.3g} is out of tolerance")
    ge = GroupElement(g)
    return Basepoint(g=ge, x0=LatticePoint(g), sign=eps, residual=residual)


def _bump(t: np.ndarray) -> np.ndarray:
    """The bump at |v| = t * radius: exp(1 - 1/(1 - t^2)) for t < 1, else 0.

    The exponent is taken entry by entry with math.exp, whose bits the
    golden outputs pin (np.exp may round differently).
    """
    out = np.zeros(t.shape)
    inside = t < 1.0
    u = t[inside]
    u = 1.0 - 1.0 / (1.0 - u * u)
    out[inside] = np.fromiter(map(math.exp, u.tolist()), dtype=float, count=u.size)
    return out


def bump_values(norms: np.ndarray, radius: float) -> np.ndarray:
    """Radial smooth bump f = exp(1 - 1/(1 - (|v|/radius)^2)) inside, 0 outside.

    Evaluated by the same code as the Siegel samples, so the two agree bit
    for bit.
    """
    return _bump(np.asarray(norms, dtype=float) / radius)


def bump_mass(radius: float) -> float:
    """Integral of the bump over R^3 (the Haar-side value, by Siegel).

    4*pi*radius^3 * C, with C = int_0^1 exp(1 - 1/(1-t^2)) t^2 dt stored as
    the frozen 200-point Gauss-Legendre value, so the result does not depend
    on the numpy version (the golden outputs pin it).  C is 5.8e-15 relative
    above the exact integral, the rule's own quadrature error.
    """
    return float(4.0 * math.pi * radius**3 * _BUMP_RADIAL_INTEGRAL)


@dataclass(frozen=True)
class EquidistReport:
    """One Siegel-average run at a single expansion time T."""

    T: float
    n_samples: int
    f_radius: float
    empirical: float
    haar: float
    deviation: float
    min_inj: float


def _sample_bases(a_mat: np.ndarray, rs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The bases a_mat @ flow_u(r).mat @ basis for each r, stacked (len(rs), 3, 3).

    The stacked products have the bits of the products taken one r at a
    time under every OpenBLAS kernel tests/test_flows.py runs them on.
    """
    u = np.zeros((len(rs), 3, 3))
    u[:, 0, 0] = u[:, 1, 1] = u[:, 2, 2] = 1.0
    u[:, 0, 1] = u[:, 1, 2] = rs
    u[:, 0, 2] = rs * rs / 2.0
    return a_mat @ u @ basis


def _siegel_samples(bases, f_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(Siegel transforms of the bump, shortest vector lengths) at a block of lattices.

    The block is reduced by one lll_reduce call, and one walk covers a ball
    of every sample (lattice._Frames.walk): the bump ball, widened where
    needed to the sample's shortest reduced column, so that every ball
    holds the shortest vector.  Its least norm is the shortest length, with
    the same bits as shortest_vector_coeffs (same frame, same norm sums).
    A sample's bump values are summed one by one in its walk order: a
    cumulative sum along the sample's row of a zero-padded block, never a
    pairwise sum.  A point outside the bump ball adds 0.0, which leaves
    every partial sum as it was.
    """
    frames = _Frames(*lll_reduce(bases))
    _, norms2, owner = frames.walk(np.maximum(f_radius, frames.shortest_radii()))
    counts = np.bincount(owner, minlength=len(frames))
    ends = np.cumsum(counts)
    col = np.arange(len(owner)) - (ends - counts)[owner]
    # one row per sample in walk order, zero-padded: each row's running sum
    # ends on the sample's total
    grid = np.zeros((len(frames), counts.max() + 1))
    grid[owner, col] = _bump(np.sqrt(norms2) / f_radius)
    totals = np.cumsum(grid, axis=1)[:, -1]
    least = np.full(len(frames), np.inf)
    np.minimum.at(least, owner, norms2)
    return totals, np.sqrt(least)


def siegel_average(
    f_radius: float, x0: LatticePoint, T: float, N: int, seed: int = 0
) -> EquidistReport:
    """Average the bump's Siegel transform over the expanding circle at time log T.

    Sample points are equispaced in [0,1] with seeded jitter (variance
    reduction with honest randomization).  min_inj reports the shortest
    lattice vector seen over all samples, a Mahler-compactness diagnostic.
    The samples run in blocks of _SAMPLE_BLOCK: one lll_reduce call and
    one walk per block, whose balls give the bump values and the shortest
    lengths both (see _siegel_samples).
    """
    if not 1 < T < math.inf:
        raise ValueError(f"T must be finite and > 1, got {T}")
    if N < 10:
        raise ValueError(f"N must be >= 10, got {N}")
    if not 0 < f_radius < math.inf:
        raise ValueError(f"f_radius must be finite and positive, got {f_radius}")
    _Capacity("scanned-pair units of the Siegel samples").add(_SAMPLE_WORK * N)
    rng = np.random.default_rng(seed)
    rs = (np.arange(N) + rng.random(N)) / N
    a_mat = flow_a(math.log(T)).mat

    totals, lengths = [], []
    for start in range(0, N, _SAMPLE_BLOCK):
        bases = _sample_bases(a_mat, rs[start : start + _SAMPLE_BLOCK], x0.basis)
        block_totals, block_lengths = _siegel_samples(bases, f_radius)
        totals.extend(block_totals.tolist())
        lengths.extend(block_lengths.tolist())
    empirical = math.fsum(totals) / N
    min_inj = min(lengths)
    haar = bump_mass(f_radius)
    return EquidistReport(
        T=float(T),
        n_samples=N,
        f_radius=f_radius,
        empirical=empirical,
        haar=haar,
        deviation=abs(empirical - haar),
        min_inj=min_inj,
    )


def discrepancy_scan(q, T_list, N: int, f_radius: float, seed: int = 0) -> list[EquidistReport]:
    """Siegel averages at each T from the basepoint of the given form.

    The same seed (hence the same jittered sample offsets) is reused at
    every T so the T-trend is not confounded by resampling noise.  The N
    samples of every T are charged together before the first T, so a long
    list raises at once; each siegel_average call charges its own N again.
    """
    T_list = list(T_list)
    _Capacity("scanned-pair units of the Siegel samples").add(_SAMPLE_WORK * N * len(T_list))
    form = as_form(q)
    if abs(abs(form.determinant()) - 1.0) > 1e-8:
        form = normalize(form).form
    base = form_to_basepoint(form)
    return [siegel_average(f_radius, base.x0, T, N, seed) for T in T_list]
