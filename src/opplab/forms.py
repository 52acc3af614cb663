"""Real ternary quadratic forms: evaluation, invariants, normalization.

A form is stored through the six independent entries of its symmetric Gram
matrix M, with Q(v) = v^T M v.  Cross coefficients are whole Gram entries,
i.e. the polynomial coefficient of x_i x_j (i < j) is 2*m_ij.

The reference hyperbolic form used throughout the package is

    ref(x1, x2, x3) = -2*x1*x3 + x2**2,

with Gram entries m22 = 1, m13 = -1 and zeros elsewhere; it has determinant
-1 and signature (2, 1).  Normalization rescales (and flips the sign of) an
arbitrary nondegenerate indefinite form so that its determinant becomes +1;
the normalized representatives have signature (1, 2).

Numerical degeneracy cutoff: |det| < 1e-10 (and eigenvalues below 1e-10
relative to the largest) are treated as singular.  read_json_arg reads
every CLI argument that is inline JSON or a file path (--form, --theta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefiniteForm, DegenerateForm

DEGENERACY_TOL = 1e-10

_ENTRY_KEYS = ("m11", "m22", "m33", "m12", "m13", "m23")


def gram_determinant(m11, m22, m33, m12, m13, m23):
    """det of the symmetric Gram matrix with these entries: floats, ints or arrays, one order."""
    return (
        m11 * (m22 * m33 - m23 * m23)
        - m12 * (m12 * m33 - m23 * m13)
        + m13 * (m12 * m23 - m22 * m13)
    )


@dataclass(frozen=True)
class TernaryForm:
    """Symmetric Gram matrix of a real ternary quadratic form."""

    m11: float
    m22: float
    m33: float
    m12: float = 0.0
    m13: float = 0.0
    m23: float = 0.0

    def __post_init__(self):
        for k in _ENTRY_KEYS:
            x = float(getattr(self, k))
            if not math.isfinite(x):
                raise ValueError(f"entry {k} must be finite, got {x}")
            object.__setattr__(self, k, x)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.m11, self.m12, self.m13],
                [self.m12, self.m22, self.m23],
                [self.m13, self.m23, self.m33],
            ]
        )

    @property
    def entries(self) -> tuple[float, float, float, float, float, float]:
        """Entries in the fixed order (m11, m22, m33, m12, m13, m23)."""
        return (self.m11, self.m22, self.m33, self.m12, self.m13, self.m23)

    def evaluate(self, v) -> np.ndarray | float:
        """Q(v) for a single 3-vector or an (n, 3) batch."""
        v = np.asarray(v, dtype=float)
        x, y, z = v[..., 0], v[..., 1], v[..., 2]
        out = (
            self.m11 * x * x
            + self.m22 * y * y
            + self.m33 * z * z
            + 2.0 * (self.m12 * x * y + self.m13 * x * z + self.m23 * y * z)
        )
        return float(out) if out.ndim == 0 else out

    def determinant(self) -> float:
        """det of the Gram matrix, by the closed cofactor formula."""
        return gram_determinant(*self.entries)

    def sup_norm(self) -> float:
        return max(abs(x) for x in self.entries)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def signature(self) -> tuple[int, int]:
        """(number of positive, number of negative) eigenvalues.

        Raises DegenerateForm when an eigenvalue is zero to within
        DEGENERACY_TOL relative to the largest one.
        """
        ev = self.eigenvalues()
        scale = max(1.0, float(np.max(np.abs(ev))))
        if np.min(np.abs(ev)) < DEGENERACY_TOL * scale:
            raise DegenerateForm(f"near-singular form, eigenvalues {ev}")
        pos = int(np.sum(ev > 0))
        return pos, 3 - pos

    def is_indefinite(self) -> bool:
        p, n = self.signature()
        return p > 0 and n > 0

    def scaled(self, c: float) -> "TernaryForm":
        return TernaryForm(*(c * x for x in self.entries))

    @classmethod
    def from_matrix(cls, mat) -> "TernaryForm":
        m = np.asarray(mat, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("Gram matrix must be symmetric")
        m = (m + m.T) / 2.0
        return cls(m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2])

    def to_json_obj(self) -> dict[str, float]:
        return {k: float(v) for k, v in zip(_ENTRY_KEYS, self.entries)}

    @classmethod
    def from_json_obj(cls, obj) -> "TernaryForm":
        """Parse the JSON form of a form.

        Accepted shapes: an object with keys m11..m23 (missing cross terms
        default to 0), or a 3-list [d1, d2, d3] for a diagonal form.
        """
        if isinstance(obj, (list, tuple)):
            if len(obj) != 3:
                raise ValueError("diagonal shorthand must have exactly 3 entries")
            d1, d2, d3 = (float(x) for x in obj)
            return cls(d1, d2, d3)
        if isinstance(obj, dict):
            unknown = set(obj) - set(_ENTRY_KEYS)
            if unknown:
                raise ValueError(f"unknown form keys: {sorted(unknown)}")
            for k in ("m11", "m22", "m33"):
                if k not in obj:
                    raise ValueError(f"missing diagonal entry {k}")
            vals = {k: float(obj.get(k, 0.0)) for k in _ENTRY_KEYS}
            return cls(**vals)
        raise ValueError(f"cannot interpret {type(obj).__name__} as a form")


#: -2*x1*x3 + x2**2, the hyperbolic reference form (determinant -1, signature (2,1)).
REFERENCE_FORM = TernaryForm(0.0, 1.0, 0.0, 0.0, -1.0, 0.0)


@dataclass(frozen=True)
class NormalizedForm:
    """A form rescaled to determinant +1, together with how it got there.

    ``scale`` is the positive factor c = |det|^(-1/3) applied to the input
    entries; a sign flip is applied on top of it when the input determinant
    was negative.  ``form.scaled(1/scale)`` recovers the input up to that
    sign.
    """

    form: TernaryForm
    determinant: float
    signature: tuple[int, int]
    scale: float


def as_form(q) -> TernaryForm:
    """The TernaryForm of ``q``: a NormalizedForm's form, or ``q`` itself."""
    if isinstance(q, NormalizedForm):
        return q.form
    if isinstance(q, TernaryForm):
        return q
    raise TypeError(f"expected TernaryForm or NormalizedForm, got {type(q).__name__}")


def normalize(form: TernaryForm) -> NormalizedForm:
    """Rescale an indefinite nondegenerate form to determinant +1.

    With c = |det|^(-1/3) the result is c*Q when det > 0 and -c*Q when
    det < 0; either way the normalized determinant is +1 and the signature
    is (1, 2).  Idempotent: normalizing a normalized form returns it with
    scale 1.  A determinant that overflows float64 raises ValueError.
    """
    det = form.determinant()
    if not math.isfinite(det):
        raise ValueError(
            "the determinant of the form overflows float64: its largest entry is "
            f"{form.sup_norm():.6g}; rescale the form"
        )
    if abs(det) < DEGENERACY_TOL:
        raise DegenerateForm(f"determinant {det} below cutoff {DEGENERACY_TOL}")
    if not form.is_indefinite():
        raise DefiniteForm("normalize requires an indefinite form")
    scale = abs(det) ** (-1.0 / 3.0)
    scaled = form.scaled(scale if det > 0 else -scale)
    return NormalizedForm(
        form=scaled,
        determinant=scaled.determinant(),
        signature=scaled.signature(),
        scale=scale,
    )


def read_json_arg(text: str, what: str):
    """A CLI argument's JSON: inline if it starts with { or [, else a file's; errors name ``what``."""
    stripped = text.strip()
    if not stripped.startswith(("{", "[")):
        try:
            with open(stripped, "r", encoding="utf-8") as fh:
                stripped = fh.read()
        except OSError as exc:
            raise ValueError(f"{what} {stripped!r} is neither inline JSON nor a readable file: {exc.strerror}") from exc
    try:
        return json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def parse_form(text: str) -> TernaryForm:
    """Parse a CLI form argument: inline JSON, or a path to a JSON file."""
    return TernaryForm.from_json_obj(read_json_arg(text, "form"))
