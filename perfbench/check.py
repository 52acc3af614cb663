"""Correctness gate: compare experiment stdout with stored references.

Integer-valued fields (counts, witness vectors, integral-form entries,
``certified``, ``max_count``, ``witnessed``) and strings must match exactly.
Floats must match within ``REL_TOL`` relative, so that few-ulp drift in
quadrature (``bump_mass``) is not a failure.  Witness records are also
re-verified from first principles, independently of the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from typing import Any, Sequence

REL_TOL = 1e-9

_INT = re.compile(r"[+-]?\d+")


def _parse(text: str) -> Any:
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return json.loads(text)
    return [[_cell(tok) for tok in row] for row in csv.reader(io.StringIO(text))]


def _cell(token: str) -> Any:
    """A CSV cell as int, float or str, by its spelling."""
    if _INT.fullmatch(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        return token


def _floats_match(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _compare(expected: Any, actual: Any, where: str, errors: list[str]) -> None:
    if isinstance(expected, float) and isinstance(actual, float):
        if not _floats_match(expected, actual):
            errors.append(f"{where}: expected {expected!r}, got {actual!r}")
        return
    if type(expected) is not type(actual):
        errors.append(f"{where}: expected {expected!r}, got {actual!r}")
        return
    if isinstance(expected, dict):
        if sorted(expected) != sorted(actual):
            errors.append(f"{where}: keys {sorted(actual)} differ from {sorted(expected)}")
            return
        for key in expected:
            _compare(expected[key], actual[key], f"{where}.{key}", errors)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            errors.append(f"{where}: {len(actual)} items, expected {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{where}[{i}]", errors)
    elif expected != actual:
        errors.append(f"{where}: expected {expected!r}, got {actual!r}")


def compare_output(expected_text: str, actual_text: str) -> list[str]:
    """Mismatches between a reference output and an actual one (empty if equal)."""
    try:
        expected, actual = _parse(expected_text), _parse(actual_text)
    except (ValueError, csv.Error) as exc:
        return [f"unparsable output: {exc}"]
    errors: list[str] = []
    _compare(expected, actual, "out", errors)
    return errors


def _normalized_diag(diag: Sequence[float]) -> tuple[float, float, float]:
    """A diagonal form rescaled to determinant +1, as opplab normalizes it."""
    det = diag[0] * diag[1] * diag[2]
    c = abs(det) ** (-1.0 / 3.0)
    sign = 1.0 if det > 0 else -1.0
    return tuple(sign * c * d for d in diag)


def verify_witnesses(text: str, diag: Sequence[float], eps: float) -> list[str]:
    """Re-check each witness row of a ``witness`` CSV from first principles.

    For every witnessed target s with vector v: |Q(v) - s| <= eps for the
    normalized form Q, gcd(v) = 1, the first nonzero coordinate is positive,
    and the printed value, gap and norm agree with v.
    """
    d = _normalized_diag(diag)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["s", "v1", "v2", "v3", "value", "gap", "norm"]:
        return ["witness output has an unexpected header"]
    errors: list[str] = []
    for line, row in enumerate(rows[1:], start=2):
        if row[1] == "":
            continue
        try:
            s = float(row[0])
            v = [int(x) for x in row[1:4]]
            value, gap, norm = (float(x) for x in row[4:7])
        except ValueError as exc:
            errors.append(f"line {line}: {exc}")
            continue
        q = d[0] * v[0] * v[0] + d[1] * v[1] * v[1] + d[2] * v[2] * v[2]
        # the terms cancel; allow a few ulp of the largest one, nothing more
        slack = 4e-15 * max(1.0, sum(abs(di) * x * x for di, x in zip(d, v)))
        if abs(q - s) > eps + slack:
            errors.append(f"line {line}: |Q(v) - s| = {abs(q - s)} > eps = {eps}")
        if abs(value - q) > slack:
            errors.append(f"line {line}: value {value} but Q(v) = {q}")
        if not math.isclose(gap, abs(value - s), rel_tol=REL_TOL, abs_tol=1e-15):
            errors.append(f"line {line}: gap {gap} but |value - s| = {abs(value - s)}")
        if not math.isclose(norm, math.sqrt(sum(x * x for x in v)), rel_tol=REL_TOL):
            errors.append(f"line {line}: norm {norm} does not match v = {v}")
        if math.gcd(*v) != 1:
            errors.append(f"line {line}: v = {v} is not primitive")
        if not any(v):
            errors.append(f"line {line}: v is the zero vector")
        elif next(x for x in v if x != 0) < 0:
            errors.append(f"line {line}: first nonzero coordinate of v = {v} is negative")
    return errors
