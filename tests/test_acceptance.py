"""Acceptance suite: one test per shipped guarantee, with independent oracles.

Each test prints a single CRITERION line with the measured quantities, then
asserts the advertised condition.  Oracles here re-derive every claimed
number from scratch (plain loops, full boxes, exhaustive subsets) rather
than trusting the library's enumeration strategies.
"""

import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from opplab.approx import best_rational_approx, dichotomy_report
from opplab.enumeration import (
    count_values,
    count_vs_main_term,
    main_term_constant,
    witness_table,
)
from opplab.flows import discrepancy_scan, flow_a, flow_u, v_elem
from opplab.forms import REFERENCE_FORM, TernaryForm, normalize
from opplab.projection import (
    FiniteConfig,
    MargulisParams,
    ProjectionParams,
    expansion_check_rows,
    margulis_value,
    projection_survey,
)

from test_cli import GOLDEN, GOLDEN_CASES

PI_SQRT2 = math.pi * math.sqrt(2.0)
SQF2 = normalize(TernaryForm(1.0, -1.0, -math.sqrt(2.0)))


def report(n: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def brute_min_primitive_witness(q, s, eps, n2_cap):
    """Minimal (|v|^2, v) primitive canonical witness by full-cube scan."""
    X = math.isqrt(n2_cap)
    ax = np.arange(-X, X + 1, dtype=np.int64)
    y, z = np.meshgrid(ax, ax, indexing="ij")
    yf, zf = y.ravel(), z.ravel()
    n2_yz = yf * yf + zf * zf
    best = None
    for x in range(-X, X + 1):
        sel = n2_yz + x * x <= n2_cap
        if not np.any(sel):
            continue
        vecs = np.stack(
            [np.full(int(np.count_nonzero(sel)), x, dtype=np.int64), yf[sel], zf[sel]],
            axis=1,
        )
        vals = q.form.evaluate(vecs.astype(float))
        hit = np.abs(vals - s) <= eps
        if not np.any(hit):
            continue
        cand = vecs[hit]
        sgn = np.where(
            cand[:, 0] != 0,
            np.sign(cand[:, 0]),
            np.where(cand[:, 1] != 0, np.sign(cand[:, 1]), np.sign(cand[:, 2])),
        )
        cand = cand[sgn != 0] * sgn[sgn != 0, None]
        cand = cand[np.gcd.reduce(np.abs(cand), axis=1) == 1]
        if len(cand) == 0:
            continue
        cn2 = np.sum(cand * cand, axis=1)
        k = np.lexsort((cand[:, 2], cand[:, 1], cand[:, 0], cn2))[0]
        top = (int(cn2[k]), tuple(int(t) for t in cand[k]))
        if best is None or top < best:
            best = top
    return best


def test_criterion_01_witness_coverage_grid():
    t0 = time.monotonic()
    table = witness_table(SQF2, -5.0, 5.0, 0.1, 0.02, 1e4)
    witnessed = [rec for rec in table.records if rec.v is not None]
    # re-verify every record by direct evaluation and primitivity
    for rec in witnessed:
        v = np.array(rec.v, dtype=float)
        assert abs(float(SQF2.form.evaluate(v)) - rec.s) <= 0.02 + 1e-9
        assert math.gcd(math.gcd(abs(rec.v[0]), abs(rec.v[1])), abs(rec.v[2])) == 1
        first = next(c for c in rec.v if c != 0)
        assert first > 0
        assert sum(c * c for c in rec.v) <= 1e8
    # independent minimality audit on every 10th target
    for rec in table.records[::10]:
        n2 = sum(c * c for c in rec.v)
        assert brute_min_primitive_witness(SQF2, rec.s, 0.02, n2) == (n2, rec.v)
    elapsed = time.monotonic() - t0
    ok = len(witnessed) == len(table.records) == 101 and elapsed <= 300.0
    line = report(
        1,
        ok,
        f"witnessed {len(witnessed)}/{len(table.records)} targets at "
        f"T=1e4, eps=0.02 in {elapsed:.1f}s (budget 300s)",
    )
    assert ok, line


def test_criterion_02_rational_branch_is_decided():
    q = normalize(TernaryForm(1.0, -1.0, -1.0))
    dists = []
    for R in (2.0, 3.0):
        out = dichotomy_report(q, R, R**4)
        assert out.branch == "rational_approx"
        dists.append(out.approx.dist)
    ok = max(dists) <= 1e-12
    line = report(
        2, ok, f"integral class detected with approximation distance {max(dists):.3g}"
    )
    assert ok, line


def oracle_min_dist_full_box(q6, r):
    q6 = np.asarray(q6, dtype=float)
    ax = np.arange(-r, r + 1, dtype=np.int64)
    g = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    tail = np.stack([t.ravel() for t in g], axis=1)
    m33, m12, m13, m23 = tail[:, 0], tail[:, 1], tail[:, 2], tail[:, 3]
    best = np.inf
    for m11 in range(-r, r + 1):
        for m22 in range(-r, r + 1):
            det = (
                m11 * (m22 * m33 - m23 * m23)
                - m12 * (m12 * m33 - m23 * m13)
                + m13 * (m12 * m23 - m22 * m13)
            )
            detf = det.astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = np.sign(detf) * np.abs(detf) ** (-1.0 / 3.0)
            d = np.stack(
                [
                    np.abs(q6[0] - lam * m11),
                    np.abs(q6[1] - lam * m22),
                    np.abs(q6[2] - lam * m33),
                    np.abs(q6[3] - lam * m12),
                    np.abs(q6[4] - lam * m13),
                    np.abs(q6[5] - lam * m23),
                ]
            ).max(axis=0)
            d[det == 0] = np.inf
            m = float(d.min())
            if m < best:
                best = m
    return best


def test_criterion_03_exhaustive_approx_matches_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        f = TernaryForm(*rng.normal(size=6))
        try:
            if not f.is_indefinite():
                continue
            q = normalize(f)
        except Exception:
            continue
        checked += 1
        res = best_rational_approx(q, 6.0)
        assert res.certified
        assert res.dist == oracle_min_dist_full_box(q.form.entries, 6)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 120.0
    line = report(
        3, ok, f"20/20 exhaustive minima equal the full-box oracle in {elapsed:.1f}s"
    )
    assert ok, line


def test_criterion_04_counting_constant_circular_cone():
    devs = []
    for form, seed in ((TernaryForm(1.0, 1.0, -1.0), 0), (REFERENCE_FORM, 1)):
        est, _ = main_term_constant(normalize(form), samples=10_000_000, seed=seed)
        devs.append(abs(est - PI_SQRT2) / PI_SQRT2)
    ok = max(devs) <= 0.02
    line = report(
        4,
        ok,
        f"relative deviations from pi*sqrt(2): "
        f"{devs[0]:.4f}, {devs[1]:.4f} (allowed 0.02)",
    )
    assert ok, line


def brute_window_count_diagonal(q, a, b, T):
    """Octant scan with multiplicities; same evaluate() arithmetic as the
    library, so the counts must agree exactly."""
    form = q.form if hasattr(q, "form") else q
    entries = form.entries
    assert entries[3] == entries[4] == entries[5] == 0.0
    n = int(T)
    ax = np.arange(0, n + 1, dtype=np.int64)
    y, z = np.meshgrid(ax, ax, indexing="ij")
    yf, zf = y.ravel(), z.ravel()
    n2_yz = yf * yf + zf * zf
    mult_yz = (1 + (yf > 0).astype(np.int64)) * (1 + (zf > 0).astype(np.int64))
    total = 0
    for x in range(0, n + 1):
        sel = n2_yz + x * x <= T * T
        if not np.any(sel):
            continue
        vecs = np.stack(
            [np.full(int(np.count_nonzero(sel)), x, dtype=np.int64), yf[sel], zf[sel]],
            axis=1,
        )
        vals = form.evaluate(vecs.astype(float))
        inside = (vals >= a) & (vals <= b)
        total += int(np.sum(mult_yz[sel][inside] * (1 + (x > 0))))
    if a <= 0.0 <= b:
        total -= 1  # the origin is never counted
    return total


def test_criterion_05_counting_tracks_main_term():
    reports = count_vs_main_term(SQF2, -1.0, 1.0, [500.0, 1000.0, 2000.0], seed=0)
    brute = brute_window_count_diagonal(SQF2, -1.0, 1.0, 500.0)
    assert reports[0].count == brute  # the counts themselves are exact
    ratios = [rep.ratio for rep in reports]
    devs = [abs(r - 1.0) for r in ratios]
    ok = max(devs) <= 0.15 and devs[-1] <= devs[0]
    line = report(
        5,
        ok,
        f"counts {[rep.count for rep in reports]} (T=500 verified exactly by "
        f"brute force), count/main-term ratios "
        f"{[round(r, 4) for r in ratios]}; required within 15% of 1 and "
        f"closing with T.  The exact zeros on the two rational isotropic "
        f"lines contribute ~4*T/sqrt(2) extra hits, a size-T term the "
        f"volume prediction does not carry, so the ratio stabilizes near "
        f"1.32 instead of 1.",
    )
    assert ok, line


def test_criterion_06_fixed_count_example():
    got = count_values(TernaryForm(1.0, 1.0, -1.0), 0.0, 0.0, 5.0)
    ok = got == 24
    line = report(6, ok, f"count_values(x^2+y^2-z^2 = 0, T=5) = {got}, expected 24")
    assert ok, line


def test_criterion_07_group_identities_bulk():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100_000):
        t, r, s, z = rng.uniform(-1.5, 1.5, size=4)
        d1 = np.max(np.abs((flow_u(r) @ flow_u(s)).mat - flow_u(r + s).mat))
        d2 = np.max(
            np.abs((flow_a(t) @ flow_u(r) @ flow_a(-t)).mat - flow_u(math.exp(t) * r).mat)
        )
        d3 = np.max(
            np.abs(
                (flow_a(t) @ v_elem(s, z) @ flow_a(-t)).mat
                - v_elem(math.exp(t) * s, math.exp(2.0 * t) * z).mat
            )
        )
        worst = max(worst, d1, d2, d3)
    ok = worst <= 1e-12
    line = report(7, ok, f"10^5 draws, worst identity deviation {worst:.3g} (allowed 1e-12)")
    assert ok, line


def test_criterion_08_expansion_inequality_bulk():
    rng = np.random.default_rng(1)
    failures = 0
    for _ in range(10):
        W = rng.normal(size=(100_000, 5))
        r = rng.random(100_000)
        ell = 3.0 * rng.random(100_000)
        _, _, ok_rows = expansion_check_rows(W, r, ell)
        failures += int(np.count_nonzero(~ok_rows))
    ok = failures == 0
    line = report(8, ok, f"10^6 random transported vectors, {failures} expansion failures")
    assert ok, line


def test_criterion_09_margulis_value_exhaustive():
    rng = np.random.default_rng(2)
    agreements = 0
    for _ in range(200):
        k = int(rng.integers(0, 13))
        m = int(rng.integers(0, 4))
        alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        w = 0.05 * rng.normal(size=(k, 5))
        params = MargulisParams(b=0.1, truncation=m, alpha=alpha)
        got = margulis_value(w, params)
        if k <= m:
            expected = 0.1 ** (-alpha)
        else:
            norms = np.linalg.norm(w, axis=1)
            expected = min(
                math.fsum(norms[list(keep)] ** (-alpha))
                for keep in itertools.combinations(range(k), k - m)
            )
        agreements += got == expected
    ok = agreements == 200
    line = report(9, ok, f"{agreements}/200 truncated energies equal the subset-minimum")
    assert ok, line


def test_criterion_10_generic_config_not_exceptional():
    t0 = time.monotonic()
    config = FiniteConfig.random_ball(2000, seed=0)
    params = ProjectionParams.measured(config, alpha=2.0, b1=0.02, b=0.02)
    grid = np.linspace(0.0, 1.0, 500).tolist()
    result = projection_survey(config, params, grid, survey_const=10.0, survey_exp=10.0)
    elapsed = time.monotonic() - t0
    ok = result.exceptional_r_fraction <= 0.05 and elapsed <= 180.0
    line = report(
        10,
        ok,
        f"exceptional r fraction {result.exceptional_r_fraction:.4f} over 500 "
        f"parameters (allowed 0.05) in {elapsed:.1f}s (budget 180s)",
    )
    assert ok, line


def test_criterion_11_orbit_averages_approach_haar():
    reports = discrepancy_scan(SQF2, [20.0, 400.0], 400, 2.0, seed=0)
    rel = [rep.deviation / rep.haar for rep in reports]
    ok = rel[1] <= 0.15 and rel[1] < rel[0]
    line = report(
        11,
        ok,
        f"relative deviation from the Haar value: {rel[0]:.4f} at T=20 -> "
        f"{rel[1]:.4f} at T=400 (allowed 0.15, decreasing)",
    )
    assert ok, line


def test_criterion_12_cli_runs_are_reproducible():
    mismatches = []
    for name, argv in sorted(GOLDEN_CASES.items()):
        cmd = [sys.executable, "-m", "opplab.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        if first.stdout != second.stdout:
            mismatches.append(name)
        if first.stdout != (GOLDEN / name).read_bytes():
            mismatches.append(f"{name} (vs snapshot)")
    ok = not mismatches
    line = report(
        12,
        ok,
        "all 8 commands byte-identical across two fresh processes and the "
        "stored snapshots" if ok else f"mismatches: {mismatches}",
    )
    assert ok, line
