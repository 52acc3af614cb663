"""Tests for witness search, value counts, and C_Q."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

import opplab
from opplab import enumeration, errors, util
from opplab.cli import COUNT_CSV_HEADER, WITNESS_CSV_HEADER, _witness_rows, main
from opplab.enumeration import (
    count_values,
    count_vs_main_term,
    find_witness,
    main_term_constant,
    witness_table,
)
from opplab.errors import CapacityExceeded, DefiniteForm, DegenerateForm
from opplab.forms import REFERENCE_FORM, TernaryForm, normalize

SQF2 = normalize(TernaryForm(1.0, -1.0, -math.sqrt(2.0)))
SQF2_TEXT = "[1,-1,-1.4142135623730951]"
PI_SQRT2 = math.pi * math.sqrt(2.0)


def brute_count(form, a, b, T):
    lim = int(math.floor(T))
    rng = np.arange(-lim, lim + 1)
    g = np.meshgrid(rng, rng, rng, indexing="ij")
    v = np.stack([x.ravel() for x in g], axis=1).astype(float)
    n2 = np.einsum("ij,ij->i", v, v)
    vals = form.evaluate(v)
    return int(np.count_nonzero((n2 > 0) & (n2 <= T * T) & (vals >= a) & (vals <= b)))


def brute_min_witness(form, s, eps, bound):
    # minimal (|v|^2, v) canonical primitive vector with |Q(v) - s| <= eps
    best = None
    e = form.entries
    for x in range(0, int(math.floor(bound)) + 1):
        ymax = int(math.floor(math.sqrt(max(bound * bound - x * x, 0.0))))
        ys = np.arange(0 if x == 0 else -ymax, ymax + 1, dtype=np.int64)
        zmax = int(math.floor(math.sqrt(max(bound * bound - x * x, 0.0))))
        zs = np.arange(-zmax, zmax + 1, dtype=np.int64)
        yy = np.repeat(ys, len(zs))
        z = np.tile(zs, len(ys))
        n2 = x * x + yy * yy + z * z
        vals = (
            e[0] * x * x + e[1] * yy.astype(float) ** 2 + e[2] * z.astype(float) ** 2
            + 2.0 * (e[3] * x * yy + e[4] * x * z + e[5] * yy * z)
        )
        ok = (np.abs(vals - s) <= eps) & (n2 > 0) & (n2 <= bound * bound)
        ok &= np.gcd(np.gcd(np.abs(yy), np.abs(z)), x) == 1
        if x == 0:
            ok &= (yy > 0) | ((yy == 0) & (z > 0))
        if not np.any(ok):
            continue
        idx = np.flatnonzero(ok)
        k = idx[np.lexsort((z[idx], yy[idx], n2[idx]))[0]]
        cand = (int(n2[k]), x, int(yy[k]), int(z[k]))
        if best is None or cand < best:
            best = cand
    return best


def cone_constant_diag(a, b, c):
    # closed-form coarea constant for diag(a, -b, -c) with a, b, c > 0:
    # parametrize each cone sheet over the angle of the (y, z) ellipse
    bb, cc = (a + b) / a, (a + c) / a

    def integrand(th):
        co, si = math.cos(th) ** 2, math.sin(th) ** 2
        return 1.0 / math.sqrt((b * co + c * si) * (bb * co + cc * si))

    val, _ = scipy.integrate.quad(integrand, 0.0, 2.0 * math.pi, limit=200)
    return val / math.sqrt(a)


def test_find_witness_rational_isotropic():
    rec = find_witness(normalize(TernaryForm(1.0, -1.0, -1.0)), 0.0, 1e-12, 2.0)
    assert rec.v == (1, -1, 0)  # first isotropic vector in enumeration order
    assert rec.value == 0.0
    assert rec.gap == 0.0
    assert rec.norm == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_find_witness_reference_form_unit_target():
    rec = find_witness(REFERENCE_FORM, 1.0, 1e-12, 1.0)
    assert rec.v == (0, 1, 0)
    assert rec.value == 1.0


def test_find_witness_absence_matches_brute():
    # integer-valued form, fractional target: no witness at any radius
    q = normalize(TernaryForm(1.0, -1.0, -1.0))
    for T in (50.0, 200.0):
        assert find_witness(q, 0.5, 0.2, T) is None
        assert brute_min_witness(q.form, 0.5, 0.2, T) is None


def test_find_witness_minimality_matches_brute():
    rng = np.random.default_rng(31)
    forms = [
        SQF2.form,
        REFERENCE_FORM,
        TernaryForm(0.3, -0.9, 1.7, 0.4, -1.1, 0.2),
        TernaryForm(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),  # 2xy: the linear branch
        normalize(TernaryForm(*rng.normal(size=6))).form,
    ]
    for form in forms:
        for eps in (0.05, 1e-3):
            targets = [float(t) for t in rng.uniform(-2.0, 2.0, size=5)]
            # the value of a short primitive vector: a target that has a witness
            v0 = np.array([1, *rng.integers(-6, 7, size=2)])
            targets.append(float(form.evaluate(v0)))
            for s in targets:
                rec = find_witness(form, s, eps, 30.0)
                want = brute_min_witness(form, s, eps, 30.0)
                if rec is None:
                    assert want is None, (form.entries, s, eps)
                    continue
                n2, x, y, z = want
                assert rec.v == (x, y, z), (form.entries, s, eps)
                assert rec.norm == pytest.approx(math.sqrt(n2), rel=1e-15)
                assert abs(rec.value - s) <= eps
                assert rec.gap == abs(rec.value - s)


def test_witness_record_fields_selfconsistent():
    rec = find_witness(SQF2, 0.25, 0.05, 100.0)
    assert rec is not None
    assert rec.value == pytest.approx(SQF2.form.evaluate(np.array(rec.v, dtype=float)), rel=1e-12)
    assert math.gcd(math.gcd(abs(rec.v[0]), abs(rec.v[1])), abs(rec.v[2])) == 1


def _printed(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_witness_table_grid_and_missing_fraction(capsys):
    q = normalize(TernaryForm(1.0, -1.0, -1.0))
    table = witness_table(q, -1.0, 1.0, 0.5, 0.25, 10.0)
    assert table.targets == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # integer values: only the integer targets get witnesses at eps = 0.25
    hits = [rec is not None for rec in table.records]
    assert hits == [True, False, True, False, True]
    assert table.witnessed == 3
    rows = _witness_rows(table)
    assert len(rows) == 5
    assert rows[1] == (-0.5, "", "", "", "", "", "")
    argv = [
        "witness", "--form", "[1,-1,-1]", "--s-min", "-1", "--s-max", "1",
        "--grid", "0.5", "--eps", "0.25", "--T", "10", "--format", "json",
    ]
    obj = json.loads(_printed(capsys, argv))
    assert obj["witnessed"] == 3
    assert obj["records"][1] is None
    assert obj["records"][0]["v"] == list(table.records[0].v)


def _per_target_scan_records(form, s_min, s_max, step, eps, T):
    # the records of witness_table as it stood before the value windows:
    # every open target scans all of a shell's hits
    shells = list(enumeration._shell_windows(T))
    targets = enumeration._grid(s_min, s_max, step, len(shells))
    records = [None] * len(targets)
    pad = eps * 1e-9 + 1e-300
    win_lo, win_hi = targets[0] - eps - pad, targets[-1] + eps + pad
    counter = errors._Capacity(enumeration._WORK)
    for hi2 in shells:
        blocks = list(enumeration._window_hits(form, win_lo, win_hi, hi2, counter))
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
            hit = np.flatnonzero(np.abs(vals - s) <= eps)
            if len(hit) == 0:
                continue
            k = hit[0]
            value = float(vals[k])
            records[ti] = enumeration.WitnessRecord(
                s=s, v=(int(v[k, 0]), int(v[k, 1]), int(v[k, 2])), value=value,
                gap=abs(value - s), norm=math.sqrt(int(n2[k])),
            )
        if all(rec is not None for rec in records):
            break
    return records


def test_witness_value_windows_match_the_per_target_scan():
    # integer forms put many hits on equal values, and integer targets right
    # on them (gap 0) or exactly eps away from them
    rng = np.random.default_rng(43)
    checked = exact = 0
    for trial in range(100):
        if trial % 2:
            form = TernaryForm(*rng.integers(-3, 4, size=6).astype(float))
            s_min, step = float(rng.integers(-6, 1)), float(rng.choice([0.5, 1.0, 2.0]))
            eps = float(rng.choice([1e-9, 0.5, 1.0]))
        else:
            form = TernaryForm(*rng.normal(size=6))
            s_min, step = float(rng.uniform(-5.0, 0.0)), float(rng.uniform(0.05, 1.0))
            eps = float(rng.uniform(1e-3, 0.3))
        s_max = s_min + step * float(rng.integers(0, 40))
        T = float(rng.uniform(3.0, 12.0))
        try:
            want = _per_target_scan_records(form, s_min, s_max, step, eps, T)
        except (DegenerateForm, DefiniteForm) as exc:
            with pytest.raises(type(exc)):
                witness_table(form, s_min, s_max, step, eps, T)
            continue
        got = witness_table(form, s_min, s_max, step, eps, T).records
        assert got == want
        checked += 1
        exact += sum(rec is not None and rec.gap == 0.0 for rec in got)
    assert checked >= 80 and exact >= 50


def test_witness_table_single_target_and_validation(monkeypatch):
    table = witness_table(SQF2, 0.0, 0.0, 1.0, 0.5, 5.0)
    assert table.targets == [0.0]
    with pytest.raises(ValueError):
        witness_table(SQF2, 1.0, -1.0, 0.5, 0.1, 10.0)
    with pytest.raises(ValueError):
        witness_table(SQF2, -1.0, 1.0, 0.0, 0.1, 10.0)
    with pytest.raises(ValueError):
        witness_table(SQF2, -1.0, 1.0, 0.5, -0.1, 10.0)
    with pytest.raises(ValueError):
        witness_table(SQF2, -1.0, 1.0, 0.5, 0.1, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            witness_table(SQF2, -1.0, 1.0, 0.5, 0.1, bad)
        with pytest.raises(ValueError):
            witness_table(SQF2, -1.0, 1.0, 0.5, bad, 10.0)
    monkeypatch.setattr(errors, "DEFAULT_CEILING", 100)
    with pytest.raises(CapacityExceeded):
        witness_table(SQF2, -1.0, 1.0, 0.5, 0.1, 50.0)


def test_witness_csv_header_frozen():
    assert WITNESS_CSV_HEADER == ("s", "v1", "v2", "v3", "value", "gap", "norm")
    assert COUNT_CSV_HEADER == ("T", "count", "c_q", "main_term", "ratio", "degenerate_window")


def test_count_values_small_examples():
    assert count_values(TernaryForm(1.0, 1.0, -1.0), 0.0, 0.0, 5.0) == 24
    assert count_values(normalize(TernaryForm(1.0, -1.0, -1.0)), -1.0, 1.0, 1.0) == 6
    assert count_values(TernaryForm(1.0, -1.0, -1.0), -1000.0, -900.0, 3.0) == 0


def test_count_values_brute_oracle():
    forms = [
        TernaryForm(1.0, -1.0, -1.0),
        REFERENCE_FORM,
        SQF2.form,
        TernaryForm(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),  # 2xy, degenerate but countable
        TernaryForm(0.3, -0.9, 1.7, 0.4, -1.1, 0.2),
    ]
    windows = [(-1.0, 1.0), (0.0, 0.0), (0.25, 2.5), (-3.0, -0.5)]
    for form in forms:
        for a, b in windows:
            for T in (1.0, 4.0, 11.0):
                assert count_values(form, a, b, T) == brute_count(form, a, b, T), (
                    form.entries, a, b, T,
                )


def test_count_values_cross_heavy_brute_oracle():
    rng = np.random.default_rng(32)
    for _ in range(5):
        form = TernaryForm(*rng.normal(size=6))
        a = float(rng.uniform(-2, 0))
        b = a + float(rng.uniform(0, 3))
        assert count_values(form, a, b, 9.0) == brute_count(form, a, b, 9.0)


def rank_deficient(c, t, d, perm):
    # c (x - t y)^2 + d z^2 with its coordinates permuted by perm
    m = np.array([[c, -c * t, 0.0], [-c * t, c * t * t, 0.0], [0.0, 0.0, d]])
    p = np.eye(3)[list(perm)]
    return TernaryForm.from_matrix(p.T @ m @ p)


def test_count_values_tangent_window_end():
    # Q = 1.6 exactly where the row's parabola only touches the window, at
    # (0, 1, -3) among others: a discriminant that rounds below zero must not
    # drop the row
    form = TernaryForm(-0.2, 0.1, 0.1, 0.0, 0.0, -0.1)
    a = b = 1.6000000000000003
    assert form.evaluate([0, 1, -3]) == a
    assert brute_count(form, a, b, 5.0) == 4
    assert count_values(form, a, b, 5.0) == 4


def test_count_values_rank_deficient_attained_windows_brute_oracle():
    # windows whose ends are values the form takes (a = b included) on
    # rank-deficient forms, where whole lines of vectors sit on a window end
    rng = np.random.default_rng(40)
    cases = itertools.product(
        (-0.2, 0.3, 1.0), (0.5, 2.0, 1.0 / 3.0, 0.1), (0.1, -1.0), itertools.permutations(range(3))
    )
    for n, (c, t, d, perm) in enumerate(cases):
        form = rank_deficient(c, t, d, perm)
        T = (3.0, 6.5, 9.0)[n % 3]
        pts = rng.integers(-int(T), int(T) + 1, size=(2, 3)).astype(float)
        lo, hi = sorted(float(x) for x in form.evaluate(pts))
        for a, b in ((lo, lo), (lo, hi), (hi, hi)):
            want = brute_count(form, a, b, T)
            assert count_values(form, a, b, T) == want, (form.entries, a, b, T)


def test_count_values_past_the_float_range_scans_whole_rows():
    # the rounding bounds overflow for entries near 1e200, so rows are
    # scanned whole and the exact mask alone decides
    form = TernaryForm(1e200, -1e200, 3e199, 1e199, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in ((-1e200, 1e201), (0.0, 0.0), (1e200, 1e200)):
            assert count_values(form, a, b, 4.0) == brute_count(form, a, b, 4.0)


def window_hit_set(form, a, b, T):
    counter = errors._Capacity(enumeration._WORK)
    blocks = list(enumeration._window_hits(form, a, b, T * T, counter))
    if not blocks:
        return {}
    v = np.concatenate([blk[0] for blk in blocks]).tolist()
    vals = np.concatenate([blk[1] for blk in blocks]).tolist()
    found = dict(zip(map(tuple, v), vals))
    assert len(found) == len(v)  # no vector twice
    return found


def test_window_hits_block_layout_matches_default(monkeypatch):
    # a budget of 7 entries puts every row in blocks of its own and splits
    # each row wider than 7 columns into column chunks; stage 2 then runs on
    # 3 pairs at a time, and the range expander in chunks of 5 entries
    forms = [
        SQF2.form,  # p22 < 0: live columns
        TernaryForm(0.3, -0.9, 1.7, 0.4, -1.1, 0.2),  # p22 > 0: whole rows
        TernaryForm(0.0, 0.0, 0.0, 1.0, 0.5, 0.0),  # linear branch
        TernaryForm(1e160, -1.0, -1e-160),  # margin past the float range: whole rows unpruned
    ]
    default = [window_hit_set(form, -1.0, 1.0, 12.5) for form in forms]
    layouts = []
    blocks = enumeration._blocks

    def recorded(lo, hi):
        layouts.append(blocks(lo, hi))
        return layouts[-1]

    monkeypatch.setattr(enumeration, "_BLOCK_ENTRIES", 7)
    monkeypatch.setattr(enumeration, "_EXACT_PAIRS", 3)
    monkeypatch.setattr(util, "_RANGE_CHUNK", 5)
    monkeypatch.setattr(enumeration, "_blocks", recorded)
    for form, want in zip(forms, default):
        layouts.clear()
        got = window_hit_set(form, -1.0, 1.0, 12.5)
        assert got == want
        assert len(got) == brute_count(form, -1.0, 1.0, 12.5)
        (layout,) = layouts
        assert all((r1 - r0) * (c1 - c0 + 1) <= 7 for r0, r1, c0, c1 in layout)
        firsts = [r0 for r0, _, _, _ in layout]
        assert len(firsts) > len(set(firsts))  # some row is split into chunks


def stage1_p22(form):
    # the v^2 coefficient of stage 1's discriminant, signs as in _window_hits
    m = form.matrix
    k = int(np.argmax(np.abs(np.diag(m))))
    _, j = (ax for ax in range(3) if ax != k)
    return m[j, k] ** 2 - abs(m[k, k]) * math.copysign(1.0, m[k, k]) * m[j, j]


def test_window_hits_random_forms_brute_oracle():
    # stage 1 keeps every pair with a hit: random forms with cross terms,
    # both signs of p22 (live columns or whole rows), windows of both signs
    rng = np.random.default_rng(41)
    signs = []
    for n in range(40):
        form = TernaryForm(*rng.normal(size=6))
        signs.append(stage1_p22(form) < 0)
        a = float(rng.uniform(-3.0, 1.0))
        b = a + float(rng.uniform(0.0, 2.0)) * (n % 4 != 0)  # every fourth window is a point
        T = float(rng.uniform(4.0, 11.0))
        got = window_hit_set(form, a, b, T)
        assert len(got) == brute_count(form, a, b, T), (form.entries, a, b, T)
        for v, val in got.items():
            assert val == form.evaluate(v) and a <= val <= b
    assert 10 <= sum(signs) <= 30


def test_window_hits_edge_column_of_a_row_holds_a_hit(monkeypatch):
    # Q = -3u^2 + v^2 + 4w^2 on the window [-2, -2]: in row u = 1 the
    # discriminant 4 (3 u^2 - 2 - v^2) is exactly 0 at v = -1 and v = 1, the
    # ends of the row's live columns, and the double root w = 0 is an
    # integer, so (1, -1, 0) and (1, 1, 0) are hits on those ends
    form = TernaryForm(-3.0, 1.0, 4.0)
    assert stage1_p22(form) < 0
    ranges = []
    live_columns = enumeration._live_columns

    def recorded(*args):
        ranges.append(live_columns(*args))
        return ranges[-1]

    monkeypatch.setattr(enumeration, "_live_columns", recorded)
    got = window_hit_set(form, -2.0, -2.0, 7.0)
    [(lo, hi)] = ranges
    assert (lo[1], hi[1]) == (-1.0, 1.0)
    assert {(1, -1, 0), (1, 1, 0), (-1, 1, 0), (-1, -1, 0)} <= set(got)
    assert len(got) == brute_count(form, -2.0, -2.0, 7.0)


def test_window_pass_evaluates_about_as_many_candidates_as_hits():
    # the charged units are the half disc's (u, v) pairs plus the candidates,
    # so a widening of the w intervals shows as candidates that are no hits
    T = 500.0
    counter = errors._Capacity(enumeration._WORK)
    blocks = enumeration._window_hits(SQF2.form, -1.0, 1.0, T * T, counter)
    hits = sum(len(v) for v, *_ in blocks) // 2  # the half space's
    us = np.arange(int(T) + 1)
    vmax = np.floor(np.sqrt(T * T - us * us))
    pairs = int(2 * vmax.sum() - vmax[0]) + len(us)  # u = 0 holds v >= 0 only
    assert hits == 2890
    assert hits <= counter.used - pairs <= hits + 4


def test_count_pass_stays_within_memory_budget():
    # one T = 2000 pass holds one block's scratch arrays and one stage-2 run
    # at a time: 0.76 MiB traced at 2^13 entries per block, 1.06 MiB at 2^14,
    # 1.58 MiB at 2^15
    count_values(SQF2, -1.0, 1.0, 50.0)  # warm up lazily built numpy state
    tracemalloc.start()
    try:
        assert count_values(SQF2, -1.0, 1.0, 2000.0) == 23200
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20, peak


def test_wide_window_count_matches_brute_force():
    # every integer of each kept pair's ball segment is a candidate
    assert count_values(SQF2, -1e8, 1e8, 12.0) == brute_count(SQF2.form, -1e8, 1e8, 12.0)


def test_wide_window_pass_builds_its_candidates_chunk_by_chunk():
    # 1.4e7 candidates: stage 2 builds, evaluates and filters them a chunk of
    # the range expander at a time, where whole runs of 2,048 pairs times
    # their segments peaked at 120 MiB traced
    count_values(SQF2, -1.0, 1.0, 50.0)  # warm up lazily built numpy state
    tracemalloc.start()
    try:
        count_values(SQF2, -1e8, 1e8, 150.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_count_values_monotonicity():
    q = SQF2
    assert count_values(q, -1.0, 0.5, 20.0) <= count_values(q, -1.0, 1.0, 20.0)
    assert count_values(q, -0.5, 1.0, 20.0) <= count_values(q, -1.0, 1.0, 20.0)
    assert count_values(q, -1.0, 1.0, 10.0) <= count_values(q, -1.0, 1.0, 20.0)


def test_count_values_validation(monkeypatch):
    with pytest.raises(ValueError):
        count_values(SQF2, 1.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        count_values(SQF2, -1.0, 1.0, 0.9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            count_values(SQF2, -1.0, 1.0, bad)
    for a, b in ((math.nan, 1.0), (-math.inf, 1.0), (-1.0, math.inf)):
        with pytest.raises(ValueError):
            count_values(SQF2, a, b, 10.0)
    monkeypatch.setattr(errors, "DEFAULT_CEILING", 100)
    with pytest.raises(CapacityExceeded):
        count_values(SQF2, -1.0, 1.0, 200.0)


def test_cone_constant_closed_form_sanity():
    # the analytic oracle itself: circular cone gives exactly pi * sqrt(2)
    assert cone_constant_diag(1.0, 1.0, 1.0) == pytest.approx(PI_SQRT2, rel=1e-9)
    a = abs(SQF2.form.m11)
    assert cone_constant_diag(a, a, math.sqrt(2.0) * a) == pytest.approx(
        4.361152216843198, rel=1e-9
    )


def test_main_term_constant_circular_cone():
    est, se = main_term_constant(normalize(TernaryForm(1.0, 1.0, -1.0)), samples=10**6, seed=0)
    assert abs(est - PI_SQRT2) <= 0.02 * PI_SQRT2
    assert se < 0.1


def test_main_term_constant_matches_analytic_oracle_irrational():
    a = abs(SQF2.form.m11)
    oracle = cone_constant_diag(a, a, math.sqrt(2.0) * a)
    est, se = main_term_constant(SQF2, samples=10**6, seed=0)
    assert abs(est - oracle) <= 3.0 * se + 0.01


def test_main_term_constant_rotation_invariance():
    rng = np.random.default_rng(33)
    k, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base = TernaryForm(1.0, 1.0, -1.0)
    rotated = TernaryForm.from_matrix(k.T @ base.matrix @ k)
    e1, s1 = main_term_constant(normalize(base), samples=4 * 10**5, seed=5)
    e2, s2 = main_term_constant(normalize(rotated), samples=4 * 10**5, seed=6)
    assert abs(e1 - e2) <= 3.0 * (s1 + s2)


def test_main_term_constant_sample_doubling_consistent():
    e1, s1 = main_term_constant(SQF2, samples=2 * 10**5, seed=7)
    e2, s2 = main_term_constant(SQF2, samples=4 * 10**5, seed=8)
    assert abs(e1 - e2) <= 3.0 * (s1 + s2)


def test_main_term_constant_validation():
    with pytest.raises(ValueError):
        main_term_constant(SQF2, delta=0.5)
    with pytest.raises(ValueError):
        main_term_constant(SQF2, samples=100)
    with pytest.raises(DegenerateForm):
        main_term_constant(TernaryForm(1.0, -1.0, 0.0))
    with pytest.raises(DefiniteForm):
        main_term_constant(TernaryForm(1.0, 1.0, 1.0))


def test_count_vs_main_term_reports(capsys):
    reports = count_vs_main_term(SQF2, -1.0, 1.0, [10.0, 20.0], samples=10**5, seed=0)
    assert [r.T for r in reports] == [10.0, 20.0]
    for r in reports:
        assert r.count == count_values(SQF2, -1.0, 1.0, r.T)
        assert r.main_term == pytest.approx(r.main_constant * 2.0 * r.T, rel=1e-12)
        assert r.ratio == pytest.approx(r.count / r.main_term, rel=1e-12)
        assert not r.degenerate_window
    argv = [
        "count", "--form", SQF2_TEXT, "--a", "-1", "--b", "1", "--T", "10,20",
        "--samples", str(10**5), "--seed", "0",
    ]
    rows = _printed(capsys, argv).splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0", "0"]


def test_count_vs_main_term_ladder_in_input_order():
    ladder = [20, 5, 20, 12.5]
    reports = count_vs_main_term(SQF2, -1.0, 1.0, ladder, samples=10**5, seed=0)
    assert [r.T for r in reports] == [20.0, 5.0, 20.0, 12.5]
    for r in reports:
        assert r.count == count_values(SQF2, -1.0, 1.0, r.T)
    assert reports[0] == reports[2]


def test_count_vs_main_term_checks_before_monte_carlo(monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the arguments were checked")

    monkeypatch.setattr(enumeration, "main_term_constant", no_monte_carlo)
    for ladder in ([20.0, 5.0, math.nan], [0.5, 20.0], [20.0, math.inf, 5.0], []):
        with pytest.raises(ValueError):
            count_vs_main_term(SQF2, -1.0, 1.0, ladder)
    with pytest.raises(ValueError):
        count_vs_main_term(SQF2, 1.0, -1.0, [5.0])
    # the disc of the largest T alone is over the ceiling
    with pytest.raises(CapacityExceeded):
        count_vs_main_term(SQF2, -1.0, 1.0, [5.0, 100000.0])


def test_count_vs_main_term_degenerate_window(capsys):
    reports = count_vs_main_term(SQF2, 0.5, 0.5, [5.0], samples=10**5, seed=0)
    (r,) = reports
    assert r.degenerate_window
    assert r.main_term == 0.0
    assert math.isnan(r.ratio)
    argv = [
        "count", "--form", SQF2_TEXT, "--a", "0.5", "--b", "0.5", "--T", "5",
        "--samples", str(10**5), "--seed", "0",
    ]
    row = _printed(capsys, argv).splitlines()[1].split(",")
    assert row[4] == ""
    assert row[5] == "1"
    (obj,) = json.loads(_printed(capsys, [*argv, "--format", "json"]))
    assert obj["ratio"] is None


# every work-bounded kernel of the package, each on an input far under the
# default ceiling and over a ceiling of 4
_KERNELS = {
    "witness_table": lambda: witness_table(SQF2, -1.0, 1.0, 0.5, 0.1, 50.0),
    "count_values": lambda: count_values(SQF2, -1.0, 1.0, 10.0),
    "count_vs_main_term": lambda: count_vs_main_term(SQF2, -1.0, 1.0, [10.0]),
    "best_rational_approx": lambda: opplab.best_rational_approx(SQF2, 12.0),
    "enumerate_ball": lambda: opplab.enumerate_ball(np.eye(3), 2.0),
    "shortest_vector_coeffs": lambda: opplab.shortest_vector_coeffs(np.eye(3)),
    "siegel_average": lambda: opplab.siegel_average(1.5, opplab.LatticePoint(np.eye(3)), 2.0, 10),
    "random_ball": lambda: opplab.FiniteConfig.random_ball(3),
    "main_term_constant": lambda: main_term_constant(SQF2, samples=10_000),
}


@pytest.mark.parametrize("kernel", _KERNELS.values(), ids=_KERNELS.keys())
def test_one_ceiling_bounds_every_kernel(monkeypatch, kernel):
    # the ceiling is read from errors when a kernel's tally is made, so
    # setting it there once reaches every kernel
    monkeypatch.setattr(errors, "DEFAULT_CEILING", 4)
    with pytest.raises(CapacityExceeded):
        kernel()


def test_sample_counts_are_charged_before_the_first_sample(monkeypatch):
    # a Siegel sample charges 2*10^3 units and a Monte Carlo sample 3, so at
    # the default ceiling of 10^9 the largest counts are 500,000 and
    # 333,333,333; one more is refused before any sample is drawn
    class SampleDrawn(Exception):
        pass

    def draw(*args):
        raise SampleDrawn

    monkeypatch.setattr(opplab.flows, "_siegel_samples", draw)
    monkeypatch.setattr(enumeration, "uniform_ball", draw)
    x0 = opplab.LatticePoint(np.eye(3))
    with pytest.raises(SampleDrawn):
        opplab.siegel_average(1.5, x0, 2.0, 500_000)
    with pytest.raises(CapacityExceeded, match="Siegel samples"):
        opplab.siegel_average(1.5, x0, 2.0, 500_001)
    with pytest.raises(SampleDrawn):
        main_term_constant(SQF2, samples=333_333_333)
    with pytest.raises(CapacityExceeded, match="Monte Carlo samples"):
        main_term_constant(SQF2, samples=333_333_334)
