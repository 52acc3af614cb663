"""Tests for the weight-coordinate actions, projection surveys, and
truncated-energy machinery on finite configurations."""

import dataclasses
import inspect
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from opplab import projection
from opplab.cli import SURVEY_CSV_HEADER, _json_obj
from opplab.errors import CapacityExceeded, EmptyConfig
from opplab.projection import (
    WEIGHTS,
    FiniteConfig,
    MargulisParams,
    ProjectionParams,
    adjoint_a,
    adjoint_u,
    adjoint_u_rows,
    expansion_check_rows,
    improvement_step_sim,
    margulis_value,
    nonconcentration_constant,
    projection_concentration,
    projection_survey,
    shift_exponential,
    xi,
)


def test_weights_frozen():
    assert list(WEIGHTS) == [2.0, 1.0, 0.0, -1.0, -2.0]
    assert SURVEY_CSV_HEADER == (
        "r", "exceptional_fraction", "max_count", "energy_median", "energy_p95",
    )


def test_adjoint_u_at_zero_is_identity():
    assert np.array_equal(shift_exponential(0.0), np.eye(5))
    w = np.arange(5.0)
    assert np.array_equal(adjoint_u(0.0, w), w)


def test_adjoint_u_top_weight_vector():
    e4 = np.zeros(5)
    e4[4] = 1.0
    out = adjoint_u(1.0, e4)
    assert np.allclose(out, [1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0], rtol=0, atol=0)


def test_adjoint_u_group_law():
    rng = np.random.default_rng(0)
    for _ in range(30):
        r1, r2 = rng.normal(size=2)
        lhs = shift_exponential(r1) @ shift_exponential(r2)
        assert np.allclose(lhs, shift_exponential(r1 + r2), atol=1e-12)


def test_adjoint_u_is_unipotent():
    n = shift_exponential(1.7) - np.eye(5)
    assert np.max(np.abs(np.linalg.matrix_power(n, 5))) <= 1e-10


def test_adjoint_u_matches_nilpotent_series():
    shift = np.diag(np.ones(4), k=1)
    for r in (-2.0, 0.3, 1.0):
        series = sum(
            np.linalg.matrix_power(r * shift, k) / math.factorial(k) for k in range(5)
        )
        assert np.allclose(shift_exponential(r), series, rtol=1e-14, atol=1e-14)


def test_adjoint_a_action():
    w = np.arange(5.0)
    assert np.array_equal(adjoint_a(0.0, w), w)
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert adjoint_a(1.0, e0)[0] == pytest.approx(math.exp(2.0), rel=1e-15)
    e2 = np.zeros(5)
    e2[2] = 1.0
    assert np.array_equal(adjoint_a(3.0, e2), e2)


def test_a_u_intertwining():
    rng = np.random.default_rng(1)
    for _ in range(30):
        t, r = rng.normal(size=2) * 0.5
        w = rng.normal(size=5)
        lhs = adjoint_a(t, adjoint_u(r, w))
        rhs = adjoint_u(math.exp(t) * r, adjoint_a(t, w))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_plus_part_and_xi():
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(xi(0.0, w), [1.0, 2.0])
    e4 = np.zeros(5)
    e4[4] = 1.0
    for r in (0.5, 1.5):
        assert np.allclose(xi(r, e4), [r**4 / 24.0, r**3 / 6.0], rtol=1e-15)


def test_xi_polynomial_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.normal(size=5)
        r = rng.normal()
        top = np.polyval([w[4] / 24.0, w[3] / 6.0, w[2] / 2.0, w[1], w[0]], r)
        second = np.polyval([w[4] / 6.0, w[3] / 2.0, w[2], w[1]], r)
        assert np.allclose(xi(r, w), [top, second], rtol=1e-12, atol=1e-12)


def test_xi_is_linear_in_w():
    rng = np.random.default_rng(3)
    w1, w2 = rng.normal(size=(2, 5))
    r = 0.37
    assert np.allclose(xi(r, w1 + 2.0 * w2), xi(r, w1) + 2.0 * xi(r, w2), atol=1e-14)


def test_adjoint_u_batch_and_rows():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(7, 5))
    r = 0.81
    batch = adjoint_u(r, W)
    for i in range(7):
        assert np.allclose(batch[i], adjoint_u(r, W[i]), rtol=1e-14, atol=1e-14)
    rs = rng.normal(size=7)
    rows = adjoint_u_rows(W, rs)
    for i in range(7):
        assert np.allclose(rows[i], adjoint_u(rs[i], W[i]), rtol=1e-14, atol=1e-14)


def test_expansion_check_equality_case():
    # w transported back to the unit weight-1 vector: both sides are e^ell
    e1 = np.zeros(5)
    e1[1] = 1.0
    for r in (0.3, 1.9):
        w = adjoint_u(-r, e1)
        lhs, rhs, ok = expansion_check_rows(w[None, :], np.array([r]), np.array([0.8]))
        assert ok[0]
        assert lhs[0] == rhs[0]


def test_expansion_check_zero_plus_part():
    e2 = np.zeros(5)
    e2[2] = 1.0
    w = adjoint_u(-0.7, e2)
    lhs, rhs, ok = expansion_check_rows(w[None, :], np.array([0.7]), np.array([1.3]))
    assert (lhs[0], rhs[0], bool(ok[0])) == (1.0, 0.0, True)


def test_expansion_check_validation():
    for r, ell in ((0.5, -0.1), (0.5, math.nan), (math.nan, 0.1)):
        with pytest.raises(ValueError):
            expansion_check_rows(np.ones((1, 5)), np.array([r]), np.array([ell]))
    with pytest.raises(ValueError):
        expansion_check_rows(np.ones((2, 5)), np.zeros(2), np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        expansion_check_rows(np.ones((2, 5)), np.zeros(2), np.array([0.0, math.nan]))


def test_expansion_check_rows_match_scalar():
    rng = np.random.default_rng(5)
    W = rng.normal(size=(40, 5))
    rs = rng.random(40)
    ells = 3.0 * rng.random(40)
    lhs, rhs, ok = expansion_check_rows(W, rs, ells)
    for i in range(40):
        l, r, o = expansion_check_rows(W[i : i + 1], rs[i : i + 1], ells[i : i + 1])
        assert lhs[i] == pytest.approx(l[0], rel=1e-12)
        assert rhs[i] == pytest.approx(r[0], rel=1e-12)
        assert ok[i] == o[0]
    assert np.all(ok)


def test_expansion_check_random_sweep():
    rng = np.random.default_rng(6)
    W = rng.normal(size=(10000, 5))
    rs = rng.random(10000)
    ells = 3.0 * rng.random(10000)
    _, _, ok = expansion_check_rows(W, rs, ells)
    assert int(np.count_nonzero(~ok)) == 0


def test_finite_config_validation():
    with pytest.raises(ValueError):
        FiniteConfig(points=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        FiniteConfig(points=np.array([[math.nan, 0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        FiniteConfig(points=np.array([[math.inf, 0.0, 0.0, 0.0, 0.0]]))


def test_finite_config_random_ball():
    cfg = FiniteConfig.random_ball(100, radius=0.7, seed=8)
    assert cfg.points.shape == (100, 5)
    assert float(np.max(np.linalg.norm(cfg.points, axis=1))) <= 0.7
    again = FiniteConfig.random_ball(100, radius=0.7, seed=8)
    assert np.array_equal(cfg.points, again.points)


def test_finite_config_json_round_trip():
    cfg = FiniteConfig.random_ball(5, seed=1)
    points = [[float(x) for x in row] for row in cfg.points]
    for obj in (points, {"points": points}, json.loads(json.dumps({"points": points}))):
        back = FiniteConfig.from_json_obj(obj)
        assert np.array_equal(back.points, cfg.points)
    assert [f.name for f in dataclasses.fields(FiniteConfig)] == ["points"]
    for bad in ({"points": points, "weights": [0.2] * 5}, {"pts": points}, {}):
        with pytest.raises(ValueError, match="'points'"):
            FiniteConfig.from_json_obj(bad)


def test_empty_and_oversized_configs_rejected():
    empty = FiniteConfig(points=np.zeros((0, 5)))
    with pytest.raises(EmptyConfig):
        nonconcentration_constant(empty, 1.0, 0.5)
    with pytest.raises(EmptyConfig):
        projection_concentration(empty, 0.5, 0.1)
    big = FiniteConfig(points=2.0 * np.eye(5)[:1])
    with pytest.raises(ValueError):
        nonconcentration_constant(big, 1.0, 0.5)
    with pytest.raises(ValueError):
        projection_concentration(FiniteConfig.random_ball(5, seed=0), math.nan, 0.1)
    # a negative b once counted as -b, since b * b > 0
    with pytest.raises(ValueError, match="b must be >= 0"):
        projection_concentration(FiniteConfig.random_ball(5, seed=0), 0.5, -0.2)
    # one point over the ceiling fails before any point is drawn or any
    # pairwise tile is built
    with pytest.raises(CapacityExceeded):
        FiniteConfig.random_ball(31_623)
    crowd = FiniteConfig(points=np.zeros((31_623, 5)))
    with pytest.raises(CapacityExceeded):
        projection_concentration(crowd, 0.5, 0.1)


def test_nonconcentration_singleton():
    cfg = FiniteConfig(points=np.zeros((1, 5)))
    assert nonconcentration_constant(cfg, 1.0, 1.0) == 1.0


def test_nonconcentration_flags_collinear_sets():
    t = np.linspace(0.0, 1.0, 64)
    line = np.zeros((64, 5))
    line[:, 0] = t
    collinear = nonconcentration_constant(FiniteConfig(points=line), 2.0, 2.0 / 63.0)
    ball = nonconcentration_constant(FiniteConfig.random_ball(64, seed=0), 2.0, 2.0 / 63.0)
    assert collinear > 2.0 * ball


def test_nonconcentration_rotation_invariant():
    cfg = FiniteConfig.random_ball(60, seed=7)
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rotated = FiniteConfig(points=cfg.points @ q.T)
    a = nonconcentration_constant(cfg, 1.5, 0.1)
    b = nonconcentration_constant(rotated, 1.5, 0.1)
    assert a == pytest.approx(b, rel=1e-9)


def test_nonconcentration_antitone_in_b1():
    cfg = FiniteConfig.random_ball(80, seed=5)
    vals = [nonconcentration_constant(cfg, 1.5, b1) for b1 in (0.05, 0.2, 0.8)]
    assert vals[0] >= vals[1] >= vals[2]


def test_nonconcentration_monotone_in_alpha():
    cfg = FiniteConfig.random_ball(80, seed=5)
    vals = [nonconcentration_constant(cfg, a, 0.1) for a in (0.5, 1.0, 2.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_nonconcentration_validation():
    cfg = FiniteConfig.random_ball(10, seed=0)
    with pytest.raises(ValueError):
        nonconcentration_constant(cfg, 0.0, 0.1)
    with pytest.raises(ValueError):
        nonconcentration_constant(cfg, 2.5, 0.1)
    with pytest.raises(ValueError):
        nonconcentration_constant(cfg, 1.0, 0.0)
    with pytest.raises(ValueError):
        nonconcentration_constant(cfg, 1.0, 1.5)


def test_projection_concentration_extremes():
    cfg = FiniteConfig.random_ball(40, seed=2)
    everything = projection_concentration(cfg, 0.3, 10.0)
    assert np.all(everything == 40)
    # small enough to isolate each image; a point counts itself whatever
    # the rounding residue of its self-distance
    for b in (1e-6, 0.0):
        assert np.all(projection_concentration(cfg, 0.3, b) == 1)


def test_projection_concentration_brute_oracle():
    cfg = FiniteConfig.random_ball(50, seed=3)
    r, b = 0.62, 0.2
    counts = projection_concentration(cfg, r, b)
    img = xi(r, cfg.points)
    for i in range(50):
        brute = sum(
            1 for j in range(50) if np.linalg.norm(img[i] - img[j]) <= b + 1e-12
        )
        assert abs(int(counts[i]) - brute) <= 0  # exact, modulo the boundary guard
    assert counts.dtype == np.int64


def test_projection_params_validation():
    with pytest.raises(ValueError):
        ProjectionParams(alpha=2.5, b1=0.02, b=0.02, eps=1e-5, egbd=1.0)
    with pytest.raises(ValueError):
        ProjectionParams(alpha=2.0, b1=0.05, b=0.02, eps=1e-5, egbd=1.0)
    with pytest.raises(ValueError):
        ProjectionParams(alpha=2.0, b1=0.02, b=0.02, eps=1e-3, egbd=1.0)
    with pytest.raises(ValueError):
        ProjectionParams(alpha=2.0, b1=0.02, b=0.02, eps=1e-5, egbd=0.5)
    with pytest.raises(ValueError):
        ProjectionParams(alpha=2.0, b1=0.02, b=math.nan, eps=1e-5, egbd=1.0)
    with pytest.raises(ValueError):
        ProjectionParams(alpha=2.0, b1=0.02, b=0.02, eps=1e-5, egbd=math.nan)


def test_projection_params_measured():
    cfg = FiniteConfig.random_ball(60, seed=4)
    params = ProjectionParams.measured(cfg, alpha=2.0, b1=0.05, b=0.05)
    assert params.eps == 0.5e-4 * 2.0
    assert params.egbd == max(1.0, nonconcentration_constant(cfg, 2.0, 0.05))
    assert params.egbd >= 1.0


def test_projection_survey_grid_validation():
    cfg = FiniteConfig.random_ball(20, seed=0)
    params = ProjectionParams.measured(cfg, alpha=2.0, b1=0.05, b=0.05)
    with pytest.raises(ValueError):
        projection_survey(cfg, params, [0.0, 1.2])
    with pytest.raises(ValueError):
        projection_survey(cfg, params, [math.nan])
    for name in ("survey_const", "survey_exp"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                projection_survey(cfg, params, [0.5], **{name: bad})


def test_projection_survey_bound_and_threshold_bookkeeping():
    cfg = FiniteConfig.random_ball(30, seed=6)
    params = ProjectionParams.measured(cfg, alpha=2.0, b1=0.05, b=0.05)
    res = projection_survey(cfg, params, [0.0, 0.5, 1.0], survey_const=7.0, survey_exp=3.0)
    expected = 7.0 * params.egbd * 0.05 ** (2.0 - 3.0 * params.eps) * 30
    assert res.count_bound == expected
    assert res.row_threshold == 0.05**params.eps
    assert len(res.rows) == 3
    assert [row.r for row in res.rows] == [0.0, 0.5, 1.0]


def test_projection_survey_two_point_energy_oracle():
    pts = np.zeros((2, 5))
    pts[0, 0], pts[1, 0] = 0.5, -0.5
    cfg = FiniteConfig(points=pts)
    params = ProjectionParams.measured(cfg, alpha=2.0, b1=0.05, b=0.05)
    res = projection_survey(cfg, params, [0.0, 0.4])
    for row in res.rows:
        # the weight-2 coordinate is inert under both actions: image distance
        # is exactly 1, so the truncated pair energy is exactly 1
        assert row.energy_median == 1.0
        assert row.energy_p95 == 1.0
        assert row.max_count == 1
        assert row.exceptional_fraction == 0.0
    assert res.exceptional_r_fraction == 0.0


def test_projection_survey_detects_kernel_curve():
    # all points on the curve adjoint_u(-r0) . (0, 0, *) collapse to the
    # origin under xi at r = r0 and only there
    rng = np.random.default_rng(3)
    n, r0 = 300, 0.6
    tail = rng.normal(size=(n, 3))
    radii = 0.3 * rng.random(n) ** 0.2
    x = np.zeros((n, 5))
    x[:, 2:] = tail * (radii / np.linalg.norm(tail, axis=1))[:, None]
    w = adjoint_u(-r0, x)
    cfg = FiniteConfig(points=w)
    params = ProjectionParams.measured(cfg, alpha=2.0, b1=0.02, b=0.02)
    grid = [round(0.05 * k, 2) for k in range(21)]
    res = projection_survey(cfg, params, grid)
    by_r = {row.r: row for row in res.rows}
    assert by_r[r0].max_count == n
    assert by_r[r0].exceptional_fraction == 1.0
    # total collapse persists only within b of the kernel radius; by 0.2
    # away the images have spread back out
    for r, row in by_r.items():
        assert row.max_count <= by_r[r0].max_count
        if abs(r - r0) >= 0.2:
            assert row.max_count < n // 2
    assert res.exceptional_r_fraction >= 1.0 / len(grid)


def test_margulis_params_validation():
    for bad in (
        dict(b=0.2, truncation=0, alpha=1.0),
        dict(b=0.0, truncation=0, alpha=1.0),
        dict(b=0.1, truncation=-1, alpha=1.0),
        dict(b=0.1, truncation=1.5, alpha=1.0),
        dict(b=0.1, truncation=0, alpha=0.0),
        dict(b=0.05, truncation=1, alpha=math.nan),
        dict(b=math.nan, truncation=1, alpha=1.0),
        dict(b=0.05, truncation=math.nan, alpha=1.0),
    ):
        with pytest.raises(ValueError):
            MargulisParams(**bad)


def two_returns():
    w = np.zeros((2, 5))
    w[0, 0] = 0.1
    w[1, 1] = 0.2
    return w


def test_margulis_value_frozen_examples():
    w = two_returns()
    assert margulis_value(w, MargulisParams(b=0.1, truncation=0, alpha=1.0)) == 15.0
    assert margulis_value(w, MargulisParams(b=0.1, truncation=1, alpha=1.0)) == 5.0
    assert margulis_value(w, MargulisParams(b=0.1, truncation=2, alpha=1.0)) == 10.0
    assert margulis_value(w, MargulisParams(b=0.1, truncation=3, alpha=1.0)) == 10.0
    assert (
        margulis_value(w, MargulisParams(b=0.1, truncation=1, alpha=1.5))
        == 11.180339887498947
    )


def test_margulis_value_empty_floor_and_inj():
    empty = np.zeros((0, 5))
    assert margulis_value(empty, MargulisParams(b=0.1, truncation=0, alpha=1.5)) == 31.62277660168379
    assert margulis_value([], MargulisParams(b=0.1, truncation=0, alpha=1.0)) == 10.0


def test_margulis_value_edge_cases():
    zero = np.zeros((1, 5))
    assert margulis_value(zero, MargulisParams(b=0.1, truncation=0, alpha=1.0)) == math.inf
    far = np.zeros((1, 5))
    far[0, 0] = 0.5  # farther than b, still scored: the caller owns the cut
    assert margulis_value(far, MargulisParams(b=0.1, truncation=0, alpha=1.0)) == 2.0
    with pytest.raises(ValueError):
        margulis_value(np.zeros(5), MargulisParams(b=0.1, truncation=0, alpha=1.0))


def test_margulis_value_subset_enumeration_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = int(rng.integers(1, 11))
        m = int(rng.integers(0, 4))
        alpha = float(rng.choice([0.5, 1.0, 1.5]))
        w = 0.05 * rng.normal(size=(k, 5))
        params = MargulisParams(b=0.1, truncation=m, alpha=alpha)
        got = margulis_value(w, params)
        norms = np.linalg.norm(w, axis=1)
        if k <= m:
            assert got == 0.1 ** (-alpha)
            continue
        best = min(
            math.fsum(norms[list(keep)] ** (-alpha))
            for keep in itertools.combinations(range(k), k - m)
        )
        assert got == best


def test_improvement_step_deterministic():
    cfg = FiniteConfig.random_ball(60, radius=0.04, seed=2)
    a = improvement_step_sim(cfg, 1.5, 1.0, 0.1, 4, 2, seed=3)
    b = improvement_step_sim(cfg, 1.5, 1.0, 0.1, 4, 2, seed=3)
    assert a.ratio_median == b.ratio_median
    assert a.rho_values == b.rho_values
    assert np.array_equal(a.ratios, b.ratios)
    c = improvement_step_sim(cfg, 1.5, 1.0, 0.1, 4, 2, seed=4)
    assert c.rho_values != a.rho_values


def test_improvement_step_single_point_is_all_floor():
    cfg = FiniteConfig(points=np.zeros((1, 5)))
    stats = improvement_step_sim(cfg, 1.0, 0.5, 0.1, 3, 0, seed=0)
    assert np.all(stats.ratios == 1.0)
    assert stats.ratio_median == stats.ratio_mean == 1.0
    assert stats.floor_fraction_before == 1.0
    assert stats.floor_fraction_after == 1.0


def test_improvement_step_validation():
    cfg = FiniteConfig.random_ball(10, radius=0.04, seed=0)
    with pytest.raises(ValueError):
        improvement_step_sim(cfg, 2.0, 1.0, 0.1, 4, 2)
    with pytest.raises(ValueError):
        improvement_step_sim(cfg, 1.5, 1.0, 0.1, 0, 2)
    with pytest.raises(ValueError):
        improvement_step_sim(cfg, 1.5, 1.0, 0.2, 4, 2)
    with pytest.raises(ValueError):
        improvement_step_sim(cfg, 1.5, math.nan, 0.1, 4, 2)


def test_improvement_step_rejects_an_undefined_ratio():
    # two coincident points have an infinite energy before and after the
    # transport; a truncation of 1 drops that zero distance, so the ratios exist
    cfg = FiniteConfig(points=[[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0.01, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="points 0 and 1 coincide"):
        improvement_step_sim(cfg, 1.5, 1.0, 0.02, 1, 0)
    stats = improvement_step_sim(cfg, 1.5, 1.0, 0.02, 1, 1)
    assert np.all(np.isfinite(stats.ratios))


def test_improvement_step_dense_cluster_improves():
    cfg = FiniteConfig.random_ball(500, radius=0.04, seed=9)
    stats = improvement_step_sim(cfg, 1.5, 1.0, 0.1, 8, 2, seed=4)
    assert stats.ratio_median < 1.0
    assert len(stats.rho_values) == 8
    assert len(stats.rho_medians) == 8
    assert stats.ratio_min <= stats.ratio_median <= stats.ratio_p95 <= stats.ratio_max
    obj = _json_obj(stats)
    assert "ratios" not in obj
    assert obj["ratio_median"] == stats.ratio_median


def test_pair_tiles_row_blocks_match_one_tile(monkeypatch):
    # 61 points at 8 rows per tile: seven full tiles and a short last one
    cfg = FiniteConfig.random_ball(61, radius=0.5, seed=12)
    dense = adjoint_a(0.8, adjoint_u(0.4, 0.1 * cfg.points))
    params = ProjectionParams.measured(cfg, alpha=1.5, b1=0.05, b=0.1)
    grid = [0.0, 0.3, 0.7, 1.0]

    def run():
        return (
            projection_concentration(cfg, 0.3, 0.2),
            nonconcentration_constant(cfg, 1.5, 0.05),
            projection_survey(cfg, params, grid).rows,
            projection._margulis_profile(dense, 0.1, 1, 1.2),
        )

    one = run()
    monkeypatch.setattr(projection, "_TILE_ENTRIES", 61 * 8)
    assert [len(d2) for _, d2 in projection._pair_tiles(cfg.points)] == [8] * 7 + [5]
    strips = [(i, d2.shape) for i, d2 in projection._pair_tiles(cfg.points, upper=True)]
    assert strips == [(i, (min(8, 61 - i), 61 - i)) for i in range(0, 61, 8)]
    tiled = run()
    assert np.array_equal(tiled[0], one[0])
    assert tiled[1] == one[1]
    for got, want in zip(tiled[2], one[2]):
        assert (got.max_count, got.exceptional_fraction) == (want.max_count, want.exceptional_fraction)
        assert got.energy_median == pytest.approx(want.energy_median, rel=1e-12)
        assert got.energy_p95 == pytest.approx(want.energy_p95, rel=1e-12)
    assert np.array_equal(tiled[3][1], one[3][1])
    assert not np.all(one[3][1])  # some rows have more than M returns
    assert tiled[3][0] == pytest.approx(one[3][0], rel=1e-12)


def _allocating_tiles(x, step, upper=False):
    """Reference kernel: one allocating expression per tile, no reused buffers, no clip.

    With upper=True a tile is the strip of rows [i, i + step) by columns [i, n).
    A point's entry with itself is +inf.
    """
    sq = np.sum(x**2, axis=1)
    for i in range(0, len(x), step):
        rows, cols = slice(i, i + step), slice(i if upper else 0, len(x))
        d2 = sq[rows, None] + sq[None, cols] - 2.0 * (x[rows] @ x.T[:, cols])
        k = np.arange(len(d2))
        d2[k, k + i - cols.start] = math.inf
        yield i, d2


def _assert_tiles_match_allocating_formula(x, some_negative=True):
    n = len(x)
    step = max(1, projection._TILE_ENTRIES // n)
    sq = np.sum(x**2, axis=1)
    for upper in (False, True):
        got = [(i, d2.copy()) for i, d2 in projection._pair_tiles(x, upper=upper)]
        want = list(_allocating_tiles(x, step, upper))
        assert [i for i, _ in got] == [i for i, _ in want] == list(range(0, n, step))
        for (i, g), (_, w) in zip(got, want):
            assert g.shape == w.shape == (min(step, n - i), n - i if upper else n)
            assert np.array_equal(g, w)
            # clipped by its consumer, a tile is the clipped squared distance of
            # the formula the kernel yielded before tiles were left unclipped
            rows, cols = slice(i, i + step), slice(i if upper else 0, n)
            clipped = np.maximum(sq[rows, None] + sq[None, cols] - 2.0 * (x[rows] @ x.T[:, cols]), 0.0)
            k = np.arange(len(g))
            clipped[k, k + i - cols.start] = math.inf
            assert np.array_equal(np.maximum(g, 0.0), clipped)
        if some_negative:  # rounding leaves some entries below 0, so the clip is exercised
            assert any(np.any(g < 0) for _, g in got)


def _with_copies(x, k):
    """x with its last k rows replaced by copies of its first k.

    The self-entries are +inf, so only the pairs of a point and its copy
    leave the rounding residues near 0 that may fall below it.
    """
    x = x.copy()
    x[-k:] = x[:k]
    return x


def test_pair_tiles_match_allocating_formula_bit_for_bit(monkeypatch):
    # 5-column configurations at the default tile size (300 points: a
    # 218-row tile and an 82-row one) and a 2-column xi image of 2000
    # points (32-row tiles, a 16-row last one)
    _assert_tiles_match_allocating_formula(_with_copies(FiniteConfig.random_ball(300, seed=1).points, 20))
    _assert_tiles_match_allocating_formula(_with_copies(xi(0.3, FiniteConfig.random_ball(2000, seed=0).points), 20))
    # scaled far down (squared norms underflow to 0 at 1e-300 and are
    # subnormal at 1e-160) and far up (squared norms near 1e300); the
    # k = 2 sum must stay exact on every kernel path
    pts = FiniteConfig.random_ball(300, seed=3).points
    for scale in (1e-300, 1e-160):
        _assert_tiles_match_allocating_formula(pts * scale, some_negative=False)
    _assert_tiles_match_allocating_formula(_with_copies(pts * 1e150, 20))
    # columns of magnitudes 1e-200 ... 1e100 in one configuration
    mixed = pts * np.array([1e-200, 1e-100, 1.0, 1e50, 1e100])
    _assert_tiles_match_allocating_formula(mixed, some_negative=False)
    # 571 points: five 114-row tiles and a last tile of one row (a
    # matrix-vector product inside BLAS)
    ragged = FiniteConfig.random_ball(571, seed=4).points
    assert 571 % (projection._TILE_ENTRIES // 571) == 1
    _assert_tiles_match_allocating_formula(_with_copies(ragged, 20))
    monkeypatch.setattr(projection, "_TILE_ENTRIES", 61 * 8)
    _assert_tiles_match_allocating_formula(_with_copies(FiniteConfig.random_ball(61, radius=0.5, seed=12).points, 10))


def _energy_strips(img, b, alpha):
    """Allocating reference for the survey: (first, clipped energy terms) per strip."""
    for i, d2 in _allocating_tiles(img, max(1, projection._TILE_ENTRIES // len(img)), upper=True):
        clipped = np.maximum(d2, b * b)
        yield i, 1.0 / clipped if alpha == 2.0 else clipped ** (-alpha / 2.0)


def _entry_matrix(img, b, alpha):
    """The n x n clipped energy terms of an image as the strips evaluate them.

    Each unordered pair comes from the allocating strip formula once and
    is mirrored, so row i holds every term of point i's energy.
    """
    n = len(img)
    terms = np.empty((n, n))
    for i, e in _energy_strips(img, b, alpha):
        m = len(e)
        terms[i : i + m, i:] = e
        terms[i + m :, i : i + m] = e[:, m:].T
    return terms


def test_projection_survey_energies_match_allocating_reduction():
    # 300 points are two strips (218 and 82 rows), so the column sums of the
    # first strip reach the last 82 points before their own row sums
    cfg = FiniteConfig.random_ball(300, seed=2)
    b = 0.05
    for alpha in (2.0, 1.5):
        params = ProjectionParams.measured(cfg, alpha=alpha, b1=b, b=b)
        row = projection_survey(cfg, params, [0.4]).rows[0]
        img = xi(0.4, cfg.points)
        energy = np.zeros(len(img))
        for i, e in _energy_strips(img, b, alpha):
            m = len(e)
            energy[i : i + m] = energy[i : i + m] + e.sum(axis=1)
            energy[i + m :] = energy[i + m :] + e[:, m:].sum(axis=0)
        assert np.array_equal(projection._image_sums(img, b * b, alpha)[1], energy)
        assert row.energy_median == float(np.median(energy))
        assert row.energy_p95 == float(np.percentile(energy, 95))


def test_survey_row_energies_match_fsum_of_each_row():
    # the strip order sums a row's terms in another order than one pass over
    # the row; either stays within a few ulp of the correctly rounded sum
    # (at most 7 ulp of the row total measured here)
    b = 0.05
    for n, r in ((300, 0.0), (300, 0.4), (571, 1.0)):
        img = xi(r, FiniteConfig.random_ball(n, seed=2).points)
        for alpha in (2.0, 1.5):
            energy = projection._image_sums(img, b * b, alpha)[1]
            for got, terms in zip(energy, _entry_matrix(img, b, alpha).tolist()):
                want = math.fsum(terms)
                assert abs(got - want) <= 16 * math.ulp(want), (n, r, alpha)


def test_survey_energies_at_tiny_b_match_fsum_over_coordinate_differences():
    # the self-pair adds nothing to an energy, so at tiny b no self term
    # b^-alpha swamps the sum (the energies read 0.0 at b = 1e-12 when one
    # was added and subtracted); the reference takes coordinate differences
    img = xi(0.3, FiniteConfig.random_ball(200, seed=0).points)
    for b in (1e-6, 1e-12):
        for alpha in (2.0, 1.5):
            energy = projection._image_sums(img, b * b, alpha)[1]
            for i, got in enumerate(energy):
                d2 = np.sum((img - img[i]) ** 2, axis=1)
                d2[i] = math.inf
                want = math.fsum(np.maximum(d2, b * b) ** (-alpha / 2.0))
                assert abs(got - want) <= 1e-12 * want, (b, alpha, i, got, want)


def _brute_counts(x, b):
    """Points within b of each point, itself included, over exact coordinate differences.

    Each unordered pair is tested once and counted for both of its points.
    Fails when a pair lies within 1e-9 relative of b, where the kernel's
    rounding may decide otherwise.
    """
    n = len(x)
    counts = np.ones(n, dtype=np.int64)
    for i in range(n - 1):
        d2 = np.sum((x[i + 1 :] - x[i]) ** 2, axis=1)
        assert not np.any(np.abs(d2 - b * b) <= 1e-9 * b * b)
        near = d2 <= b * b
        counts[i] += np.count_nonzero(near)
        counts[i + 1 :] += near
    return counts


def _count_cases():
    """(points, eight_row_strips) cases.

    61 points cut into 8-row strips and a 5-row last one, 200 points in one
    strip, 300 in two (218 and 82 rows) and 571 in 114-row strips and a
    one-row last one.
    """
    return [
        (FiniteConfig.random_ball(61, radius=0.5, seed=12).points, True),
        (FiniteConfig.random_ball(200, seed=1).points, False),
        (FiniteConfig.random_ball(300, radius=0.6, seed=5).points, False),
        (FiniteConfig.random_ball(571, seed=4).points, False),
    ]


def test_strip_counts_match_brute_force_over_unordered_pairs(monkeypatch):
    params = ProjectionParams(alpha=2.0, b1=0.02, b=0.1, eps=1e-4, egbd=1.0)
    default = projection._TILE_ENTRIES
    for pts, eight_row_strips in _count_cases():
        monkeypatch.setattr(projection, "_TILE_ENTRIES", len(pts) * 8 if eight_row_strips else default)
        cfg = FiniteConfig(points=pts)
        for r, b in ((0.62, 0.2), (0.1, 0.1)):
            img = xi(r, pts)
            want = _brute_counts(img, b)
            assert np.array_equal(projection_concentration(cfg, r, b), want)
            assert np.array_equal(projection._image_sums(img, b * b, 1.5)[0], want)
        res = projection_survey(cfg, params, [0.1])
        want = _brute_counts(xi(0.1, pts), 0.1)
        assert res.rows[0].max_count == int(want.max())
        assert res.rows[0].exceptional_fraction == float(np.count_nonzero(want > res.count_bound) / len(pts))


def test_nonconcentration_constant_matches_brute_force(monkeypatch):
    default = projection._TILE_ENTRIES
    for pts, eight_row_strips in _count_cases():
        monkeypatch.setattr(projection, "_TILE_ENTRIES", len(pts) * 8 if eight_row_strips else default)
        cfg = FiniteConfig(points=pts)
        for alpha, b1 in ((1.5, 0.05), (2.0, 0.11)):
            scales = [b1]
            while scales[-1] < 1.0:
                scales.append(min(2.0 * scales[-1], 1.0))
            want = max(int(_brute_counts(pts, s).max()) / (s**alpha * len(pts)) for s in scales)
            assert nonconcentration_constant(cfg, alpha, b1) == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pairwise_consumers_stay_within_memory_budget():
    # two 32-row tile buffers of 2000 points are 1 MiB; the budget leaves
    # room for the per-point outputs but not for n x n or 4 MiB temporaries
    budget = 4 << 20
    cfg = FiniteConfig.random_ball(2000, seed=0)
    params = ProjectionParams(alpha=2.0, b1=0.02, b=0.02, eps=1e-4, egbd=1.0)
    assert _traced_peak(lambda: projection_survey(cfg, params, [0.5])) < budget
    assert _traced_peak(lambda: nonconcentration_constant(cfg, 2.0, 0.02)) < budget
    cluster = FiniteConfig.random_ball(2000, radius=0.04, seed=0)
    assert _traced_peak(lambda: improvement_step_sim(cluster, 1.5, 1.0, 0.02, 1, 2)) < budget


def test_margulis_profile_excludes_self_pair_by_index():
    # rows 0 and 1 are the same point (distance exactly 0 between them);
    # row 2 has no return within b
    pts = np.zeros((3, 5))
    pts[0, :2] = pts[1, :2] = (0.5, 0.25)
    pts[2, 0] = -0.5
    values, at_floor = projection._margulis_profile(pts, 0.1, 0, 1.0)
    assert list(values) == [math.inf, math.inf, 10.0]
    assert list(at_floor) == [False, False, True]
    values, at_floor = projection._margulis_profile(pts, 0.1, 1, 1.0)
    assert list(values) == [10.0, 10.0, 10.0]
    assert list(at_floor) == [True, True, True]


def _row_profile(pts, b, m, alpha):
    """Reference truncated-energy profile: one sorted row of distances at a time.

    The tiles come from the allocating formula clipped at 0, which the
    kernel's tiles match bit for bit (see the tile test above).
    """
    step = max(1, projection._TILE_ENTRIES // len(pts))
    values = np.empty(len(pts))
    at_floor = np.empty(len(pts), dtype=bool)
    for first, d2 in _allocating_tiles(pts, step):
        dist = np.sqrt(np.maximum(d2, 0.0))
        for i, row in enumerate(dist, start=first):
            nb = np.sort(row[row < b])
            at_floor[i] = len(nb) <= m
            if len(nb) <= m:
                values[i] = float(b ** (-alpha))
            else:
                with np.errstate(divide="ignore"):
                    values[i] = math.fsum(nb[m:] ** (-alpha))
    return values, at_floor


def _profile_cases():
    """(points, b, M, alpha) cases for the profile oracle."""
    cluster = FiniteConfig.random_ball(2000, radius=0.04, seed=0).points
    cases = [(cluster, 0.02, 2, 1.5), (cluster, 0.02, 0, 0.5)]
    for rho in (0.3, 0.9):
        cases.append((adjoint_a(1.0, adjoint_u(rho, cluster)), 0.02, 2, 1.5))
    # coincident points: ten duplicated rows and one point taken three times
    crowd = np.concatenate([cluster[:200], cluster[:10], cluster[:1]])
    cases += [(crowd, 0.02, 0, 1.5), (crowd, 0.02, 1, 0.5), (crowd, 0.02, 3, 1.0)]
    # M at or above the returns of some rows, and of every row
    cases += [(cluster[:300], 0.02, 4, 1.5), (cluster[:300], 0.02, 10**6, 0.5)]
    # a ring of neighbours within a few ulps of b = 1/16 around the origin,
    # which sit on both sides of the exact test and inside the superset cut
    b = 0.0625
    rng = np.random.default_rng(7)
    unit = rng.normal(size=(400, 5))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    radii = b * (1.0 + np.arange(-3, 4)[rng.integers(0, 7, 400)] * 2.0**-52)
    ring = np.concatenate([np.zeros((1, 5)), unit * radii[:, None]])
    cases += [(ring, b, 0, 1.5), (ring, b, 3, 0.5)]
    return cases


def test_margulis_profile_matches_row_by_row_reference():
    for pts, b, m, alpha in _profile_cases():
        values, at_floor = projection._margulis_profile(pts, b, m, alpha)
        want_values, want_floor = _row_profile(pts, b, m, alpha)
        assert np.array_equal(values, want_values), (len(pts), b, m, alpha)
        assert np.array_equal(at_floor, want_floor), (len(pts), b, m, alpha)


def test_margulis_profile_return_at_exactly_b():
    # distances exactly b (a power of two, so every square is exact) are not
    # returns; one ulp less is
    b = 0.0625
    pts = np.zeros((4, 5))
    pts[1, 0] = b
    pts[2, 1] = -b
    pts[3, 2] = np.nextafter(b, 0.0)
    values, at_floor = projection._margulis_profile(pts, b, 0, 1.0)
    assert list(at_floor) == [False, True, True, False]
    assert values[0] == values[3] == 1.0 / np.nextafter(b, 0.0)
    assert values[1] == values[2] == 16.0
    want = _row_profile(pts, b, 0, 1.0)
    assert np.array_equal(values, want[0]) and np.array_equal(at_floor, want[1])


@pytest.mark.parametrize("coretype", ["Prescott", "SkylakeX"])
def test_margulis_profile_matches_reference_under_blas_kernels(run_under_coretype, coretype):
    code = "\n".join([
        "import math",
        "import numpy as np",
        "from opplab import projection",
        "from opplab.projection import FiniteConfig, adjoint_a, adjoint_u",
        inspect.getsource(_allocating_tiles),
        inspect.getsource(_row_profile),
        inspect.getsource(_profile_cases),
        "for pts, b, m, alpha in _profile_cases():",
        "    got = projection._margulis_profile(pts, b, m, alpha)",
        "    want = _row_profile(pts, b, m, alpha)",
        "    print(all(np.array_equal(g, w) for g, w in zip(got, want)))",
    ])
    lines = run_under_coretype(coretype, code).split()
    assert lines == ["True"] * len(_profile_cases())


def test_survey_and_profiles_are_charged_before_the_first_tile(monkeypatch):
    def no_tiles(x, upper=False):
        raise AssertionError("a tile was built past the ceiling")

    monkeypatch.setattr(projection, "_pair_tiles", no_tiles)
    small = FiniteConfig.random_ball(5, seed=0)
    params = ProjectionParams(alpha=2.0, b1=0.02, b=0.02, eps=1e-4, egbd=1.0)
    with pytest.raises(CapacityExceeded, match="r values of the survey"):
        projection_survey(small, params, np.linspace(0.0, 1.0, 10**7))
    with pytest.raises(CapacityExceeded, match="truncated-energy profiles"):
        improvement_step_sim(small, 1.5, 1.0, 0.02, 10**8, 2)
    # at 2000 points, 3976 r values fit under the ceiling and 3977 do not
    big = FiniteConfig.random_ball(2000, seed=0)
    with pytest.raises(AssertionError, match="a tile was built"):
        projection_survey(big, params, np.linspace(0.0, 1.0, 3976))
    with pytest.raises(CapacityExceeded):
        projection_survey(big, params, np.linspace(0.0, 1.0, 3977))


def test_uniform_r_grid_is_charged_before_it_is_built(monkeypatch):
    assert projection.uniform_r_grid(9, 60) == np.linspace(0.0, 1.0, 9).tolist()
    assert projection.uniform_r_grid(3976, 2000) == np.linspace(0.0, 1.0, 3976).tolist()

    def no_grid(*args):
        raise AssertionError("a grid was built past the ceiling")

    monkeypatch.setattr(projection.np, "linspace", no_grid)
    with pytest.raises(CapacityExceeded, match="r values of the survey"):
        projection.uniform_r_grid(3977, 2000)
    with pytest.raises(CapacityExceeded):
        projection.uniform_r_grid(10**12, 5)


def test_strip_counts_take_the_self_pair_by_index():
    # a self-entry is a rounding residue: here 27 of the 300 are above 0, so
    # at b = 0 or 1e-12 a plain d2 <= b^2 test would drop those points from
    # their own counts
    pts = FiniteConfig.random_ball(300, seed=0).points
    img = xi(0.3, pts)
    cfg = FiniteConfig(points=pts)
    for b in (0.0, 1e-12):
        want = _brute_counts(img, b)
        assert np.array_equal(projection_concentration(cfg, 0.3, b), want)
        # the self-entries add 0 to the energies, so even b^2 = 0 leaves them finite
        counts, energies = projection._image_sums(img, b * b, 1.5)
        assert np.array_equal(counts, want)
        assert np.all(np.isfinite(energies))
    params = ProjectionParams(alpha=2.0, b1=1e-12, b=1e-12, eps=1e-5, egbd=1.0)
    row = projection_survey(cfg, params, [0.3]).rows[0]
    assert (row.max_count, row.exceptional_fraction) == (1, 1.0)
