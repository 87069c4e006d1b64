import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoy_akg import (
    ExpansionTable,
    IntensityGrid,
    PointSet,
    build_matrices,
    gamma_coefficient,
    omega,
)
from decoy_akg.divided_diff import DEFAULT_SERIES_TOL
from decoy_akg.expansion import DEFAULT_N_MAX
from decoy_akg.reference import (
    beta,
    epsilon,
    gamma_coefficient_direct,
    omega_closed_form,
    power_divided_difference,
    reconstruct_poisson,
    simplex_mean_value_oracle,
)
from conftest import intensity_grids, random_grid


def test_grid_validation():
    with pytest.raises(ValueError):
        IntensityGrid(())
    with pytest.raises(ValueError):
        IntensityGrid((0.0, 0.2))
    with pytest.raises(ValueError):
        IntensityGrid((0.2, 0.1))  # not increasing
    with pytest.raises(ValueError):
        IntensityGrid((0.1, 0.15))  # default spacing is 0.1
    for mus in ((0.1, math.nan), (0.1, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match="finite"):
            IntensityGrid(mus)
    for mus, min_spacing in (
        ((True, 2.0), 0.1),
        (("0.1", "0.2"), 0.1),
        ((0.1, np.bool_(True)), 0.1),
        ((0.1, 1.2), True),
        ((0.1, 0.15), "0.05"),
    ):  # float() would read them all
        with pytest.raises(TypeError, match="not a number"):
            IntensityGrid(mus, min_spacing)
    for min_spacing in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="min_spacing"):
            IntensityGrid((0.3, 0.2) if min_spacing == -1.0 else (0.1, 0.2), min_spacing)
    for mus in ((1e-160,), (1e-300, 0.2)):  # mu^2 would be subnormal or 0
        with pytest.raises(ValueError, match="normal float"):
            IntensityGrid(mus)
    IntensityGrid((1e-150, 0.2))
    IntensityGrid((0.1, 0.15), min_spacing=0.05)  # relaxed spacing is fine
    grid = IntensityGrid((0.1, 0.2, 0.5))
    assert grid.k == 3 and grid.signal == 0.5


def test_gamma_single_term_case():
    grid = IntensityGrid((0.1, 0.2))
    for n in (2, 5, 9):
        assert gamma_coefficient(2, n, grid) == pytest.approx(0.1 ** (n - 2), rel=1e-14)


def test_gamma_two_point_case_matches_difference_quotient():
    grid = IntensityGrid((0.1, 0.2))
    # (mu2^(n-2) - mu1^(n-2)) / (mu2 - mu1) at n = 3 is exactly 1
    assert gamma_coefficient(3, 3, grid) == pytest.approx(1.0, rel=1e-14)


def test_gamma_rejects_support_gap():
    grid = IntensityGrid((0.1, 0.2))
    with pytest.raises(ValueError):
        gamma_coefficient(3, 2, grid)
    with pytest.raises(ValueError):
        gamma_coefficient(5, 9, grid)  # i beyond k+1


def test_gamma_routes_agree():
    grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
    for i in (2, 3, 4):
        for n in range(i, 14):
            recur = gamma_coefficient(i, n, grid)
            direct = gamma_coefficient_direct(i, n, grid)
            closed = power_divided_difference(n - 2, PointSet(grid.mus[: i - 1]))
            assert direct == pytest.approx(recur, rel=1e-10, abs=1e-13)
            assert closed == pytest.approx(recur, rel=1e-10, abs=1e-13)


def test_gamma_simplex_integral_oracle():
    # gamma(4, 6) equals 1/2! times the simplex average of (n-2)!/(n-4)! y^(n-4)
    grid = IntensityGrid((0.1, 0.2, 0.3))
    n = 6
    est = simplex_mean_value_oracle(
        lambda y: (math.factorial(n - 2) / math.factorial(n - 4)) * y ** (n - 4),
        PointSet(grid.mus),
        samples=200_000,
        seed=11,
    )
    target = gamma_coefficient(4, n, grid)
    assert abs(est.estimate - target) <= 3.0 * max(est.standard_error, 1e-14)


@settings(max_examples=60, deadline=None)
@given(intensity_grids(max_k=8))
def test_gamma_nonnegative(grid):
    for i in range(2, grid.k + 2):
        for n in range(i, i + 12):
            assert gamma_coefficient(i, n, grid) >= 0.0


def test_omega2_closed_form():
    grid = IntensityGrid((0.1, 0.2))
    expected = (math.exp(0.1) - 1.0 - 0.1) / 0.1**2
    assert omega(2, grid) == pytest.approx(expected, rel=1e-12)


def test_omega3_closed_form():
    grid = IntensityGrid((0.1, 0.2))
    def g(x):
        return (math.exp(x) - 1.0 - x - x * x / 2.0) / (x * x)
    expected = (g(0.2) - g(0.1)) / (0.2 - 0.1)
    assert omega(3, grid) == pytest.approx(expected, rel=1e-12)
    assert omega_closed_form(3, grid) == pytest.approx(expected, rel=1e-12)


def test_omega45_closed_forms():
    grid = IntensityGrid((0.1, 0.2, 0.3, 0.4))
    for i in (4, 5):
        series = omega(i, grid)
        closed = omega_closed_form(i, grid)
        assert abs(series - closed) <= 1e-10 * max(1.0, abs(series))


def test_omega_matches_gamma_series():
    grid = IntensityGrid((0.15, 0.3, 0.55), min_spacing=0.05)
    for i in (2, 3, 4):
        partial = sum(gamma_coefficient(i, n, grid) / math.factorial(n) for n in range(i, 45))
        assert omega(i, grid) == pytest.approx(partial, rel=1e-12)


def test_omega_series_meets_its_tail_bound():
    # the production series stops once its tail is below DEFAULT_SERIES_TOL;
    # reference.epsilon at alpha = 1 sums the same Omega on its own, with a
    # relative stop near 1e-17, so the gap is the production tail plus rounding
    for base in (0.1, 0.5):
        for k in range(1, 11):
            grid = IntensityGrid([base * i for i in range(1, k + 1)])
            for j in range(1, k + 1):
                oracle = epsilon(j, 1.0, grid) / math.prod(grid.mus[:j])
                assert abs(oracle - omega(j + 1, grid)) <= DEFAULT_SERIES_TOL


def test_expansion_table_build():
    grid = IntensityGrid((0.1, 0.2, 0.3))
    table = ExpansionTable.build(grid)
    assert len(table.omegas) == grid.k
    for i in range(2, grid.k + 2):
        assert table.omegas[i - 2] == pytest.approx(omega(i, grid), rel=1e-12)
        assert table.gammas[(i, i)] == pytest.approx(gamma_coefficient(i, i, grid), rel=1e-12)
    # beta(j, 1..j) per order and e^(-mu_i) per intensity, kept out of the repr
    assert [len(row) for row in table.beta_rows] == [1, 2, 3]
    for j, row in enumerate(table.beta_rows, start=1):
        assert row == tuple(beta(j, i, grid) for i in range(1, j + 1))
    assert table.beta_rows[1] == pytest.approx((20.0 * math.exp(0.1), -5.0 * math.exp(0.2)))
    assert table.decays == tuple(math.exp(-mu) for mu in grid.mus)
    assert "beta_rows" not in repr(table) and "decays" not in repr(table)
    assert np.array_equal(table.constraint.p, build_matrices(grid).constraint.p)


def test_table_gammas_have_the_coefficient_bits():
    # the table builds one point set per basis index, gamma_coefficient one per call;
    # every stored gamma(i, n) must keep gamma_coefficient's bits
    rng = np.random.default_rng(31)
    for k in range(1, 11):
        grid = random_grid(rng, k)
        table = ExpansionTable.build(grid)
        keys = [(i, n) for i in range(2, k + 2) for n in range(i, DEFAULT_N_MAX + 1)]
        assert list(table.gammas) == keys
        for (i, n), value in table.gammas.items():
            assert value.hex() == gamma_coefficient(i, n, grid).hex()


def test_reconstruction_trivial_terms():
    grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
    coeffs = reconstruct_poisson(2, grid, n_max=1)
    assert coeffs[0] == pytest.approx(math.exp(-0.2), rel=1e-14)
    assert coeffs[1] == pytest.approx(0.2 * math.exp(-0.2), rel=1e-14)
    for i in (0, grid.k + 1):
        with pytest.raises(ValueError, match="intensity index out of range"):
            reconstruct_poisson(i, grid, n_max=1)


def test_reconstruction_matches_poisson():
    grid = IntensityGrid((0.1, 0.2, 0.35), min_spacing=0.05)
    coeffs = reconstruct_poisson(3, grid, n_max=12)
    mu = 0.35
    for n, value in enumerate(coeffs):
        expected = math.exp(-mu) * mu**n / math.factorial(n)
        assert value == pytest.approx(expected, rel=1e-9)


def test_constraint_matrix_k1_display():
    grid = IntensityGrid((0.1,))
    mats = build_matrices(grid)
    mu = 0.1
    om2 = omega(2, grid)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [math.exp(-mu), mu * math.exp(-mu), math.exp(-mu) * mu**2 * om2, 0.0],
            [math.exp(-mu), mu * math.exp(-mu), 0.0, math.exp(-mu) * mu**2 * om2],
        ]
    )
    assert np.allclose(mats.constraint.p, expected, rtol=1e-12, atol=1e-15)


def test_structural_matrices_k2_explicit():
    grid = IntensityGrid((0.1, 0.2))
    mats = build_matrices(grid)
    assert np.allclose(mats.a, [[1.0, 0.0], [1.0, 0.1]])
    assert np.allclose(mats.b, [[1.0, 0.0], [-10.0, 10.0]])
    assert np.allclose(mats.b @ mats.a, np.eye(2), atol=1e-14)


def test_constraint_matrix_k3_star_entry():
    grid = IntensityGrid((0.1, 0.2, 0.3))
    mats = build_matrices(grid)
    mu3 = 0.3
    # the mu3^2 factor is forced by the general block definition and by the
    # Poisson reconstruction identity
    star = math.exp(-mu3) * mu3**2 * (mu3 - 0.1) * (mu3 - 0.2) * omega(4, grid)
    assert mats.constraint.p[3, 4] == pytest.approx(star, rel=1e-12)
    assert mats.constraint.p[6, 7] == pytest.approx(star, rel=1e-12)
    # x block is lower triangular
    x = mats.constraint.x
    assert np.all(x[np.triu_indices_from(x, k=1)] == 0.0)


@settings(max_examples=40, deadline=None)
@given(intensity_grids(max_k=8))
def test_matrix_inverse_identities(grid):
    mats = build_matrices(grid)
    k = grid.k
    assert np.abs(mats.b @ mats.a - np.eye(k)).max() <= 1e-10
    assert np.abs(mats.c_inverse @ mats.c - np.eye(k)).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(intensity_grids(max_k=6))
def test_zero_row_sum_identity(grid):
    # sum over i in [l', l] of 1/prod_{t != i} (mu_i - mu_t) vanishes for l' < l
    mus = grid.mus
    for lo in range(len(mus)):
        for hi in range(lo + 1, len(mus)):
            window = mus[lo : hi + 1]
            total = 0.0
            for i, mu_i in enumerate(window):
                denom = 1.0
                for t, mu_t in enumerate(window):
                    if t != i:
                        denom *= mu_i - mu_t
                total += 1.0 / denom
            assert abs(total) <= 1e-7 * max(1.0 / abs(np.prod(np.diff(window))), 1.0)


def test_poisson_reconstruction_randomized():
    rng = np.random.default_rng(3)
    for k in (2, 4, 6):
        grid = random_grid(rng, k)
        for i in range(1, k + 1):
            mu = grid.mus[i - 1]
            coeffs = reconstruct_poisson(i, grid, n_max=20)
            for n, value in enumerate(coeffs):
                expected = math.exp(-mu) * mu**n / math.factorial(n)
                assert value == pytest.approx(expected, rel=1e-9)
