import math

import numpy as np
import pytest

from decoy_akg import (
    STANDARD_FIBER,
    ChannelParams,
    ExpansionTable,
    IntensityGrid,
    alpha_of_distance,
    b_j_max,
    closed_form_bounds,
    counting_rate,
    epsilon,
    epsilon_beta_form,
    epsilon_simplex_mc,
    error_rate,
    model_stats,
    omega,
    per_photon_rates,
    q_j_min,
)
from conftest import random_grid


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(theta=0.0, a0=5, a1=0.17, p0=4e-7, pD=0.0, s=0.03)
    with pytest.raises(ValueError):
        ChannelParams(theta=0.1, a0=5, a1=0.17, p0=1e-7, pD=2e-7, s=0.03)  # pD > p0
    with pytest.raises(ValueError):
        ChannelParams(theta=0.1, a0=5, a1=0.17, p0=4e-7, pD=0.0, s=0.6)  # s > 1/2


def test_alpha_of_distance():
    params = ChannelParams(theta=0.1, a0=0.0, a1=0.17, p0=4e-7, pD=0.0, s=0.03)
    assert alpha_of_distance(0.0, params) == pytest.approx(0.1, rel=1e-14)
    five_db = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=4e-7, pD=0.0, s=0.03)
    assert alpha_of_distance(100.0, five_db) == pytest.approx(0.1 * 10 ** (-2.2), rel=1e-13)
    assert alpha_of_distance(50.0, five_db) > alpha_of_distance(51.0, five_db)
    with pytest.raises(ValueError):
        alpha_of_distance(-1.0, five_db)


def test_vacuum_and_signal_limits():
    params = STANDARD_FIBER
    # vacuum limit: only background counts, fully random errors
    assert counting_rate(0.0, 1e-3, params) == pytest.approx(params.p0, rel=1e-12)
    assert error_rate(0.0, 1e-3, params) == pytest.approx(0.5, rel=1e-12)
    # strong signal limit with no background: errors approach the intrinsic rate
    clean = ChannelParams(theta=0.9, a0=0.0, a1=0.0, p0=0.0, pD=0.0, s=0.03)
    assert error_rate(2000.0, 0.9, clean) == pytest.approx(0.03, rel=1e-9)


def test_error_rate_without_clicks_is_zero():
    # p0 = 0 and a transmission that underflows to 0: s(mu) would be 0/0
    dark = ChannelParams(theta=0.1, a0=4000.0, a1=0.17, p0=0.0, pD=0.0, s=0.03)
    alpha = alpha_of_distance(0.0, dark)
    assert alpha == 0.0
    assert error_rate(0.5, alpha, dark) == 0.0
    rates = error_rate(np.array([0.3, 0.5]), alpha, dark)
    assert np.all(np.isfinite(rates)) and np.all(rates == 0.0)


def test_model_stats_layout():
    grid = IntensityGrid((0.1, 0.2, 0.5))
    alpha = 6.3e-4
    params = ChannelParams(theta=0.1, a0=5, a1=0.17, p0=4e-7, pD=4e-7, s=0.03)
    stats = model_stats(grid, alpha, params)
    assert stats.p[0] == params.p0
    assert stats.p_dark == params.pD
    for i, mu in enumerate(grid.mus, start=1):
        expected_p = 1.0 - math.exp(-alpha * mu) + params.p0
        assert stats.p[i] == pytest.approx(expected_p, rel=1e-12)
        assert stats.p[i + grid.k] == stats.p[i]
        expected_s = (params.s * (1.0 - math.exp(-alpha * mu)) + 0.5 * params.p0) / expected_p
        assert stats.s[i - 1] == pytest.approx(expected_s, rel=1e-12)


def test_per_photon_mixture_reproduces_pulse_rates():
    params = STANDARD_FIBER
    alpha, mu = 3.1e-3, 0.45
    p_total = 0.0
    err_total = 0.0
    for n in range(0, 80):
        weight = math.exp(-mu) * mu**n / math.factorial(n)
        detect, err = per_photon_rates(n, alpha, params)
        p_total += weight * detect
        err_total += weight * detect * err
    assert p_total == pytest.approx(float(counting_rate(mu, alpha, params)), rel=1e-12)
    assert err_total / p_total == pytest.approx(float(error_rate(mu, alpha, params)), rel=1e-12)


def test_epsilon_zero_alpha():
    grid = IntensityGrid((0.1, 0.2, 0.3))
    for j in (1, 2, 3):
        assert epsilon(j, 0.0, grid) == 0.0


def test_epsilon_alpha_one_is_omega_product(table_cache):
    grid = IntensityGrid((0.1, 0.2, 0.3, 0.4))
    for j in (1, 2, 3, 4):
        product = math.prod(grid.mus[:j]) * omega(j + 1, grid)
        assert abs(epsilon(j, 1.0, grid) - product) <= 1e-10 * max(1.0, product)


def test_epsilon_series_vs_beta_form():
    rng = np.random.default_rng(13)
    for trial in range(25):
        k = int(rng.integers(1, 5))
        grid = random_grid(rng, k)
        alpha = float(rng.choice([1e-6, 1e-4, 0.01, 0.3, 1.0]))
        for j in range(1, k + 1):
            series = epsilon(j, alpha, grid)
            finite = epsilon_beta_form(j, alpha, grid)
            assert abs(series - finite) <= 1e-12 * max(1.0, abs(series))
            assert series >= 0.0


def test_epsilon_monotone_in_alpha_and_intensities():
    rng = np.random.default_rng(19)
    grid = IntensityGrid((0.1, 0.25, 0.45), min_spacing=0.05)
    alphas = np.linspace(1e-4, 0.9, 12)
    for j in (1, 2, 3):
        values = [epsilon(j, float(a), grid) for a in alphas]
        assert all(b >= a - 1e-16 for a, b in zip(values, values[1:]))
    # raise one intensity at a time; epsilon must not decrease
    for idx in range(3):
        mus = list(grid.mus)
        mus[idx] += 0.02
        bumped = IntensityGrid(tuple(mus), min_spacing=0.02)
        for j in range(idx + 1, 4):
            assert epsilon(j, 0.2, bumped) >= epsilon(j, 0.2, grid) - 1e-16


def test_epsilon_monte_carlo_form():
    grid = IntensityGrid((0.1, 0.2, 0.3, 0.4))
    for j, alpha in ((1, 0.05), (2, 0.2), (3, 0.7)):
        est = epsilon_simplex_mc(j, alpha, grid, samples=120_000, seed=j)
        target = epsilon(j, alpha, grid)
        assert abs(est.estimate - target) <= 3.0 * max(est.standard_error, 1e-15)


def test_closed_forms_match_bound_pipeline():
    rng = np.random.default_rng(37)
    for trial in range(15):
        k = int(rng.integers(1, 5))
        grid = random_grid(rng, k)
        table = ExpansionTable.build(grid)
        p0 = float(rng.uniform(1e-7, 1e-4))
        params = ChannelParams(
            theta=0.2,
            a0=3.0,
            a1=0.2,
            p0=p0,
            pD=float(rng.uniform(0.0, p0)),
            s=float(rng.uniform(0.0, 0.2)),
        )
        alpha = float(rng.uniform(1e-6, 0.05))
        stats = model_stats(grid, alpha, params)
        for j in range(1, k + 1):
            q_closed, b_closed = closed_form_bounds(j, alpha, grid, params)
            q_path = q_j_min(j, stats, grid, table)
            b_path = b_j_max(j, stats, grid, table)
            assert abs(q_closed - q_path) <= 1e-10 * max(1.0, abs(q_closed))
            assert abs(b_closed - b_path) <= 1e-10 * max(1.0, abs(b_closed))
            # both bases coincide on the symmetric model
            assert q_j_min(j, stats, grid, table, plus_basis=True) == pytest.approx(
                q_path, rel=1e-12, abs=1e-18
            )


def test_dark_free_closed_forms_have_published_shape():
    # with p0 = pD = 0: q = alpha +- eps_alpha - [odd] eps_1, b = s(alpha +- eps_alpha)
    grid = IntensityGrid((0.1, 0.2, 0.3))
    params = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=0.0, pD=0.0, s=0.03)
    alpha = 2e-3
    for j in (1, 2, 3):
        eps_a = epsilon(j, alpha, grid)
        eps_1 = epsilon(j, 1.0, grid)
        q, b = closed_form_bounds(j, alpha, grid, params)
        sign = 1.0 if j % 2 == 1 else -1.0
        expected_q = alpha + sign * eps_a - (eps_1 if j % 2 == 1 else 0.0)
        expected_b = params.s * (alpha + sign * eps_a) + (eps_1 if j % 2 == 0 else 0.0)
        assert q == pytest.approx(expected_q, rel=1e-12, abs=1e-18)
        assert b == pytest.approx(expected_b, rel=1e-12, abs=1e-18)


def test_small_first_intensity_removes_the_slack():
    # as mu_1 -> 0 the order-1 slack eps_1 ~ mu_1/2 vanishes and the bound
    # approaches the perfectly estimated q^1 = alpha + (p0 - pD)
    params = STANDARD_FIBER
    alpha = 1e-3
    target_q = alpha + params.p0 - params.pD
    target_b = params.s * alpha + 0.5 * (params.p0 - params.pD)
    previous = math.inf
    for mu1 in (1e-3, 1e-5, 1e-7):
        grid = IntensityGrid((mu1, 0.2), min_spacing=1e-8)
        q, b = closed_form_bounds(1, alpha, grid, params)
        deviation = abs(q - target_q)
        assert deviation <= 0.6 * mu1 * (1.0 + 1e-6)
        assert deviation <= previous
        assert abs(b - target_b) <= 0.6 * mu1
        previous = deviation
