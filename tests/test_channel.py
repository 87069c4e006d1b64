import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from decoy_akg import (
    STANDARD_FIBER,
    ChannelParams,
    ExpansionTable,
    IntensityGrid,
    aggregate,
    alpha_of_distance,
    counting_rate,
    error_rate,
    model_stats,
    omega,
)
from decoy_akg.channel import _model_rates, _transmitted
from decoy_akg.reference import (
    closed_form_bounds,
    epsilon,
    epsilon_beta_form,
    epsilon_simplex_mc,
    per_photon_rates,
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
    for length in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            alpha_of_distance(length, five_db)


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


def _literal_rates(mu, alpha, params):
    """p(mu) and s(mu) written out: 1 - e^(-alpha mu) + p0 and (s (1 - e^(-alpha mu)) + p0/2) / p."""
    signal = -np.expm1(-alpha * np.asarray(mu, dtype=float))
    tiny = np.finfo(float).tiny
    return signal + params.p0, (params.s * signal + 0.5 * params.p0) / np.maximum(signal + params.p0, tiny)


def _same_bits(x, y) -> bool:
    return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("params", [STANDARD_FIBER, replace(STANDARD_FIBER, s=0.135, p0=9.8e-4)])
def test_model_rates_from_one_transmission(params):
    # one transmission gives the bits of counting_rate and error_rate, and of
    # their formulas written out, for every trial-signal form the engine uses
    alphas = np.array([alpha_of_distance(length, params) for length in (0.0, 97.3, 241.5)])
    grid = np.arange(0.21, 2.0, 0.01)
    cases = [(0.47, alphas[1]), (np.float64(0.47), alphas[1]), (np.asarray(0.47), alphas[1])]
    cases += [(np.float64(0.47), alphas[1:2].reshape(())), (grid, alphas[0])]
    cases += [(np.array([0.3, 0.5, 0.8]), alphas), (grid[:, None], alphas)]
    for mu, alpha in cases:
        p, s = _model_rates(_transmitted(alpha, mu), params)
        literal = _literal_rates(mu, alpha, params)
        for helper, public, written in zip((p, s), (counting_rate, error_rate), literal):
            assert _same_bits(helper, public(mu, alpha, params))
            assert _same_bits(helper, written)
    # model_stats takes both rates of an intensity from its one transmission
    stats_grid = IntensityGrid((0.1, 0.2, 0.5))
    for alpha in (alphas[1], float(alphas[2])):
        stats = model_stats(stats_grid, alpha, params)
        for mu, p_i, s_i in zip(stats_grid.mus, stats.p[1 : 1 + stats.k], stats.s, strict=True):
            assert (p_i, s_i) == tuple(map(float, _literal_rates(mu, alpha, params)))
    # p0 = 0 and a transmission that underflows: nothing clicks, so s(mu) = 0
    dark = ChannelParams(theta=0.1, a0=4000.0, a1=0.17, p0=0.0, pD=0.0, s=0.03)
    alpha = alpha_of_distance(0.0, dark)
    with np.errstate(all="raise"):
        for mu in (0.5, np.float64(0.5), grid):
            p, s = _model_rates(_transmitted(alpha, mu), dark)
            assert np.all(p == 0.0) and np.all(s == 0.0)


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
    for bad in (0.0, 1.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            model_stats(grid, bad, params)


@pytest.mark.parametrize("params", [STANDARD_FIBER, replace(STANDARD_FIBER, p0=9.8e-4, pD=4e-4)])
def test_model_stats_are_the_per_intensity_rates(params):
    # one array pass gives, as floats, the bits of each intensity's own _model_rates call
    rng = np.random.default_rng(37)
    for k in range(1, 11):
        grid = random_grid(rng, k)
        alpha = alpha_of_distance(float(rng.uniform(0.0, 250.0)), params)
        for a in (alpha, np.float64(alpha)):
            stats = model_stats(grid, a, params)
            assert stats.p[k + 1 :] == stats.p[1 : k + 1]
            for mu, p_i, s_i in zip(grid.mus, stats.p[1 : k + 1], stats.s, strict=True):
                p, s = _model_rates(_transmitted(a, mu), params)
                assert type(p_i) is float and type(s_i) is float
                assert (p_i.hex(), s_i.hex()) == (float(p).hex(), float(s).hex())
    # p0 = 0 and a transmission that underflows: nothing clicks, so p = s = 0, with
    # no division, overflow or invalid-value warning
    dark = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=0.0, pD=0.0, s=0.03)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        stats = model_stats(IntensityGrid((0.1, 0.2, 0.5)), 5e-324, dark)
    assert stats.p == (0.0,) * 7 and stats.s == (0.0,) * 3


def test_per_photon_mixture_reproduces_pulse_rates():
    # 1e-6 and 1e-12 are the transmissions of long fibers (about 2.6e-6 at 240 km)
    mu = 0.45
    for alpha, p0 in itertools.product((3.1e-3, 1e-6, 1e-12), (4e-7, 0.0)):
        params = replace(STANDARD_FIBER, p0=p0)
        p_total = 0.0
        err_total = 0.0
        for n in range(0, 80):
            weight = math.exp(-mu) * mu**n / math.factorial(n)
            detect, err = per_photon_rates(n, alpha, params)
            p_total += weight * detect
            err_total += weight * detect * err
        expected_err = float(error_rate(mu, alpha, params))
        assert p_total == pytest.approx(float(counting_rate(mu, alpha, params)), rel=1e-12)
        assert err_total / p_total == pytest.approx(expected_err, rel=1e-12)
        # 1 - (1 - alpha)^0 is 0 at alpha = 1 too; a state that never clicks errs at rate 0
        assert per_photon_rates(0, 1.0, params) == (p0, 0.5 if p0 else 0.0)


def test_epsilon_zero_alpha():
    grid = IntensityGrid((0.1, 0.2, 0.3))
    for j in (1, 2, 3):
        assert epsilon(j, 0.0, grid) == 0.0
    for bad in (-1e-3, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            epsilon(1, bad, grid)


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
        agg = aggregate(model_stats(grid, alpha, params), grid, table)
        for j in range(1, k + 1):
            q_closed, b_closed = closed_form_bounds(j, alpha, grid, params)
            q_path, b_path = agg.q_j_min[j - 1], agg.b_j_max[j - 1]
            assert abs(q_closed - q_path) <= 1e-10 * max(1.0, abs(q_closed))
            assert abs(b_closed - b_path) <= 1e-10 * max(1.0, abs(b_closed))
            # both bases coincide on the symmetric model
            assert agg.q_kj_min[j - 1] == pytest.approx(q_path, rel=1e-12, abs=1e-18)


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
