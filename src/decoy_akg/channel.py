"""Fiber/detector noise model and its closed-form bound evaluations.

The channel is summarized by a single-photon transmission probability
alpha = theta * 10^(-(a1 L + a0)/10) over L km of fiber, a vacuum counting
rate p0, a dark-count rate pD <= p0, and a single-photon error rate s.
An intensity-mu pulse then counts with probability p(mu) = 1 - e^(-alpha mu)
+ p0 and errs with rate s(mu) = (s (1 - e^(-alpha mu)) + p0/2) / p(mu),
which follows from per-photon-number detection probability
1 - (1 - alpha)^n + p0.

The residual of the order-j bound inversion on this model is captured by

    eps_j(alpha) = (-1)^(j-1) (sum_i beta(j, i)(1 - e^(-alpha mu_i)) - alpha)
                 = mu_1..mu_j sum_{n>j} (1 - (1-alpha)^n)/n! *
                   h_(n-1-j)(mu_1..mu_j)            (h: homogeneous sums)

which is non-negative, monotone in alpha and in every intensity, and at
alpha = 1 equals mu_1..mu_j Omega_(j+1).  With it the order-j bounds on
model statistics collapse to closed forms in (alpha, p0, pD, s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ObservedStats, _check_order, beta
from .divided_diff import MonteCarloEstimate, PointSet, h_series, simplex_mean_value_oracle
from .expansion import IntensityGrid

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ChannelParams:
    """Fiber and detector parameters.

    theta: detector efficiency; a0: detector loss (dB); a1: fiber loss
    (dB/km); p0: vacuum counting rate; pD: dark-count rate (pD <= p0);
    s: single-photon error rate, at most 1/2.
    """

    theta: float
    a0: float
    a1: float
    p0: float
    pD: float
    s: float

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if not (0.0 <= self.a0 < math.inf and 0.0 <= self.a1 < math.inf):
            raise ValueError("loss coefficients must be finite and non-negative")
        if not 0.0 <= self.pD <= self.p0 <= 1.0:
            raise ValueError("rates must satisfy 0 <= pD <= p0 <= 1")
        if not 0.0 <= self.s <= 0.5:
            raise ValueError("single-photon error rate must lie in [0, 1/2]")


# Telecom-fiber reference set: lowest-loss commercial fiber at 0.17 dB/km,
# 5 dB detector loss, 10% efficiency, 4e-7 vacuum counts, 3% intrinsic error.
STANDARD_FIBER = ChannelParams(theta=0.1, a0=5.0, a1=0.17, p0=4.0e-7, pD=0.0, s=0.03)


def alpha_of_distance(length_km: float, params: ChannelParams) -> float:
    """Single-photon transmission theta * 10^(-(a1 L + a0)/10)."""
    if not 0.0 <= length_km < math.inf:
        raise ValueError(f"distance must be finite and non-negative; got {length_km}")
    return params.theta * 10.0 ** (-(params.a1 * length_km + params.a0) / 10.0)


def _transmitted(alpha, mu):
    """1 - e^(-alpha mu), without cancellation for small alpha mu (the model's signal part)."""
    return -np.expm1(-alpha * mu)


def _model_rates(signal, params: ChannelParams):
    """(p(mu), s(mu)) from the transmitted fraction ``signal`` = 1 - e^(-alpha mu).

    The one implementation of both model rates, for a float or an array.
    With p0 = 0 and a transmission that underflows, p(mu) is 0 and s(mu)
    would be 0/0; the floored denominator makes it 0 (its weight p(mu) is 0).
    """
    p = signal + params.p0
    return p, (params.s * signal + 0.5 * params.p0) / np.maximum(p, _TINY)


def counting_rate(mu, alpha: float, params: ChannelParams):
    """Model counting rate p(mu) = 1 - e^(-alpha mu) + p0 (array-friendly)."""
    return _model_rates(_transmitted(alpha, np.asarray(mu, dtype=float)), params)[0]


def error_rate(mu, alpha: float, params: ChannelParams):
    """Model error rate s(mu); dark/vacuum counts err half the time (0 where nothing clicks)."""
    return _model_rates(_transmitted(alpha, np.asarray(mu, dtype=float)), params)[1]


def model_stats(grid: IntensityGrid, alpha: float, params: ChannelParams) -> ObservedStats:
    """Observed statistics the noise model predicts for a grid of intensities.

    Counting rates are basis independent, so both basis blocks coincide.
    One array pass over the intensities computes each transmission once, for
    both of its rates; numpy's array ufuncs give the bits of their scalar
    calls, so each rate is the per-intensity ``_model_rates`` value as a float.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p, s = _model_rates(_transmitted(alpha, np.array(grid.mus)), params)
    return ObservedStats.symmetric(params.p0, p.tolist(), s.tolist(), p_dark=params.pD)


def per_photon_rates(n: int, alpha: float, params: ChannelParams) -> tuple[float, float]:
    """Detection and error probability of the n-photon Fock state.

    Synthetic-stats generator for tests: Poisson-mixing these over n
    reproduces ``counting_rate``/``error_rate`` exactly, including an error
    rate of 0 where nothing clicks.  Not used at runtime.
    """
    signal = _one_minus_decay_pow(alpha, n)
    detect = signal + params.p0
    return detect, float((params.s * signal + 0.5 * params.p0) / max(detect, _TINY))


def _one_minus_decay_pow(alpha: float, n: int) -> float:
    """1 - (1 - alpha)^n without cancellation for small alpha."""
    if alpha >= 1.0:
        return 0.0 if n == 0 else 1.0
    return -math.expm1(n * math.log1p(-alpha))


def epsilon(j: int, alpha: float, grid: IntensityGrid) -> float:
    """Series evaluation of eps_j(alpha) over the first j intensities.

    Sums mu_1..mu_j * (1 - (1-alpha)^n) h_(n-1-j)(mu) / n! for n > j until
    the majorant tail drops below ``DEFAULT_SERIES_TOL``
    (``divided_diff.h_series`` with weight 1 - (1-alpha)^n).  All terms are
    non-negative, so the sum is cancellation free; the companion beta form
    (:func:`epsilon_beta_form`) and a Monte-Carlo simplex form
    (:func:`epsilon_simplex_mc`) serve as independent cross-checks.
    """
    _check_order(j, grid.k)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0:
        return 0.0
    mus = grid.mus[:j]
    return math.prod(mus) * h_series(mus, lambda n: _one_minus_decay_pow(alpha, n))


def epsilon_beta_form(j: int, alpha: float, grid: IntensityGrid) -> float:
    """Finite-sum form (-1)^(j-1) (sum_i beta(j,i)(1 - e^(-alpha mu_i)) - alpha)."""
    _check_order(j, grid.k)
    total = 0.0
    for i in range(1, j + 1):
        total += beta(j, i, grid) * (-math.expm1(-alpha * grid.mus[i - 1]))
    sign = -1.0 if j % 2 == 0 else 1.0
    return sign * (total - alpha)


def epsilon_simplex_mc(
    j: int,
    alpha: float,
    grid: IntensityGrid,
    samples: int = 10**6,
    seed: int | np.random.Generator | None = 0,
) -> MonteCarloEstimate:
    """Monte-Carlo simplex-integral form of eps_j(alpha); test oracle.

    Estimates mu_1..mu_j/(j-1)! times the simplex average of

        g(y) = sum_{n>=0} (1 - (1-alpha)^(n+j+1)) / ((n+j+1)(n+j) n!) * y^n

    at y = sum a_i mu_i with a uniform on the (j-1)-simplex, through
    :func:`~decoy_akg.divided_diff.simplex_mean_value_oracle`.
    """
    _check_order(j, grid.k)

    def g(y: np.ndarray) -> np.ndarray:
        values = np.zeros_like(y)
        term = np.ones_like(y)  # y^n / n!
        n = 0
        while True:
            coeff = _one_minus_decay_pow(alpha, n + j + 1) / ((n + j + 1) * (n + j))
            values += coeff * term
            n += 1
            term *= y / n
            if n > 4 and float(term.max()) / ((n + j + 1) * (n + j)) < 1e-18:
                return values

    mus = grid.mus[:j]
    estimate, stderr = simplex_mean_value_oracle(g, PointSet(mus), samples, seed)
    return MonteCarloEstimate(math.prod(mus) * estimate, math.prod(mus) * stderr)


def closed_form_bounds(
    j: int, alpha: float, grid: IntensityGrid, params: ChannelParams
) -> tuple[float, float]:
    """(q_j_min, b_j_max) evaluated on model statistics, in closed form.

    Algebraically identical to feeding ``model_stats`` through the bound
    formulas; kept as an independent computation path:

        odd j:  q = alpha + (p0-pD) + eps_a - (1-p0) eps_1
                b = s alpha + (p0-pD)/2 + s eps_a + (p0-pD)/2 eps_1
        even j: q = alpha + (p0-pD) - eps_a - (p0-pD) eps_1
                b = s alpha + (p0-pD)/2 - s eps_a + (1 - (p0+pD)/2) eps_1
    """
    eps_a = epsilon(j, alpha, grid)
    eps_1 = epsilon(j, 1.0, grid)
    p0, pd, s = params.p0, params.pD, params.s
    dark_gap = p0 - pd
    if j % 2 == 1:
        q = alpha + dark_gap + eps_a - (1.0 - p0) * eps_1
        b = s * alpha + 0.5 * dark_gap + s * eps_a + 0.5 * dark_gap * eps_1
    else:
        q = alpha + dark_gap - eps_a - dark_gap * eps_1
        b = s * alpha + 0.5 * dark_gap - s * eps_a + (1.0 - 0.5 * (p0 + pd)) * eps_1
    return q, b
