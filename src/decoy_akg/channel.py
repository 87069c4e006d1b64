"""Fiber/detector noise model and the statistics it predicts.

The channel is summarized by a single-photon transmission probability
alpha = theta * 10^(-(a1 L + a0)/10) over L km of fiber, a vacuum counting
rate p0, a dark-count rate pD <= p0, and a single-photon error rate s.
An intensity-mu pulse then counts with probability p(mu) = 1 - e^(-alpha mu)
+ p0 and errs with rate s(mu) = (s (1 - e^(-alpha mu)) + p0/2) / p(mu),
which follows from per-photon-number detection probability
1 - (1 - alpha)^n + p0.

The eps_j residual of the order-j bound inversion on this model, and the
closed-form bounds built from it, are verification routes in
:mod:`decoy_akg.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ObservedStats
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
