"""Asymptotic key-generation rates, intensity optimization, root finding.

Per transmitted pulse, with signal intensity mu, single-photon yield bound
q1, error-product bound b1, vacuum yield q0 (dark counts excluded) and the
signal pulse's own counting/error rates p_mu, s_mu:

    forward:  (1/2) [ mu e^-mu q1 (1 - hbar(b1/q1)) + e^-mu (q0 + pD)
                      - p_mu eta(s_mu) ]
    reverse:  (1/2) [ mu e^-mu q1 (1 - hbar(b1/q1)) + pD - p_mu eta(s_mu) ]

where hbar is the binary entropy saturated at 1 above 1/2 and eta is the
error-correction penalty (Shannon-limit codes: eta = hbar).  The two
directions differ only in how vacuum and dark events are credited:
reverse - forward = (pD - e^-mu (q0 + pD)) / 2.

The universal upper bound substitutes the perfectly estimated channel
parameters q1 = alpha + (p0 - pD), b1 = s alpha + (p0 - pD)/2; its optimal
signal intensity never exceeds 1 (the derivative at mu = 1 is non-positive
for any admissible parameter set), which justifies capping intensity
searches slightly above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import ChannelParams, counting_rate, error_rate

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_MU_CAP = 2.0
DEFAULT_COARSE_STEP = 0.01
DEFAULT_MU_TOL = 1e-6

Direction = str  # "forward" | "reverse"


def _check_direction(direction: str) -> None:
    if direction not in ("forward", "reverse"):
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")


def binary_entropy_bar(x):
    """Binary entropy saturated at its maximum: h(x) for x <= 1/2, else 1.

    Accepts scalars or arrays in [0, 1]; continuous at 1/2.  Values outside
    [0, 1] and NaN are rejected (the caller must clamp an error ratio above
    1, as the bound formulas may overshoot on noisy input).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("binary_entropy_bar requires finite arguments in [0, 1]")
    # h(1/2) = 1 exactly, which is also the saturated value above 1/2
    inner = np.where((arr > 0.0) & (arr < 0.5), arr, 0.5)
    entropy = -inner * np.log2(inner) - (1.0 - inner) * np.log2(1.0 - inner)
    result = np.where(arr == 0.0, 0.0, entropy)
    return float(result) if np.ndim(x) == 0 else result


def single_photon_credit(q1, b1):
    """q1 (1 - hbar(b1/q1)) with the conservative conventions.

    A non-positive yield bound contributes nothing; an error ratio at or
    above 1/2 saturates the entropy and likewise zeroes the term.
    Array-friendly in both arguments; non-finite input raises ValueError.
    """
    q = np.asarray(q1, dtype=float)
    b = np.asarray(b1, dtype=float)
    if not np.isfinite(q + b).all():
        raise ValueError("single_photon_credit requires finite q1 and b1")
    safe_q = np.where(q > 0.0, q, 1.0)
    ratio = np.minimum(np.maximum(b, 0.0) / safe_q, 1.0)
    credit = np.where(q > 0.0, q * (1.0 - binary_entropy_bar(ratio)), 0.0)
    if np.ndim(q1) == 0 and np.ndim(b1) == 0:
        return float(credit)
    return credit


@dataclass(frozen=True)
class RateInputs:
    """Everything the per-pulse rate formulas consume.

    q0 is the vacuum counting rate with dark counts excluded (estimated as
    p0 - pD); p_signal/s_signal are the signal pulse's own rates.  Any field
    may be a numpy array, e.g. one entry per trial signal intensity.
    """

    mu_signal: float
    q1: float
    b1: float
    q0: float
    p_signal: float
    s_signal: float
    pD: float = 0.0


def akg_rate(inputs: RateInputs, direction: Direction = "forward"):
    """Signed key rate (bits per pulse); negative values mean no key.

    Error correction is charged at the Shannon limit, eta = hbar.  The
    fields of ``inputs`` may be numpy arrays that broadcast together; the
    rate is a float for scalar inputs and an array otherwise.
    """
    _check_direction(direction)
    mu = inputs.mu_signal
    decay = np.exp(-mu)
    credit = single_photon_credit(inputs.q1, inputs.b1)
    penalty = inputs.p_signal * binary_entropy_bar(inputs.s_signal)
    if direction == "forward":
        vacuum_term = decay * (inputs.q0 + inputs.pD)
    else:
        vacuum_term = inputs.pD
    rate = 0.5 * (mu * decay * credit + vacuum_term - penalty)
    return float(rate) if np.ndim(rate) == 0 else rate


def universal_upper(
    mu: float,
    alpha: float,
    params: ChannelParams,
    direction: Direction = "forward",
    estimation_dark_rate: Optional[float] = None,
) -> float:
    """Key rate with perfectly known channel parameters (no decoy slack).

    Substitutes q1 = alpha + (p0 - pD_est), b1 = s alpha + (p0 - pD_est)/2
    and the model p(mu), s(mu).  ``estimation_dark_rate`` is the dark rate
    assumed inside those estimated arguments and defaults to the physical
    ``params.pD``; passing 0.0 reproduces the convention where every click
    is attributed to the channel during estimation while dark counts still
    enter the additive rate term.
    """
    pd_est = params.pD if estimation_dark_rate is None else float(estimation_dark_rate)
    dark_gap = params.p0 - pd_est
    inputs = RateInputs(
        mu_signal=mu,
        q1=alpha + dark_gap,
        b1=params.s * alpha + 0.5 * dark_gap,
        q0=params.p0 - params.pD,
        p_signal=float(counting_rate(mu, alpha, params)),
        s_signal=float(error_rate(mu, alpha, params)),
        pD=params.pD,
    )
    return akg_rate(inputs, direction)


def _golden_section_max(
    fn: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    invphi = GOLDEN_RATIO_CONJUGATE
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def optimize_signal_intensity(
    rate_fn: Callable[[float], float],
    mu_lower: float,
    mu_cap: float = DEFAULT_MU_CAP,
    coarse_step: float = DEFAULT_COARSE_STEP,
    tol: float = DEFAULT_MU_TOL,
    vector_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[float, float]:
    """Maximize a rate over signal intensities in (mu_lower, mu_cap].

    Coarse grid scan (step ``coarse_step``) followed by golden-section
    refinement of the best bracket.  ``vector_fn``, when given, evaluates
    the whole coarse grid in one call.  The best point is returned even when
    the rate is negative everywhere, which distance root finding relies on.
    """
    if mu_lower <= 0.0:
        raise ValueError("mu_lower must be positive")
    if mu_cap <= mu_lower:
        raise ValueError("mu_cap must exceed mu_lower")
    grid = np.arange(mu_lower + coarse_step, mu_cap + 0.5 * coarse_step, coarse_step)
    if grid.size == 0:
        grid = np.array([0.5 * (mu_lower + mu_cap)])
    values = vector_fn(grid) if vector_fn is not None else np.array([rate_fn(m) for m in grid])
    best = int(np.argmax(values))
    lo = grid[best - 1] if best > 0 else max(mu_lower + 0.25 * tol, grid[0] - coarse_step)
    hi = grid[best + 1] if best < grid.size - 1 else mu_cap
    mu_opt, rate_opt = _golden_section_max(rate_fn, float(lo), float(hi), tol)
    # the bracket interior can lose to the best grid point in flat regions
    if values[best] > rate_opt:
        return float(grid[best]), float(values[best])
    return mu_opt, rate_opt


def find_zero_distance(
    envelope: Callable[[float], float],
    l_min: float = 0.0,
    l_max: float = 240.0,
    coarse_step: float = 1.0,
    tol_km: float = 0.01,
) -> Optional[float]:
    """Largest distance with a positive envelope value, to ``tol_km``.

    Scans [l_min, l_max] at ``coarse_step``, then bisects the last
    positive-to-nonpositive bracket.  Returns 0.0 when the envelope is never
    positive and None when it is still positive at the end of the scan
    (beyond range: the caller should widen it).
    """
    grid = np.arange(l_min, l_max + 0.5 * coarse_step, coarse_step)
    values = [envelope(float(l)) for l in grid]
    positive = [v > 0.0 for v in values]
    if not any(positive):
        return 0.0
    last_pos = max(i for i, flag in enumerate(positive) if flag)
    if last_pos == len(grid) - 1:
        return None
    lo, hi = float(grid[last_pos]), float(grid[last_pos + 1])
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if envelope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Finite-difference audit of the universal-bound intensity optimum."""

    rows: tuple[tuple[float, float, float], ...]  # (alpha, d_forward, d_reverse)
    tolerance: float
    all_nonpositive: bool

    def to_text(self) -> str:
        lines = ["alpha           dI/dmu fwd      dI/dmu rev"]
        for alpha, dfwd, drev in self.rows:
            lines.append(f"{alpha:<15.6e} {dfwd:<15.6e} {drev:<15.6e}")
        verdict = "OK" if self.all_nonpositive else "VIOLATION"
        lines.append(f"all non-positive within {self.tolerance:g}: {verdict}")
        return "\n".join(lines)


def optimal_mu_derivative_check(
    params: ChannelParams,
    alpha_grid,
    step: float = 1e-6,
    tolerance: float = 1e-12,
) -> DerivativeCheckReport:
    """Check d(universal rate)/d mu <= 0 at mu = 1 across channel strengths.

    Central finite differences with the given step; the sign property is what
    confines the optimal signal intensity of the universal bounds to (0, 1].
    """
    rows = []
    ok = True
    for alpha in alpha_grid:
        derivs = []
        for direction in ("forward", "reverse"):
            hi = universal_upper(1.0 + step, alpha, params, direction)
            lo = universal_upper(1.0 - step, alpha, params, direction)
            derivs.append((hi - lo) / (2.0 * step))
        rows.append((float(alpha), derivs[0], derivs[1]))
        if derivs[0] > tolerance or derivs[1] > tolerance:
            ok = False
    return DerivativeCheckReport(rows=tuple(rows), tolerance=tolerance, all_nonpositive=ok)
