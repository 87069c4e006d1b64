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
for any admissible parameter set).  The intensity searches stop at
DEFAULT_MU_CAP = 2.0, above that proven optimum; the decoy estimators have
no such proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channel import ChannelParams, counting_rate, error_rate

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_MU_CAP = 2.0
DEFAULT_COARSE_STEP = 0.01
DEFAULT_MU_TOL = 1e-6
DISTANCE_TOL_KM = 0.01

Direction = str  # one of DIRECTIONS
DIRECTIONS = ("forward", "reverse")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")


def _entropy(p):
    """h(p) = -p log2 p - (1 - p) log2(1 - p) for p in (0, 1/2], a float or an array."""
    return -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)


def binary_entropy_bar(x):
    """Binary entropy saturated at its maximum: h(x) for x <= 1/2, else 1.

    Accepts scalars or arrays in [0, 1]; continuous at 1/2.  Values outside
    [0, 1] and NaN are rejected (the caller must clamp an error ratio above
    1, as the bound formulas may overshoot on noisy input).  A float (numpy's
    too) takes a float path with the array path's ufuncs, so the same bits.
    """
    if isinstance(x, float):
        if not 0.0 <= x <= 1.0:
            raise ValueError("binary_entropy_bar requires finite arguments in [0, 1]")
        # h(1/2) = 1 exactly, which is also the saturated value above 1/2
        return float(_entropy(min(x, 0.5))) if x > 0.0 else 0.0
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("binary_entropy_bar requires finite arguments in [0, 1]")
    result = np.where(arr == 0.0, 0.0, _entropy(np.where((arr > 0.0) & (arr < 0.5), arr, 0.5)))
    return float(result) if np.ndim(x) == 0 else result


def _credit(q, b):
    """q (1 - hbar(b/q)) for q > 0 and 0 <= b <= q, a float or an array."""
    return q * (1.0 - binary_entropy_bar(b / q))


def single_photon_credit(q1, b1):
    """q1 (1 - hbar(b1/q1)) with the conservative conventions.

    A non-positive yield bound contributes nothing; an error ratio at or
    above 1/2 saturates the entropy and likewise zeroes the term; b1 is
    capped at q1 before dividing, so b1/q1 cannot overflow.  Array-friendly,
    with a float path for two floats; non-finite input raises ValueError.
    """
    if isinstance(q1, float) and isinstance(b1, float):
        if not (math.isfinite(q1) and math.isfinite(b1)):
            raise ValueError("single_photon_credit requires finite q1 and b1")
        safe_q = q1 if q1 > 0.0 else 1.0
        credit = _credit(safe_q, min(max(b1, 0.0), safe_q))
        return float(credit) if q1 > 0.0 else 0.0
    q = np.asarray(q1, dtype=float)
    b = np.asarray(b1, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(b).all()):
        raise ValueError("single_photon_credit requires finite q1 and b1")
    safe_q = np.where(q > 0.0, q, 1.0)
    credit = np.where(q > 0.0, _credit(safe_q, np.minimum(np.maximum(b, 0.0), safe_q)), 0.0)
    return float(credit) if np.ndim(q1) == 0 and np.ndim(b1) == 0 else credit


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


def _pick(cond, x, y):
    """``np.where(cond, x, y)`` for an array ``cond``, a plain choice for one truth value."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _golden_section_max(fn: Callable, lo, hi, tol: float):
    """Golden-section maxima of ``fn`` on every bracket [lo, hi] at once.

    ``lo`` and ``hi`` are arrays of brackets, one per lane, or two floats
    for one lane, which the search then narrows in floats; ``fn`` maps trial
    points of that shape to the rates there.  Each lane narrows its own
    bracket while it is wider than ``tol``; a lane that is done keeps its
    bracket while the others go on.
    """
    invphi = GOLDEN_RATIO_CONJUGATE
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    active = b - a > tol
    while active.any() if isinstance(active, np.ndarray) else active:
        left = fc >= fd  # the maximum is in [a, d]
        # a lane that is done keeps its bracket; its inner points no longer matter
        a = _pick(left, a, _pick(active, c, a))
        b = _pick(left, _pick(active, d, b), b)
        width = b - a
        step = invphi * width
        x = _pick(left, b - step, a + step)
        fx = fn(x)
        # c stays on as the new d on the left, d as the new c on the right
        c, d = _pick(left, x, d), _pick(left, c, x)
        fc, fd = _pick(left, fx, fd), _pick(left, fc, fx)
        active = width > tol
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def optimize_lanes(
    rate_fn: Callable[[np.ndarray], np.ndarray],
    grid_fn: Callable[[np.ndarray], np.ndarray],
    mu_lower: float,
    mu_cap: float = DEFAULT_MU_CAP,
    tol: float = DEFAULT_MU_TOL,
):
    """Maximize rates over signal intensities in (mu_lower, mu_cap], lane by lane.

    ``grid_fn(grid)`` gives every lane's rates on the coarse grid (step
    ``DEFAULT_COARSE_STEP``), shape (*lanes, grid.size); the golden section then
    refines each lane's best bracket through ``rate_fn``, which maps one
    trial signal per lane (shape ``lanes``) to the rates there; with one
    lane (``lanes`` = ()) it is called with floats.  Returns the optimal
    signals and rates, shape ``lanes``.  The best point is returned
    even when the rate is negative everywhere, which distance root finding
    relies on.
    """
    if mu_lower <= 0.0:
        raise ValueError("mu_lower must be positive")
    if mu_cap <= mu_lower:
        raise ValueError("mu_cap must exceed mu_lower")
    coarse_step = DEFAULT_COARSE_STEP
    grid = np.arange(mu_lower + coarse_step, mu_cap + 0.5 * coarse_step, coarse_step)
    if grid.size == 0:
        grid = np.array([0.5 * (mu_lower + mu_cap)])
    values = np.asarray(grid_fn(grid))
    best = np.argmax(values, axis=-1)
    best_value = np.take_along_axis(values, np.expand_dims(best, -1), -1)[..., 0]
    # bracket ends of each grid point: its neighbours, or the search range
    lower_ends = np.concatenate(([max(mu_lower + 0.25 * tol, grid[0] - coarse_step)], grid[:-1]))
    upper_ends = np.concatenate((grid[1:], [mu_cap]))
    lo, hi = lower_ends[best], upper_ends[best]
    if values.ndim == 1:  # one lane: the golden section runs in floats
        lo, hi = float(lo), float(hi)
    mu_opt, rate_opt = _golden_section_max(rate_fn, lo, hi, tol)
    # the bracket interior can lose to the best grid point in flat regions
    flat = best_value > rate_opt
    return _pick(flat, grid[best], mu_opt), _pick(flat, best_value, rate_opt)


def optimize_signal_intensity(
    rate_fn: Callable[[float], float],
    mu_lower: float,
    mu_cap: float = DEFAULT_MU_CAP,
    tol: float = DEFAULT_MU_TOL,
    vector_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[float, float]:
    """Maximize a rate over signal intensities in (mu_lower, mu_cap].

    One lane of :func:`optimize_lanes`: a coarse grid scan (step
    ``DEFAULT_COARSE_STEP``) followed by golden-section refinement of the best
    bracket, calling ``rate_fn`` with one float at a time.  ``vector_fn``,
    when given, evaluates the whole coarse grid in one call.
    """
    if vector_fn is None:
        vector_fn = lambda grid: np.array([rate_fn(m) for m in grid])  # noqa: E731
    mu_opt, rate_opt = optimize_lanes(rate_fn, vector_fn, mu_lower, mu_cap, tol)
    return float(mu_opt), float(rate_opt)


def find_zero_distance(
    envelope: Callable[[float], float],
    lengths: Sequence[float],
    values: Sequence[float],
) -> Optional[float]:
    """Largest distance with a positive envelope value, to ``DISTANCE_TOL_KM``.

    ``values`` are the envelope at the increasing ``lengths`` of a finished
    scan.  Returns 0.0 when no value is positive and None when the last one
    is (beyond range: the caller should widen the scan); otherwise bisects
    the last positive-to-nonpositive bracket, calling ``envelope`` only
    strictly inside it, until the bracket is narrower than the tolerance or
    holds no float between its ends.
    """
    positive = [i for i, v in enumerate(values) if v > 0.0]
    if not positive:
        return 0.0
    last_pos = positive[-1]
    if last_pos == len(values) - 1:
        return None
    lo, hi = float(lengths[last_pos]), float(lengths[last_pos + 1])
    while hi - lo > DISTANCE_TOL_KM:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left inside: far out, floats are over 0.01 apart
            break
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
        for direction in DIRECTIONS:
            hi = universal_upper(1.0 + step, alpha, params, direction)
            lo = universal_upper(1.0 - step, alpha, params, direction)
            derivs.append((hi - lo) / (2.0 * step))
        rows.append((float(alpha), derivs[0], derivs[1]))
        if derivs[0] > tolerance or derivs[1] > tolerance:
            ok = False
    return DerivativeCheckReport(rows=tuple(rows), tolerance=tolerance, all_nonpositive=ok)
