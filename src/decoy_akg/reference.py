"""Independent verification routes, which tests and scripts hold the library to.

Each function reaches a number the library computes by another route.  This
module imports the library; the library never imports it.  The routes are
the symmetric-sum divided difference, the power-function closed forms and a
Monte-Carlo simplex oracle; the literal Omega_i and Poisson reconstruction;
and the residual of the order-j bound inversion on the channel model,

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bounds import _check_order
from .channel import _TINY, ChannelParams
from .divided_diff import (
    EvaluationError,
    PointSet,
    _values,
    _vandermonde,
    divided_difference_recurrence,
)
from .expansion import (
    DEFAULT_N_MAX,
    IntensityGrid,
    _beta_row,
    _check_basis_index,
    _difference_products,
    gamma_coefficient,
)
from .keyrate import DIRECTIONS, universal_upper


def divided_difference(f: Callable[[float], float], pts: PointSet) -> float:
    """Symmetric-sum divided difference sum_i f(x_i)/prod_{j!=i}(x_i - x_j).

    For a single point this is f(x_1).  The direct sum amplifies
    cancellation between its terms when points cluster.
    """
    xs = pts.points
    total = 0.0
    for i, value in enumerate(_values(f, pts)):
        total += value / _vandermonde(xs, i)
    return total


def complete_homogeneous(degree: int, xs: Sequence[float]):
    """Complete homogeneous symmetric sum h_degree(xs).

    h_d is the sum of all degree-d monomials in the variables; h_0 = 1 and
    h_d = 0 for d < 0.  The last variable may be a numpy array, in which case
    the result broadcasts over it.
    """
    if degree < 0:
        return 0.0
    m = len(xs)
    hh = [1.0] * (m + 1)  # hh[l] = h_d(x_1..x_l) at the current degree d
    for _ in range(degree):
        new = [0.0] * (m + 1)
        for l in range(1, m + 1):
            new[l] = new[l - 1] + xs[l - 1] * hh[l]
        hh = new
    return hh[m]


def power_divided_difference(exponent: int, pts: PointSet) -> float:
    """Closed form of the divided difference of f(x) = x**exponent.

    Over n points, with h the complete homogeneous symmetric sums:

    * exponent k >= 0:  h_{k-n+1}(x_1..x_n); identically zero for k <= n-2,
    * exponent k < 0:   (-1)^(n-1) * h_{-k-1}(1/x_1..1/x_n) / (x_1...x_n),
      which for k = -1 reduces to (-1)^(n-1)/(x_1...x_n).
    """
    xs = pts.points
    n = len(xs)
    if exponent >= 0:
        return float(complete_homogeneous(exponent - n + 1, xs))
    if any(x == 0.0 for x in xs):
        raise ValueError("negative exponents require all points to be nonzero")
    recip = [1.0 / x for x in xs]
    prod = math.prod(xs)
    sign = -1.0 if n % 2 == 0 else 1.0
    return sign * float(complete_homogeneous(-exponent - 1, recip)) / prod


class MonteCarloEstimate(NamedTuple):
    estimate: float
    standard_error: float


def simplex_mean_value_oracle(
    f_nth_derivative: Callable,
    pts: PointSet,
    samples: int,
    seed: int | np.random.Generator | None = 0,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of (1/n!) * E[ f^(n)(sum_i a_i x_i) ], a ~ simplex.

    n is len(pts.points) - 1 and f_nth_derivative must evaluate the n-th derivative.
    Returns the estimate together with its standard error.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xs = np.asarray(pts.points)
    n = len(xs) - 1
    # exponential spacings: normalized iid Exp(1) variates are uniform on the simplex
    draws = rng.standard_exponential(size=(samples, len(xs)))
    weights = draws / draws.sum(axis=1, keepdims=True)
    args = weights @ xs
    try:
        vals = np.asarray(f_nth_derivative(args), dtype=float)
        if vals.shape != args.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(f_nth_derivative(a)) for a in args])
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("derivative evaluations produced non-finite values")
    scale = 1.0 / math.factorial(n)
    estimate = scale * float(vals.mean())
    if samples == 1:
        return MonteCarloEstimate(estimate, 0.0)
    stderr = scale * float(vals.std(ddof=1)) / math.sqrt(samples)
    return MonteCarloEstimate(estimate, stderr)


def gamma_coefficient_direct(i: int, n: int, grid: IntensityGrid) -> float:
    """gamma(i, n) as the symmetric-sum divided difference of x^(n-2)."""
    _check_basis_index(i, grid.k, n)
    return divided_difference(lambda x: x ** (n - 2), PointSet(grid.mus[: i - 1]))


def _exp_tail(x: float, first_order: int) -> float:
    """sum_{m >= first_order} x^m / m!, summed directly to avoid cancellation."""
    term = x**first_order / math.factorial(first_order)
    total = 0.0
    m = first_order
    while term > 1e-30 * (1.0 + total) and m < 400:
        total += term
        m += 1
        term *= x / m
    return total


def omega_closed_form(i: int, grid: IntensityGrid) -> float:
    """Omega_i as the (i-1)-point divided difference of the remainder function

        g_i(x) = (e^x - sum_{m<i} x^m/m!) / x^2.

    For i = 2 this is the familiar (e^mu - 1 - mu)/mu^2; for larger i it is
    the same expression with more Taylor terms removed and divided
    differences over the first i-1 intensities.
    """
    _check_basis_index(i, grid.k)
    pts = PointSet(grid.mus[: i - 1])
    return divided_difference_recurrence(lambda x: _exp_tail(x, i) / (x * x), pts)


def reconstruct_poisson(i: int, grid: IntensityGrid, n_max: int = DEFAULT_N_MAX) -> list[float]:
    """Reassemble the Poisson weights of intensity mu_i from the expansion.

    Returns the coefficient of |n><n| for n = 0..n_max computed as

        e^(-mu_i) [ d_(n,0) + mu_i d_(n,1)
                    + sum_{m=2}^{i+1} mu_i^2 prod_{t<=m-2}(mu_i - mu_t)
                      * gamma(m, n)/n! ]

    (the Omega_m normalizers cancel against the rho_m weights).  Each entry
    must equal e^(-mu_i) mu_i^n / n!; tests assert this identity.
    """
    if not 1 <= i <= grid.k:
        raise ValueError("intensity index out of range")
    mu_i = grid.mus[i - 1]
    products = _difference_products(grid.mus)[i - 1].tolist()  # the constraint's products
    coeffs = []
    for n in range(n_max + 1):
        if n == 0:
            inner = 1.0
        elif n == 1:
            inner = mu_i
        else:
            inner = 0.0
            for m in range(2, min(i + 1, n) + 1):  # gamma(m, n) = 0 for m > n
                weight = mu_i**2 * products[m - 2]  # mu_i^2 prod_{t<=m-2}(mu_i - mu_t)
                inner += weight * gamma_coefficient(m, n, grid) / math.factorial(n)
        coeffs.append(math.exp(-mu_i) * inner)
    return coeffs


def beta(j: int, i: int, grid: IntensityGrid) -> float:
    """Inversion coefficient beta(j, i) of the order-j triangular solve."""
    if not 1 <= i <= j <= grid.k:
        raise ValueError("indices must satisfy 1 <= i <= j <= k")
    return _beta_row(grid.mus[:j])[i - 1]


def _one_minus_decay_pow(alpha: float, n: int) -> float:
    """1 - (1 - alpha)^n without cancellation for small alpha."""
    if alpha >= 1.0:
        return 0.0 if n == 0 else 1.0
    return -math.expm1(n * math.log1p(-alpha))


def per_photon_rates(n: int, alpha: float, params: ChannelParams) -> tuple[float, float]:
    """Detection and error probability of the n-photon Fock state.

    Poisson-mixing these over n reproduces ``channel.counting_rate`` and
    ``channel.error_rate``, including an error rate of 0 where nothing clicks.
    """
    signal = _one_minus_decay_pow(alpha, n)
    detect = signal + params.p0
    return detect, float((params.s * signal + 0.5 * params.p0) / max(detect, _TINY))


def epsilon(j: int, alpha: float, grid: IntensityGrid) -> float:
    """Series evaluation of eps_j(alpha) over the first j intensities.

    Sums mu_1..mu_j (1 - (1-alpha)^n) h_(n-1-j)(mu)/n! for n > j, each h from
    :func:`complete_homogeneous`, so it shares no code with the production
    Omega series.  All terms are non-negative.  Since h_(d+1) <= S h_d (S the
    sum of the intensities) and (1 - (1-alpha)^n)/n falls with n, a term past
    n = 2S is at most half the one before, and the tail after it at most the
    term itself; the sum stops at the first such term below 1e-17 of the total.
    """
    _check_order(j, grid.k)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 0.0:
        return 0.0
    mus = grid.mus[:j]
    halving = 2.0 * sum(mus)  # past this n each term is at most half the one before
    total, n, factorial = 0.0, j, float(math.factorial(j))
    while True:
        n += 1
        factorial *= n
        term = _one_minus_decay_pow(alpha, n) * complete_homogeneous(n - 1 - j, mus) / factorial
        total += term
        if n > halving and term <= 1e-17 * total:
            return math.prod(mus) * total
        if n > 400:  # as in h_series: only intensities summing past 200 get here
            raise RuntimeError("eps series failed to converge")


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
    """Monte-Carlo simplex-integral form of eps_j(alpha).

    Estimates mu_1..mu_j/(j-1)! times the simplex average of

        g(y) = sum_{n>=0} (1 - (1-alpha)^(n+j+1)) / ((n+j+1)(n+j) n!) * y^n

    at y = sum a_i mu_i with a uniform on the (j-1)-simplex, through
    :func:`simplex_mean_value_oracle`.
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
    formulas, computed from the eps series instead:

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
