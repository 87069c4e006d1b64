"""Generalized divided differences over distinct real points.

The (n+1)-point divided difference of a function f,

    D_f(x_1, ..., x_{n+1}) = sum_i f(x_i) / prod_{j != i} (x_i - x_j),

generalizes the two-point difference quotient (f(x_2)-f(x_1))/(x_2-x_1).
It equals (1/n!) times the average of the n-th derivative of f over the
standard simplex spanned by the points, so for monotone f^(n) the value
n! * D_f lies between f^(n)(x_1) and f^(n)(x_(n+1)).

Three evaluation routes are provided:

* ``divided_difference``            -- the symmetric sum above,
* ``divided_difference_recurrence`` -- the Newton-table recurrence, which is
  the better conditioned default for clustered points,
* ``power_divided_difference``      -- exact closed forms for f(x) = x**m
  (complete homogeneous symmetric sums; zero for 0 <= m <= n-2).

``simplex_mean_value_oracle`` is a seeded Monte-Carlo estimate of the
simplex-average representation, intended purely as an independent test
oracle for the formulas above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

DEFAULT_MIN_GAP = 1e-9
DEFAULT_SERIES_TOL = 1e-14


class DegeneratePointsError(ValueError):
    """Points coincide or are closer than the configured minimum gap."""


class EvaluationError(ValueError):
    """The supplied function returned a non-finite value at a grid point."""


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing abscissas with a minimum pairwise gap.

    Points may be passed in any order; they are stored sorted.  The divided
    difference is symmetric under permutations, so the ordering is purely a
    canonical form.  The gap floor bounds the condition number of the
    denominators in the symmetric sum.
    """

    points: tuple[float, ...]
    min_gap: float = DEFAULT_MIN_GAP

    def __init__(self, points: Sequence[float], min_gap: float = DEFAULT_MIN_GAP):
        pts = tuple(sorted(float(x) for x in points))
        if not pts:
            raise DegeneratePointsError("at least one point is required")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "min_gap", float(min_gap))
        for lo, hi in zip(pts, pts[1:]):
            if hi - lo < self.min_gap:
                raise DegeneratePointsError(
                    f"points {lo} and {hi} are closer than the minimum gap {self.min_gap}"
                )

    def __len__(self) -> int:
        return len(self.points)


def _values(f: Callable[[float], float], pts: PointSet) -> list[float]:
    vals = [float(f(x)) for x in pts.points]
    for x, v in zip(pts.points, vals):
        if not math.isfinite(v):
            raise EvaluationError(f"function value at x={x} is not finite: {v}")
    return vals


def divided_difference(f: Callable[[float], float], pts: PointSet) -> float:
    """Symmetric-sum divided difference sum_i f(x_i)/prod_{j!=i}(x_i - x_j).

    For a single point this is f(x_1).  Prefer
    :func:`divided_difference_recurrence` when points cluster; the direct sum
    amplifies cancellation between its terms.
    """
    xs = pts.points
    vals = _values(f, pts)
    if len(xs) == 1:
        return vals[0]
    total = 0.0
    for i, xi in enumerate(xs):
        denom = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                denom *= xi - xj
        total += vals[i] / denom
    return total


def divided_difference_recurrence(f: Callable[[float], float], pts: PointSet) -> float:
    """Newton-table evaluation via the recurrence

    D_f(x_1..x_{n+1}) = (D_f(x_2..x_{n+1}) - D_f(x_1..x_n)) / (x_{n+1} - x_1).
    """
    xs = pts.points
    table = _values(f, pts)
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
    return table[0]


def _h_degrees(xs: Sequence):
    """Yield h_0(xs), h_1(xs), h_2(xs), ...; the last variable may be an array."""
    m = len(xs)
    hh = [1.0] * (m + 1)  # hh[l] = h_d(x_1..x_l) at the current degree d
    while True:
        yield hh[m]
        # h_d(x_1..x_l) = h_d(x_1..x_{l-1}) + x_l * h_{d-1}(x_1..x_l)
        new = [0.0] * (m + 1)
        for l in range(1, m + 1):
            new[l] = new[l - 1] + xs[l - 1] * hh[l]
        hh = new


def complete_homogeneous(degree: int, xs: Sequence[float]):
    """Complete homogeneous symmetric sum h_degree(xs).

    h_d is the sum of all degree-d monomials in the variables; h_0 = 1 and
    h_d = 0 for d < 0.  The last variable may be a numpy array, in which case
    the result broadcasts over it.
    """
    if degree < 0:
        return 0.0
    return next(islice(_h_degrees(xs), degree, None))


def h_series(points: Sequence, weight: Optional[Callable[[int], float]] = None):
    """sum_{n>m} w(n) h_(n-1-m)(x_1..x_m) / n! over m points.

    With w = 1 (no ``weight``) this is the expansion normalizer Omega_(m+1);
    w(n) = 1 - (1-alpha)^n gives the bound residual eps_m / (x_1...x_m).
    All terms are non-negative, so the sum is free of cancellation; it stops
    once the tail is below DEFAULT_SERIES_TOL, bounded through
    h_d <= C(d+m-1, m-1) x_top^d and the decay of 1/n!.
    The last point may be a numpy array, over which the result broadcasts.
    """
    m = len(points)
    last = float(np.max(points[-1])) if isinstance(points[-1], np.ndarray) else points[-1]
    top = max((*points[:-1], last))
    total = 0.0
    n = m + 1
    factorial = float(math.factorial(n))
    for h in _h_degrees(points):
        total += (h if weight is None else weight(n) * h) / factorial
        # majorant for the next term; the series decays at least geometrically
        # with ratio ~ m*x_top/n once n is past m*x_top
        bound = math.comb(n - 1, m - 1) * top ** (n - m) / (factorial * (n + 1))
        if bound < 0.5 * DEFAULT_SERIES_TOL and n > m + 3:
            return total
        if n > 400:  # factorial decay guarantees we never get here for sane points
            raise RuntimeError("complete-homogeneous series failed to converge")
        n += 1
        factorial *= n


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


def uniform_simplex_samples(
    dim: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draws from the standard simplex {a >= 0, sum a = 1} in R^dim.

    Uses the exponential-spacings construction: normalized iid Exp(1)
    variates are uniform on the simplex.
    """
    draws = rng.standard_exponential(size=(samples, dim))
    return draws / draws.sum(axis=1, keepdims=True)


def simplex_mean_value_oracle(
    f_nth_derivative: Callable,
    pts: PointSet,
    samples: int,
    seed: int | np.random.Generator | None = 0,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of (1/n!) * E[ f^(n)(sum_i a_i x_i) ], a ~ simplex.

    n is len(pts) - 1 and f_nth_derivative must evaluate the n-th derivative.
    Returns the estimate together with its standard error; intended as an
    independent stochastic oracle for divided-difference values, not as a
    production evaluation route.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xs = np.asarray(pts.points)
    n = len(xs) - 1
    weights = uniform_simplex_samples(len(xs), samples, rng)
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
