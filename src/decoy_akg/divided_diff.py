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

import functools
import math
import struct
from dataclasses import dataclass
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
    """Strictly increasing abscissas at least DEFAULT_MIN_GAP apart.

    Points may be passed in any order; they are stored sorted.  The divided
    difference is symmetric under permutations, so the ordering is purely a
    canonical form.  The gap floor bounds the condition number of the
    denominators in the symmetric sum.
    """

    points: tuple[float, ...]

    def __init__(self, points: Sequence[float]):
        pts = tuple(sorted(float(x) for x in points))
        if not pts:
            raise DegeneratePointsError("at least one point is required")
        object.__setattr__(self, "points", pts)
        for lo, hi in zip(pts, pts[1:]):
            if hi - lo < DEFAULT_MIN_GAP:
                raise DegeneratePointsError(
                    f"points {lo} and {hi} are closer than the minimum gap {DEFAULT_MIN_GAP}"
                )


def _values(f: Callable[[float], float], pts: PointSet) -> list[float]:
    vals = [float(f(x)) for x in pts.points]
    for x, v in zip(pts.points, vals):
        if not math.isfinite(v):
            raise EvaluationError(f"function value at x={x} is not finite: {v}")
    return vals


def _vandermonde(xs: Sequence[float], i: int) -> float:
    """prod_{j != i} (x_i - x_j), multiplied in the order of ``xs``."""
    return math.prod(xs[i] - x for j, x in enumerate(xs) if j != i)


def divided_difference(f: Callable[[float], float], pts: PointSet) -> float:
    """Symmetric-sum divided difference sum_i f(x_i)/prod_{j!=i}(x_i - x_j).

    For a single point this is f(x_1).  Prefer
    :func:`divided_difference_recurrence` when points cluster; the direct sum
    amplifies cancellation between its terms.
    """
    xs = pts.points
    total = 0.0
    for i, value in enumerate(_values(f, pts)):
        total += value / _vandermonde(xs, i)
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


@functools.cache
def _top_limit(m: int, n: int, factorial: float) -> float:
    """Least x_top at which the series over m points goes on after term n.

    The series stops after term n once the majorant of term n + 1,
    C(n-1, m-1) x_top^(n-m) / (n! (n+1)) with ``factorial`` = n!, is below
    DEFAULT_SERIES_TOL / 2.  The majorant grows with x_top, so the stop is
    ``x_top < limit``; the limit is bisected over the bit patterns of the
    non-negative floats, which are ordered like the floats themselves.
    """

    def stops(bits: int) -> bool:
        top = struct.unpack("<d", struct.pack("<q", bits))[0]
        try:
            majorant = math.comb(n - 1, m - 1) * top ** (n - m) / (factorial * (n + 1))
        except OverflowError:
            return False
        return majorant < 0.5 * DEFAULT_SERIES_TOL

    lo, hi = 0, 0x7FF0000000000000  # the bits of 0.0, which stops, and of inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if stops(mid) else (lo, mid)
    return struct.unpack("<d", struct.pack("<q", hi))[0]


class _PrefixSeries:
    """:func:`h_series` over ``(*prefix, last)`` for one fixed prefix and any last point.

    The recurrence columns h_d(x_1..x_l), l < m, do not depend on the last
    point.  They are extended degree by degree as a series first needs them
    and then kept, so each later call does one multiply-add per term:
    h_d(x_1..x_m) = h_d(x_1..x_(m-1)) + x_m h_(d-1)(x_1..x_m), the
    operations of a call that builds every column itself, in the same order.
    """

    def __init__(self, prefix: Sequence):
        self.prefix = tuple(prefix)
        self.top = max(self.prefix, default=-math.inf)
        # h_d(x_1..x_l) for l = 0..m-1 at the highest degree d reached so far
        self._row = [1.0] * (len(self.prefix) + 1)
        self._column = [1.0]  # h_d(x_1..x_(m-1)) for d = 0, 1, ...

    def __call__(self, last, weight: Optional[Callable[[int], float]] = None):
        m = len(self.prefix) + 1
        lanes = isinstance(last, np.ndarray)
        if lanes:
            top = np.maximum(self.top, last)
            active = np.ones(top.shape, dtype=bool)
            total = np.zeros(top.shape)
        else:
            top = max(self.top, last)
            total = 0.0
        prefix, row, column = self.prefix, self._row, self._column
        h = 1.0  # h_d(x_1..x_m) at the current degree d = n - 1 - m
        degree = 0
        n = m + 1
        factorial = float(math.factorial(n))
        while True:
            term = (h if weight is None else weight(n) * h) / factorial
            if lanes:
                np.add(total, term, out=total, where=active)
            else:
                total += term
            # the series decays at least geometrically with ratio ~ m*x_top/n once
            # n is past m*x_top
            if n > m + 3:
                going_on = top >= _top_limit(m, n, factorial)
                if lanes:
                    active &= going_on
                    going_on = active.any()
                if not going_on:
                    return total
            if n > 400:  # factorial decay guarantees we never get here for sane points
                raise RuntimeError("complete-homogeneous series failed to converge")
            n += 1
            factorial *= n
            degree += 1
            if degree == len(column):
                # h_d(x_1..x_l) = h_d(x_1..x_{l-1}) + x_l * h_{d-1}(x_1..x_l), in place
                # in increasing l; h_d of no points is 0 for d > 0
                row[0] = 0.0
                for l in range(1, len(row)):
                    row[l] = row[l - 1] + prefix[l - 1] * row[l]
                column.append(row[-1])
            h = column[degree] + last * h


def h_series(points: Sequence, weight: Optional[Callable[[int], float]] = None):
    """sum_{n>m} w(n) h_(n-1-m)(x_1..x_m) / n! over m positive points.

    With w = 1 (no ``weight``) this is the expansion normalizer Omega_(m+1);
    w(n) = 1 - (1-alpha)^n gives the bound residual eps_m / (x_1...x_m).
    All terms are non-negative, so the sum is free of cancellation; it stops
    once the tail is below DEFAULT_SERIES_TOL, bounded through
    h_d <= C(d+m-1, m-1) x_top^d and the decay of 1/n!.
    The last point may be a numpy array, over which the result broadcasts;
    each element sums exactly the terms that a call with that element
    alone would sum.  An empty point set raises ValueError.
    """
    if len(points) == 0:
        raise ValueError("h_series needs at least one point, got the empty point set")
    return _PrefixSeries(points[:-1])(points[-1], weight)


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
    Returns the estimate together with its standard error; intended as an
    independent stochastic oracle for divided-difference values, not as a
    production evaluation route.
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
