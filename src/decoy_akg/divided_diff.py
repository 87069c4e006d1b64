"""Generalized divided differences over distinct real points.

The (n+1)-point divided difference of a function f,

    D_f(x_1, ..., x_{n+1}) = sum_i f(x_i) / prod_{j != i} (x_i - x_j),

generalizes the two-point difference quotient (f(x_2)-f(x_1))/(x_2-x_1).
It equals (1/n!) times the average of the n-th derivative of f over the
standard simplex spanned by the points, so for monotone f^(n) the value
n! * D_f lies between f^(n)(x_1) and f^(n)(x_(n+1)).

The library evaluates divided differences through the Newton-table
recurrence ``divided_difference_recurrence``, which is better conditioned
than the symmetric sum for clustered points, and sums the complete
homogeneous series of the expansion normalizers in ``h_series``.  The
symmetric sum, the power-function closed forms and a Monte-Carlo simplex
oracle live in :mod:`decoy_akg.reference`.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_MIN_GAP = 1e-9
DEFAULT_SERIES_TOL = 1e-14


def _number(value) -> float:
    """``float(value)``, refusing strings and bools, which float() would read as numbers."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


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
        pts = tuple(sorted(x if type(x) is float else _number(x) for x in points))
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
        # the first term 1/(m+1)!, to which a sum from 0.0 adds only non-negative
        # terms: with rounding monotone, no float sum of the series is below it
        self.first_term = 1.0 / float(math.factorial(len(self.prefix) + 2))
        # h_d(x_1..x_l) for l = 0..m-1 at the highest degree d reached so far
        self._row = [1.0] * (len(self.prefix) + 1)
        self._column = [1.0]  # h_d(x_1..x_(m-1)) for d = 0, 1, ...

    def __call__(self, last):
        m = len(self.prefix) + 1
        if isinstance(last, np.ndarray):
            top = np.maximum(self.top, last)
            # the highest and lowest top; a NaN top is neither, so it ends no other sum
            high = np.fmax.reduce(top, axis=None, initial=-math.inf)
            low = np.fmin.reduce(top, axis=None, initial=high)
            total = np.zeros(top.shape)
        else:
            if isinstance(last, np.float64):
                last = float(last)  # only + and * follow, which give numpy's bits
            top = low = high = max(self.top, last)
            total = 0.0
        if high == math.inf:  # its terms grow without end; an array's would reach inf / inf
            raise RuntimeError("complete-homogeneous series failed to converge")
        prefix, row, column = self.prefix, self._row, self._column
        h = 1.0  # h_d(x_1..x_m) at the current degree d = n - 1 - m
        degree = 0
        n = m + 1
        factorial = float(math.factorial(n))
        stop = None  # the largest limit so far, once it passes the lowest top
        while True:
            term = h / factorial
            if stop is None:  # every point still sums
                total += term
            else:
                np.add(total, term, out=total, where=top >= stop)
            # the series decays at least geometrically with ratio ~ m*x_top/n once
            # n is past m*x_top; a point sums term n + 1 while its top reaches
            # every limit so far
            if n > m + 3:
                limit = _top_limit(m, n, factorial)
                if not low >= limit:
                    stop = limit if stop is None else max(stop, limit)
                    if not high >= stop:
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


def h_series(points: Sequence):
    """Omega_(m+1) = sum_{n>m} h_(n-1-m)(x_1..x_m) / n! over m positive points.

    All terms are non-negative, so the sum is free of cancellation; it stops
    once the tail is below DEFAULT_SERIES_TOL, bounded through
    h_d <= C(d+m-1, m-1) x_top^d and the decay of 1/n!.
    The last point may be a numpy array, over which the result broadcasts;
    each element sums exactly the terms that a call with that element
    alone would sum.  An empty point set raises ValueError, and an
    infinite point RuntimeError before the first term.
    """
    if len(points) == 0:
        raise ValueError("h_series needs at least one point, got the empty point set")
    return _PrefixSeries(points[:-1])(points[-1])
