"""Convex expansion of phase-randomized coherent states.

A phase-randomized coherent pulse of intensity mu is the Poissonian Fock
mixture sum_n e^(-mu) mu^n/n! |n><n|.  Given increasing intensities
mu_1 < ... < mu_k, each of the k mixtures can be written as a convex
combination of the vacuum, the single-photon state, and k basis states
rho_2 .. rho_(k+1), where rho_i is supported on photon numbers n >= i with
weights gamma(i, n) / (Omega_i * n!):

    gamma(i, n) = sum_{j<i} mu_j^(n-2) / prod_{t != j} (mu_j - mu_t)
    Omega_i     = sum_{n>=i} gamma(i, n) / n!

gamma(i, n) is the (i-1)-point divided difference of x^(n-2), hence
non-negative, and the expansion coefficients reproduce the Poisson weights
exactly.  This module builds those coefficients, the normalizers Omega_i,
and the structural matrices used by the counting-rate constraint system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .divided_diff import PointSet, divided_difference_recurrence, h_series

DEFAULT_N_MAX = 64
DEFAULT_MIN_SPACING = 0.1


@dataclass(frozen=True)
class IntensityGrid:
    """Strictly increasing pulse intensities (mean photon numbers).

    The largest intensity is the signal, the one producing raw key bits.
    ``min_spacing`` is the smallest allowed width mu_(i+1) - mu_i; estimates
    from nearly equal intensities are fragile, so a floor is enforced at
    construction.
    """

    mus: tuple[float, ...]
    min_spacing: float = DEFAULT_MIN_SPACING

    def __init__(self, mus, min_spacing: float = DEFAULT_MIN_SPACING):
        values = tuple(float(m) for m in mus)
        object.__setattr__(self, "mus", values)
        object.__setattr__(self, "min_spacing", float(min_spacing))
        if not values:
            raise ValueError("at least one intensity is required")
        if values[0] <= 0.0:
            raise ValueError("intensities must be positive")
        for lo, hi in zip(values, values[1:]):
            if hi - lo < self.min_spacing - 1e-12:
                raise ValueError(
                    f"intensities {lo} and {hi} violate the minimum spacing {self.min_spacing}"
                )

    @property
    def k(self) -> int:
        return len(self.mus)

    @property
    def signal(self) -> float:
        return self.mus[-1]


def _check_basis_index(i: int, k: int, n: float = math.inf) -> None:
    if not 2 <= i <= k + 1:
        raise ValueError(f"basis index i={i} must satisfy 2 <= i <= k+1 (k={k})")
    if n < i:
        raise ValueError(f"rho_{i} has support only on photon numbers n >= {i}")


def gamma_coefficient(i: int, n: int, grid: IntensityGrid) -> float:
    """Weight gamma(i, n) of |n><n| in the un-normalized basis state rho_i.

    Equals the divided difference of x^(n-2) over mu_1..mu_(i-1); evaluated
    through the Newton recurrence, which behaves better than the literal sum
    of reciprocal products when intensities cluster.  Support starts at
    n = i, so n < i is rejected.
    """
    _check_basis_index(i, grid.k, n)
    pts = PointSet(grid.mus[: i - 1])
    if n == 2:
        # x^0 divided difference over a single point (only reachable at i=2)
        return 1.0
    return divided_difference_recurrence(lambda x: x ** (n - 2), pts)


def gamma_coefficient_direct(i: int, n: int, grid: IntensityGrid) -> float:
    """Literal reciprocal-product sum for gamma(i, n); cross-check use only."""
    _check_basis_index(i, grid.k, n)
    mus = grid.mus[: i - 1]
    total = 0.0
    for j, mu_j in enumerate(mus):
        denom = 1.0
        for t, mu_t in enumerate(mus):
            if t != j:
                denom *= mu_j - mu_t
        total += mu_j ** (n - 2) / denom
    return total


def omega(i: int, grid: IntensityGrid) -> float:
    """Normalizer Omega_i = sum_{n>=i} gamma(i, n)/n!.

    The summand gamma(i, n) equals the complete homogeneous symmetric sum
    h_(n-i)(mu_1..mu_(i-1)) (the power-function closed form), so Omega_i is
    the positive-term series :func:`~decoy_akg.divided_diff.h_series` over
    the first i-1 intensities.
    """
    _check_basis_index(i, grid.k)
    return h_series(grid.mus[: i - 1])


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


@dataclass(frozen=True)
class ExpansionTable:
    """Expansion coefficients for one intensity grid, truncated at n_max.

    ``omegas[i-2]`` holds Omega_i for i = 2..k+1, and ``gammas[(i, n)]``
    holds gamma(i, n) for i <= n <= n_max.  ``truncation_tail`` records the
    crude bound e^(mu_k) mu_k^n_max / n_max! on any discarded Fock mass.
    """

    grid: IntensityGrid
    omegas: tuple[float, ...]
    gammas: dict[tuple[int, int], float] = field(repr=False)
    n_max: int = DEFAULT_N_MAX
    truncation_tail: float = 0.0

    @classmethod
    def build(cls, grid: IntensityGrid, n_max: int = DEFAULT_N_MAX) -> "ExpansionTable":
        omegas = tuple(omega(i, grid) for i in range(2, grid.k + 2))
        gammas: dict[tuple[int, int], float] = {}
        for i in range(2, grid.k + 2):
            for n in range(i, n_max + 1):
                gammas[(i, n)] = gamma_coefficient(i, n, grid)
        mu_top = grid.mus[-1]
        tail = math.exp(mu_top) * mu_top**n_max / math.factorial(n_max)
        return cls(grid=grid, omegas=omegas, gammas=gammas, n_max=n_max, truncation_tail=tail)

    def omega_for_order(self, j: int) -> float:
        """Omega_(j+1) over the first j intensities, as used by order-j bounds."""
        return self.omegas[j - 1]


def _gamma_or_zero(i: int, n: int, grid: IntensityGrid) -> float:
    return 0.0 if n < i else gamma_coefficient(i, n, grid)


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
    coeffs = []
    for n in range(n_max + 1):
        if n == 0:
            inner = 1.0
        elif n == 1:
            inner = mu_i
        else:
            inner = 0.0
            for m in range(2, i + 2):
                weight = mu_i**2
                for t in range(m - 2):
                    weight *= mu_i - grid.mus[t]
                inner += weight * _gamma_or_zero(m, n, grid) / math.factorial(n)
        coeffs.append(math.exp(-mu_i) * inner)
    return coeffs


@dataclass(frozen=True)
class ConstraintMatrix:
    """Coefficient matrix of the counting-rate constraint system.

    ``p`` has 2k+1 rows (row 0: vacuum pulse; rows 1..k: one basis; rows
    k+1..2k: the conjugate basis) and 2k+2 columns ordered (vacuum,
    single-photon, k basis states per basis).  ``p_prime`` is the (k+1) x
    (k+2) single-basis variant, a view of the top-left block of ``p``.
    Blocks: y_i = e^(-mu_i), z_i = mu_i e^(-mu_i), and the lower-triangular
    x with

        x[i, j] = mu_i^2 prod_{t<j}(mu_i - mu_t) e^(-mu_i) Omega_(j+1),  j <= i.
    """

    p: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    @property
    def p_prime(self) -> np.ndarray:
        k = len(self.y)
        return self.p[: k + 1, : k + 2]


class DecoyMatrices(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c_inverse: np.ndarray
    constraint: ConstraintMatrix


def _difference_products(mus) -> np.ndarray:
    """Lower-triangular a[i, l] = prod_{t<l}(mu_(i+1) - mu_t), 1-based t and l."""
    k = len(mus)
    a = np.zeros((k, k))
    for i in range(k):
        prod = 1.0
        for l in range(i + 1):
            a[i, l] = prod
            prod *= mus[i] - mus[l]
    return a


def constraint_matrix(mus, omegas) -> ConstraintMatrix:
    """Counting-rate coefficient matrix over increasing intensities ``mus``.

    ``omegas[j-1]`` is Omega_(j+1) over the first j intensities.
    """
    k = len(mus)
    y = np.exp(-np.asarray(mus))
    z = np.asarray(mus) * y
    squares = np.array([mu**2 for mu in mus])  # Python's pow; numpy's square can differ by an ulp
    x = squares[:, None] * _difference_products(mus) * y[:, None] * np.asarray(omegas)

    p = np.zeros((2 * k + 1, 2 * k + 2))
    p[0, 0] = 1.0
    p[1 : k + 1, 0] = y
    p[1 : k + 1, 1] = z
    p[1 : k + 1, 2 : k + 2] = x
    p[k + 1 :, 0] = y
    p[k + 1 :, 1] = z
    p[k + 1 :, k + 2 :] = x
    return ConstraintMatrix(p=p, y=y, z=z, x=x)


def build_matrices(grid: IntensityGrid) -> DecoyMatrices:
    """Structural matrices of the expansion and their closed-form inverses.

    * ``a``: lower-triangular with a[i, l] = prod_{t<l}(mu_(i+1) - mu_t),
    * ``b``: its inverse, b[l, i] = 1/prod_{t<=l, t!=i}(mu_(i+1) - mu_t),
    * ``c``: ``a`` with its last column replaced by a leading 1/mu column,
    * ``c_inverse``: closed-form inverse of ``c`` built from the rows of
      ``b`` and signed products of trailing intensities,
    * ``constraint``: the full counting-rate coefficient matrix.

    ``b @ a`` and ``c_inverse @ c`` are identities up to rounding; tests pin
    the deviation below 1e-10.
    """
    mus = grid.mus
    k = grid.k
    a = _difference_products(mus)

    b = np.zeros((k, k))
    for l in range(1, k + 1):
        for i in range(1, l + 1):
            denom = 1.0
            for t in range(1, l + 1):
                if t != i:
                    denom *= mus[i - 1] - mus[t - 1]
            b[l - 1, i - 1] = 1.0 / denom

    c = np.column_stack([1.0 / np.asarray(mus), a[:, :-1]])

    c_inv = np.zeros((k, k))
    for i in range(1, k + 1):
        row = np.zeros(k) if i == 1 else b[i - 2].copy()
        tail_product = math.prod(mus[i - 1 :])
        sign = -1.0 if (k + i) % 2 else 1.0
        c_inv[i - 1] = row + sign * tail_product * b[k - 1]

    omegas = tuple(omega(i, grid) for i in range(2, k + 2))
    constraint = constraint_matrix(mus, omegas)
    return DecoyMatrices(a=a, b=b, c=c, c_inverse=c_inv, constraint=constraint)
