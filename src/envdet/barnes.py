"""Derivative at s = 0 of the Barnes double zeta function zeta_B(s; a, 1, 1),
evaluated by three mutually validating routes:

* ``zeta_b_prime0``          smooth integral representation (any a > 0),
* ``zeta_b_prime0_series``   truncated Bernoulli tail with a rigorous
                             remainder certificate,
* ``zeta_b_prime0_rational`` exact closed form for rational a, built from
                             Dedekind sums and log-gamma values.

The integral route and its first and second a-derivatives (the integral
representation differentiated under the integral sign) share one vectorised
double-exponential quadrature per derivative order, evaluated on an array of
a values at once; scalar a is a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .specfun import (
    CONSTANTS,
    DEFAULT_QUAD,
    DomainError,
    QuadratureSpec,
    bernoulli,
    integrate_semi_infinite,
    log_gamma,
    zeta_int,
)

__all__ = [
    "BarnesEval",
    "sawtooth",
    "dedekind_sum",
    "f_kernel",
    "zeta_b_prime0",
    "zeta_b_prime0_series",
    "zeta_b_prime0_rational",
    "zeta_b_prime0_alt",
    "d_zeta_b_prime0",
    "d2_zeta_b_prime0",
    "series_error_bound",
]

ArrayLike = Union[float, np.ndarray]

# 1/12 - zeta'(-1), which equals log of the Glaisher-Kinkelin constant.
_LOG_A = 1.0 / 12.0 - CONSTANTS.zeta_prime_neg1
_GAMMA = CONSTANTS.euler_gamma
_LOG_2PI = CONSTANTS.log_2pi

# Coefficients of F(r) = 1/(e^r - 1) - 1/r + 1/2 - r/12
#                      = sum_{k>=2} B_{2k}/(2k)! r^{2k-1}.
# Terms decay like (r / 2pi)^{2k}; sixteen of them leave the truncation far
# below double precision for any r <= 1.
_KMAX = 16
_F0 = [float(bernoulli(2 * k) / math.factorial(2 * k)) for k in range(2, _KMAX + 1)]
_F1 = [c * (2 * k - 1) for k, c in zip(range(2, _KMAX + 1), _F0)]
_F2 = [c * (2 * k - 1) * (2 * k - 2) for k, c in zip(range(2, _KMAX + 1), _F0)]
_POWER = {0: 3, 1: 2, 2: 1}
_COEFFS = {0: _F0, 1: _F1, 2: _F2}


def _horner(coeffs, s):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def f_kernel(r: ArrayLike, derivative: int = 0, crossover: float = 0.5) -> ArrayLike:
    """Regularized Bose kernel F(r) = 1/(e^r - 1) - 1/r + 1/2 - r/12.

    ``derivative`` selects F, F' or F''.  Below ``crossover`` the value comes
    from the Bernoulli series (the closed form cancels catastrophically as
    r -> 0), above it from the closed form; the two branches agree to ~1e-15
    near the default crossover 0.5.  A scalar r gives a float.
    """
    if derivative not in (0, 1, 2):
        raise DomainError("derivative must be 0, 1 or 2")
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0.0):
        raise DomainError("f_kernel needs r >= 0")
    out = np.empty_like(arr)
    small = arr < crossover
    rs = arr[small]
    out[small] = _horner(_COEFFS[derivative], rs * rs) * rs ** _POWER[derivative]
    # Closed forms written in exp(-r) to stay finite and cancellation-free
    # for arbitrarily large r.
    rb = arr[~small]
    den = -np.expm1(-rb)           # 1 - e^{-r}
    er = 1.0 - den                 # e^{-r}
    if derivative == 0:
        big = er / den - 1.0 / rb + 0.5 - rb / 12.0
    elif derivative == 1:
        big = -er / den**2 + 1.0 / rb**2 - 1.0 / 12.0
    else:
        big = er * (1.0 + er) / den**3 - 2.0 / rb**3
    out[~small] = big
    return out if np.ndim(r) else float(out[0])


def sawtooth(x: float) -> float:
    """((x)): x - floor(x) - 1/2 for non-integer x, exactly 0 at integers."""
    fx = math.floor(x)
    if x == fx:
        return 0.0
    return x - fx - 0.5


def _sawtooth_exact(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum S(q, p) = sum_{j=1}^{p} ((j/p)) ((jq/p)), exact."""
    if p < 1 or q < 1:
        raise DomainError("dedekind_sum needs positive integers")
    if math.gcd(p, q) != 1:
        raise DomainError(f"dedekind_sum needs gcd(p, q) = 1, got ({q}, {p})")
    total = Fraction(0)
    for j in range(1, p + 1):
        total += _sawtooth_exact(Fraction(j, p)) * _sawtooth_exact(Fraction(j * q, p))
    return total


@dataclass(frozen=True)
class BarnesEval:
    """Value of zeta_B'(0; a, 1, 1) together with its provenance.

    ``error_bound`` is rigorous for the series route (alternating-tail
    certificate), a quadrature estimate for the integral route, and a crude
    rounding bound for the rational route.
    """

    value: float
    error_bound: float
    route: str

    def __post_init__(self) -> None:
        if self.error_bound < 0.0:
            raise DomainError("error_bound must be nonnegative")
        if self.route not in ("integral", "series", "rational"):
            raise DomainError(f"unknown route {self.route!r}")


def _integral(a: ArrayLike, order: int, quad: QuadratureSpec):
    """d^order/da^order of zeta_B'(0; a, 1, 1) for a > 0, from one quadrature
    over all of ``a``; returns (values shaped like ``a``, error estimate).

    The integrands F(at)/(t(e^t-1)), F'(at)/(e^t-1) and t F''(at)/(e^t-1) are
    smooth at t = 0 and decay like e^{-t}.
    """
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    if not np.all(arr > 0.0):
        raise DomainError(f"the integral route needs a > 0, got {a!r}")
    cross = quad.small_t_crossover

    # The kernel values stay an unnamed temporary, so numpy divides them in
    # place instead of allocating a second array per node.
    def integrand(t: float) -> np.ndarray:
        em = math.expm1(t)
        if order == 0:
            return f_kernel(arr * t, 0, cross) / (t * em)
        if order == 1:
            return f_kernel(arr * t, 1, cross) / em
        return t * f_kernel(arr * t, 2, cross) / em

    integral, err = integrate_semi_infinite(integrand, quad)
    if order == 0:
        head = _LOG_A / arr - 0.25 * _LOG_2PI + _GAMMA * arr / 12.0
    elif order == 1:
        head = -_LOG_A / arr**2 + _GAMMA / 12.0
    else:
        head = 2.0 * _LOG_A / arr**3
    out = head + integral
    return (out if np.ndim(a) else float(out[0])), err


def zeta_b_prime0(a: float, quad: QuadratureSpec = DEFAULT_QUAD) -> BarnesEval:
    """zeta_B'(0; a, 1, 1) for a > 0 through the integral representation

        log A / a - log(2 pi)/4 + gamma a / 12 + int_0^inf F(at)/(t(e^t-1)) dt.
    """
    if np.ndim(a) != 0:
        raise DomainError("zeta_b_prime0 is scalar; use zeta_b_prime0_values for grids")
    value, err = _integral(a, 0, quad)
    return BarnesEval(value=value, error_bound=err, route="integral")


def zeta_b_prime0_values(
    a: np.ndarray, quad: QuadratureSpec = DEFAULT_QUAD
) -> tuple[np.ndarray, float]:
    """Integral-route values on a grid of a > 0, via one vectorized quadrature."""
    return _integral(np.atleast_1d(a), 0, quad)


def series_error_bound(a: ArrayLike, n: int) -> ArrayLike:
    """Certified remainder of the truncated series route: the first omitted
    term |B_{2N} zeta(2N-1)| / (2N(2N-1)) * a^{2N-1}."""
    coeff = abs(float(bernoulli(2 * n) / (2 * n * (2 * n - 1)))) * zeta_int(2 * n - 1)
    return coeff * np.asarray(a, dtype=float) ** (2 * n - 1) if np.ndim(a) else coeff * float(a) ** (2 * n - 1)


def zeta_b_prime0_series(a: float, n: int = 4) -> BarnesEval:
    """Truncated small-a expansion of zeta_B'(0; a, 1, 1) with N = ``n``.

    Keeps the elementary terms plus the Bernoulli tail through k = n - 1 and
    certifies the remainder by the first omitted term (the tail terms
    alternate and envelop the function for every a > 0).
    """
    if int(n) != n or not 2 <= n <= 16:
        raise DomainError(f"series order n must be an integer in [2, 16], got {n!r}")
    if np.ndim(a) != 0 or not a > 0.0:
        raise DomainError(f"zeta_b_prime0_series needs a scalar a > 0, got {a!r}")
    av = float(a)
    value = _LOG_A / av - 0.25 * _LOG_2PI + _GAMMA * av / 12.0
    for k in range(2, n):
        coeff = float(bernoulli(2 * k) / (2 * k * (2 * k - 1))) * zeta_int(2 * k - 1)
        value += coeff * av ** (2 * k - 1)
    return BarnesEval(value=value, error_bound=series_error_bound(av, n), route="series")


def zeta_b_prime0_rational(r: Fraction) -> BarnesEval:
    """Exact closed form of zeta_B'(0; p/q, 1, 1) for a positive rational.

    Combines zeta'(-1), the Dedekind sum S(q, p) and two sawtooth-weighted
    log-gamma sums; the only inexactness is double-precision log-gamma.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError(f"zeta_b_prime0_rational needs a positive rational, got {r}")
    p, q = r.numerator, r.denominator
    value = (CONSTANTS.zeta_prime_neg1 - math.log(q) / 12.0) / (p * q)
    value += (float(dedekind_sum(q, p)) + 0.25) * math.log(q / p)
    for k in range(1, p):
        arg = _sawtooth_exact(Fraction(k * q, p)) + Fraction(1, 2)
        value += (0.5 - k / p) * log_gamma(arg.numerator / arg.denominator)
    for j in range(1, q):
        arg = _sawtooth_exact(Fraction(j * p, q)) + Fraction(1, 2)
        value += (0.5 - j / q) * log_gamma(arg.numerator / arg.denominator)
    return BarnesEval(value=value, error_bound=1e-14 * (p + q), route="rational")


def zeta_b_prime0_alt(a: float, quad: QuadratureSpec = DEFAULT_QUAD) -> BarnesEval:
    """Cross-check evaluator through an independent splitting of the same
    function: different elementary terms and the integrand
    [F(t/a)/t + a F'(t)] / (e^t - 1)."""
    if not a > 0.0:
        raise DomainError(f"zeta_b_prime0_alt needs a > 0, got {a!r}")
    av = float(a)
    cross = quad.small_t_crossover

    def integrand(t: float) -> float:
        return (
            f_kernel(t / av, 0, cross) / t + av * f_kernel(t, 1, cross)
        ) / math.expm1(t)

    integral, err = integrate_semi_infinite(integrand, quad)
    value = (
        (av + 1.0 / av) * (_GAMMA - math.log(av)) / 12.0
        - 0.25 * math.log(av)
        + 5.0 * av / 24.0
        - 0.25 * _LOG_2PI
        + integral
    )
    return BarnesEval(value=value, error_bound=err, route="integral")


def d_zeta_b_prime0(a: ArrayLike, quad: QuadratureSpec = DEFAULT_QUAD) -> ArrayLike:
    """d/da of zeta_B'(0; a, 1, 1):  -log A / a^2 + gamma/12 + int F'(at)/(e^t-1) dt."""
    return _integral(a, 1, quad)[0]


def d2_zeta_b_prime0(a: ArrayLike, quad: QuadratureSpec = DEFAULT_QUAD) -> ArrayLike:
    """d^2/da^2 of zeta_B'(0; a, 1, 1):  2 log A / a^3 + int t F''(at)/(e^t-1) dt."""
    return _integral(a, 2, quad)[0]
