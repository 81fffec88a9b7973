"""Derivative at s = 0 of the Barnes double zeta function zeta_B(s; a, 1, 1),
evaluated by three mutually validating routes:

* ``zeta_b_prime0``          smooth integral representation (1e-100 <= a <= 1e27),
* ``zeta_b_prime0_series``   truncated Bernoulli tail with a rigorous
                             remainder certificate,
* ``zeta_b_prime0_rational`` exact closed form for rational a, built from
                             Dedekind sums and log-gamma values.

The integral and series routes share one closed-form head; the series route
and its certificate share one table of Bernoulli-tail coefficients.  That
table and the kernel's Taylor coefficients are built at import from the
exact Bernoulli numbers B_0..B_32 of their defining recurrence.  The integral
route and its first and second a-derivatives (the integral representation
differentiated under the integral sign) share one vectorised
double-exponential quadrature, evaluated on an array of a values for a tuple
of derivative orders at once, one quadrature group per order; scalar a is a
one-element array and one order a one-element tuple.  Each integrand call
evaluates the kernel once, for every order not yet accepted, on the outer
product of a block of quadrature nodes with the a values.  The Dedekind sum
is a sum of integers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np
from scipy import special as _sp

from .specfun import EULER_GAMMA, LOG_2PI, ZETA_PRIME_NEG1, DomainError
from .specfun import _choice, _positive, _real
from .specfun import integrate_semi_infinite

__all__ = [
    "BarnesEval",
    "dedekind_sum",
    "f_kernel",
    "zeta_b_prime0",
    "zeta_b_prime0_series",
    "zeta_b_prime0_rational",
    "d_zeta_b_prime0",
    "d2_zeta_b_prime0",
    "series_error_bound",
]

ArrayLike = Union[float, np.ndarray]

# 1/12 - zeta'(-1), which equals log of the Glaisher-Kinkelin constant.
_LOG_A = 1.0 / 12.0 - ZETA_PRIME_NEG1

# Coefficients of F(r) = 1/(e^r - 1) - 1/r + 1/2 - r/12
#                      = sum_{k>=2} B_{2k}/(2k)! r^{2k-1}.
# Terms decay like (r / 2pi)^{2k}; sixteen of them leave the truncation far
# below double precision for any r <= 1.
_KMAX = 16


def _bernoulli_numbers(n: int) -> list:
    """Exact B_0, ..., B_n from the defining recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1 (so B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * bj for j, bj in enumerate(b)) / (m + 1))
    return b


_B = _bernoulli_numbers(2 * _KMAX)
_F0 = [float(_B[2 * k] / math.factorial(2 * k)) for k in range(2, _KMAX + 1)]
_F1 = [c * (2 * k - 1) for k, c in zip(range(2, _KMAX + 1), _F0)]
_F2 = [c * (2 * k - 1) * (2 * k - 2) for k, c in zip(range(2, _KMAX + 1), _F0)]
_POWER = {0: 3, 1: 2, 2: 1}
_COEFFS = {0: _F0, 1: _F1, 2: _F2}
_CROSSOVER = 0.5
# Tail coefficients B_{2k} zeta(2k-1) / (2k(2k-1)) of the series route,
# k = 2..16; the first omitted one sets its certificate.
_TAIL = [float(_B[2 * k] / (2 * k * (2 * k - 1))) * float(_sp.zeta(2 * k - 1, 1))
         for k in range(2, _KMAX + 1)]
# Range of a the integral route takes.  In log-spaced sweeps every order
# converged without overflow up to _A_MAX (order 1 first failed at
# a = 4.4e27).  Below _A_MIN the heads overflow, order 2's from 1e-105 on.
_A_MIN = 1e-100
_A_MAX = 1e27


def _series(r: np.ndarray, orders: tuple):
    # One array per order, yielded in turn, from one s = r^2.  Horner in
    # place from the last coefficient: the same roundings as acc * s + c
    # started from 0.0, without a temporary per step.
    s = r * r
    for k in orders:
        coeffs = _COEFFS[k]
        acc = np.full_like(s, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= s
            acc += c
        acc *= r ** _POWER[k]
        yield acc


def _closed(r: np.ndarray, orders: tuple):
    # One array per order, yielded in turn, from one e^{-r}.  Closed forms
    # written in exp(-r) to stay finite and cancellation-free for
    # arbitrarily large r.
    den = -np.expm1(-r)            # 1 - e^{-r}
    er = 1.0 - den                 # e^{-r}
    for k in orders:
        if k == 0:
            yield er / den - 1.0 / r + 0.5 - r / 12.0
        elif k == 1:
            yield -er / den**2 + 1.0 / r**2 - 1.0 / 12.0
        else:
            yield er * (1.0 + er) / den**3 - 2.0 / r**3


@np.errstate(over="ignore")  # r**3, r**2 overflow past 5.6e102, 1.3e154; 1/inf = 0
def f_kernel(r: ArrayLike, derivative: Union[int, tuple] = 0) -> ArrayLike:
    """Regularized Bose kernel F(r) = 1/(e^r - 1) - 1/r + 1/2 - r/12.

    ``derivative`` selects F, F' or F''; a tuple of them gives one row per
    order, stacked in a ``(len(derivative),) + r.shape`` array, from one
    pass over r.  Below the fixed crossover r = 0.5 the value comes from the
    Bernoulli series by Horner's rule, one accumulator updated in place (the
    closed form cancels catastrophically as r -> 0); from 0.5 on from the
    closed form.  The branches agree to ~1e-15 near the crossover.  NaN
    raises ``DomainError``; +inf gives the closed form's limit.  A scalar r
    and one order give a float.
    """
    # an empty tuple is checked as one order, and refused
    orders = derivative if isinstance(derivative, tuple) and derivative else (derivative,)
    orders = tuple(_choice(k, (0, 1, 2), "derivative") for k in orders)
    arr = np.atleast_1d(_real(r, "r", ndim=None))
    if not (arr >= 0.0).all():
        raise DomainError("f_kernel needs r >= 0")
    small = arr < _CROSSOVER
    big = ~small
    out = np.empty((len(orders),) + arr.shape)
    # each order's values are scattered as soon as they are made
    for row, series, closed in zip(out, _series(arr[small], orders), _closed(arr[big], orders)):
        row[small] = series
        row[big] = closed
    if isinstance(derivative, tuple):
        return out if np.ndim(r) else out[:, 0]
    return out[0] if np.ndim(r) else float(out[0, 0])


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum S(q, p) = sum_{j=1}^{p} ((j/p)) ((jq/p)), exact.

    For 1 <= j < p, ((j/p)) = (2j - p) / 2p and ((jq/p)) = (2 (jq mod p) - p) / 2p
    (jq is no multiple of p as gcd(p, q) = 1), and the j = p term is 0, so
    4 p^2 S(q, p) is the integer sum below.
    """
    integer = (int, numbers.Integral)  # int first: the ABC check alone takes about 1 us
    if not (isinstance(p, integer) and isinstance(q, integer) and p >= 1 and q >= 1):
        raise DomainError("dedekind_sum needs positive integers")
    if p > 10**6:  # the rational route's cap; about 0.2 us a term
        raise DomainError(f"dedekind_sum needs p <= 10**6, got {p}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"dedekind_sum needs gcd(p, q) = 1, got ({q}, {p})")
    total = sum((2 * j - p) * (2 * (j * q % p) - p) for j in range(1, p))
    return Fraction(total, 4 * p * p)


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
        if not _real(self.error_bound, "error_bound") >= 0.0:
            raise DomainError(f"error_bound must be nonnegative, got {self.error_bound!r}")
        _choice(self.route, ("integral", "series", "rational"), "route")


def _head(a: ArrayLike, order: int) -> ArrayLike:
    """Closed-form part of d^order/da^order of zeta_B'(0; a, 1, 1), which the
    integral route adds to its quadrature and the series route to its tail."""
    if order == 0:
        return _LOG_A / a - 0.25 * LOG_2PI + EULER_GAMMA * a / 12.0
    if order == 1:
        return -_LOG_A / a**2 + EULER_GAMMA / 12.0
    return 2.0 * _LOG_A / a**3


def _integral(a: ArrayLike, orders: tuple):
    """d^k/da^k of zeta_B'(0; a, 1, 1) for 1e-100 <= a <= 1e27 and each order
    k in ``orders``, from one quadrature over all of ``a``; returns the values,
    one row per order shaped like ``a``, and one error estimate per order.

    The integrands F(at)/(t(e^t-1)), F'(at)/(e^t-1) and t F''(at)/(e^t-1) are
    smooth at t = 0 and decay like e^{-t}.
    """
    arr = np.asarray(_real(a, "a", ndim=None)).ravel()
    if arr.size == 0 or not ((arr >= _A_MIN) & (arr <= _A_MAX)).all():
        raise DomainError(f"the integral route needs {_A_MIN:g} <= a <= {_A_MAX:g}, got {a!r}")

    # One kernel call per block of nodes t, for every open order at once, on
    # the outer product t a; each order's kernel values are divided in place.
    # e^t - 1 comes from math.expm1 node by node: np.expm1 differs from it in
    # the last bit at some nodes.
    def integrand(t: np.ndarray, open_: tuple) -> np.ndarray:
        ks = tuple(orders[g] for g in open_)
        em = np.array(list(map(math.expm1, t.tolist())))[:, None]
        t = t[:, None]
        values = f_kernel(t * arr, ks)
        for v, k in zip(values, ks):
            if k == 2:
                v *= t
            v /= t * em if k == 0 else em
        # node axis first, then one group per order for the quadrature
        return values.swapaxes(0, 1)

    integral, errs = integrate_semi_infinite(integrand, len(orders), arr.size)
    for k, row in zip(orders, integral):
        row += _head(arr, k)
    return integral.reshape((len(orders),) + np.shape(a)), errs


def zeta_b_prime0(a: float) -> BarnesEval:
    """zeta_B'(0; a, 1, 1) for 1e-100 <= a <= 1e27 through the integral representation

        log A / a - log(2 pi)/4 + gamma a / 12 + int_0^inf F(at)/(t(e^t-1)) dt.
    """
    (value,), (err,) = _integral(_real(a, "a"), (0,))
    return BarnesEval(value=float(value), error_bound=float(err), route="integral")


def zeta_b_prime0_values(a: np.ndarray) -> np.ndarray:
    """Integral-route values on a grid of a, via one vectorized quadrature."""
    return _integral(np.atleast_1d(a), (0,))[0][0]


def series_error_bound(a: float, n: int) -> float:
    """Certified remainder of the series route: the first omitted term
    |B_{2N} zeta(2N-1)| / (2N(2N-1)) * a^{2N-1}.  The one check of the
    route's arguments: ``DomainError`` unless ``a`` is a finite real > 0
    and N = ``n`` an integer in [2, 16], and where the remainder or head overflows."""
    av, nv = _positive(a, "a"), _real(n, "n")
    if not (nv.is_integer() and 2 <= nv <= _KMAX):
        raise DomainError(f"series order n must be an integer in [2, {_KMAX}], got {n!r}")
    try:
        bound = abs(_TAIL[int(nv) - 2]) * av ** (2 * nv - 1)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound) or math.isinf(_LOG_A / av):  # the remainder or the head
        raise DomainError(f"the series route overflows for n = {n} at a = {a!r}")
    return bound


def zeta_b_prime0_series(a: float, n: int = 4) -> BarnesEval:
    """Truncated small-a expansion of zeta_B'(0; a, 1, 1) with N = ``n``.

    Keeps the elementary terms plus the Bernoulli tail through k = n - 1 and
    certifies the remainder by the first omitted term (the tail terms
    alternate and envelop the function for every a > 0).
    """
    # checks a and n; the remainder holds a's highest power, so it overflows first
    bound = series_error_bound(a, n)
    a, n = _real(a, "a"), int(_real(n, "n"))
    value = _head(a, 0)
    for k in range(2, n):
        value += _TAIL[k - 2] * a ** (2 * k - 1)
    return BarnesEval(value=value, error_bound=bound, route="series")


def zeta_b_prime0_rational(r: Fraction) -> BarnesEval:
    """Exact closed form of zeta_B'(0; p/q, 1, 1) for a positive rational, p + q <= 10**6.

    Combines zeta'(-1), the Dedekind sum S(q, p) and two sawtooth-weighted
    log-gamma sums; the only inexactness is double-precision log-gamma.
    """
    x = _positive(r, "a")
    p, q = Fraction(r if isinstance(r, Fraction) else x).as_integer_ratio()
    if p + q > 10**6:  # beyond, the bound 1e-14 (p + q) passes 1e-8 and a call 0.4 s
        raise DomainError(f"the rational route needs p + q <= 10**6, got {x!r}")
    value = (ZETA_PRIME_NEG1 - math.log(q) / 12.0) / (p * q)
    value += (float(dedekind_sum(q, p)) + 0.25) * math.log(q / p)
    # ((kq/p)) + 1/2 = (kq mod p) / p, never 0 as gcd(p, q) = 1, so every
    # gammaln argument is positive; int / int division is correctly rounded.
    # float() keeps the value a Python float (gammaln gives np.float64).
    for k in range(1, p):
        value += (0.5 - k / p) * float(_sp.gammaln(k * q % p / p))
    for j in range(1, q):
        value += (0.5 - j / q) * float(_sp.gammaln(j * p % q / q))
    return BarnesEval(value=value, error_bound=1e-14 * (p + q), route="rational")


def d_zeta_b_prime0(a: ArrayLike) -> ArrayLike:
    """d/da of zeta_B'(0; a, 1, 1):  -log A / a^2 + gamma/12 + int F'(at)/(e^t-1) dt."""
    (value,), _ = _integral(a, (1,))
    return value if np.ndim(a) else float(value)


def d2_zeta_b_prime0(a: ArrayLike) -> ArrayLike:
    """d^2/da^2 of zeta_B'(0; a, 1, 1):  2 log A / a^3 + int t F''(at)/(e^t-1) dt."""
    (value,), _ = _integral(a, (2,))
    return value if np.ndim(a) else float(value)
