"""The unit-area log det and its first two beta-derivatives at 40 digits,
written out with mpmath: the oracle that ``envelope``'s determinant is
checked against.  Also zeta(0) and its beta-derivatives, the shifts to any
area S, and the terms of the two endpoint expansions.

The k-th beta-derivative (k = 0, 1, 2) of the unit-area log det is split as
``envelope.DetResult`` splits the value: the elementary terms, and the
Barnes part -4 Z(a1) - 2 (-2)^k Z(a2) (plus 2 zeta'(-1) for k = 0), with
a1 = beta + 1, a2 = -2 beta - 1 and Z = zeta_B'(0; ., 1, 1) differentiated
k times in a.

* The elementary terms g log 2 - h log c - log a1 - log(a2)/2 - 2.5 log 2
  - log pi, with g = (2 beta + 4/a1 - 1/x2)/6, h = (2/a1 - 1/x2 - 1)/6,
  x2 = 2 beta + 1 and log c = log 2 - log Gamma(a2/2) - log Gamma(a1)
  + (log pi - log sin(pi a2))/2, are differentiated by Leibniz's rule, with
  ``loggamma``, ``digamma`` and ``zeta(2, x)`` for the log-gamma terms.
* Each Barnes term is its closed-form head plus ``mpmath.quad`` on
  [0, 1, 10, inf] of F(at)/(t(e^t - 1)), F'(at)/(e^t - 1) or
  t F''(at)/(e^t - 1), F(r) = 1/(e^r - 1) - 1/r + 1/2 - r/12.  Below
  r = 1e-3 F, F' and F'' come from their Bernoulli series, since the closed
  forms cancel there.

A quadrature takes about 0.05 s, so each (beta, k) is computed once.
"""

import functools
import math
from fractions import Fraction

import mpmath

DPS = 40
# F's Bernoulli series below this r: its closed form loses about 12 digits
# there, and the series' terms fall by (r / 2 pi)^2 < 3e-8 each
_SERIES_BELOW = mpmath.mpf("1e-3")


def _coefficient(j, k):
    """B_2j (2j-1)! / ((2j)! (2j-1-k)!), the r^(2j-1-k) coefficient of F^(k),
    rounded to 60 digits."""
    c = Fraction(*mpmath.bernfrac(2 * j)) / math.factorial(2 * j) * math.perm(2 * j - 1, k)
    with mpmath.workdps(60):
        return mpmath.mpf(c.numerator) / c.denominator


# Horner's coefficients of F, F' and F'', j = 11 down to 2
_SERIES = [[_coefficient(j, k) for j in range(11, 1, -1)] for k in range(3)]


def _mp(x):
    """A float or a Fraction at its exact value, to the working precision."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _expm1(x):
    # mpmath.expm1 costs about four exps; above 1, exp(x) - 1 loses no digit
    return mpmath.exp(x) - 1 if x > 1 else mpmath.expm1(x)


def _kernel(r, k):
    """F^(k)(r) for k = 0, 1, 2 at r > 0."""
    if r < _SERIES_BELOW:
        # F = sum_{j>=2} B_2j / (2j)! r^(2j-1), differentiated k times, by
        # Horner in r^2
        s, acc = r * r, mpmath.mpf(0)
        for c in _SERIES[k]:
            acc = acc * s + c
        return acc * r ** (3 - k)
    em = _expm1(r)
    if k == 0:
        return 1 / em - 1 / r + mpmath.mpf(1) / 2 - r / 12
    if k == 1:
        return -(em + 1) / em**2 + 1 / r**2 - mpmath.mpf(1) / 12
    return (em + 1) * (em + 2) / em**3 - 2 / r**3


def _log_glaisher():
    """log A, A the Glaisher-Kinkelin constant: 1/12 - zeta'(-1)."""
    return 1 / mpmath.mpf(12) - mpmath.zeta(-1, derivative=1)


def _barnes(a, k):
    """d^k/da^k zeta_B'(0; a, 1, 1) at a > 0: its head plus the integral of
    t^(k-1) F^(k)(at) / (e^t - 1)."""
    log_a = _log_glaisher()
    head = (log_a / a - mpmath.log(2 * mpmath.pi) / 4 + mpmath.euler * a / 12,
            -log_a / a**2 + mpmath.euler / 12,
            2 * log_a / a**3)[k]
    return head + mpmath.quad(lambda t: t ** (k - 1) * _kernel(a * t, k) / _expm1(t),
                              [0, 1, 10, mpmath.inf])


def _elementary(b, k):
    """The k-th beta-derivative of the elementary terms at the mpf ``b``."""
    a1, a2, x2 = b + 1, -2 * b - 1, 2 * b + 1
    log2, pi = mpmath.log(2), mpmath.pi
    s = mpmath.sin(pi * a2)
    g = [(2 * b + 4 / a1 - 1 / x2) / 6, (2 - 4 / a1**2 + 2 / x2**2) / 6,
         (8 / a1**3 - 8 / x2**3) / 6]
    h = [(2 / a1 - 1 / x2 - 1) / 6, (-2 / a1**2 + 2 / x2**2) / 6,
         (4 / a1**3 - 8 / x2**3) / 6]
    log_c = [
        log2 - mpmath.loggamma(a2 / 2) - mpmath.loggamma(a1)
        + (mpmath.log(pi) - mpmath.log(s)) / 2,
        mpmath.digamma(a2 / 2) - mpmath.digamma(a1) + pi * mpmath.cos(pi * a2) / s,
        -mpmath.zeta(2, a2 / 2) - mpmath.zeta(2, a1) + 2 * pi**2 / s**2,
    ]
    rest = [-mpmath.log(a1) - mpmath.log(a2) / 2 - 5 * log2 / 2 - mpmath.log(pi),
            -1 / a1 + 1 / a2, 1 / a1**2 + 2 / a2**2]
    leibniz = mpmath.fsum(mpmath.binomial(k, j) * h[j] * log_c[k - j] for j in range(k + 1))
    return g[k] * log2 - leibniz + rest[k]


@functools.lru_cache(maxsize=None)
def parts(beta, k):
    """The k-th beta-derivative of the unit-area log det at ``beta``, a float
    or a Fraction taken at its exact value, as (elementary terms, Barnes
    part) at 40 digits."""
    with mpmath.workdps(DPS):
        b = _mp(beta)
        barnes = -4 * _barnes(b + 1, k) - 2 * (-2) ** k * _barnes(-2 * b - 1, k)
        if k == 0:
            barnes += 2 * mpmath.zeta(-1, derivative=1)
        return _elementary(b, k), +barnes


def _zeta0(b, k):
    """The k-th beta-derivative of zeta(0) at the mpf ``b``."""
    a1, x2 = b + 1, 2 * b + 1
    return (-mpmath.mpf(13) / 12 + 1 / (6 * a1) - 1 / (12 * x2),
            -1 / (6 * a1**2) + 1 / (6 * x2**2),
            1 / (3 * a1**3) - 2 / (3 * x2**3))[k]


def zeta0(beta, k=0):
    """The k-th beta-derivative (k = 0, 1, 2) of zeta(0) = -13/12 + 1/(6 a1)
    - 1/(12 x2), the coefficient of -log S in the k-th one of log det."""
    with mpmath.workdps(DPS):
        return _zeta0(_mp(beta), k)


def asymptotic_terms(beta, endpoint):
    """The terms of the unit-area log det's truncated expansion near
    ``endpoint``, -1 or -1/2, at 40 digits:
    -log a1 / (6 a1) + (log(8 pi)/6 - 4 log A) / a1 - log a1 - log 2 near -1,
    log a2 / (12 x2) - (log 2/6 + log pi/12 - 2 log A) / x2 - 3 log(a2)/4
    - log(2)/2 - log(pi)/4 near -1/2."""
    with mpmath.workdps(DPS):
        b = _mp(beta)
        log2, log_pi, log_a = mpmath.log(2), mpmath.log(mpmath.pi), _log_glaisher()
        if endpoint == -1:
            a1 = b + 1
            return (-mpmath.log(a1) / (6 * a1),
                    (mpmath.log(8 * mpmath.pi) / 6 - 4 * log_a) / a1,
                    -mpmath.log(a1), -log2)
        a2, x2 = -2 * b - 1, 2 * b + 1
        return (mpmath.log(a2) / (12 * x2),
                -(log2 / 6 + log_pi / 12 - 2 * log_a) / x2,
                -3 * mpmath.log(a2) / 4, -log2 / 2, -log_pi / 4)


def log_det(beta, area=1.0):
    """log det at ``area``: the unit-area value minus zeta(0) log S."""
    with mpmath.workdps(DPS):
        return +(sum(parts(beta, 0)) - zeta0(beta) * mpmath.log(_mp(area)))


def d1(beta):
    with mpmath.workdps(DPS):
        return +sum(parts(beta, 1))


def d2(beta):
    with mpmath.workdps(DPS):
        return +sum(parts(beta, 2))
