"""Log-determinant of the Friederichs Laplacian on isosceles triangle
envelopes, as a function of the angle parameter beta in (-1, -1/2) and the
surface area.

The apex/base angles of the underlying triangle are pi*(-2*beta-1) and
pi*(beta+1); beta = -2/3 is the equilateral case.  The module assembles the
closed-form expression for log det (elementary terms, a uniformization
scaling factor, and two Barnes double zeta derivatives), its first and second
beta-derivatives in analytic form, the small-angle truncated expansions near
both endpoints, an elementary convexity lower bound, and grid scans used for
extremum verification and figure data.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from scipy import special as _sp

from . import barnes
from .specfun import (
    EULER_GAMMA,
    LOG_GLAISHER,
    LOG_PI,
    ZETA_PRIME_NEG1,
    DomainError,
)
from .specfun import _choice, _out, _positive, _real, _whole

__all__ = [
    "AngleParam",
    "DetResult",
    "EnvelopeGeometry",
    "ScanTable",
    "scaling_factor",
    "log_det_area",
    "zeta0",
    "d_zeta0",
    "d2_zeta0",
    "asymptotic_neg1",
    "asymptotic_neghalf",
    "d_log_det",
    "d2_log_det",
    "convexity_lower_bound",
    "critical_area",
    "geometry",
    "scan",
    "reduced_fractions",
    "refine_minimum",
    "BETA_CRITICAL",
]

_LOG2 = math.log(2.0)
_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.2020569031595942854
_EDGE = 1e-6
# Exact scan points and the route-agreement check take every reduced
# fraction with a denominator up to this bound.
_MAX_DENOMINATOR = 12
# Largest scan grid, ten times the 1e5-point scans the performance targets
# are set for; every column is held in memory, so a far larger count would
# allocate until the host runs out.
_MAX_SCAN_COUNT = 10**6
# Fewest betas whose closed-form terms run on the background thread beside
# the quadrature.  Timing d2_log_det serial against overlapped (2-core x86_64,
# medians of 31-41 alternated runs, in each of three or four passes), the
# overlap lost 9-13 % at 448 betas and won 3-7 % at 512 and 9-13 % at 1024:
# below the break-even the hand-off costs more than the overlap saves.
_OVERLAP_MIN = 512

_BETA_CRITICAL_EXACT = Fraction(-2, 3)
BETA_CRITICAL = float(_BETA_CRITICAL_EXACT)


def _check_beta(b) -> None:
    # a float or an array, -0.75 standing in for an empty one; NaN carries, and
    # rounded b + 1, -0.5 - b are monotone
    lo, hi = (b.min(initial=-0.75), b.max(initial=-0.75)) if isinstance(b, np.ndarray) else (b, b)
    if not (lo > -1.0 and hi < -0.5):
        raise DomainError("beta must lie in the open interval (-1, -1/2)")
    # Every term of the determinant formula is singular at the endpoints;
    # the asymptotic expansions cover the excluded slivers.
    if lo + 1.0 < _EDGE or -0.5 - hi < _EDGE:
        raise DomainError(
            f"beta within {_EDGE:g} of an endpoint; use the asymptotic expansions there"
        )


def _check_scalar(p: AngleParam, what: str) -> None:
    if np.ndim(p.beta):
        raise DomainError(f"{what} takes a float beta, got an array of shape {np.shape(p.beta)}")


def _log(x):
    # Floats take math.log and arrays numpy's log.  The two can differ in the
    # last bit, and both the scalar expansions and the scan files are pinned
    # bit for bit.
    return np.log(x) if np.ndim(x) else math.log(x)


@dataclass(frozen=True)
class AngleParam:
    """Validated angle parameter with its two derived Barnes arguments

    a1 = beta + 1 (base-angle fraction) and a2 = -2*beta - 1 (apex fraction).
    ``exact`` is None, or beta as an exact rational, which unlocks the
    closed-form Barnes route; only :meth:`from_fraction` sets it.

    ``beta`` is a real scalar, kept as a float, or a 1-D real array-like of
    grid points, kept as a float64 array.  The determinant, its derivatives,
    zeta0 and its derivatives, the endpoint expansions and the convexity
    bound map a float beta to a float and an array beta to an array, element
    by element; the rational route, the scaling factor and the geometry take
    a float beta only (an array raises ``DomainError``).

    Two derived quantities are computed at most once per instance, on first
    read, and kept outside the fields, so ==, hash and repr do not see them:
    the cube of 2 beta + 1 and sin(pi a2), cos(pi a2).
    """

    beta: Union[float, np.ndarray]
    exact: Optional[Fraction] = field(default=None, init=False)
    a1: Union[float, np.ndarray] = field(init=False)
    a2: Union[float, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        beta = _real(self.beta, "beta", ndim=1)
        _check_beta(beta)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "a1", beta + 1.0)
        object.__setattr__(self, "a2", -2.0 * beta - 1.0)

    @classmethod
    def from_fraction(cls, beta: Fraction) -> "AngleParam":
        """A float beta with ``exact`` set, for the rational route: a Fraction
        as given, any other real at its float's exact value."""
        p = cls(beta)
        _check_scalar(p, "AngleParam.from_fraction")
        object.__setattr__(p, "exact", Fraction(beta if isinstance(beta, Fraction) else p.beta))
        return p

    # cached_property writes the instance __dict__ directly, so it works on
    # this frozen dataclass
    @functools.cached_property
    def _x2_cube(self):
        """(2 beta + 1)^3 as (-a2) ** 3: a pow of this negative base costs
        about 40 times one of a positive base."""
        return (-self.a2) ** 3

    @functools.cached_property
    def _sin_cos(self):
        """sin(pi a2) and cos(pi a2), the one sine of the scaling factor, the
        elementary terms and the convexity bound."""
        x = np.pi * self.a2
        return np.sin(x), np.cos(x)


@dataclass(frozen=True)
class DetResult:
    """log det at a given area with its additive breakdown.

    The parts are floats for a float beta and arrays for an array beta.
    """

    log_det: Union[float, np.ndarray]
    elementary_part: Union[float, np.ndarray]
    barnes_part: Union[float, np.ndarray]
    area_term: Union[float, np.ndarray]
    area: float


@dataclass(frozen=True)
class EnvelopeGeometry:
    """Side length and angles (radians) of the glued triangle."""

    side_ab: float
    angle_a: float
    angle_b: float
    angle_c: float
    area: float


@dataclass(frozen=True)
class ScanTable:
    """Per-beta float64 columns at fixed area, in strictly increasing ``beta``.

    All columns refer to the fixed-area function beta -> log det: ``d1`` and
    ``d2`` are its beta-derivatives and the asymptotic columns carry the
    endpoint truncations shifted by the same area term as ``log_det``.
    """

    beta: np.ndarray
    log_det: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    asymptotic_neg1: np.ndarray
    asymptotic_neghalf: np.ndarray
    area: float


# --------------------------------------------------------------------------
# elementary building blocks (array-aware; scalars pass through as 0-d)
# --------------------------------------------------------------------------


def _log_c(p: AngleParam):
    """log c, c the scaling factor."""
    return (
        _LOG2
        - _sp.gammaln(p.a2 / 2.0)
        - _sp.gammaln(p.a1)
        + 0.5 * (LOG_PI - np.log(p._sin_cos[0]))
    )


def _elementary(p: AngleParam, orders):
    """k-th beta-derivatives (k = 0, 1, 2) of the elementary terms of the
    unit-area log det, g log 2 - h log c - log a1 - log(a2)/2 - 2.5 log 2
    - log pi with c the scaling factor: a list with one term per order k in
    the tuple ``orders``, from shared intermediates; trigamma is zeta(2, .)."""
    b, a1, a2 = p.beta, p.a1, p.a2
    x2 = -a2  # 2 beta + 1, bit for bit
    h = (2.0 / a1 - 1.0 / x2 - 1.0) / 6.0
    s, c = p._sin_cos
    log_c = _log_c(p)
    if max(orders) > 0:
        hp = (-2.0 / a1**2 + 2.0 / x2**2) / 6.0
        d_log_c = _sp.psi(a2 / 2.0) - _sp.psi(a1) + np.pi * c / s
    terms = []
    for k in orders:
        if k == 0:
            g = (2.0 * b + 4.0 / a1 - 1.0 / x2) / 6.0
            terms.append(
                g * _LOG2 - h * log_c - np.log(a1) - 0.5 * np.log(a2) - 2.5 * _LOG2 - LOG_PI
            )
        elif k == 1:
            gp = (2.0 - 4.0 / a1**2 + 2.0 / x2**2) / 6.0
            terms.append(gp * _LOG2 - hp * log_c - h * d_log_c - 1.0 / a1 + 1.0 / a2)
        else:
            a1_3, x2_3 = a1**3, p._x2_cube
            gpp = (8.0 / a1_3 - 8.0 / x2_3) / 6.0
            hpp = (4.0 / a1_3 - 8.0 / x2_3) / 6.0
            d2_log_c = -_sp.zeta(2.0, a2 / 2.0) - _sp.zeta(2.0, a1) + 2.0 * np.pi**2 / s**2
            terms.append(
                gpp * _LOG2
                - hpp * log_c
                - 2.0 * hp * d_log_c
                - h * d2_log_c
                + 1.0 / a1**2
                + 2.0 / a2**2
            )
    return terms


def _integral_pair(p: AngleParam, orders: tuple) -> np.ndarray:
    """Integral-route k-th a-derivatives of zeta_B'(0; ., 1, 1) at a1 and at
    a2 for each order k in ``orders``, from one quadrature over both: shaped
    (len(orders), 2) + beta's shape."""
    a = np.concatenate((p.a1, p.a2), axis=None)
    if len(orders) > 1:
        z = barnes._integral(a, orders)[0]
    else:
        # one order goes through its public route, looked up by name at call
        # time, so a replaced (or removed) module attribute of another order
        # never matters
        route = ("zeta_b_prime0_values", "d_zeta_b_prime0", "d2_zeta_b_prime0")[orders[0]]
        z = getattr(barnes, route)(a)
    return np.reshape(z, (len(orders), 2) + np.shape(p.beta))


def _chain(k: int, elementary, z1, z2):
    """k-th beta-derivative of the unit-area log det from the k-th derivative
    of the elementary terms and the k-th a-derivatives z1, z2 of
    zeta_B'(0; ., 1, 1) at a1 and a2 (da1/dbeta = 1, da2/dbeta = -2).

    Every route and scan column sums in this one order.
    """
    out = elementary - 4.0 * z1 - 2.0 * (-2.0) ** k * z2
    return out + 2.0 * ZETA_PRIME_NEG1 if k == 0 else out


# The one background thread, made on first use.  A forked child drops its
# parent's, whose thread it does not inherit, and the lock, which another
# thread may have held at the fork.
_background = None
_background_lock = threading.Lock()
_on_background = threading.local()


def _drop_background() -> None:
    global _background, _background_lock
    _background, _background_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a platform without fork has nothing to drop
    os.register_at_fork(after_in_child=_drop_background)


def _in_background(job, p: AngleParam, *args):
    """Start ``job(p, *args)`` and return a function that waits for it and
    returns its value or raises its error.

    The job runs on the one background thread, in a copy of the caller's
    context (so under its numpy errstate), when ``p.beta`` is an array of at
    least ``_OVERLAP_MIN`` betas; otherwise, and when called from that thread,
    it runs here and now.  Its callers read the result, even when they
    raise, so that no job outlives their call."""
    global _background
    if not (isinstance(p.beta, np.ndarray) and p.beta.size >= _OVERLAP_MIN) or getattr(
        _on_background, "is_worker", False
    ):
        value = job(p, *args)
        return lambda: value
    with _background_lock:
        if _background is None:
            _background = concurrent.futures.ThreadPoolExecutor(
                1, initializer=setattr, initargs=(_on_background, "is_worker", True)
            )
        future = _background.submit(contextvars.copy_context().run, job, p, *args)
    return future.result


def _unit(p: AngleParam, orders: tuple) -> list:
    """The k-th beta-derivatives of the unit-area log det for each order k in
    ``orders``, from one elementary-term pass and one quadrature; for a large
    array the pass runs on the background thread beside the quadrature."""
    elementary = _in_background(_elementary, p, orders)
    try:
        pair = _integral_pair(p, orders)
    finally:
        # an elementary error comes first, as when the terms ran first
        elementary = elementary()
    return [_chain(k, e, z1, z2) for k, e, (z1, z2) in zip(orders, elementary, pair)]


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def scaling_factor(p: AngleParam) -> float:
    """Conformal factor 2/(Gamma(a2/2) Gamma(a1)) * sqrt(pi / sin(pi a2)) > 0.

    Evaluated in log form, so the value degrades gracefully to 0+ near the
    endpoints instead of overflowing intermediates.
    """
    _check_scalar(p, "scaling_factor")
    return math.exp(_log_c(p))


def zeta0(p: AngleParam) -> float:
    """Spectral zeta value at 0: -13/12 + 1/(6(beta+1)) - 1/(12(2 beta+1))."""
    return _out(-13.0 / 12.0 + 1.0 / (6.0 * p.a1) - 1.0 / (12.0 * -p.a2))


def d_zeta0(p: AngleParam) -> float:
    return _out(-1.0 / (6.0 * p.a1**2) + 1.0 / (6.0 * p.a2**2))


def d2_zeta0(p: AngleParam) -> float:
    # the cube of the negative base 2 beta + 1: -(a2**3) can differ in the last bit
    return _out(1.0 / (3.0 * p.a1**3) - 2.0 / (3.0 * p._x2_cube))


def _area_shifts(p: AngleParam, orders: tuple, area: float) -> list:
    """For each order k in ``orders``, what the k-th beta-derivative of log det
    at ``area`` lies below its unit-area value: the k-th one of zeta0 times log S."""
    return [(zeta0, d_zeta0, d2_zeta0)[k](p) * math.log(area) for k in orders]


def log_det_area(p: AngleParam, area: float, route: str = "integral") -> DetResult:
    """log det at the given area: the unit-area value minus zeta0 * log(area),
    with the Barnes terms evaluated by ``route``.

    ``route='rational'`` requires ``p`` built via :meth:`AngleParam.from_fraction`
    and gives the exact closed-form evaluation.
    """
    area = _positive(area, "area")
    route = _choice(route, ("integral", "rational"), "route")
    if route == "integral":
        (zb1, zb2), = _integral_pair(p, (0,))
    else:
        if p.exact is None:
            raise DomainError("route='rational' needs AngleParam.from_fraction")
        zb1 = barnes.zeta_b_prime0_rational(p.exact + 1).value
        zb2 = barnes.zeta_b_prime0_rational(-2 * p.exact - 1).value
    elementary, = _elementary(p, (0,))
    log_det = _chain(0, elementary, zb1, zb2)
    shift, = _area_shifts(p, (0,), area)
    return DetResult(
        log_det=_out(log_det) - shift,
        elementary_part=_out(elementary),
        barnes_part=_out(log_det - elementary),
        # negated, not 0.0 - shift: the term is -0.0 where zeta0 > 0 at S = 1
        area_term=-shift,
        area=area,
    )


def asymptotic_neg1(p: AngleParam) -> float:
    """Truncated expansion of the unit-area log det near beta = -1."""
    a1 = p.a1
    log_a1 = _log(a1)
    return _out(
        -log_a1 / (6.0 * a1)
        + (math.log(8.0 * math.pi) / 6.0 - 4.0 * LOG_GLAISHER) / a1
        - log_a1
        - _LOG2
    )


def asymptotic_neghalf(p: AngleParam) -> float:
    """Truncated expansion of the unit-area log det near beta = -1/2."""
    a2 = p.a2
    x2 = -a2
    log_a2 = _log(a2)
    return _out(
        log_a2 / (12.0 * x2)
        - (_LOG2 / 6.0 + LOG_PI / 12.0 - 2.0 * LOG_GLAISHER) / x2
        - 0.75 * log_a2
        - 0.5 * _LOG2
        - 0.25 * LOG_PI
    )


def d_log_det(p: AngleParam) -> float:
    """Analytic d/dbeta of the unit-area log det."""
    return _out(_unit(p, (1,))[0])


def d2_log_det(p: AngleParam) -> float:
    """Analytic d^2/dbeta^2 of the unit-area log det."""
    return _out(_unit(p, (2,))[0])


def convexity_lower_bound(p: AngleParam) -> float:
    """Elementary strictly positive lower bound for d2_log_det.

    Second derivative of the explicit scaling-factor/log bracket (with its
    zeta-series truncated at the cubic term) minus 1/5 minus the singular
    Barnes leading terms; everything is in closed form.
    """
    a1, a2 = p.a1, p.a2
    x2 = -a2  # 2 beta + 1
    half = x2 / 2.0  # beta + 1/2
    # each cube once: half is negative, and a pow of a negative base costs
    # about 40 times one of a positive base
    a1_3, x2_3, half_3 = a1**3, p._x2_cube, half**3
    s, c = p._sin_cos

    P = (2.0 / a1 - 1.0 / x2 - 1.0) / 12.0
    Pp = (-2.0 / a1**2 + 2.0 / x2**2) / 12.0
    Ppp = (4.0 / a1_3 - 8.0 / x2_3) / 12.0

    series_q = 2.0 * (
        _ZETA2 / 2.0 * (a1**2 + half**2) + _ZETA3 / 3.0 * (-a1_3 + half_3)
    )
    Q = (
        np.log(s)
        - LOG_PI
        - 2.0 * np.log(a1)
        - 2.0 * np.log(a2)
        - EULER_GAMMA
        + series_q
    )
    Qp = (
        -2.0 * np.pi * c / s
        - 2.0 / a1
        - 4.0 / x2
        + 2.0 * (_ZETA2 * (a1 + half) + _ZETA3 * (-(a1**2) + half**2))
    )
    Qpp = (
        -4.0 * np.pi**2 / s**2
        + 2.0 / a1**2
        + 8.0 / x2**2
        + 4.0 * _ZETA2
        - 2.0 * _ZETA3
    )
    Rpp = (8.0 / a1_3 - 8.0 / x2_3) * _LOG2 / 6.0 + 1.0 / a1**2 + 2.0 / x2**2
    Gpp = Ppp * Q + 2.0 * Pp * Qp + P * Qpp + Rpp
    return _out(Gpp - 0.2 - LOG_GLAISHER * (8.0 / a1_3 - 2.0 / half_3))


def critical_area() -> float:
    """Area above which the equilateral point flips from the absolute minimum
    to a local maximum: exp(d2_log_det(-2/3) / 27)."""
    return math.exp(d2_log_det(AngleParam(BETA_CRITICAL)) / 27.0)


def geometry(p: AngleParam, area: float = 1.0) -> EnvelopeGeometry:
    """Side length |AB| = |BC| and the three angles at the given area."""
    _check_scalar(p, "geometry")
    area = _positive(area, "area")
    # area / s overflows near the largest double, and then the two roots are
    # taken apart: |AB| is below 1e157 for any finite area
    s = math.sin(math.pi * p.a2)
    side = math.sqrt(area / s) if area / s < math.inf else math.sqrt(area) / math.sqrt(s)
    return EnvelopeGeometry(
        side_ab=side,
        angle_a=math.pi * p.a1,
        angle_b=math.pi * p.a2,
        angle_c=math.pi * p.a1,
        area=area,
    )


# --------------------------------------------------------------------------
# grid scans
# --------------------------------------------------------------------------


def _columns(b: np.ndarray, area: float):
    """The ScanTable columns at the betas ``b``, in field order: the values
    of log_det_area, d_log_det and d2_log_det, from one quadrature for all
    three orders."""
    p = AngleParam(b)
    unit = _unit(p, (0, 1, 2))
    # the shifts are built after the quadrature so that they are not held
    # through its peak
    shifts = _area_shifts(p, (0, 1, 2), area)
    log_det, d1, d2 = (u - shift for u, shift in zip(unit, shifts))
    return (b, log_det, d1, d2, asymptotic_neg1(p) - shifts[0], asymptotic_neghalf(p) - shifts[0])


def reduced_fractions():
    """Every reduced fraction p/q in (0, 1) with q <= 12, by q and then p."""
    for q in range(2, _MAX_DENOMINATOR + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)


def _exact_betas(beta_min: float, beta_max: float):
    # f - 1 is reduced with f's denominator; a range inside (-1, -1/2)
    # admits only f < 1/2
    return sorted(f - 1 for f in reduced_fractions() if beta_min <= float(f - 1) <= beta_max)


def _beta_range(beta_min: float, beta_max: float, area: float) -> tuple:
    """The checked bounds of a range of beta, lo < hi in the domain, and the
    checked area."""
    lo, hi = _real(beta_min, "beta_min"), _real(beta_max, "beta_max")
    if not lo < hi:
        raise DomainError(f"need beta_min < beta_max, got [{lo!r}, {hi!r}]")
    area = _positive(area, "area")
    _check_beta(np.asarray([lo, hi]))
    return lo, hi, area


def scan(
    beta_min: float,
    beta_max: float,
    count: int,
    area: float = 1.0,
    include_exact_points: bool = False,
) -> ScanTable:
    """Uniform grid of ``count`` distinct betas with per-point log det,
    derivatives and asymptotics, as a ScanTable of float64 columns.

    With ``include_exact_points`` the grid is augmented by every reduced
    rational beta with denominator <= 12 inside the range, whose log det is
    computed through the exact closed-form Barnes route.
    """
    n = _whole(count, "count", 2, _MAX_SCAN_COUNT)
    beta_min, beta_max, area = _beta_range(beta_min, beta_max, area)
    include_exact_points = _choice(include_exact_points, (False, True), "include_exact_points")

    b = np.linspace(beta_min, beta_max, n)
    if np.any(b[1:] <= b[:-1]):
        raise DomainError(f"count {count} exceeds the doubles in [{beta_min!r}, {beta_max!r}]")
    fracs = _exact_betas(beta_min, beta_max) if include_exact_points else []
    eb = np.asarray([float(f) for f in fracs])
    cols = _columns(np.union1d(b, eb), area)
    # an exact point's log det comes from the rational route, also where it
    # ties with a grid point
    cols[1][np.searchsorted(cols[0], eb)] = [
        log_det_area(AngleParam.from_fraction(f), area, route="rational").log_det
        for f in fracs
    ]
    return ScanTable(*cols, area=area)


def refine_minimum(
    beta_min: float = -0.95,
    beta_max: float = -0.55,
    area: float = 1.0,
    tol: float = 1e-6,
) -> float:
    """Locate the minimizer of beta -> log det at fixed area by repeated
    grid refinement, to within a finite ``tol`` > 0 or until the bracket stops
    shrinking (a few ulps wide, where the grid repeats doubles).

    The result is accurate to ``tol`` only down to about 1e-8 in beta.  Near
    its minimum log det is flat to within rounding over a few 1e-9, so a
    smaller ``tol`` narrows the bracket on rounding noise: it can end a few
    ulps wide about a point some 1e-9 from the true minimizer (at unit area,
    -0.66666666850 against -2/3)."""
    tol = _positive(tol, "tol")
    lo, hi, area = _beta_range(beta_min, beta_max, area)
    count = 65
    while hi - lo > tol:
        b = np.linspace(lo, hi, count)
        log_det = log_det_area(AngleParam(b), area).log_det
        i = int(np.argmin(log_det))
        new_lo, new_hi = b[max(i - 1, 0)], b[min(i + 1, count - 1)]
        if new_hi - new_lo >= hi - lo:
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)
