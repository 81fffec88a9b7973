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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy import special as _sp

from . import barnes
from .specfun import CONSTANTS, DEFAULT_QUAD, DomainError, QuadratureSpec

__all__ = [
    "AngleParam",
    "DetResult",
    "EnvelopeGeometry",
    "ScanRow",
    "ScanTable",
    "scaling_factor",
    "log_scaling_factor",
    "log_det_unit",
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
    "refine_minimum",
    "BETA_CRITICAL",
]

_GAMMA = CONSTANTS.euler_gamma
_LOG_A = CONSTANTS.log_glaisher
_ZP1 = CONSTANTS.zeta_prime_neg1
_LOG_PI = CONSTANTS.log_pi
_LOG2 = math.log(2.0)
_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.2020569031595942854
_EDGE = 1e-6

BETA_CRITICAL = -2.0 / 3.0


def _check_beta(b: np.ndarray) -> None:
    if not (np.all(b > -1.0) and np.all(b < -0.5)):
        raise DomainError("beta must lie in the open interval (-1, -1/2)")
    # Every term of the determinant formula is singular at the endpoints;
    # the asymptotic expansions cover the excluded slivers.
    if np.any(b + 1.0 < _EDGE) or np.any(-0.5 - b < _EDGE):
        raise DomainError(
            f"beta within {_EDGE:g} of an endpoint; use the asymptotic expansions there"
        )


def _check_area(area: float) -> None:
    if not (math.isfinite(area) and area > 0.0):
        raise DomainError(f"area must be finite and positive, got {area!r}")


def _out(x):
    """A float for a scalar beta, the array itself for an array beta."""
    return x if np.ndim(x) else float(x)


def _log(x):
    # Floats take math.log and arrays numpy's log.  The two can differ in the
    # last bit, and both the scalar expansions and the scan files are pinned
    # bit for bit.
    return np.log(x) if np.ndim(x) else math.log(x)


@dataclass(frozen=True)
class AngleParam:
    """Validated angle parameter with its two derived Barnes arguments

    a1 = beta + 1 (base-angle fraction) and a2 = -2*beta - 1 (apex fraction).
    ``exact`` optionally carries beta as an exact rational, which unlocks the
    closed-form Barnes route.

    ``beta`` is a float or a 1-D ndarray of grid points.  The determinant,
    its derivatives, zeta0 and its derivatives, the endpoint expansions and
    the convexity bound map a float beta to a float and an array beta to an
    array, element by element; the series and rational routes, the scaling
    factor and the geometry take a float beta only.
    """

    beta: Union[float, np.ndarray]
    exact: Optional[Fraction] = None
    a1: Union[float, np.ndarray] = field(init=False)
    a2: Union[float, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        _check_beta(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "a1", self.beta + 1.0)
        object.__setattr__(self, "a2", -2.0 * self.beta - 1.0)
        if self.exact is not None:
            ex = Fraction(self.exact)
            if float(ex) != self.beta:
                raise DomainError("exact fraction does not match beta")
            object.__setattr__(self, "exact", ex)

    @classmethod
    def from_fraction(cls, beta: Fraction) -> "AngleParam":
        beta = Fraction(beta)
        return cls(beta=float(beta), exact=beta)


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


class ScanRow(NamedTuple):
    beta: float
    log_det: float
    d1: float
    d2: float
    asymptotic_neg1: float
    asymptotic_neghalf: float


@dataclass(frozen=True)
class ScanTable:
    """Grid of per-beta quantities at fixed area, sorted by beta.

    All columns refer to the fixed-area function beta -> log det: ``d1`` and
    ``d2`` are its beta-derivatives and the asymptotic columns carry the
    endpoint truncations shifted by the same area term as ``log_det``.
    """

    rows: Tuple[ScanRow, ...]
    area: float
    grid_spec: Tuple[float, float, int]


# --------------------------------------------------------------------------
# elementary building blocks (array-aware; scalars pass through as 0-d)
# --------------------------------------------------------------------------


def _log_c(b):
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    return (
        _LOG2
        - _sp.gammaln(a2 / 2.0)
        - _sp.gammaln(a1)
        + 0.5 * (_LOG_PI - np.log(np.sin(np.pi * a2)))
    )


def _d_log_c(b):
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    s = np.sin(np.pi * a2)
    return _sp.psi(a2 / 2.0) - _sp.psi(a1) + np.pi * np.cos(np.pi * a2) / s


def _d2_log_c(b):
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    s = np.sin(np.pi * a2)
    return -_sp.polygamma(1, a2 / 2.0) - _sp.polygamma(1, a1) + 2.0 * np.pi**2 / s**2


def _elementary(b):
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    x2 = 2.0 * b + 1.0
    g = (2.0 * b + 4.0 / a1 - 1.0 / x2) / 6.0
    h = (2.0 / a1 - 1.0 / x2 - 1.0) / 6.0
    return (
        g * _LOG2
        - h * _log_c(b)
        - np.log(a1)
        - 0.5 * np.log(a2)
        - 2.5 * _LOG2
        - _LOG_PI
    )


def _d_elementary(b):
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    x2 = 2.0 * b + 1.0
    gp = (2.0 - 4.0 / a1**2 + 2.0 / x2**2) / 6.0
    h = (2.0 / a1 - 1.0 / x2 - 1.0) / 6.0
    hp = (-2.0 / a1**2 + 2.0 / x2**2) / 6.0
    return gp * _LOG2 - hp * _log_c(b) - h * _d_log_c(b) - 1.0 / a1 + 1.0 / a2


def _d2_elementary(b):
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    x2 = 2.0 * b + 1.0
    gpp = (8.0 / a1**3 - 8.0 / x2**3) / 6.0
    h = (2.0 / a1 - 1.0 / x2 - 1.0) / 6.0
    hp = (-2.0 / a1**2 + 2.0 / x2**2) / 6.0
    hpp = (4.0 / a1**3 - 8.0 / x2**3) / 6.0
    return (
        gpp * _LOG2
        - hpp * _log_c(b)
        - 2.0 * hp * _d_log_c(b)
        - h * _d2_log_c(b)
        + 1.0 / a1**2
        + 2.0 / a2**2
    )


def _integral_pair(p: AngleParam, k: int, quad: QuadratureSpec):
    """Integral-route k-th a-derivative of zeta_B'(0; ., 1, 1) at a1 and at
    a2, from one quadrature over both."""
    a = np.concatenate([np.atleast_1d(p.a1), np.atleast_1d(p.a2)])
    if k == 0:
        z, _ = barnes.zeta_b_prime0_values(a, quad)
    elif k == 1:
        z = barnes.d_zeta_b_prime0(a, quad)
    else:
        z = barnes.d2_zeta_b_prime0(a, quad)
    return np.reshape(z, (2,) + np.shape(p.beta))


def _chain(k: int, elementary, z1, z2):
    """k-th beta-derivative of the unit-area log det from the k-th derivative
    of the elementary terms and the k-th a-derivatives z1, z2 of
    zeta_B'(0; ., 1, 1) at a1 and a2 (da1/dbeta = 1, da2/dbeta = -2).

    Every route and scan column sums in this one order.
    """
    out = elementary - 4.0 * z1 - 2.0 * (-2.0) ** k * z2
    return out + 2.0 * _ZP1 if k == 0 else out


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def log_scaling_factor(p: AngleParam) -> float:
    """log of the area-normalizing conformal factor."""
    return float(_log_c(p.beta))


def scaling_factor(p: AngleParam) -> float:
    """Conformal factor 2/(Gamma(a2/2) Gamma(a1)) * sqrt(pi / sin(pi a2)) > 0.

    Evaluated in log form, so the value degrades gracefully to 0+ near the
    endpoints instead of overflowing intermediates.
    """
    return math.exp(log_scaling_factor(p))


def zeta0(p: AngleParam) -> float:
    """Spectral zeta value at 0: -13/12 + 1/(6(beta+1)) - 1/(12(2 beta+1))."""
    return _out(-13.0 / 12.0 + 1.0 / (6.0 * p.a1) - 1.0 / (12.0 * (2.0 * p.beta + 1.0)))


def d_zeta0(p: AngleParam) -> float:
    x2 = 2.0 * p.beta + 1.0
    return _out(-1.0 / (6.0 * p.a1**2) + 1.0 / (6.0 * x2**2))


def d2_zeta0(p: AngleParam) -> float:
    x2 = 2.0 * p.beta + 1.0
    return _out(1.0 / (3.0 * p.a1**3) - 2.0 / (3.0 * x2**3))


def log_det_unit(
    p: AngleParam,
    route: str = "integral",
    series_terms: int = 4,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> DetResult:
    """log det at unit area, with the Barnes terms evaluated by ``route``.

    ``route='rational'`` requires ``p`` built via :meth:`AngleParam.from_fraction`
    and gives the exact closed-form evaluation; ``'series'`` uses the
    certified truncation of order ``series_terms``.
    """
    if route == "integral":
        zb1, zb2 = _integral_pair(p, 0, quad)
    elif route == "series":
        zb1 = barnes.zeta_b_prime0_series(p.a1, series_terms).value
        zb2 = barnes.zeta_b_prime0_series(p.a2, series_terms).value
    elif route == "rational":
        if p.exact is None:
            raise DomainError("route='rational' needs AngleParam.from_fraction")
        zb1 = barnes.zeta_b_prime0_rational(p.exact + 1).value
        zb2 = barnes.zeta_b_prime0_rational(-2 * p.exact - 1).value
    else:
        raise DomainError(f"unknown route {route!r}")
    elementary = _elementary(p.beta)
    log_det = _chain(0, elementary, zb1, zb2)
    return DetResult(
        log_det=_out(log_det),
        elementary_part=_out(elementary),
        barnes_part=_out(log_det - elementary),
        area_term=0.0,
        area=1.0,
    )


def log_det_area(
    p: AngleParam,
    area: float,
    route: str = "integral",
    series_terms: int = 4,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> DetResult:
    """log det at the given area: the unit-area value minus zeta0 * log(area)."""
    _check_area(area)
    base = log_det_unit(p, route=route, series_terms=series_terms, quad=quad)
    area_term = -zeta0(p) * math.log(area)
    return DetResult(
        log_det=base.log_det + area_term,
        elementary_part=base.elementary_part,
        barnes_part=base.barnes_part,
        area_term=area_term,
        area=area,
    )


def asymptotic_neg1(p: AngleParam) -> float:
    """Truncated expansion of the unit-area log det near beta = -1."""
    a1 = p.a1
    return _out(
        -_log(a1) / (6.0 * a1)
        + (math.log(8.0 * math.pi) / 6.0 - 4.0 * _LOG_A) / a1
        - _log(a1)
        - _LOG2
    )


def asymptotic_neghalf(p: AngleParam) -> float:
    """Truncated expansion of the unit-area log det near beta = -1/2."""
    x2 = 2.0 * p.beta + 1.0
    a2 = p.a2
    return _out(
        _log(a2) / (12.0 * x2)
        - (_LOG2 / 6.0 + _LOG_PI / 12.0 - 2.0 * _LOG_A) / x2
        - 0.75 * _log(a2)
        - 0.5 * _LOG2
        - 0.25 * _LOG_PI
    )


def d_log_det(p: AngleParam, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Analytic d/dbeta of the unit-area log det."""
    return _out(_chain(1, _d_elementary(p.beta), *_integral_pair(p, 1, quad)))


def d2_log_det(p: AngleParam, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Analytic d^2/dbeta^2 of the unit-area log det."""
    return _out(_chain(2, _d2_elementary(p.beta), *_integral_pair(p, 2, quad)))


def convexity_lower_bound(p: AngleParam) -> float:
    """Elementary strictly positive lower bound for d2_log_det.

    Second derivative of the explicit scaling-factor/log bracket (with its
    zeta-series truncated at the cubic term) minus 1/5 minus the singular
    Barnes leading terms; everything is in closed form.
    """
    b = p.beta
    a1 = b + 1.0
    a2 = -2.0 * b - 1.0
    x2 = 2.0 * b + 1.0
    half = x2 / 2.0  # beta + 1/2

    P = (2.0 / a1 - 1.0 / x2 - 1.0) / 12.0
    Pp = (-2.0 / a1**2 + 2.0 / x2**2) / 12.0
    Ppp = (4.0 / a1**3 - 8.0 / x2**3) / 12.0

    series_q = 2.0 * (
        _ZETA2 / 2.0 * (a1**2 + half**2) + _ZETA3 / 3.0 * (-(a1**3) + half**3)
    )
    Q = (
        np.log(np.sin(np.pi * a2))
        - _LOG_PI
        - 2.0 * np.log(a1)
        - 2.0 * np.log(a2)
        - _GAMMA
        + series_q
    )
    s = np.sin(np.pi * a2)
    Qp = (
        -2.0 * np.pi * np.cos(np.pi * a2) / s
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
    Rpp = (8.0 / a1**3 - 8.0 / x2**3) * _LOG2 / 6.0 + 1.0 / a1**2 + 2.0 / x2**2
    Gpp = Ppp * Q + 2.0 * Pp * Qp + P * Qpp + Rpp
    return _out(Gpp - 0.2 - _LOG_A * (8.0 / a1**3 - 2.0 / half**3))


def critical_area(quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Area above which the equilateral point flips from the absolute minimum
    to a local maximum: exp(d2_log_det(-2/3) / 27)."""
    return math.exp(d2_log_det(AngleParam(BETA_CRITICAL), quad) / 27.0)


def geometry(p: AngleParam, area: float = 1.0) -> EnvelopeGeometry:
    """Side length |AB| = |BC| and the three angles at the given area."""
    _check_area(area)
    side = math.sqrt(area / math.sin(math.pi * p.a2))
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


def _columns(b: np.ndarray, area: float, quad: QuadratureSpec):
    p = AngleParam(b)
    log_area = math.log(area)
    det = log_det_area(p, area, quad=quad)
    return (
        det.log_det,
        d_log_det(p, quad) - d_zeta0(p) * log_area,
        d2_log_det(p, quad) - d2_zeta0(p) * log_area,
        asymptotic_neg1(p) + det.area_term,
        asymptotic_neghalf(p) + det.area_term,
    )


def _exact_betas(beta_min: float, beta_max: float, max_denominator: int):
    found = []
    for den in range(2, max_denominator + 1):
        for num in range(den // 2 + 1, den):
            frac = Fraction(-num, den)
            if frac.denominator != den:
                continue  # not in lowest terms with this denominator
            if Fraction(-1) < frac < Fraction(-1, 2) and beta_min <= float(frac) <= beta_max:
                found.append(frac)
    return sorted(set(found))


def scan(
    beta_min: float,
    beta_max: float,
    count: int,
    area: float = 1.0,
    quad: QuadratureSpec = DEFAULT_QUAD,
    include_exact_points: bool = False,
    max_denominator: int = 12,
) -> ScanTable:
    """Uniform beta grid with per-point log det, derivatives and asymptotics.

    With ``include_exact_points`` the grid is augmented by every reduced
    rational beta with denominator <= ``max_denominator`` inside the range,
    whose log det is computed through the exact closed-form Barnes route.
    """
    if int(count) != count or count < 2:
        raise DomainError(f"count must be an integer >= 2, got {count!r}")
    if not (beta_min < beta_max):
        raise DomainError("need beta_min < beta_max")
    _check_area(area)
    _check_beta(np.asarray([beta_min, beta_max]))

    b = np.linspace(beta_min, beta_max, int(count))
    cols = _columns(b, area, quad)
    rows = [ScanRow(*vals) for vals in zip(b.tolist(), *(c.tolist() for c in cols))]

    if include_exact_points:
        extra_fracs = _exact_betas(beta_min, beta_max, max_denominator)
        if extra_fracs:
            eb = np.asarray([float(f) for f in extra_fracs])
            ecols = _columns(eb, area, quad)
            extra = []
            for i, frac in enumerate(extra_fracs):
                det = log_det_area(AngleParam.from_fraction(frac), area, route="rational")
                extra.append(
                    ScanRow(
                        beta=float(frac),
                        log_det=det.log_det,
                        d1=float(ecols[1][i]),
                        d2=float(ecols[2][i]),
                        asymptotic_neg1=float(ecols[3][i]),
                        asymptotic_neghalf=float(ecols[4][i]),
                    )
                )
            merged = {row.beta: row for row in rows}
            merged.update({row.beta: row for row in extra})  # exact wins ties
            rows = [merged[k] for k in sorted(merged)]

    return ScanTable(rows=tuple(rows), area=area, grid_spec=(beta_min, beta_max, int(count)))


def refine_minimum(
    beta_min: float = -0.95,
    beta_max: float = -0.55,
    area: float = 1.0,
    tol: float = 1e-6,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Locate the minimizer of beta -> log det at fixed area by repeated
    grid refinement, to within ``tol``."""
    lo, hi = float(beta_min), float(beta_max)
    count = 65
    while hi - lo > tol:
        b = np.linspace(lo, hi, count)
        log_det = log_det_area(AngleParam(b), area, quad=quad).log_det
        i = int(np.argmin(log_det))
        lo = b[max(i - 1, 0)]
        hi = b[min(i + 1, count - 1)]
    return 0.5 * (lo + hi)
