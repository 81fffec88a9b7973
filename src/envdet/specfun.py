"""Foundation layer: mathematical constants, gamma-family special functions,
exact Bernoulli numbers, and a double-exponential quadrature rule for
exponentially decaying integrands on (0, inf).

Everything here is pure; the constant tables are built once at import time
and the quadrature's node tables once per refinement level, on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple, Union

import numpy as np
from scipy import special as _sp

__all__ = [
    "Constants",
    "CONSTANTS",
    "DomainError",
    "QuadratureError",
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "log_gamma",
    "digamma",
    "trigamma",
    "zeta_int",
    "bernoulli",
    "integrate_semi_infinite",
]

ArrayLike = Union[float, np.ndarray]


class DomainError(ValueError):
    """Argument lies outside the domain an operation is defined on."""


class QuadratureError(RuntimeError):
    """Refinement budget exhausted before the requested tolerance was met."""


# Frozen from a one-time 40-digit computation (Euler-Maclaurin for gamma,
# Glaisher-Kinkelin constant via its zeta'(-1) identity).  The identity
# zeta'(-1) = 1/12 - log A links the last two and is enforced by tests.
_EULER_GAMMA = 0.577215664901532860606512090082
_LOG_GLAISHER = 0.248754477033784262547252993576
_ZETA_PRIME_NEG1 = -0.165421143700450929213919660243
_LOG_2PI = 1.83787706640934548356065947281
_LOG_PI = 1.14472988584940017414342735135


@dataclass(frozen=True)
class Constants:
    """Immutable bundle of the transcendental constants the library needs."""

    euler_gamma: float = _EULER_GAMMA
    log_glaisher: float = _LOG_GLAISHER
    zeta_prime_neg1: float = _ZETA_PRIME_NEG1
    log_2pi: float = _LOG_2PI
    log_pi: float = _LOG_PI


CONSTANTS = Constants()


def _require_positive(x: ArrayLike, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError(f"{what} must be positive, got {x!r}")
    return arr


def log_gamma(x: ArrayLike) -> ArrayLike:
    """Natural log of Gamma(x) for x > 0 (scalar or array)."""
    arr = _require_positive(x, "log_gamma argument")
    out = _sp.gammaln(arr)
    return float(out) if np.ndim(x) == 0 else out


def digamma(x: ArrayLike) -> ArrayLike:
    """Psi(x) = Gamma'(x)/Gamma(x) for x > 0 (scalar or array)."""
    arr = _require_positive(x, "digamma argument")
    out = _sp.psi(arr)
    return float(out) if np.ndim(x) == 0 else out


def trigamma(x: ArrayLike) -> ArrayLike:
    """Psi'(x), the derivative of the digamma function, for x > 0."""
    arr = _require_positive(x, "trigamma argument")
    out = _sp.polygamma(1, arr)
    return float(out) if np.ndim(x) == 0 else out


def zeta_int(k: int) -> float:
    """Riemann zeta at an integer argument k >= 2."""
    if int(k) != k or k < 2:
        raise DomainError(f"zeta_int needs an integer k >= 2, got {k!r}")
    return float(_sp.zeta(int(k), 1))


_BERNOULLI_MAX = 64
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def _extend_bernoulli(n: int) -> None:
    # Defining convolution: sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1,
    # with the B_1 = -1/2 convention (even indices are convention-free).
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n for even n with 2 <= n <= 64."""
    if int(n) != n or n % 2 != 0 or not 2 <= n <= _BERNOULLI_MAX:
        raise DomainError(f"bernoulli needs even n in [2, {_BERNOULLI_MAX}], got {n!r}")
    _extend_bernoulli(int(n))
    return _bernoulli_cache[int(n)]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the semi-infinite quadrature rule.

    ``small_t_crossover`` is the kernel radius below which downstream
    integrands switch from closed forms to series evaluation.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_refinement_levels: int = 10
    small_t_crossover: float = 0.5

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive")
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        if self.max_refinement_levels < 1:
            raise DomainError("max_refinement_levels must be >= 1")
        if not 0.0 < self.small_t_crossover <= 1.0:
            raise DomainError("small_t_crossover must lie in (0, 1]")


DEFAULT_QUAD = QuadratureSpec()


# Nodes per integrand call are capped so that no (nodes x width) temporary
# holds more than 2**14 doubles (128 KiB).
_BLOCK_POINTS = 2**14


@functools.lru_cache(maxsize=64)
def _level_nodes(
    u_lo: float, u_hi: float, h: float, odd_only: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t = exp(u - exp(-u)) and weights t (1 + exp(-u)) at u = k h for
    every (odd, with ``odd_only``) k with u_lo <= k h <= u_hi, in increasing
    order; both arrays are read-only because the cache shares them."""
    nodes, weights = [], []
    for k in range(math.ceil(u_lo / h), math.floor(u_hi / h) + 1):
        if odd_only and k % 2 == 0:
            continue
        u = k * h
        emu = math.exp(-u)
        t = math.exp(u - emu)
        nodes.append(t)
        weights.append(t * (1.0 + emu))
    tables = np.array(nodes), np.array(weights)
    for table in tables:
        table.flags.writeable = False
    return tables


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> Tuple[ArrayLike, float]:
    """Integrate ``f`` over (0, inf) with a double-exponential trapezoid rule.

    The substitution t = exp(u - exp(-u)) maps the integral to the real line
    where the trapezoid rule converges geometrically for integrands that are
    analytic on (0, inf), bounded as t -> 0+ and decay at least like exp(-t).

    ``f`` takes a read-only 1-D array of n nodes and returns the integrand
    there with the node axis first: shape ``(n,)`` for a scalar integrand,
    ``(n, width)`` for a vector of ``width`` integrands (the rule is applied
    component wise, with the max norm driving convergence).  The first call
    gets one node and reveals ``width``; later calls get at most
    ``max(1, 2**14 // width)`` nodes, so a level of a narrow integrand is one
    call and a wide one gets one node per call.  The weighted values are
    summed one node at a time in node order, so the result does not depend
    on how the nodes were split into calls.

    Returns ``(value, err_est)`` where ``err_est`` is the last refinement
    difference, an upper estimate of the remaining error.
    """
    # Hard cutoffs chosen so the neglected tails are far below abs_tol:
    # t_hi has exp(-t) * poly(t) < abs_tol / 10, the t -> 0 end is damped
    # double-exponentially by the map itself.
    decades = -math.log(min(spec.abs_tol, 1e-6))
    u_hi = math.log(decades + 45.0)
    u_lo = -math.log(decades + 40.0)
    block = 1  # nodes per call, until the first call reveals the width

    def weighted_sum(h: float, odd_only: bool):
        nonlocal block
        nodes, weights = _level_nodes(u_lo, u_hi, h, odd_only)
        total = 0.0
        start = 0
        while start < nodes.size:
            stop = start + block
            values = f(nodes[start:stop])
            block = max(1, _BLOCK_POINTS // np.size(values[0]))
            for value, weight in zip(values, weights[start:stop].tolist()):
                total = total + value * weight
            start = stop
        return total

    h = 0.5
    estimate = weighted_sum(h, odd_only=False) * h
    err = math.inf
    eps = np.finfo(float).eps
    for level in range(spec.max_refinement_levels):
        h /= 2.0
        refined = estimate / 2.0 + weighted_sum(h, odd_only=True) * h
        err = float(np.max(np.abs(refined - estimate)))
        scale = float(np.max(np.abs(refined)))
        estimate = refined
        tol = max(spec.abs_tol, spec.rel_tol * scale)
        # refuse to certify accuracy below what doubles can represent, even
        # if two refinements happen to agree bitwise
        if level >= 1 and err <= tol and tol >= 4.0 * eps * scale:
            if isinstance(estimate, np.ndarray) and estimate.ndim > 0:
                return estimate, err
            return float(estimate), err
    raise QuadratureError(
        f"quadrature did not reach tolerance {spec.abs_tol:g} within "
        f"{spec.max_refinement_levels} refinements (last diff {err:g})"
    )
