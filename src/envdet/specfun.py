"""Foundation layer: mathematical constants, the log-gamma function,
exact Bernoulli numbers, and a double-exponential quadrature rule for
exponentially decaying integrands on (0, inf).

Everything here is pure but the quadrature's read of ``ENVDET_QUAD_TOL``;
the constant tables are built once at import time and the quadrature's node
tables once per refinement level, on first use.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from typing import Callable, Tuple, Union

import numpy as np
from scipy import special as _sp

__all__ = [
    "EULER_GAMMA",
    "LOG_GLAISHER",
    "ZETA_PRIME_NEG1",
    "LOG_2PI",
    "LOG_PI",
    "DomainError",
    "QuadratureError",
    "log_gamma",
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
# zeta'(-1) = 1/12 - log A links LOG_GLAISHER and ZETA_PRIME_NEG1 and is
# enforced by tests.
EULER_GAMMA = 0.577215664901532860606512090082
LOG_GLAISHER = 0.248754477033784262547252993576
ZETA_PRIME_NEG1 = -0.165421143700450929213919660243
LOG_2PI = 1.83787706640934548356065947281
LOG_PI = 1.14472988584940017414342735135


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


def _tol() -> float:
    """``ENVDET_QUAD_TOL``, else 1e-12; read per call, so that a bad value
    fails the quadrature that reads it, not ``import envdet``."""
    raw = os.environ.get("ENVDET_QUAD_TOL")
    if raw is None:
        return 1e-12
    try:
        tol = float(raw)
    except ValueError as exc:
        raise DomainError(f"ENVDET_QUAD_TOL={raw!r}: {exc}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(
            f"ENVDET_QUAD_TOL={raw!r}: quadrature tol must be finite and positive, got {tol!r}"
        )
    return tol


# Nodes per integrand call are capped so that no (nodes x width) temporary
# holds more than 2**14 doubles (128 KiB).
_BLOCK_POINTS = 2**14
# Refinements (halvings of the step) before the rule gives up.
_MAX_LEVELS = 10


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


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray]) -> Tuple[ArrayLike, ArrayLike]:
    """Integrate ``f`` over (0, inf) with a double-exponential trapezoid rule.

    The substitution t = exp(u - exp(-u)) maps the integral to the real line
    where the trapezoid rule converges geometrically for integrands that are
    analytic on (0, inf), bounded as t -> 0+ and decay at least like exp(-t).

    ``f`` takes a read-only 1-D array of n nodes and returns the integrand
    there with the node axis first: shape ``(n,)`` for a scalar integrand,
    ``(n, width)`` for a vector of ``width`` integrands (the rule is applied
    component wise, with the max norm driving convergence) and
    ``(n, groups, width)`` for several such vectors, each converging on its
    own.  The first call gets one node and reveals the size per node; later
    calls get at most ``max(1, 2**14 // size)`` nodes, so a level of a narrow
    integrand is one call and a wide one gets one node per call.  The
    weighted values are summed one node at a time in node order, so the
    result does not depend on how the nodes were split into calls.

    A refinement is accepted when it moves the estimate by at most
    ``max(tol, tol * |estimate|)``, with ``tol`` from ``ENVDET_QUAD_TOL``
    (default 1e-12), read once per call; a value that is not a finite
    positive number raises ``DomainError``.  A group is frozen at the level
    that accepts it, so its value and level are those of a call on that
    group alone.

    Returns ``(value, err_est)`` where ``err_est`` is the last refinement
    difference, an upper estimate of the remaining error; grouped values
    give one ``err_est`` per group.
    """
    target = _tol()
    # Hard cutoffs chosen so the neglected tails are far below tol:
    # t_hi has exp(-t) * poly(t) < tol / 10, the t -> 0 end is damped
    # double-exponentially by the map itself.
    decades = -math.log(min(target, 1e-6))
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
            # the whole block weighted by one multiply, its rows then added in
            # node order
            for row in values * weights[start:stop].reshape((-1,) + (1,) * (values.ndim - 1)):
                total += row
            del values, row  # free this block before the next one is made
            start = stop
        return total

    h = 0.5
    estimate = weighted_sum(h, odd_only=False) * h
    grouped = np.ndim(estimate) == 2
    groups = len(estimate) if grouped else 1
    # per group: the value it was accepted with and its last refinement
    # difference
    accepted = [None] * groups
    errs = [math.inf] * groups
    eps = np.finfo(float).eps

    for level in range(_MAX_LEVELS):
        h /= 2.0
        # the new nodes' sum first, so that no halved copy of the estimate
        # is held while it is formed (floating-point addition commutes)
        refined = weighted_sum(h, odd_only=True) * h + estimate / 2.0
        for g in range(groups):
            if accepted[g] is not None:
                continue
            new = refined[g] if grouped else refined
            errs[g] = float(np.max(np.abs(new - (estimate[g] if grouped else estimate))))
            scale = float(np.max(np.abs(new)))
            tol = max(target, target * scale)
            # refuse to certify accuracy below what doubles can represent,
            # even if two refinements happen to agree bitwise
            if level >= 1 and errs[g] <= tol and tol >= 4.0 * eps * scale:
                accepted[g] = new
        estimate = refined
        if all(value is not None for value in accepted):
            if grouped:
                return np.stack(accepted), np.array(errs)
            if np.ndim(refined) > 0:
                return refined, errs[0]
            return float(refined), errs[0]
    last = max(err for err, value in zip(errs, accepted) if value is None)
    raise QuadratureError(
        f"quadrature did not reach tolerance {target:g} within "
        f"{_MAX_LEVELS} refinements (last diff {last:g})"
    )
