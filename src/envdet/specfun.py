"""Foundation layer: mathematical constants, the two exception types, one
gate for each kind of argument (real, whole, selector), the one shape of a
scalar result, and a double-exponential quadrature rule for groups of
exponentially decaying integrands on (0, inf), each group accepted at its
own refinement level and no longer evaluated after that.

The caller states the width of its integrands, so the first node table, the
whole h = 1/8 grid that holds the three levels before the first acceptance,
is one integrand call for a narrow integrand.  Each level is summed in node
order, by one prefix sum over narrow rows.  The first refinement, h = 1/4,
accepts no group, so its difference and tolerance are not computed.

It also owns envdet's one tie to scipy: the three compiled ufuncs
``gammaln``, ``psi`` and ``hurwitz_zeta`` (scipy's ``_zeta``, which
``scipy.special.zeta(s, q)`` calls), loaded from ``scipy.special._ufuncs``
without running ``scipy.special``'s package import, whose array-API layer
would import numpy's f2py, testing, random and ma packages.  A later
``import scipy.special`` runs in full and exports the same ufunc objects.

Everything here is pure; the quadrature's node tables are built once per
refinement level, on first use.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import math
import numbers
import sys
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "LOG_GLAISHER",
    "ZETA_PRIME_NEG1",
    "LOG_2PI",
    "LOG_PI",
    "DomainError",
    "QuadratureError",
    "gammaln",
    "hurwitz_zeta",
    "integrate_semi_infinite",
    "psi",
]


def _scipy_ufuncs():
    """scipy's compiled module ``scipy.special._ufuncs``: that of an imported
    ``scipy.special``, else imported under a bare stand-in for the package,
    whose ``__init__`` never runs.  The stand-in and every ``scipy.special.*``
    module the import added then leave ``sys.modules``, whether it succeeds
    or fails, so that a later ``import scipy.special`` runs in full and
    binds its submodules as attributes of the real package."""
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded._ufuncs
    before = set(sys.modules)
    sys.modules["scipy.special"] = importlib.util.module_from_spec(
        importlib.util.find_spec("scipy.special"))
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        for name in set(sys.modules) - before:
            if name == "scipy.special" or name.startswith("scipy.special."):
                del sys.modules[name]


_ufuncs = _scipy_ufuncs()
gammaln, psi, hurwitz_zeta = _ufuncs.gammaln, _ufuncs.psi, _ufuncs._zeta

# glibc sets its mmap threshold to the largest block freed from mmap so far,
# and its trim threshold to twice that (mallopt(3)).  scipy.special's package
# import used to free a block of about 430 KiB; without it the threshold
# stays near 260 KiB, and the heap top of criterion 5's 20000-wide
# quadrature is trimmed and faulted back in: 1500-3900 minor faults per
# verify suite, against about 400 with this 768 KiB block freed (untouched,
# so none of its pages is ever faulted in).  A block of 1 MiB or more also
# changes the heap of any other large array work in the process, so keep it
# at 768 KiB.
np.empty(3 * 2**15)


class DomainError(ValueError):
    """Argument lies outside the domain an operation is defined on."""


class QuadratureError(RuntimeError):
    """Refinement budget exhausted before the requested tolerance was met."""


def _real(value, what: str, *, ndim: Optional[int] = 0):
    """A real scalar (int, float, numpy real scalar, Fraction, 0-d array) as a
    float, a real array-like of at most ``ndim`` dimensions (None: any) as a
    float64 array; anything else, or an int or Fraction beyond the doubles,
    raises ``DomainError``.  NaN and +-inf pass to the caller's range check."""
    try:  # float and int before the ABC, whose check alone takes about 1 us
        if not isinstance(value, np.ndarray) and isinstance(value, (float, int, numbers.Real)):
            return float(value)
        arr = np.asarray(value)
    except (OverflowError, TypeError, ValueError):  # a huge int, a ragged list
        arr = np.asarray(None)  # object dtype, refused below
    if arr.dtype.kind in "biuf" and (ndim is None or arr.ndim <= ndim):
        return arr.astype(float, copy=False) if arr.ndim else float(arr)
    shape = {0: "", 1: " or a 1-D array of them"}.get(ndim, " or an array of them")
    raise DomainError(f"{what} must be a real number{shape}, got {value!r}")


def _whole(value, what: str, lo: int, hi: float) -> int:
    """An integer in [lo, hi] as an int: an int or numpy integer exactly, any other
    real through ``_real`` if its value is integral; else ``DomainError``."""
    n = int(value) if isinstance(value, (int, np.integer)) else _real(value, what)
    if not (lo <= n <= hi and n % 1 == 0):  # NaN fails the first test, inf the second
        raise DomainError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(n)


def _out(x):
    """A float for a scalar, the array itself for an array."""
    return x if np.ndim(x) else float(x)


_KINDS = {bool: (bool, np.bool_), int: (int, np.integer), str: (str,)}


def _choice(value, choices: tuple, what: str):
    """The one of ``choices`` (all bools, ints or strs) that ``value`` equals,
    if ``value`` is of their kind, numpy's included, and no bool among ints;
    anything else, a float or an array included, raises ``DomainError``."""
    kinds = _KINDS[type(choices[0])]
    if (isinstance(value, kinds) and not (isinstance(value, bool) and int in kinds)
            and value in choices):
        return choices[choices.index(value)]
    raise DomainError(f"{what} must be one of {', '.join(map(repr, choices))}, got {value!r}")


def _positive(value, what: str) -> float:
    x = _real(value, what)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{what} must be finite and positive, got {x!r}")
    return x


# Frozen from a one-time 40-digit computation (Euler-Maclaurin for gamma,
# Glaisher-Kinkelin constant via its zeta'(-1) identity).  The identity
# zeta'(-1) = 1/12 - log A links LOG_GLAISHER and ZETA_PRIME_NEG1 and is
# enforced by tests.
EULER_GAMMA = 0.577215664901532860606512090082
LOG_GLAISHER = 0.248754477033784262547252993576
ZETA_PRIME_NEG1 = -0.165421143700450929213919660243
LOG_2PI = 1.83787706640934548356065947281
LOG_PI = 1.14472988584940017414342735135


# A refinement is accepted when it moves an estimate by at most
# max(_TOL, _TOL * |estimate|).
_TOL = 1e-12
# Hard cutoffs of the node range, chosen so the neglected tails are far below
# _TOL: t_hi has exp(-t) * poly(t) < _TOL / 10, the t -> 0 end is damped
# double-exponentially by the map itself.
_DECADES = -math.log(_TOL)
_U_HI = math.log(_DECADES + 45.0)
_U_LO = -math.log(_DECADES + 40.0)


def _block_nodes(groups: int, width: int) -> int:
    """Nodes per integrand call, the one block rule: no (nodes x groups x
    width) block holds more than 2**14 doubles (128 KiB), unless one node does."""
    return max(1, 2**14 // (groups * width))


# Refinements (halvings of the step) before the rule gives up.
_MAX_LEVELS = 10


# A prefix sum along the node axis runs one inner loop per value of a row,
# about 5 ns per value and row, where an in-place add costs about 0.5 us
# per row; rows of at most this many values take the prefix sum.
_PREFIX_SUM_VALUES = 64


def _add_rows(total, rows: np.ndarray):
    """``total + rows[0] + rows[1] + ...``, added in this order: the bits of
    ``for row in rows: total += row``, signed zeros included (never a
    pairwise ``sum``, which rounds otherwise).  Narrow rows are added by one
    prefix sum seeded with ``total``, written into ``rows``; wide ones into
    an array ``total`` of their own, so that no total keeps its block alive
    (that raised a wide integrand's page faults 2.5-fold)."""
    if not len(rows):
        return total
    if rows[0].size > _PREFIX_SUM_VALUES:
        for row in rows:
            total += row
        return total
    rows[0] += total
    np.add.accumulate(rows, axis=0, out=rows)
    return rows[-1]


@functools.cache
def _level_nodes(h: float, odd_only: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t = exp(u - exp(-u)) and weights t (1 + exp(-u)) at u = k h for
    every (odd, with ``odd_only``) k with _U_LO <= k h <= _U_HI, in increasing
    order; both arrays are read-only because the cache shares them."""
    nodes, weights = [], []
    for k in range(math.ceil(_U_LO / h), math.floor(_U_HI / h) + 1):
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
    f: Callable, groups: int, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate ``groups`` vectors of ``width`` integrands each over
    (0, inf) with a double-exponential trapezoid rule, each group converging
    on its own.

    The substitution t = exp(u - exp(-u)) maps the integral to the real line
    where the trapezoid rule converges geometrically for integrands that are
    analytic on (0, inf), bounded as t -> 0+ and decay at least like exp(-t).

    ``f(t, open)`` takes a read-only 1-D array of n nodes and the increasing
    tuple of the indices of the groups still open, and returns their
    integrands there as an ``(n, len(open), width)`` array; the rule is
    applied component wise, with the max norm over a group driving its
    convergence.  No group can be accepted before h = 1/8, so the first node
    table is the whole h = 1/8 grid, whose nodes k h with k = 0 (mod 4),
    k = 2 (mod 4) and k odd are the levels h = 1/2, 1/4 and 1/8; each later
    level is the odd nodes of its h.  A table is evaluated in calls of at
    most ``_block_nodes(len(open), width)`` nodes, so a table of a narrow
    integrand is one call and a wide one gets one node per call.
    Each level's weighted values are added one node at a time in node
    order, from 0.0, so the result does not depend on how the nodes were
    split into calls.

    A refinement is accepted when it moves a group's estimate by at most
    ``max(tol, tol * |estimate|)``, with ``tol`` = 1e-12.  A group is frozen
    at the level that accepts it and no longer evaluated, so its value and
    level are those of a call on that group alone.  A ``groups`` or
    ``width`` that is not a whole number of at least 1 raises
    ``DomainError``, and an integrand value of another shape ``ValueError``.

    Returns ``(values, err_est)``: the ``(groups, width)`` integrals and, per
    group, the last refinement difference, an upper estimate of the
    remaining error.
    """
    groups, width = _whole(groups, "groups", 1, math.inf), _whole(width, "width", 1, math.inf)

    def weighted_sums(nodes, weights, levels, open_) -> list:
        # one sum per level (offset, step): table positions offset,
        # offset + step, ...
        block = _block_nodes(len(open_), width)
        # the float 0.0, not np.zeros: zeroed totals too raised a wide
        # integrand's page faults 2.5-fold
        totals = [0.0] * len(levels)
        for start in range(0, nodes.size, block):
            t = nodes[start:start + block]
            values = f(t, open_)
            if np.shape(values) != (t.size, len(open_), width):
                raise ValueError(
                    f"integrand returned shape {np.shape(values)}, "
                    f"expected {(t.size, len(open_), width)}"
                )
            # the whole block weighted by one multiply
            weighted = values * weights[start:start + block, None, None]
            for i, (offset, step) in enumerate(levels):
                totals[i] = _add_rows(totals[i], weighted[(offset - start) % step::step])
            del values, weighted  # free this block before the next one is made
        return totals

    h = 0.5
    open_ = tuple(range(groups))
    # the three levels before the first acceptance, from the h = 1/8 grid;
    # u = k h is exact, so its nodes are those of each level's own table
    k_lo = math.ceil(_U_LO / (h / 4.0))
    first_levels = ((-k_lo) % 4, 4), ((2 - k_lo) % 4, 4), ((1 - k_lo) % 2, 2)
    coarse, *finer = weighted_sums(*_level_nodes(h / 4.0, False), first_levels, open_)
    # one row per group, rebound and never written to, so a frozen row keeps
    # its accepted value (a (groups, width) array tripled the page faults)
    estimate = list(coarse * h)
    errs = [math.inf] * groups

    for level in range(_MAX_LEVELS):
        h /= 2.0
        if level < len(finer):
            new_sum = finer[level]
        else:
            (new_sum,) = weighted_sums(*_level_nodes(h, True), ((0, 1),), open_)
        still_open = []
        # the new nodes' sum first, then each open row's halved estimate
        # added to it in place (floating-point addition commutes)
        for g, new in zip(open_, new_sum * h):
            new += estimate[g] / 2.0
            # level 0 accepts no group, so its difference is never read
            if level >= 1:
                errs[g] = float(np.abs(new - estimate[g]).max())
            if level == 0 or not errs[g] <= max(_TOL, _TOL * float(np.abs(new).max())):
                still_open.append(g)
            estimate[g] = new
        open_ = tuple(still_open)
        if not open_:
            return np.array(estimate), np.array(errs)
    raise QuadratureError(
        f"quadrature did not reach tolerance {_TOL:g} within "
        f"{_MAX_LEVELS} refinements (last diff {max(errs[g] for g in open_):g})"
    )
