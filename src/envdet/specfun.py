"""Foundation layer: mathematical constants, the two exception types, one
gate for each kind of argument (real, whole, selector), the one shape of a
scalar result, and a double-exponential quadrature rule for groups of
exponentially decaying integrands on (0, inf), each group accepted at its
own refinement level and no longer evaluated after that.

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


def _const(x) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array: a ufunc takes an array operand
    about 0.3 us sooner than a float or a numpy scalar, which it converts."""
    c = np.array(x, dtype=float)
    c.flags.writeable = False
    return c


def _out(x):
    """A float for a scalar, the array itself (np.ndim takes 1.5 us on a float)."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


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


# Refinements (halvings of the step) before the rule gives up, and the step
# of each level, h = 1/2, 1/4, ...
_MAX_LEVELS = 10
_STEPS = [_const(0.5 / 2**level) for level in range(_MAX_LEVELS + 1)]
_TWO = _const(2.0)
# A prefix sum along the node axis runs one inner loop per value of a row,
# about 5 ns per value and row, where an in-place add costs about 0.5 us
# per row; rows of at most this many values take the prefix sum.
_PREFIX_SUM_VALUES = 64
_SEEDS = 4  # spare rows before a narrow block, for the level totals (steps are <= 4)
_max = np.maximum.reduce  # ndarray.max's Python wrapper costs about 0.4 us


@functools.cache
def _level_nodes(h: float, odd_only: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t = exp(u - exp(-u)) and (n, 1, 1) weights t (1 + exp(-u)) at
    u = k h for every (odd, with ``odd_only``) k with _U_LO <= k h <= _U_HI,
    in increasing order, read-only because the cache shares them."""
    nodes, weights = [], []
    for k in range(math.ceil(_U_LO / h), math.floor(_U_HI / h) + 1):
        if odd_only and k % 2 == 0:
            continue
        u = k * h
        emu = math.exp(-u)
        t = math.exp(u - emu)
        nodes.append(t)
        weights.append(t * (1.0 + emu))
    tables = np.array(nodes), np.array(weights).reshape(-1, 1, 1)
    for table in tables:
        table.flags.writeable = False
    return tables


# The first table's levels h = 1/2, 1/4, 1/8 as (offset, step): k = 0, k = 2 (mod 4), k odd.
_K_LO = math.ceil(_U_LO * 8.0)
_FIRST_LEVELS = ((-_K_LO) % 4, 4), ((2 - _K_LO) % 4, 4), ((1 - _K_LO) % 2, 2)


def _level_sums(f: Callable, table: tuple, levels: tuple, open_: tuple, width: int) -> list:
    """The weighted sum of ``f`` over each level (offset, step) of ``table``,
    its positions offset, offset + step, ..., from the float 0.0 (zeroed
    arrays raised a wide integrand's page faults 2.5-fold) in node order: the
    bits of ``for row in rows: total += row``, signed zeros included (never a
    pairwise ``sum``).  Narrow rows are weighted after ``_SEEDS`` rows that
    take the totals, one prefix sum a level; wide ones are added into an
    array of their own, so that no total keeps its block alive."""
    nodes, weights = table
    shape = (len(open_), width)
    block = _block_nodes(*shape)
    totals = [0.0] * len(levels)
    for start in range(0, nodes.size, block):
        t, weights_t = nodes[start:start + block], weights[start:start + block]
        values = np.asarray(f(t, open_))
        if values.shape != (t.size,) + shape:
            raise ValueError(f"integrand returned shape {values.shape}, expected {(t.size,) + shape}")
        # the whole block weighted by one multiply, and freed before the next
        if shape[0] * width > _PREFIX_SUM_VALUES:
            weighted = values * weights_t
            for i, (offset, step) in enumerate(levels):
                for row in weighted[(offset - start) % step::step]:
                    totals[i] += row
            row = None  # a view, which would keep the block alive
        else:  # of the dtype values * weights would take
            dtype = np.promote_types(values.dtype, weights_t.dtype)
            weighted = np.empty((_SEEDS + t.size,) + shape, dtype)
            np.multiply(values, weights_t, weighted[_SEEDS:])
            # a narrow block, of 256 nodes or more, holds the whole first table,
            # so the totals are all 0.0 unless the table has one level
            weighted[:_SEEDS] = totals[0]
            for i, (offset, step) in enumerate(levels):
                rows = weighted[_SEEDS + (offset - start) % step - step::step]
                np.add.accumulate(rows, 0, None, rows)
                totals[i] = rows[-1]
        del values, weighted
    return totals


def integrate_semi_infinite(f: Callable, groups: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
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
    level is the odd nodes of its h.  h = 1/8 is tested for every group at
    once, and only the groups it leaves open refine, one row each.  A
    table is evaluated in calls of at most ``_block_nodes(len(open), width)``
    nodes, so a table of a narrow integrand is one call and a wide one gets
    one node per call.
    Each level's weighted values are added one node at a time in node
    order, from 0.0, so the result does not depend on how the nodes were
    split into calls.

    A refinement is accepted when it moves a group's estimate by at most
    ``max(tol, tol * |estimate|)``, with ``tol`` = 1e-12.  A group is frozen
    at the level that accepts it and no longer evaluated, so its value and
    level are those of a call on that group alone.  The groups of the Barnes
    integral route with every a <= 1, so every quadrature of a determinant
    call, are accepted at h = 1/8, from the first table.  A ``groups`` or
    ``width`` that is not a whole number of at least 1 raises
    ``DomainError``, and an integrand value of another shape ``ValueError``.

    Returns ``(values, err_est)``: the ``(groups, width)`` integrals and, per
    group, the last refinement difference, an upper estimate of the
    remaining error.
    """
    groups, width = _whole(groups, "groups", 1, math.inf), _whole(width, "width", 1, math.inf)
    coarse, quarter, eighth = _level_sums(
        f, _level_nodes(0.125, False), _FIRST_LEVELS, tuple(range(groups)), width)
    # h = 1/2, then h = 1/4, which accepts no group: the new nodes' sum plus
    # the halved estimate (floating-point addition commutes), in place
    coarse *= _STEPS[0]
    coarse /= _TWO
    quarter *= _STEPS[1]
    quarter += coarse
    # h = 1/8 for every group at once, with the bits of one group alone:
    # half holds the halved h = 1/4 estimate, then |new - estimate|
    new = eighth * _STEPS[2]
    half = quarter / _TWO
    new += half
    np.subtract(new, quarter, half)
    err = _max(np.absolute(half, half), 1)
    errs = err.tolist()
    # err <= max(tol, tol |estimate|) as err <= tol or err <= tol |estimate|,
    # the same test (NaN fails both), whose second half few groups need
    open_ = tuple([g for g, e in enumerate(errs) if not e <= _TOL])
    if open_:
        scale = _max(np.absolute(new, half), 1).tolist()
        open_ = tuple([g for g in open_ if not errs[g] <= _TOL * scale[g]])
    if not open_:
        return new, err
    # one row per group, rebound and never written to, so a frozen row keeps
    # its accepted value (a (groups, width) array tripled the page faults)
    estimate = list(new)

    for level in range(2, _MAX_LEVELS):
        h = _STEPS[level + 1]
        new_sum, = _level_sums(f, _level_nodes(float(h), True), ((0, 1),), open_, width)
        still_open = []
        for g, new in zip(open_, new_sum * h):  # no name keeps a replaced row's level alive
            new += estimate[g] / _TWO
            errs[g] = err = float(_max(abs(new - estimate[g])))
            estimate[g] = new
            if not err <= max(_TOL, _TOL * float(_max(abs(new)))):
                still_open.append(g)
        open_ = tuple(still_open)
        if not open_:
            return np.array(estimate), np.array(errs)
    raise QuadratureError(
        f"quadrature did not reach tolerance {_TOL:g} within "
        f"{_MAX_LEVELS} refinements (last diff {max(errs[g] for g in open_):g})"
    )
