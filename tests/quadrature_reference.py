"""The double-exponential rule of ``specfun.integrate_semi_infinite``, written
out as a plain loop with one node per integrand call: the reference that
the blocked quadrature and the Barnes integral route are checked against,
bit for bit.

The rule: the substitution t = exp(u - exp(-u)) with nodes u = k h on
[-log(-log(1e-12) + 40), log(-log(1e-12) + 45)]; the trapezoid sums at
h = 1/2, then each halving adds the odd nodes of its h; a group is accepted
at the first refinement after the first that moves its estimate by at most
max(1e-12, 1e-12 |estimate|) in the max norm, and is no longer evaluated;
ten refinements at most.
"""

import math

import numpy as np

from envdet.specfun import QuadratureError

TOL = 1e-12
MAX_LEVELS = 10


def reference_quadrature(f, groups, width=None):
    """The rule for ``groups`` groups of integrands, each converging on its
    own.  ``f(t, open_)`` takes a one-node array and the increasing tuple of
    the open groups, like the engine's integrand; each level's weighted
    values are added in node order from 0.0.  ``width``, the engine's, is
    not needed: a group's values have the shape ``f`` returns.  Returns
    ``(values, errs)`` or raises ``QuadratureError`` as the engine does."""
    decades = -math.log(TOL)
    u_hi = math.log(decades + 45.0)
    u_lo = -math.log(decades + 40.0)

    def level_sum(h, odd_only, open_):
        total = 0.0
        for k in range(math.ceil(u_lo / h), math.floor(u_hi / h) + 1):
            if odd_only and k % 2 == 0:
                continue
            u = k * h
            emu = math.exp(-u)
            t = math.exp(u - emu)
            total += f(np.array([t]), open_)[0] * (t * (1.0 + emu))
        return total

    h = 0.5
    open_ = tuple(range(groups))
    estimate = list(level_sum(h, False, open_) * h)
    errs = [math.inf] * groups
    for level in range(MAX_LEVELS):
        h /= 2.0
        still_open = []
        for g, new in zip(open_, level_sum(h, True, open_) * h):
            new = new + estimate[g] / 2.0
            errs[g] = float(np.abs(new - estimate[g]).max())
            tol = max(TOL, TOL * float(np.abs(new).max()))
            if not (level >= 1 and errs[g] <= tol):
                still_open.append(g)
            estimate[g] = new
        open_ = tuple(still_open)
        if not open_:
            return np.array(estimate), np.array(errs)
    raise QuadratureError(
        f"quadrature did not reach tolerance {TOL:g} within "
        f"{MAX_LEVELS} refinements (last diff {max(errs[g] for g in open_):g})"
    )


def reference_integral(f):
    """One group: the integral of ``f(t)``, a float or a 1-D array at a float
    node t, as ``(values, err)`` with ``values`` a 1-D array."""
    values, errs = reference_quadrature(
        lambda t, open_: np.reshape(f(float(t[0])), (1, 1, -1)), 1
    )
    return values[0], errs[0]
