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
product of a block of quadrature nodes with the a values, and divides by
e^t - 1 (or t (e^t - 1)) at that block's nodes, computed from math.expm1
once per block and memoised by the block's bytes.  Where a block holds one
node, the a values are sorted first and put back after, so that each kernel
input is one sorted row, which the kernel splits at two indices where any
other input is split by a mask (see ``f_kernel``).  The Dedekind sum is one
pass of integer products j (jq mod p) over j < p, never reciprocity, so that
the reciprocity law checks it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .specfun import EULER_GAMMA, LOG_2PI, ZETA_PRIME_NEG1, DomainError, integrate_semi_infinite
from .specfun import gammaln, hurwitz_zeta
from .specfun import _TWO, _block_nodes, _choice, _const, _out, _positive, _real, _whole

__all__ = [
    "BarnesEval",
    "dedekind_sum",
    "f_kernel",
    "zeta_b_prime0",
    "zeta_b_prime0_series",
    "zeta_b_prime0_rational",
    "d_zeta_b_prime0",
    "d2_zeta_b_prime0",
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
# 0-d arrays (_const), as are the kernel's other constants: Horner makes 14
# in-place ufunc calls per order, and the closed forms up to 7
_COEFFS = {k: [_const(c) for c in f] for k, f in ((0, _F0), (1, _F1), (2, _F2))}
_ONE, _HALF, _THREE, _TWELVE, _TWELFTH = map(_const, (1.0, 0.5, 3.0, 12.0, 1.0 / 12.0))
_CROSSOVER = _const(0.5)
# The head's constants at an array a: log A, log(2 pi) / 4, gamma, -log A,
# gamma / 12 and 2 log A, each the double of its Python expression in _head
_C_LOG_A, _C_LOG_2PI_4, _C_GAMMA, _C_NEG_LOG_A, _C_GAMMA_12, _C_TWO_LOG_A = map(_const, (
    _LOG_A, 0.25 * LOG_2PI, EULER_GAMMA, -_LOG_A, EULER_GAMMA / 12.0, 2.0 * _LOG_A))
# Below _TINY, Horner's rule returns c[0] bit for bit for each order, so the
# series is its leading term.  By induction from the top coefficient: with s =
# fl(r^2) <= s0 = fl(_TINY^2), as rounding is monotone, each step adds to c[j]
# a product fl(s c[j+1]) no larger in size than fl(s0 c[j+1]), which lies
# below half the gap between c[j] and its neighbouring doubles, so c[j] comes
# back (the rounding argument of Higham, Accuracy and Stability of Numerical
# Algorithms, 5.1).  The largest thresholds for which _COEFFS passes are
# 4.730e-8, 4.668e-8 and 3.621e-8 for orders 0, 1 and 2; a test derives them.
_TINY = 3.6e-8
# Tail coefficients B_{2k} zeta(2k-1) / (2k(2k-1)) of the series route,
# k = 2..16; the first omitted one sets its certificate.
_TAIL = [float(_B[2 * k] / (2 * k * (2 * k - 1))) * float(hurwitz_zeta(2 * k - 1, 1))
         for k in range(2, _KMAX + 1)]
# Range of a the integral route takes.  In log-spaced sweeps every order
# converged without overflow up to _A_MAX (order 1 first failed at
# a = 4.4e27).  Below _A_MIN the heads overflow, order 2's from 1e-105 on.
_A_MIN = 1e-100
_A_MAX = 1e27
# Largest p + q of the rational route, so largest p of a Dedekind sum: beyond,
# its bound 1e-14 (p + q) passes 1e-8 and a call 0.35 s.  At the cap most of
# that is the p + q - 2 scalar gammaln calls of the sawtooth sums, not the
# Dedekind sum: on one Xeon core 1/999999 took 0.27 s with a trivial Dedekind
# sum, and 499999/500001 took 0.33 s, of which 0.06 s in dedekind_sum (best
# of 5 each).
_PQ_MAX = 10**6
_ROUTES = ("integral", "series", "rational")  # BarnesEval.route


def _series(r: np.ndarray, orders: tuple, out: np.ndarray) -> np.ndarray:
    # Each order written into its row of ``out``, from one s = r^2.  Horner
    # in place from the last coefficient: the same roundings as acc * s + c
    # started from 0.0, without a temporary per step; the first step is one
    # s * c.  Rows are taken by index, here, in _closed and in f_kernel: a
    # loop over a 2-D array costs about 0.8 us more, some 3 % of a kernel
    # call on 136 points.
    s = r * r
    for j, k in enumerate(orders):
        acc = out[j]
        coeffs = _COEFFS[k]
        np.multiply(s, coeffs[-1], acc)
        acc += coeffs[-2]
        for c in coeffs[-3::-1]:
            acc *= s
            acc += c
        # r ** 1 is r and r ** 2 is s, bit for bit; r ** 3 rounds once, in pow
        power = _POWER[k]
        acc *= r if power == 1 else s if power == 2 else r**_THREE
    return out


def _leading(r: np.ndarray, orders: tuple, out: np.ndarray) -> np.ndarray:
    # The series below _TINY, each order written into its row of ``out``:
    # Horner's final multiply alone, c[0] r^3, c[0] r^2 or c[0] r, with r^2 as
    # r * r and r^3 as r**3, the powers _series takes.
    for j, k in enumerate(orders):
        power = _POWER[k]
        np.multiply(r if power == 1 else r * r if power == 2 else r**_THREE, _COEFFS[k][0], out[j])
    return out


@np.errstate(over="ignore")  # r**3, r**2 overflow past 5.6e102, 1.3e154; 1/inf = 0
def _over_power(c: np.ndarray, r: np.ndarray, power) -> np.ndarray:
    # c / r**power, the only kernel term that can overflow, in F' and F''
    return c / r**power


def _closed(r: np.ndarray, orders: tuple, out: np.ndarray) -> np.ndarray:
    # Each order written into its row of ``out``, from one e^{-r}.  Closed
    # forms written in exp(-r) to stay finite and cancellation-free for
    # arbitrarily large r, each worked out in place in the order of
    # operations of
    #   F   = er / den - 1 / r + 1/2 - r / 12,
    #   F'  = -er / den^2 + 1 / r^2 - 1/12,
    #   F'' = er (1 + er) / den^3 - 2 / r^3,
    # where (1 + er) er is er (1 + er), bit for bit.
    den = -np.expm1(-r)            # 1 - e^{-r}
    er = _ONE - den                # e^{-r}
    for j, k in enumerate(orders):
        row = out[j]
        if k == 0:
            np.divide(er, den, row)
            row -= _ONE / r
            row += _HALF
            row -= r / _TWELVE
        elif k == 1:
            np.negative(er, row)
            row /= den**2
            row += _over_power(_ONE, r, 2)
            row -= _TWELFTH
        else:
            np.add(_ONE, er, row)
            row *= er
            row /= den**_THREE
            row -= _over_power(_TWO, r, _THREE)
    return out


def f_kernel(r: ArrayLike, derivative: Union[int, tuple] = 0) -> ArrayLike:
    """Regularized Bose kernel F(r) = 1/(e^r - 1) - 1/r + 1/2 - r/12.

    ``derivative`` selects F, F' or F''; a tuple of them gives one row per
    order, stacked in a ``(len(derivative),) + r.shape`` array, from one
    pass over r.  Below the fixed crossover r = 0.5 the value comes from the
    Bernoulli series by Horner's rule, one accumulator updated in place (the
    closed form cancels catastrophically as r -> 0); from 0.5 on from the
    closed form.  The branches agree to ~1e-15 near the crossover.  A single
    row (every axis but the last of length 1) that is non-decreasing from a
    first value >= 0 is split at two indices, r = ``_TINY`` (3.6e-8) and the
    crossover, and each order is written in place into its three slices of
    the result; any other r is split by a mask.  Below ``_TINY`` the row
    takes only Horner's final multiply, c[0] r^3, c[0] r^2 or c[0] r, as
    Horner provably returns c[0] there (the proof is at ``_TINY``).  Both
    paths give the same bits.  NaN or a negative r
    raises ``DomainError``; +inf gives the closed form's limit.  A scalar r
    and one order give a float.
    """
    # an empty tuple is checked as one order, and refused; plain ints 0, 1
    # and 2 pass as they are (a bool's type is bool, not int), anything else
    # goes through the selector gate, which also takes numpy's ints
    orders = derivative if isinstance(derivative, tuple) and derivative else (derivative,)
    if not all([type(k) is int and 0 <= k <= 2 for k in orders]):
        orders = tuple([_choice(k, (0, 1, 2), "derivative") for k in orders])
    x = _real(r, "r", ndim=None)  # a float for a scalar r, else an array of at least 1-D
    arr = x if isinstance(x, np.ndarray) else np.array([x])
    out = np.empty((len(orders),) + arr.shape)
    row = arr.reshape(-1) if arr.size == arr.shape[-1] > 0 else None
    # one comparison pass: a non-decreasing row from a first value >= 0
    # holds no NaN and no negative value
    if row is not None and row[0] >= 0.0 and (row[1:] >= row[:-1]).all():
        i, j = np.searchsorted(row, (_TINY, _CROSSOVER)).tolist()
        rows = out.reshape(len(orders), -1)
        # skipped when empty: a short row, such as a scalar's, seldom has the
        # part, and its empty ufunc calls would cost about 2 us an order
        if i:
            _leading(row[:i], orders, rows[:, :i])
        _series(row[i:j], orders, rows[:, i:j])
        _closed(row[j:], orders, rows[:, j:])
    else:
        # argmin points at a NaN where there is one, so NaN fails; an empty r
        # passes
        if arr.size and not arr.item(arr.argmin()) >= 0.0:
            raise DomainError("f_kernel needs r >= 0")
        small = arr < _CROSSOVER
        big = ~small
        rs, rb = arr[small], arr[big]
        series = _series(rs, orders, np.empty((len(orders), rs.size)))
        closed = _closed(rb, orders, np.empty((len(orders), rb.size)))
        # one order at a time: a 1-D scatter costs a third of a 2-D one
        for j in range(len(orders)):
            out[j][small] = series[j]
            out[j][big] = closed[j]
    if isinstance(derivative, tuple):
        return out[:, 0] if isinstance(x, float) else out
    return float(out[0, 0]) if isinstance(x, float) else out[0]


def dedekind_sum(q: int, p: int) -> Fraction:
    """Dedekind sum S(q, p) = sum_{j=1}^{p} ((j/p)) ((jq/p)), exact.

    For 1 <= j < p, ((j/p)) = (2j - p) / 2p and ((jq/p)) = (2 m_j - p) / 2p
    with m_j = jq mod p = jr mod p, r = q mod p (jq is no multiple of p as
    gcd(p, q) = 1), and the j = p term is 0, so 4 p^2 S(q, p) is the integer
    sum_{j<p} (2j - p)(2 m_j - p).  As j runs over 1..p-1 so does m_j, so
    that sum is 4 sum_{j<p} j m_j - p^2 (p - 1), the sum below, for whole q
    and p <= ``_PQ_MAX``: one pass, with no reciprocity, so that criterion 8
    checks the law against the definition.
    """
    q, p = _whole(q, "q", 1, math.inf), _whole(p, "p", 1, _PQ_MAX)
    if math.gcd(p, q) != 1:
        raise DomainError(f"dedekind_sum needs gcd(p, q) = 1, got ({q}, {p})")
    r = q % p
    total = 4 * sum(j * (j * r % p) for j in range(1, p)) - p * p * (p - 1)
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
        _choice(self.route, _ROUTES, "route")


def _head(a: ArrayLike, order: int) -> ArrayLike:
    """Closed-form part of d^order/da^order of zeta_B'(0; a, 1, 1), which the
    integral route adds to its quadrature and the series route to its tail.

    The series route's float a takes order 0 in Python floats; an array a
    takes 0-d constants, with the same roundings in the same order, worked
    out in place (a ufunc converts a float operand about 0.35 us slower)."""
    if order == 0 and not isinstance(a, np.ndarray):
        return _LOG_A / a - 0.25 * LOG_2PI + EULER_GAMMA * a / 12.0
    if order == 0:  # log A / a - log(2 pi) / 4 + gamma a / 12
        head = np.divide(_C_LOG_A, a)
        head -= _C_LOG_2PI_4
        linear = np.multiply(_C_GAMMA, a)
        linear /= _TWELVE
        head += linear
        return head
    if order == 1:  # -log A / a^2 + gamma / 12
        head = a**2
        np.divide(_C_NEG_LOG_A, head, head)
        head += _C_GAMMA_12
        return head
    return np.divide(_C_TWO_LOG_A, a**_THREE)  # 2 log A / a^3


# The node column t, e^t - 1 and t (e^t - 1) of a block of quadrature nodes,
# each (n, 1) and read-only, keyed on the block's bytes.  e^t - 1 comes from
# math.expm1 node by node: np.expm1 differs from it in the last bit at some
# nodes.  Every block is a slice of one of the node tables that
# specfun._level_nodes caches, so there are finitely many keys, and the
# cache keeps the 256 last used.  Scalar calls use one, the 68-node first
# table; verify --suite full and scans of 2 to 20000 points 72, of 204 nodes.
@functools.lru_cache(maxsize=256)
def _expm1_columns(key: bytes) -> tuple:
    t = np.frombuffer(key)  # read-only, as bytes are
    em = np.array(list(map(math.expm1, t.tolist())))
    tem = t * em
    em.flags.writeable = tem.flags.writeable = False
    return t[:, None], em[:, None], tem[:, None]


def _integral(a: ArrayLike, orders: tuple):
    """d^k/da^k of zeta_B'(0; a, 1, 1) for each order k in ``orders``, at ``a`` a
    checked float or float64 array in [1e-100, 1e27], from one quadrature over all
    of ``a``: one row per order shaped like ``a``, and one error estimate per order.

    The integrands F(at)/(t(e^t-1)), F'(at)/(e^t-1) and t F''(at)/(e^t-1) are
    smooth at t = 0 and decay like e^{-t}.
    """
    # a 1-D array's rows are the result's; a float's and any other array's
    # are reshaped (np.shape takes 1.5 us on a float)
    if isinstance(a, np.ndarray):
        shape, arr = a.shape, a if a.ndim == 1 else a.ravel()
    else:
        shape, arr = (), np.array([a])
    # argmin and argmax point at a NaN where there is one, so NaN fails; on
    # a short array they take about a third of what min and max reductions do
    if arr.size == 0 or not (
        arr.item(arr.argmin()) >= _A_MIN and arr.item(arr.argmax()) <= _A_MAX
    ):
        raise DomainError(f"the integral route needs {_A_MIN:g} <= a <= {_A_MAX:g}, got {a!r}")

    # Where the quadrature's blocks hold one node (its width rule), a is
    # sorted, so that every kernel row t a is non-decreasing and splits at
    # one index; each value is computed on its own, so sorting and putting
    # back changes no bit, and the errors are maxima over all of a.
    perm = None
    if _block_nodes(len(orders), arr.size) == 1:
        perm = np.argsort(arr, kind="stable")
        arr = arr[perm]

    # One kernel call per block of nodes t, for every open order at once, on
    # the outer product t a; each order's kernel values are divided in place
    # by the block's memoised columns.  The kernel is called through the
    # module's name f_kernel, so that a wrapper put there sees every call.
    def integrand(t: np.ndarray, open_: tuple) -> np.ndarray:
        ks = orders if len(open_) == len(orders) else tuple(orders[g] for g in open_)
        t, em, tem = _expm1_columns(t.tobytes())
        values = f_kernel(t * arr, ks)
        for j, k in enumerate(ks):
            v = values[j]
            if k == 2:
                v *= t
            v /= tem if k == 0 else em
        # node axis first, then one group per order for the quadrature
        return values.swapaxes(0, 1)

    integral, errs = integrate_semi_infinite(integrand, len(orders), arr.size)
    for k, row in zip(orders, integral):
        row += _head(arr, k)
    if perm is not None:
        integral[:, perm] = integral.copy()
    return (integral if len(shape) == 1 else integral.reshape((len(orders),) + shape)), errs


def zeta_b_prime0(a: float) -> BarnesEval:
    """zeta_B'(0; a, 1, 1) for 1e-100 <= a <= 1e27 through the integral representation

        log A / a - log(2 pi)/4 + gamma a / 12 + int_0^inf F(at)/(t(e^t-1)) dt.
    """
    (value,), (err,) = _integral(_real(a, "a"), (0,))
    return BarnesEval(value=float(value), error_bound=float(err), route="integral")


def zeta_b_prime0_values(a: np.ndarray) -> np.ndarray:
    """Integral-route values on a grid of a, via one vectorized quadrature."""
    x = _real(a, "a", ndim=None)
    return _integral(x if isinstance(x, np.ndarray) else np.array([x]), (0,))[0][0]


def zeta_b_prime0_series(a: float, n: int = 4) -> BarnesEval:
    """Truncated small-a expansion of zeta_B'(0; a, 1, 1) with N = ``n``.

    Keeps the elementary terms plus the Bernoulli tail through k = n - 1 and
    certifies the remainder by the first omitted term, |B_{2N} zeta(2N-1)| /
    (2N(2N-1)) a^{2N-1}: the tail terms alternate and envelop the function
    for every a > 0.  ``DomainError`` unless ``a`` is a finite real > 0 and N
    an integer in [2, 16], and where the remainder or the head overflows.
    """
    x, n = _positive(a, "a"), _whole(n, "n", 2, _KMAX)
    try:  # the remainder holds a's highest power, so it overflows before the tail
        bound = abs(_TAIL[n - 2]) * x ** (2 * n - 1)
    except OverflowError:
        bound = math.inf
    if math.isinf(bound) or math.isinf(_LOG_A / x):  # the remainder or the head
        raise DomainError(f"the series route overflows for n = {n} at a = {a!r}")
    value = _head(x, 0)
    for k in range(2, n):
        value += _TAIL[k - 2] * x ** (2 * k - 1)
    return BarnesEval(value=value, error_bound=bound, route="series")


def zeta_b_prime0_rational(r: Fraction) -> BarnesEval:
    """Exact closed form of zeta_B'(0; p/q, 1, 1) for a positive rational with
    p + q at most the cap ``_PQ_MAX``.

    Combines zeta'(-1), the Dedekind sum S(q, p) and two sawtooth-weighted
    log-gamma sums; the only inexactness is double-precision log-gamma.
    """
    x = _positive(r, "a")
    p, q = Fraction(r if isinstance(r, Fraction) else x).as_integer_ratio()
    if p + q > _PQ_MAX:
        raise DomainError(f"the rational route needs p + q <= {_PQ_MAX}, got {x!r}")
    value = (ZETA_PRIME_NEG1 - math.log(q) / 12.0) / (p * q)
    value += (float(dedekind_sum(q, p)) + 0.25) * math.log(q / p)
    # The two sawtooth sums, the second the first with p and q swapped.
    # ((km/n)) + 1/2 = (km mod n) / n, never 0 as gcd(m, n) = 1, so every
    # gammaln argument is positive; int / int division is correctly rounded.
    # float() keeps the value a Python float (gammaln gives np.float64).
    # Scalar calls: an array call gives the same bits, and is 3.5x faster at
    # p + q = 1000, but 2.5 to 6 times slower at p + q <= 23, the size of
    # every call verify makes.
    for n, m in ((p, q), (q, p)):
        for k in range(1, n):
            value += (0.5 - k / n) * float(gammaln(k * m % n / n))
    return BarnesEval(value=value, error_bound=1e-14 * (p + q), route="rational")


def d_zeta_b_prime0(a: ArrayLike) -> ArrayLike:
    """d/da of zeta_B'(0; a, 1, 1):  -log A / a^2 + gamma/12 + int F'(at)/(e^t-1) dt."""
    return _out(_integral(_real(a, "a", ndim=None), (1,))[0][0])


def d2_zeta_b_prime0(a: ArrayLike) -> ArrayLike:
    """d^2/da^2 of zeta_B'(0; a, 1, 1):  2 log A / a^3 + int t F''(at)/(e^t-1) dt."""
    return _out(_integral(_real(a, "a", ndim=None), (2,))[0][0])
