import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envdet import barnes, specfun
from envdet.barnes import (
    BarnesEval,
    d2_zeta_b_prime0,
    d_zeta_b_prime0,
    dedekind_sum,
    f_kernel,
    series_error_bound,
    zeta_b_prime0,
    zeta_b_prime0_rational,
    zeta_b_prime0_series,
    zeta_b_prime0_values,
)
from envdet.specfun import (
    EULER_GAMMA,
    LOG_2PI,
    DomainError,
    integrate_semi_infinite,
)
from envdet.specfun import LOG_GLAISHER as LOG_A  # equals 1/12 - zeta'(-1)
from envdet.specfun import ZETA_PRIME_NEG1 as ZP1

# Reference values from a one-time 40-digit evaluation of the integral route
# (cross-checked there against the exact rational closed form).
FROZEN = {
    (1, 1): -0.1654211437004509292139197,
    (1, 2): 0.06169509076642980818829686,
    (1, 3): 0.3027074115450257606572998,
    (2, 3): -0.05517414622902061072908027,
    (1, 4): 0.5475225651482243893183792,
    (3, 4): -0.09298294869809202806815822,
    (1, 6): 1.041059125052301338461967,
    (5, 6): -0.1225758045760268081296156,
    (5, 7): -0.07795469471527222708189825,
    (7, 12): -0.005590931065104599444677274,
}
FROZEN_D_HALF = -0.9492108398386892031935774
FROZEN_D2_HALF = 3.97159490505974867114277


# ---------------------------------------------------------------------------
# Dedekind sums
# ---------------------------------------------------------------------------


def test_dedekind_trivial_modulus():
    for q in (1, 2, 5, 17):
        assert dedekind_sum(q, 1) == Fraction(0)


def test_dedekind_enumerated_example():
    assert dedekind_sum(1, 3) == Fraction(1, 18)


def test_dedekind_reciprocity_example():
    lhs = dedekind_sum(5, 7) + dedekind_sum(7, 5)
    rhs = Fraction(-1, 4) + (Fraction(5, 7) + Fraction(7, 5) + Fraction(1, 35)) / 12
    assert lhs == rhs


def test_dedekind_reciprocity_exhaustive_small():
    for p in range(1, 16):
        for q in range(1, 16):
            if math.gcd(p, q) != 1:
                continue
            lhs = dedekind_sum(q, p) + dedekind_sum(p, q)
            rhs = Fraction(-1, 4) + (Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)) / 12
            assert lhs == rhs


def _dedekind_reference(q, p):
    """The definition sum_{j=1}^{p} ((j/p)) ((jq/p)) in exact rationals."""

    def saw(x):
        if x.denominator == 1:
            return Fraction(0)
        return x - math.floor(x) - Fraction(1, 2)

    return sum((saw(Fraction(j, p)) * saw(Fraction(j * q, p)) for j in range(1, p + 1)), Fraction(0))


def test_dedekind_matches_definition():
    for p in range(1, 61):
        for q in range(1, 61):
            if math.gcd(p, q) == 1:
                assert dedekind_sum(q, p) == _dedekind_reference(q, p)


def test_dedekind_requires_coprime():
    with pytest.raises(DomainError):
        dedekind_sum(2, 4)
    with pytest.raises(DomainError):
        dedekind_sum(0, 3)


def test_dedekind_refuses_p_beyond_the_rational_route_cap():
    # a sum of p - 1 terms: at p = 10**12 it would run for hours
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"p <= 10\*\*6"):
        dedekind_sum(1, 10**12)
    assert time.perf_counter() - start < 1.0
    # the cap itself is summed: S(1, p) = (p - 1)(p - 2) / 12p
    p = 10**6
    assert dedekind_sum(1, p) == Fraction((p - 1) * (p - 2), 12 * p)


# ---------------------------------------------------------------------------
# F kernel
# ---------------------------------------------------------------------------


def test_f_kernel_at_zero():
    for d in (0, 1, 2):
        assert f_kernel(0.0, d) == 0.0


def test_f_kernel_cubic_leading_coefficient():
    r = 1e-3
    assert abs(f_kernel(r) / r**3 + 1.0 / 720.0) <= 1e-10


def test_f_kernel_unit_bounds():
    for r in (0.5, 1.0, 5.0, 20.0):
        assert abs(f_kernel(r, 2)) < 1.0
        assert abs(f_kernel(r, 1) / r) < 1.0


def test_f_kernel_branch_agreement_near_crossover():
    # evaluate both branches on each side of the crossover and compare
    r = np.linspace(0.45, 0.55, 21)
    for d in (0, 1, 2):
        (series,), (closed,) = barnes._series(r, (d,)), barnes._closed(r, (d,))
        assert np.max(np.abs(series - closed)) <= 1e-13


def test_f_kernel_array_matches_scalar():
    r = np.array([0.0, 1e-4, 0.3, 0.7, 5.0, 800.0])
    for d in (0, 1, 2):
        vec = f_kernel(r, d)
        for i, ri in enumerate(r):
            assert vec[i] == pytest.approx(f_kernel(float(ri), d), abs=0.0, rel=0.0)


def test_f_kernel_domain():
    with pytest.raises(DomainError):
        f_kernel(-0.1)
    with pytest.raises(DomainError):
        f_kernel(1.0, derivative=3)


@pytest.mark.parametrize(
    "r", [math.nan, np.array([0.1, math.nan, 2.0]), np.full((2, 3), math.nan)],
    ids=["scalar", "array", "2-d"],
)
def test_f_kernel_rejects_nan(r):
    with pytest.raises(DomainError):
        f_kernel(r)


def test_f_kernel_at_infinity_is_the_limit():
    assert f_kernel(math.inf, 0) == -math.inf
    assert f_kernel(math.inf, 1) == -1.0 / 12.0
    assert f_kernel(math.inf, 2) == 0.0


def _masked_kernel(r, derivative):
    """f_kernel with a Horner loop started from 0.0 and the crossover pinned
    at 0.5: the reference for the in-place Horner loop."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(arr)
    small = arr < 0.5
    rs = arr[small]
    s = rs * rs
    acc = 0.0
    for c in reversed(barnes._COEFFS[derivative]):
        acc = acc * s + c
    out[small] = acc * rs ** barnes._POWER[derivative]
    rb = arr[~small]
    den = -np.expm1(-rb)
    er = 1.0 - den
    if derivative == 0:
        big = er / den - 1.0 / rb + 0.5 - rb / 12.0
    elif derivative == 1:
        big = -er / den**2 + 1.0 / rb**2 - 1.0 / 12.0
    else:
        big = er * (1.0 + er) / den**3 - 2.0 / rb**3
    out[~small] = big
    return out if np.ndim(r) else float(out[0])


def _grid_level_products(level):
    """t[:, None] * a for each one-node block of quadrature level ``level``
    (0 is the h = 1/2 base level) and the 40000 values of a that a
    20000-point scan passes to the integral route."""
    nodes, _ = specfun._level_nodes(0.5 / 2**level, level > 0)
    b = np.linspace(-0.9999, -0.5001, 20000)
    a = np.concatenate([b + 1.0, -2.0 * b - 1.0])
    return [block * a for block in nodes[:, None, None]]


_rng = np.random.default_rng(4)
_MIXED = 10.0 ** _rng.uniform(-8.0, 3.0, 1001)
# case -> kernel inputs r
KERNEL_CASES = {
    "all-series": lambda: [np.linspace(0.0, np.nextafter(0.5, 0.0), 1001)],
    "all-closed": lambda: [np.geomspace(0.5, 1e10, 1001)],
    "mixed": lambda: [_MIXED, _MIXED.reshape(7, 143)],
    "edges": lambda: [np.array([0.0, 1e-300, 0.5, 700.0, 1e10])],
    "scalar": lambda: [0.0, 1e-300, 0.3, 0.5, 700.0, 1e10],
    "grid-level-0": lambda: _grid_level_products(0),
    "grid-level-1": lambda: _grid_level_products(1),
    "grid-level-2": lambda: _grid_level_products(2),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
@pytest.mark.parametrize("derivative", [0, 1, 2])
def test_kernel_matches_masked_reference(derivative, case):
    for r in KERNEL_CASES[case]():
        got = f_kernel(r, derivative)
        expected = _masked_kernel(r, derivative)
        assert type(got) is type(expected)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_fused_kernel_matches_one_order_calls(case):
    for r in KERNEL_CASES[case]():
        got = f_kernel(r, (0, 1, 2))
        assert got.shape == (3,) + np.shape(r)
        for k in (0, 1, 2):
            assert np.array_equal(got[k], f_kernel(r, k))
        assert np.array_equal(f_kernel(r, (2, 0)), got[[2, 0]])


@pytest.mark.parametrize("orders", [(), (0, 3), (-1,), [0, 1]])
def test_fused_kernel_domain(orders):
    with pytest.raises(DomainError):
        f_kernel(1.0, orders)


# ---------------------------------------------------------------------------
# integral route
# ---------------------------------------------------------------------------


def test_zeta_b_prime0_at_one_is_zeta_prime():
    out = zeta_b_prime0(1.0)
    assert out.route == "integral"
    assert abs(out.value - ZP1) <= 1e-12


@pytest.mark.parametrize("pq", sorted(FROZEN))
def test_zeta_b_prime0_frozen_values(pq):
    p, q = pq
    assert abs(zeta_b_prime0(p / q).value - FROZEN[pq]) <= 1e-13


def test_zeta_b_prime0_small_a_limit():
    gaps = []
    for a in (1e-2, 1e-3, 1e-4):
        gaps.append(abs(a * zeta_b_prime0(a).value - LOG_A))
        assert gaps[-1] <= a  # next term is log(2 pi)/4 * a
    assert gaps[0] > gaps[1] > gaps[2]


def test_zeta_b_prime0_values_matches_scalar():
    grid = np.array([0.21, 1 / 3, 0.8, 1.5])
    vec = zeta_b_prime0_values(grid)
    for a, v in zip(grid, vec):
        assert abs(v - zeta_b_prime0(float(a)).value) <= 1e-14


def test_zeta_b_prime0_domain():
    for bad in (0.0, -0.3, math.inf):
        with pytest.raises(DomainError):
            zeta_b_prime0(bad)
    with pytest.raises(DomainError):
        zeta_b_prime0_values(np.array([]))
    with pytest.raises(DomainError):
        zeta_b_prime0_values(np.array([0.5, math.inf]))
    with pytest.raises(DomainError):
        d_zeta_b_prime0(math.inf)
    # the integral route takes a in [1e-100, 1e27] and refuses any other a;
    # below 1e-100 the closed-form heads overflow (warnings raise here)
    for route in (zeta_b_prime0_values, d_zeta_b_prime0, d2_zeta_b_prime0):
        assert np.all(np.isfinite(route(np.array([0.5, 1e27]))))
        assert np.all(np.isfinite(route(np.array([1e-100]))))
        for bad in (np.nextafter(1e-100, 0), 1e-160):
            with pytest.raises(DomainError):
                route(np.array([bad]))
    for bad in (np.nextafter(1e27, math.inf), 5e27, 1e300):
        with pytest.raises(DomainError):
            zeta_b_prime0(bad)
    with pytest.raises(DomainError):
        d2_zeta_b_prime0([1e102])


# ---------------------------------------------------------------------------
# rational route
# ---------------------------------------------------------------------------


def test_rational_at_one():
    out = zeta_b_prime0_rational(Fraction(1))
    assert out.route == "rational"
    assert abs(out.value - ZP1) <= 1e-15


@pytest.mark.parametrize("q", [2, 3, 4, 6])
def test_rational_reciprocal_simplification(q):
    # independent formula for a = 1/q:
    #   zeta'(-1)/q - log(q)/(12 q) - sum_{j<q} (j/q) log Gamma(j/q) + (q-1)/4 log 2pi
    expected = (
        ZP1 / q
        - math.log(q) / (12.0 * q)
        - sum(j / q * math.lgamma(j / q) for j in range(1, q))
        + (q - 1) / 4.0 * LOG_2PI
    )
    assert abs(zeta_b_prime0_rational(Fraction(1, q)).value - expected) <= 1e-13


@pytest.mark.parametrize("pq", [(1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)])
def test_rational_route_matches_integral(pq):
    p, q = pq
    exact = zeta_b_prime0_rational(Fraction(p, q)).value
    assert type(exact) is float
    assert abs(zeta_b_prime0(p / q).value - exact) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 50), data=st.data())
def test_rational_route_matches_integral_property(q, data):
    # the largest gap over every reduced p/q <= 2 with q <= 50 is about 1e-14
    p = data.draw(st.integers(1, 2 * q).filter(lambda p: math.gcd(p, q) == 1))
    exact = zeta_b_prime0_rational(Fraction(p, q)).value
    assert abs(exact - zeta_b_prime0(p / q).value) <= 1e-12


def test_rational_domain():
    with pytest.raises(DomainError):
        zeta_b_prime0_rational(Fraction(-1, 3))


@pytest.mark.parametrize("r", [5e-324, 1e-300, 0.1, Fraction(1, 10**6), Fraction(10**6, 3)])
def test_rational_route_refuses_p_plus_q_beyond_a_million(r):
    # a float counts at its exact value, 0.1 as 3602879701896397 / 2**55,
    # and the route's running time and rounding bound grow with p + q
    with pytest.raises(DomainError, match="p \\+ q"):
        zeta_b_prime0_rational(r)


def test_rational_route_takes_a_float_or_int_at_its_exact_value():
    assert zeta_b_prime0_rational(0.375) == zeta_b_prime0_rational(Fraction(3, 8))
    assert zeta_b_prime0_rational(np.int64(3)) == zeta_b_prime0_rational(Fraction(3))


# Arguments that are not real numbers, or not integers where one is needed.
# Before every numeric argument went through one gate, most of these calls
# raised a TypeError, ValueError or OverflowError, or parsed a string as a
# number.
NOT_REAL = {
    'zeta_b_prime0_series("0.5")': lambda: zeta_b_prime0_series("0.5"),
    'zeta_b_prime0_series(0.5, "x")': lambda: zeta_b_prime0_series(0.5, "x"),
    "zeta_b_prime0_series(0.5, None)": lambda: zeta_b_prime0_series(0.5, None),
    "series_error_bound(0.5j, 4)": lambda: series_error_bound(0.5j, 4),
    "zeta_b_prime0_rational(nan)": lambda: zeta_b_prime0_rational(math.nan),
    "zeta_b_prime0_rational(inf)": lambda: zeta_b_prime0_rational(math.inf),
    'zeta_b_prime0_rational("1/3")': lambda: zeta_b_prime0_rational("1/3"),
    "zeta_b_prime0_rational(np.array(0.5))": lambda: zeta_b_prime0_rational(np.array([0.5])),
    "dedekind_sum(1.5, 2)": lambda: dedekind_sum(1.5, 2),
    "dedekind_sum(1, None)": lambda: dedekind_sum(1, None),
    'zeta_b_prime0("0.5")': lambda: zeta_b_prime0("0.5"),
    "zeta_b_prime0(b'0.5')": lambda: zeta_b_prime0(b"0.5"),
    'd_zeta_b_prime0("0.5")': lambda: d_zeta_b_prime0("0.5"),
    'd2_zeta_b_prime0(["0.5"])': lambda: d2_zeta_b_prime0(["0.5"]),
    "d_zeta_b_prime0(0.5j)": lambda: d_zeta_b_prime0(0.5j),
    'f_kernel("1")': lambda: f_kernel("1"),
    "f_kernel(None)": lambda: f_kernel(None),
    "f_kernel(object array)": lambda: f_kernel(np.array([1.0, None])),
}


@pytest.mark.parametrize("call", list(NOT_REAL.values()), ids=list(NOT_REAL))
def test_an_argument_that_is_not_real_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "a", [np.float64(0.3), np.array(0.3), Fraction(3, 10), np.float32(0.25), 2], ids=repr
)
def test_every_real_scalar_gives_the_bits_of_its_float(a):
    x = float(a)
    assert zeta_b_prime0(a) == zeta_b_prime0(x)
    assert zeta_b_prime0_series(a, 5) == zeta_b_prime0_series(x, 5)
    assert series_error_bound(a, np.int64(5)) == series_error_bound(x, 5)
    for route in (d_zeta_b_prime0, d2_zeta_b_prime0, f_kernel):
        assert type(route(a)) is float and route(a).hex() == route(x).hex()


def test_series_head_overflow_is_a_domain_error():
    # log A / a overflows below about 1.4e-309; above it the value is finite
    with pytest.raises(DomainError, match="overflows"):
        zeta_b_prime0_series(1e-309, 2)
    assert math.isfinite(zeta_b_prime0_series(2e-309, 2).value)


def test_f_kernel_reaches_its_limits_without_overflow_warnings():
    # past r = 5.6e102, r**3 and then r**2 overflow on the way to 1/inf = 0
    # (warnings are errors in this suite)
    r = np.array([1e102, 1e103, 1e155, 1.7976931348623157e308])
    got = f_kernel(r, (0, 1, 2))
    assert np.all(np.isfinite(got))
    assert np.array_equal(got[1], np.full(4, -1.0 / 12.0))
    assert np.array_equal(got[2][1:], np.zeros(3))
    assert np.allclose(got[0], -r / 12.0, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------


def test_series_bound_n4_is_small():
    # first omitted term at N = 4 stays below 5e-3 * a^7
    for a in (0.1, 0.5, 1.0):
        out = zeta_b_prime0_series(a, 4)
        assert out.route == "series"
        assert out.error_bound <= 5e-3 * a**7


def test_series_certified_at_one():
    for n in range(2, 7):
        out = zeta_b_prime0_series(1.0, n)
        assert abs(out.value - ZP1) <= out.error_bound


def test_series_within_bound_of_integral():
    target = zeta_b_prime0(0.3).value
    for n in (3, 5):
        out = zeta_b_prime0_series(0.3, n)
        assert abs(out.value - target) <= out.error_bound


def test_series_certificate_on_grid():
    grid = np.linspace(0.01, 1.0, 50)
    vals = zeta_b_prime0_values(grid)
    eps = np.finfo(float).eps
    for n in (2, 3, 4, 5):
        for a, target in zip(grid, vals):
            out = zeta_b_prime0_series(float(a), n)
            slack = 8.0 * eps * (1.0 + abs(target))
            assert abs(out.value - target) <= out.error_bound + slack


def test_series_bound_monotonicity():
    # The certified bound shrinks with N while the tail terms still decrease.
    # That covers N = 2..4 on all of (0, 1]; the 4 -> 5 step turns only for
    # a <= ~0.84 (the expansion is asymptotic, not convergent).
    for a in np.linspace(0.05, 1.0, 20):
        bounds = [series_error_bound(float(a), n) for n in (2, 3, 4)]
        assert bounds[0] > bounds[1] > bounds[2]
    for a in np.linspace(0.05, 0.8, 16):
        bounds = [series_error_bound(float(a), n) for n in (2, 3, 4, 5)]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))


def test_series_domain():
    with pytest.raises(DomainError):
        zeta_b_prime0_series(0.5, 1)
    with pytest.raises(DomainError):
        zeta_b_prime0_series(0.5, 17)
    with pytest.raises(DomainError):
        zeta_b_prime0_series(-0.5, 4)
    with pytest.raises(DomainError):
        zeta_b_prime0_series(math.inf, 4)
    # a ** (2n - 1) overflows a double
    with pytest.raises(DomainError):
        zeta_b_prime0_series(1e100)
    with pytest.raises(DomainError):
        zeta_b_prime0_series(1e10, 16)
    with pytest.raises(DomainError):
        series_error_bound(1e100, 4)
    with pytest.raises(DomainError):
        series_error_bound(np.array([0.5, 1e100]), 4)
    # the bound is where the series route checks its arguments
    for a, n in ((-1.0, 4), (math.nan, 4), (0.5, 17), (np.array([0.5]), 4)):
        with pytest.raises(DomainError):
            series_error_bound(a, n)
    assert series_error_bound(0.3, 4.0) == series_error_bound(0.3, 4)
    assert zeta_b_prime0_series(0.3, 4.0) == zeta_b_prime0_series(0.3, 4)


# ---------------------------------------------------------------------------
# reference quadrature: one node per integrand call
# ---------------------------------------------------------------------------


def _loop_quadrature(f):
    """The double-exponential rule with a scalar node per call of ``f``,
    summed node by node, at most 10 refinements: the reference for the
    blocked engine."""
    decades = -math.log(1e-12)
    u_hi = math.log(decades + 45.0)
    u_lo = -math.log(decades + 40.0)

    def weighted_sum(h, odd_only):
        total = 0.0
        for k in range(math.ceil(u_lo / h), math.floor(u_hi / h) + 1):
            if odd_only and k % 2 == 0:
                continue
            u = k * h
            emu = math.exp(-u)
            t = math.exp(u - emu)
            total = total + f(t) * (t * (1.0 + emu))
        return total

    h = 0.5
    estimate = weighted_sum(h, odd_only=False) * h
    eps = np.finfo(float).eps
    for level in range(10):
        h /= 2.0
        refined = estimate / 2.0 + weighted_sum(h, odd_only=True) * h
        err = float(np.max(np.abs(refined - estimate)))
        scale = float(np.max(np.abs(refined)))
        estimate = refined
        tol = max(1e-12, 1e-12 * scale)
        if level >= 1 and err <= tol and tol >= 4.0 * eps * scale:
            return estimate, err
    raise AssertionError("reference quadrature did not converge")


def _integral_reference(a, order):
    """barnes._integral with the kernel called on a at one node at a time."""
    arr = np.atleast_1d(np.asarray(a, dtype=float))

    def integrand(t):
        em = math.expm1(t)
        if order == 0:
            return f_kernel(arr * t, 0) / (t * em)
        if order == 1:
            return f_kernel(arr * t, 1) / em
        return t * f_kernel(arr * t, 2) / em

    integral, err = _loop_quadrature(integrand)
    if order == 0:
        head = barnes._LOG_A / arr - 0.25 * LOG_2PI + EULER_GAMMA * arr / 12.0
    elif order == 1:
        head = -barnes._LOG_A / arr**2 + EULER_GAMMA / 12.0
    else:
        head = 2.0 * barnes._LOG_A / arr**3
    return head + integral, err


@pytest.mark.parametrize("order", [0, 1, 2])
# width 1000 splits a level into blocks of 16 nodes
@pytest.mark.parametrize("width", [1, 2, 45, 1000, 2**14 - 1, 2**14 + 1, 40000])
def test_blocked_quadrature_matches_node_loop(width, order):
    rng = np.random.default_rng(width)
    a = 10.0 ** rng.uniform(-6.0, 0.5, width)
    (value,), (err,) = barnes._integral(a, (order,))
    expected, expected_err = _integral_reference(a, order)
    assert np.array_equal(value, expected)
    assert err == expected_err


def _fused_grid(width):
    """``width`` values of a, log-spaced at random over [1e-6, 10**0.5]; from
    width 45 on, order 2 takes a level more than orders 0 and 1."""
    return 10.0 ** np.random.default_rng(width).uniform(-6.0, 0.5, width)


# order 2 runs on after orders 0 and 1 are frozen on the wider grids
@pytest.mark.parametrize("width", [1, 2, 45, 2**14 - 1, 2**14 + 1, 40000])
def test_fused_orders_match_one_order_calls(width):
    a = _fused_grid(width)
    values, errs = barnes._integral(a, (0, 1, 2))
    assert values.shape == (3, width) and errs.shape == (3,)
    for k in (0, 1, 2):
        (value,), (err,) = barnes._integral(a, (k,))
        assert np.array_equal(values[k], value)
        assert errs[k] == err


def test_a_frozen_order_is_no_longer_evaluated(monkeypatch):
    calls = []
    kernel = barnes.f_kernel

    def counted_kernel(r, derivative=0):
        calls.append(derivative)
        return kernel(r, derivative)

    monkeypatch.setattr(barnes, "f_kernel", counted_kernel)
    # orders 0 and 1 are accepted a level before order 2; the h = 1/8 grid
    # and the next level have 68 nodes each, in one call when narrow and in
    # one call per node when wide
    for width, level_calls in ((45, 1), (40000, 68)):
        calls.clear()
        barnes._integral(_fused_grid(width), (0, 1, 2))
        assert calls == [(0, 1, 2)] * level_calls + [(2,)] * level_calls


def _record_integrand_calls(monkeypatch):
    """Route barnes' quadratures through a wrapper that records, per
    integrand call, the nodes and the number of values returned."""
    calls = []

    def quadrature(f, *args):
        def recorded(t, *rest):
            values = f(t, *rest)
            calls.append((t.copy(), np.size(values)))
            return values

        return integrate_semi_infinite(recorded, *args)

    monkeypatch.setattr(barnes, "integrate_semi_infinite", quadrature)
    return calls


def test_wide_integrand_gets_one_node_per_call(monkeypatch):
    calls = _record_integrand_calls(monkeypatch)
    barnes._integral(np.linspace(1e-3, 1.0, 40000), (2,))
    assert len(calls) == 68
    assert max(size for _, size in calls) <= 40000


def test_narrow_integrand_gets_whole_levels(monkeypatch):
    seen = []

    def quadrature(f, *args):
        def recorded(t, open_):
            assert not t.flags.writeable and np.all(np.diff(t) > 0.0)
            seen.append((t.size, open_))
            return f(t, open_)

        return integrate_semi_infinite(recorded, *args)

    monkeypatch.setattr(barnes, "integrate_semi_infinite", quadrature)
    # the whole h = 1/8 grid in one call, then one call per extra level for
    # the orders still open
    barnes._integral(np.array([0.3, 0.7]), (0, 1, 2))
    assert seen == [(68, (0, 1, 2))]
    seen.clear()
    barnes._integral(_fused_grid(45), (0, 1, 2))
    assert seen == [(68, (0, 1, 2)), (68, (2,))]


# width of a, orders, integrand calls at the default tol: the h = 1/8 grid
# of 68 nodes is one call up to 2**14 // 68 = 240 values per node
CALL_PLANS = [
    (80, (0, 1, 2), 1),
    (81, (0, 1, 2), 2),
    (240, (1,), 1),
    (241, (1,), 2),
    (2**14 - 1, (0, 1, 2), 68),
    (2**14 + 1, (0, 1, 2), 68),
    (40000, (0, 1, 2), 68),
]


@pytest.mark.parametrize("width,orders,calls", CALL_PLANS)
def test_call_plan_does_not_change_the_bits(width, orders, calls, monkeypatch):
    one, one_err = barnes._integral(np.array([0.37]), orders)
    recorded = _record_integrand_calls(monkeypatch)
    values, errs = barnes._integral(np.full(width, 0.37), orders)
    assert len(recorded) == calls
    assert values.tobytes() == np.repeat(one, width, axis=1).tobytes()
    assert errs.tobytes() == one_err.tobytes()


# ---------------------------------------------------------------------------
# alternative integral splitting
# ---------------------------------------------------------------------------


def _zeta_b_prime0_alt(a):
    """Cross-check through an independent splitting of the same function:
    different elementary terms and the integrand [F(t/a)/t + a F'(t)] / (e^t - 1)."""
    integral, _ = _loop_quadrature(
        lambda t: (f_kernel(t / a, 0) / t + a * f_kernel(t, 1)) / math.expm1(t)
    )
    return (
        (a + 1.0 / a) * (EULER_GAMMA - math.log(a)) / 12.0
        - 0.25 * math.log(a)
        + 5.0 * a / 24.0
        - 0.25 * LOG_2PI
        + integral
    )


@pytest.mark.parametrize("a", [0.3, 1 / 3, 0.7, 1.0, 1.7])
def test_alt_route_matches_primary(a):
    assert abs(_zeta_b_prime0_alt(a) - zeta_b_prime0(a).value) <= 1e-12


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_d_frozen_value():
    assert abs(d_zeta_b_prime0(0.5) - FROZEN_D_HALF) <= 1e-13


@pytest.mark.parametrize("a", [0.2, 1 / 3, 0.5, 0.9])
def test_d_matches_finite_difference(a):
    h = 1e-5
    fd = (zeta_b_prime0(a + h).value - zeta_b_prime0(a - h).value) / (2.0 * h)
    assert abs(d_zeta_b_prime0(a) - fd) <= 1e-7


def test_d_combination_vanishes_at_one_third():
    a = 1.0 / 3.0
    combo = 2.0 * d_zeta_b_prime0(a) - 2.0 * d_zeta_b_prime0(1.0 - 2.0 * a)
    assert abs(combo) <= 1e-9


def test_d_small_a_limit():
    gaps = []
    for a in (1e-2, 1e-3):
        gaps.append(abs(a * a * d_zeta_b_prime0(a) + LOG_A))
        assert gaps[-1] <= a
    assert gaps[0] > gaps[1]


def test_d2_frozen_value():
    assert abs(d2_zeta_b_prime0(0.5) - FROZEN_D2_HALF) <= 1e-12


@pytest.mark.parametrize("a,h", [(0.2, 5e-5), (1 / 3, 1e-4), (0.5, 1e-4)])
def test_d2_matches_finite_difference(a, h):
    # h = 1e-4 at a = 0.2 would leave ~1.6e-5 of pure truncation (the fourth
    # derivative grows like 6/a^5), hence the smaller step there
    fd = (
        zeta_b_prime0(a + h).value
        - 2.0 * zeta_b_prime0(a).value
        + zeta_b_prime0(a - h).value
    ) / h**2
    assert abs(d2_zeta_b_prime0(a) - fd) <= 1e-5


def test_d2_truncation_certificate():
    # second-derivative analogue of the series certificate
    def tail(k):
        # B_2k zeta(2k-1), from mpmath as an independent oracle
        return float(Fraction(*mpmath.bernfrac(2 * k))) * float(mpmath.zeta(2 * k - 1))

    for a in (0.2, 0.5, 0.9):
        d2 = d2_zeta_b_prime0(a)
        for n in (2, 3, 4, 5):
            approx = 2.0 * LOG_A / a**3
            for k in range(2, n):
                approx += (1.0 - 1.0 / k) * tail(k) * a ** (2 * k - 3)
            bound = (1.0 - 1.0 / n) * abs(tail(n)) * a ** (2 * n - 3)
            slack = 8.0 * np.finfo(float).eps * (1.0 + abs(d2))
            assert abs(d2 - approx) <= bound + slack


def test_d2_small_a_limit():
    gaps = []
    for a in (1e-2, 1e-3):
        gaps.append(abs(a**3 * d2_zeta_b_prime0(a) - 2.0 * LOG_A))
        assert gaps[-1] <= a
    assert gaps[0] > gaps[1]


def test_derivative_array_support():
    grid = np.array([0.25, 0.5, 1.1])
    d1 = d_zeta_b_prime0(grid)
    d2 = d2_zeta_b_prime0(grid)
    for i, a in enumerate(grid):
        assert abs(d1[i] - d_zeta_b_prime0(float(a))) <= 1e-13
        assert abs(d2[i] - d2_zeta_b_prime0(float(a))) <= 1e-12
    # any array shape comes back in that shape
    square = np.array([[0.25, 0.5], [1.1, 2.0]])
    assert np.array_equal(d_zeta_b_prime0(square).ravel(), d_zeta_b_prime0(square.ravel()))


def test_barnes_eval_invariants():
    with pytest.raises(DomainError):
        BarnesEval(value=0.0, error_bound=-1.0, route="integral")
    with pytest.raises(DomainError):
        BarnesEval(value=0.0, error_bound=0.0, route="magic")
