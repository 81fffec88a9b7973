import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quadrature_reference import reference_integral

from envdet import barnes, envelope, specfun, verify
from envdet.barnes import (
    BarnesEval,
    d2_zeta_b_prime0,
    d_zeta_b_prime0,
    dedekind_sum,
    f_kernel,
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
    with pytest.raises(DomainError, match=r"p must be an integer in \[1, 1000000\]"):
        dedekind_sum(1, 10**12)
    assert time.perf_counter() - start < 1.0
    # the cap itself is summed: S(1, p) = (p - 1)(p - 2) / 12p
    p = 10**6
    assert dedekind_sum(1, p) == Fraction((p - 1) * (p - 2), 12 * p)


def test_dedekind_takes_whole_numbers_at_their_exact_value():
    # numpy ints and ints beyond the doubles are exact: j * np.int64(2**62)
    # overflowed int64, and the sum came out as 1/98
    assert dedekind_sum(np.int64(2**62), 7) == Fraction(1, 14)
    assert dedekind_sum(2**60 + 1, 7) == dedekind_sum(2, 7)
    # an integral real is its integer
    assert dedekind_sum(3.0, 7) == dedekind_sum(3, 7)
    assert dedekind_sum(Fraction(6, 2), 7) == dedekind_sum(3, 7)


def _dedekind_oracle(q, p):
    """S(q, p) from the integer sum_{j<p} (2j - p)(2 (jq mod p) - p) = 4 p^2 S(q, p),
    the definition's terms over their common denominator, with q itself, not
    q mod p, in every product."""
    return Fraction(sum((2 * j - p) * (2 * (j * q % p) - p) for j in range(1, p)), 4 * p * p)


def _dedekind_samples():
    """Seeded coprime (q, p), p log-uniform up to the cap: one q drawn from
    [1, 4p], below or above p, and in turn q = 1, q = kp + 1 and q = kp - 1;
    and p at the cap itself."""
    rng = random.Random(20260)
    cases = [(barnes._PQ_MAX - 1, barnes._PQ_MAX)]
    for i in range(12):
        p = int(math.exp(rng.uniform(0.0, math.log(barnes._PQ_MAX))))
        q = rng.randrange(1, 4 * p + 1)
        while math.gcd(p, q) != 1:
            q += 1
        k = rng.randrange(1, 4)
        cases += [(q, p), ((1, k * p + 1, k * p - 1)[i % 3], p)]
    return list(dict.fromkeys(case for case in cases if case[0] >= 1))


@pytest.mark.parametrize("q,p", _dedekind_samples())
def test_dedekind_matches_the_integer_oracle(q, p):
    assert dedekind_sum(q, p) == _dedekind_oracle(q, p)


@pytest.mark.parametrize("q,p", [(3, 7), (10, 7), (999, 1000), (1001, 1000), (123457, 65536)])
def test_dedekind_matches_the_integer_oracle_on_numpy_and_huge_ints(q, p):
    expected = _dedekind_oracle(q, p)
    assert dedekind_sum(np.int64(q), np.int64(p)) == expected
    assert dedekind_sum(np.int32(q), p) == expected
    # q beyond the doubles, and beyond int64: only q mod p counts
    for k in (2**53 + 1, 2**64, 3**50):
        big = q + k * p
        assert dedekind_sum(big, p) == _dedekind_oracle(big, p) == expected


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
        (series,) = barnes._series(r, (d,), np.empty((1, r.size)))
        (closed,) = barnes._closed(r, (d,), np.empty((1, r.size)))
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
    # single non-decreasing rows, which f_kernel splits at one index
    "sorted-grid-level-0": lambda: [np.sort(r) for r in _grid_level_products(0)],
    "sorted-grid-level-2": lambda: [np.sort(r) for r in _grid_level_products(2)],
    "sorted-edges": lambda: [np.array([0.0, 1e-300, np.nextafter(0.5, 0.0), 0.5, 700.0, 1e10,
                                       math.inf])],
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


def test_only_a_sorted_single_row_is_written_in_place(monkeypatch):
    # the buffers the series parts are written to, below _TINY and above it
    written = []

    def recording(name):
        part = getattr(barnes, name)

        def recorded(r, orders, out):
            written.append(out)
            return part(r, orders, out)

        monkeypatch.setattr(barnes, name, recorded)

    recording("_leading")
    recording("_series")
    r = np.linspace(0.0, 1.0, 11)
    # in place: a 1-D row, a (1, n) row and a (1, 1, n) row, non-decreasing
    # from >= 0; the last row's series values all lie below _TINY
    for row in (r, r[None, :], r[None, None, :], np.array([-0.0, 0.0, 0.7])):
        written.clear()
        got = f_kernel(row, (0, 2))
        assert any(np.shares_memory(got, out) for out in written)
    # by mask: two rows, an unsorted row
    for other in (np.stack([r, r]), r[::-1].copy(), np.array([0.3, 0.2])):
        written.clear()
        got = f_kernel(other, (0, 2))
        assert len(written) == 1 and not np.shares_memory(got, written[0])


@pytest.mark.parametrize(
    "r", [[math.nan], [0.1, math.nan], [0.1, 0.2, math.nan], [-1e-300, 0.1], [-math.inf, 1.0]],
    ids=["nan", "nan-last-of-two", "nan-last-of-three", "tiny-negative-first", "-inf-first"],
)
@pytest.mark.parametrize("shape", [(-1,), (1, -1)], ids=["1-d", "row"])
def test_a_sorted_looking_row_with_nan_or_a_negative_start_raises(r, shape):
    with pytest.raises(DomainError):
        f_kernel(np.reshape(r, shape), (0, 1, 2))


def test_a_row_starting_at_negative_zero_keeps_its_bits():
    r = np.array([-0.0, 0.0, 1e-300, 0.3, 0.5, 2.0])
    for d in (0, 1, 2):
        assert f_kernel(r, d).tobytes() == _masked_kernel(r, d).tobytes()
        # the same values, unsorted, take the mask path
        assert f_kernel(r[::-1].copy(), d)[::-1].tobytes() == f_kernel(r, d).tobytes()


@pytest.mark.parametrize("orders", [(), (0, 3), (-1,), [0, 1]])
def test_fused_kernel_domain(orders):
    with pytest.raises(DomainError):
        f_kernel(1.0, orders)


@pytest.mark.parametrize("r", [np.empty((0,)), np.empty((3, 0)), np.empty((0, 2)), []],
                         ids=["(0,)", "(3, 0)", "(0, 2)", "[]"])
def test_f_kernel_takes_an_empty_input(r):
    # an empty input takes the mask path, which has no value to check
    assert f_kernel(r, 0).shape == np.shape(r)
    assert f_kernel(r, (0, 2)).shape == (2,) + np.shape(r)


@pytest.mark.parametrize(
    "r", [[0.3, math.nan, 0.1], [[0.2], [math.nan]], [0.3, -1.0], [[0.2, 0.1], [0.0, -1e-300]]],
    ids=["nan-unsorted", "nan-column", "negative-unsorted", "negative-2-d"],
)
def test_the_mask_path_refuses_nan_or_a_negative_value(r):
    with pytest.raises(DomainError, match=r"^f_kernel needs r >= 0$"):
        f_kernel(r, (0, 1, 2))


def test_a_signed_zero_keeps_its_sign():
    # F(r) = c r^3 near 0 with c = B_4 / 4! < 0, so F(-0) is 0 and F(0) is
    # -0, on the row path and on the mask path alike
    assert f_kernel([[-0.0, 0.0]], 0).tobytes() == np.array([[0.0, -0.0]]).tobytes()
    assert f_kernel([[-0.0], [0.0]], 0).tobytes() == np.array([[0.0], [-0.0]]).tobytes()


def _horner_threshold(coeffs):
    """The largest double T for which the proof of the short cut below
    barnes._TINY holds for ``coeffs``: with s0 = fl(T^2), every step j's
    product fl(s0 c[j+1]) lies below half the gap between c[j] and each of
    its neighbouring doubles, so adding it to c[j] gives c[j] back.  Rounding
    is monotone, so the test is too, and a bisection over the bit patterns of
    the positive doubles finds T."""
    def holds(t):
        s0 = t * t
        for c, above in zip(map(float, coeffs), map(float, coeffs[1:])):
            gap = min(math.nextafter(c, math.inf) - c, c - math.nextafter(c, -math.inf))
            if not abs(s0 * above) < gap / 2:
                return False
        return True

    # bit patterns lo and hi, of 0.0 and 1.0: the test holds at lo, not at hi
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    assert holds(0.0) and not holds(1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(float(np.int64(mid).view(np.float64))) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


HORNER_THRESHOLDS = {k: _horner_threshold(barnes._COEFFS[k]) for k in (0, 1, 2)}


def test_the_tiny_threshold_is_proved_from_the_coefficients():
    assert {k: f"{t:.3e}" for k, t in HORNER_THRESHOLDS.items()} == {
        0: "4.730e-08", 1: "4.668e-08", 2: "3.621e-08"}
    assert barnes._TINY <= min(HORNER_THRESHOLDS.values())


@pytest.mark.parametrize("k", [0, 1, 2])
def test_horner_gives_the_leading_coefficient_below_each_threshold(k):
    # a sampled check of the proof: the plain loop, started from 0.0
    s = np.geomspace(1e-300, HORNER_THRESHOLDS[k], 200001) ** 2
    acc = 0.0
    for c in reversed(barnes._COEFFS[k]):
        acc = acc * s + c
    assert (acc == barnes._COEFFS[k][0]).all()


def _tiny_edge_row():
    """One sorted row: both zeros, the least subnormal, the doubles on either
    side of _TINY and of each order's threshold, and a log grid below 0.5."""
    edges = [barnes._TINY, *HORNER_THRESHOLDS.values()]
    around = [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
    grid = np.geomspace(1e-20, math.nextafter(0.5, 0.0), 100000)
    return np.concatenate([[-0.0, 0.0, 5e-324], np.sort(np.concatenate([around, grid]))])


def test_the_short_cut_below_tiny_keeps_every_bit():
    row = _tiny_edge_row()
    assert row[0] == 0.0 and (row[1:] >= row[:-1]).all()
    assert 0 < np.searchsorted(row, barnes._TINY) < row.size
    fused = f_kernel(row, (0, 1, 2))
    masked = f_kernel(row[::-1].copy(), (0, 1, 2))[:, ::-1]
    for k in (0, 1, 2):
        # the sorted row's three parts, the mask path's Horner everywhere below
        # 0.5, and the plain loop started from 0.0
        expected = _masked_kernel(row, k).tobytes()
        assert f_kernel(row, k).tobytes() == expected
        assert fused[k].tobytes() == expected
        assert masked[k].tobytes() == expected


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


@pytest.mark.parametrize(
    "a, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0.0"),
     (1e-101, "1e-101"), (1e28, "1e+28"), (-1.0, "-1.0"), ([], "array([], dtype=float64)")],
)
def test_the_integral_route_refuses_a_outside_its_range(a, shown):
    # NaN fails the range check, and an empty a is refused before it
    message = f"the integral route needs 1e-100 <= a <= 1e+27, got {shown}"
    with pytest.raises(DomainError) as info:
        d_zeta_b_prime0(a)
    assert str(info.value) == message


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


def _rational_reference(p, q):
    """zeta_B'(0; p/q, 1, 1) by the closed form, each log-gamma of the
    sawtooth sums a scalar gammaln call, the terms added one at a time."""
    value = (ZP1 - math.log(q) / 12.0) / (p * q)
    value += (float(_dedekind_oracle(q, p)) + 0.25) * math.log(q / p)
    for n, m in ((p, q), (q, p)):
        for k in range(1, n):
            value += (0.5 - k / n) * float(specfun.gammaln(k * m % n / n))
    return value


def test_rational_route_matches_the_scalar_reference_bit_for_bit():
    pairs = [(p, q) for p in range(1, 61) for q in range(1, 61) if math.gcd(p, q) == 1]
    for p, q in pairs + [(499999, 500001)]:
        value = zeta_b_prime0_rational(Fraction(p, q)).value
        assert value.hex() == _rational_reference(p, q).hex(), (p, q)


# Arguments that are not real numbers, or not integers where one is needed.
# Before every numeric argument went through one gate, most of these calls
# raised a TypeError, ValueError or OverflowError, or parsed a string as a
# number.
NOT_REAL = {
    'zeta_b_prime0_series("0.5")': lambda: zeta_b_prime0_series("0.5"),
    'zeta_b_prime0_series(0.5, "x")': lambda: zeta_b_prime0_series(0.5, "x"),
    "zeta_b_prime0_series(0.5, None)": lambda: zeta_b_prime0_series(0.5, None),
    "zeta_b_prime0_series(0.5j, 4)": lambda: zeta_b_prime0_series(0.5j, 4),
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
    assert zeta_b_prime0_series(a, np.int64(5)) == zeta_b_prime0_series(x, 5)
    for route in (d_zeta_b_prime0, d2_zeta_b_prime0, f_kernel):
        assert type(route(a)) is float and route(a).hex() == route(x).hex()


def test_series_head_overflow_is_a_domain_error():
    # log A / a overflows below about 1.4e-309; above it the value is finite
    with pytest.raises(DomainError, match="overflows"):
        zeta_b_prime0_series(1e-309, 2)
    assert math.isfinite(zeta_b_prime0_series(2e-309, 2).value)


@pytest.mark.parametrize(
    "a, n, shown",
    [(1e-309, 2, "1e-309"), (1e10, 16, "10000000000.0"), (10**10, 16, "10000000000"),
     (Fraction(1, 10**309), 4, "Fraction(1, 1" + "0" * 309 + ")")],
)
def test_the_series_overflow_message_shows_a_as_given(a, n, shown):
    # the head overflows at a = 1e-309, the certificate's a**(2n - 1) at a = 1e10
    message = f"the series route overflows for n = {n} at a = {shown}"
    with pytest.raises(DomainError) as info:
        zeta_b_prime0_series(a, n)
    assert str(info.value) == message


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
        bounds = [zeta_b_prime0_series(float(a), n).error_bound for n in (2, 3, 4)]
        assert bounds[0] > bounds[1] > bounds[2]
    for a in np.linspace(0.05, 0.8, 16):
        bounds = [zeta_b_prime0_series(float(a), n).error_bound for n in (2, 3, 4, 5)]
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
        zeta_b_prime0_series(1e100, 4)
    with pytest.raises(DomainError):
        zeta_b_prime0_series(np.array([0.5, 1e100]), 4)
    for a, n in ((-1.0, 4), (math.nan, 4), (0.5, 17), (np.array([0.5]), 4)):
        with pytest.raises(DomainError):
            zeta_b_prime0_series(a, n)
    # an integral float n is that integer: value and bound alike
    assert zeta_b_prime0_series(0.3, 4.0) == zeta_b_prime0_series(0.3, 4)


# ---------------------------------------------------------------------------
# reference quadrature: one node per integrand call
# ---------------------------------------------------------------------------


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

    integral, err = reference_integral(integrand)
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


# a > 1 refines past the first table: at a = 1e6 the orders alone take 544,
# 1088 and 544 nodes, and at 5e26 4352, 4352 and 68
_REFINING_A = [10.0, 1e6, 1e12, 5e26]


def _refining(a, width):
    """``width`` values of a from ``a`` down, each 1.5 times the next."""
    return a / 1.5 ** np.arange(width)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("a", _REFINING_A)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_narrow_refinement_matches_node_loop(width, a, order):
    # every quadrature a determinant call makes is accepted at the first
    # table; these narrow ones take the later levels, each one node table
    # in one integrand call
    (value,), (err,) = barnes._integral(_refining(a, width), (order,))
    expected, expected_err = _integral_reference(_refining(a, width), order)
    assert value.tobytes() == expected.tobytes()
    assert err == expected_err


@pytest.mark.parametrize("a", _REFINING_A)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_narrow_refinement_of_three_orders_is_three_calls(width, a, monkeypatch):
    # the groups of one call freeze at their own levels, each passed to the
    # integrand on the nodes it takes alone, with the bits and errors of one
    # call per order
    calls = []
    quadrature = barnes.integrate_semi_infinite

    def counted(f, groups, size):
        def g(t, open_):
            calls.append((t.size, open_))
            return f(t, open_)

        return quadrature(g, groups, size)

    monkeypatch.setattr(barnes, "integrate_semi_infinite", counted)
    values, errs = barnes._integral(_refining(a, width), (0, 1, 2))
    per_group = [sum(n for n, open_ in calls if k in open_) for k in (0, 1, 2)]
    alone = []
    for k in (0, 1, 2):
        calls.clear()
        (value,), (err,) = barnes._integral(_refining(a, width), (k,))
        alone.append(sum(n for n, _ in calls))
        assert values[k].tobytes() == value.tobytes()
        assert errs[k] == err
    assert per_group == alone
    if a == 1e6:
        assert alone == [544, 1088, 544]


@pytest.mark.parametrize("h, odd_only", [(1 / 8, False), (1 / 16, True), (1 / 32, True),
                                         (1 / 64, True)])
@pytest.mark.parametrize("block", [1, 27, 68])
def test_the_memoised_columns_are_math_expm1_and_read_only(h, odd_only, block):
    nodes, _ = specfun._level_nodes(h, odd_only)
    for start in range(0, nodes.size, block):
        t = nodes[start:start + block]
        em = np.array([math.expm1(x) for x in t.tolist()])
        columns = barnes._expm1_columns(t.tobytes())
        for column, expected in zip(columns, (t, em, t * em)):
            assert column.shape == (t.size, 1)
            assert column.tobytes() == expected.tobytes()
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column += 1.0


def test_the_memo_holds_few_blocks():
    # measured: 72, the first table's 68 one-node blocks (wide integrands:
    # criterion 5's grid, the scans of 5000 and 20000 points), two blocks of
    # 27 nodes, one of 14 and the whole 68-node table
    barnes._expm1_columns.cache_clear()
    verify.run_suite("full")
    for count in (2, 101, 5000, 20000):
        envelope.scan(-0.99, -0.51, count)
    assert barnes._expm1_columns.cache_info().currsize <= 72


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


@pytest.mark.parametrize("orders", [(0,), (2,), (0, 1, 2)])
def test_integral_of_shuffled_a_is_the_sorted_call_permuted(orders):
    # one node per block at this width, so a is sorted inside and put back
    b = np.linspace(-0.9999, -0.5001, 20000)
    a = np.concatenate([b + 1.0, -2.0 * b - 1.0])
    perm = np.random.default_rng(18).permutation(a.size)
    values, errs = barnes._integral(a, orders)
    shuffled, shuffled_errs = barnes._integral(a[perm], orders)
    assert shuffled.tobytes() == values[:, perm].tobytes()
    assert shuffled_errs.tobytes() == errs.tobytes()


def test_a_wide_integral_gives_the_kernel_sorted_rows(monkeypatch):
    rows = []
    kernel = barnes.f_kernel

    def recorded(r, derivative=0):
        rows.append(r.shape[0] == 1 and bool(np.all(np.diff(r[0]) >= 0.0)))
        return kernel(r, derivative)

    monkeypatch.setattr(barnes, "f_kernel", recorded)
    # unsorted a: one node per block, each row t a sorted
    barnes._integral(_fused_grid(40000), (0, 1, 2))
    assert len(rows) == 136 and all(rows)


@pytest.mark.parametrize("width, nodes", [(2**13 + 1, 1), (2**13, 2)])
def test_a_is_sorted_exactly_where_the_quadrature_takes_one_node_a_call(width, nodes, monkeypatch):
    # barnes and specfun share the block rule: sorting where blocks hold two
    # nodes would be wasted, and not sorting where they hold one would send
    # every kernel row down the mask path
    assert specfun._block_nodes(1, width) == nodes
    shapes, sorted_rows = [], []
    kernel = barnes.f_kernel

    def recorded(r, derivative=0):
        shapes.append(r.shape)
        sorted_rows.extend(bool(np.all(np.diff(row) >= 0.0)) for row in r)
        return kernel(r, derivative)

    monkeypatch.setattr(barnes, "f_kernel", recorded)
    barnes._integral(_fused_grid(width), (0,))  # a in no order
    assert set(shapes) == {(nodes, width)}
    assert all(sorted_rows) if nodes == 1 else not any(sorted_rows)


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
    (integral,), _ = reference_integral(
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
