import math
from fractions import Fraction

import numpy as np
import pytest

from envdet.barnes import (
    BarnesEval,
    d2_zeta_b_prime0,
    d_zeta_b_prime0,
    dedekind_sum,
    f_kernel,
    sawtooth,
    series_error_bound,
    zeta_b_prime0,
    zeta_b_prime0_alt,
    zeta_b_prime0_rational,
    zeta_b_prime0_series,
    zeta_b_prime0_values,
)
from envdet.specfun import CONSTANTS, DomainError

ZP1 = CONSTANTS.zeta_prime_neg1
LOG_A = CONSTANTS.log_glaisher  # equals 1/12 - zeta'(-1)

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
# sawtooth and Dedekind sums
# ---------------------------------------------------------------------------


def test_sawtooth_values():
    assert sawtooth(3.0) == 0.0
    assert sawtooth(-7.0) == 0.0
    assert sawtooth(0.25) == -0.25
    assert sawtooth(0.5) == 0.0
    assert sawtooth(1.75) == 0.25


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


def test_dedekind_requires_coprime():
    with pytest.raises(DomainError):
        dedekind_sum(2, 4)
    with pytest.raises(DomainError):
        dedekind_sum(0, 3)


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
    # force each branch across the default crossover and compare
    for r in np.linspace(0.45, 0.55, 21):
        for d in (0, 1, 2):
            series = f_kernel(float(r), d, crossover=1.0)
            closed = f_kernel(float(r), d, crossover=0.01)
            assert abs(series - closed) <= 1e-13


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
    vec, _ = zeta_b_prime0_values(grid)
    for a, v in zip(grid, vec):
        assert abs(v - zeta_b_prime0(float(a)).value) <= 1e-14


def test_zeta_b_prime0_domain():
    with pytest.raises(DomainError):
        zeta_b_prime0(0.0)
    with pytest.raises(DomainError):
        zeta_b_prime0(-0.3)


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
        + (q - 1) / 4.0 * CONSTANTS.log_2pi
    )
    assert abs(zeta_b_prime0_rational(Fraction(1, q)).value - expected) <= 1e-13


@pytest.mark.parametrize("pq", [(1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6)])
def test_rational_route_matches_integral(pq):
    p, q = pq
    gap = abs(zeta_b_prime0(p / q).value - zeta_b_prime0_rational(Fraction(p, q)).value)
    assert gap <= 1e-10


def test_rational_domain():
    with pytest.raises(DomainError):
        zeta_b_prime0_rational(Fraction(-1, 3))


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
    vals, _ = zeta_b_prime0_values(grid)
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


# ---------------------------------------------------------------------------
# alternative integral splitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.3, 1 / 3, 0.7, 1.0, 1.7])
def test_alt_route_matches_primary(a):
    assert abs(zeta_b_prime0_alt(a).value - zeta_b_prime0(a).value) <= 1e-12


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
    from envdet.specfun import bernoulli, zeta_int

    for a in (0.2, 0.5, 0.9):
        d2 = d2_zeta_b_prime0(a)
        for n in (2, 3, 4, 5):
            approx = 2.0 * LOG_A / a**3
            for k in range(2, n):
                approx += (
                    (1.0 - 1.0 / k)
                    * float(bernoulli(2 * k))
                    * zeta_int(2 * k - 1)
                    * a ** (2 * k - 3)
                )
            bound = (1.0 - 1.0 / n) * abs(float(bernoulli(2 * n))) * zeta_int(2 * n - 1) * a ** (
                2 * n - 3
            )
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


def test_barnes_eval_invariants():
    with pytest.raises(DomainError):
        BarnesEval(value=0.0, error_bound=-1.0, route="integral")
    with pytest.raises(DomainError):
        BarnesEval(value=0.0, error_bound=0.0, route="magic")
