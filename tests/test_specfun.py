import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from envdet.specfun import (
    CONSTANTS,
    DEFAULT_QUAD,
    DomainError,
    QuadratureError,
    QuadratureSpec,
    bernoulli,
    digamma,
    integrate_semi_infinite,
    log_gamma,
    trigamma,
    zeta_int,
)

ZETA3 = 1.2020569031595942854


def test_constants_link_zeta_prime_to_glaisher():
    assert abs(CONSTANTS.zeta_prime_neg1 - (1.0 / 12.0 - CONSTANTS.log_glaisher)) <= 1e-14


def test_constants_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.euler_gamma = 0.0


def test_euler_gamma_against_euler_maclaurin():
    # independent oracle: gamma = H_n - log n - 1/(2n) + 1/(12 n^2) - 1/(120 n^4) + O(n^-6)
    n = 200
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    oracle = harmonic - math.log(n) - 1 / (2 * n) + 1 / (12 * n**2) - 1 / (120 * n**4)
    assert abs(CONSTANTS.euler_gamma - oracle) <= 1e-13


def test_log_2pi_log_pi():
    assert abs(CONSTANTS.log_2pi - math.log(2.0 * math.pi)) <= 1e-15
    assert abs(CONSTANTS.log_pi - math.log(math.pi)) <= 1e-15


def test_log_gamma_special_points():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - 0.5 * CONSTANTS.log_pi) <= 1e-15


def test_log_gamma_matches_math_lgamma():
    for x in (0.1, 0.37, 2 / 3, 1.5, 7.25):
        assert abs(log_gamma(x) - math.lgamma(x)) <= 1e-14 * max(1.0, abs(math.lgamma(x)))


def test_log_gamma_critical_value_relation():
    # 2 log Gamma(2/3) recovers the determinant's critical value identity
    from envdet import envelope

    log_det = envelope.log_det_unit(envelope.AngleParam(-2.0 / 3.0)).log_det
    lhs = 2.0 * log_gamma(2.0 / 3.0)
    rhs = (2.0 / 3.0) * CONSTANTS.log_pi + math.log(2.0 / 3.0) / 3.0 - log_det
    assert abs(lhs - rhs) <= 1e-9


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_log_gamma_recurrence_on_grid():
    x = np.linspace(0.05, 10.0, 1000)
    gap = log_gamma(x + 1.0) - log_gamma(x) - np.log(x)
    assert float(np.max(np.abs(gap))) <= 1e-12


def test_digamma_special_points():
    assert abs(digamma(1.0) + CONSTANTS.euler_gamma) <= 1e-13
    assert abs(digamma(0.5) - (-CONSTANTS.euler_gamma - 2.0 * math.log(2.0))) <= 1e-13


def test_digamma_gauss_combination():
    combo = -digamma(1.0 / 3.0) + digamma(1.0 / 6.0) + math.pi / math.tan(math.pi / 3.0)
    assert abs(combo + 2.0 * math.log(2.0)) <= 1e-12


def test_digamma_is_derivative_of_log_gamma():
    x = np.linspace(0.05, 10.0, 1000)
    h = 1e-5
    fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
    assert float(np.max(np.abs(fd - digamma(x)))) <= 1e-6


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)


def test_trigamma_special_points():
    assert abs(trigamma(1.0) - math.pi**2 / 6.0) <= 1e-12 * (math.pi**2 / 6.0)
    assert abs(trigamma(0.5) - math.pi**2 / 2.0) <= 1e-12 * (math.pi**2 / 2.0)


def test_trigamma_is_derivative_of_digamma():
    x = np.linspace(0.1, 5.0, 500)
    h = 1e-5
    fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
    assert float(np.max(np.abs(fd - trigamma(x)))) <= 1e-6


def test_trigamma_domain():
    with pytest.raises(DomainError):
        trigamma(-2.0)


def test_zeta_int_even_values():
    assert abs(zeta_int(2) - math.pi**2 / 6.0) <= 1e-14 * (math.pi**2 / 6.0)
    assert abs(zeta_int(4) - math.pi**4 / 90.0) <= 1e-14 * (math.pi**4 / 90.0)


def test_zeta_int_3_against_partial_sum():
    # brute force: 1e7 terms plus the midpoint-corrected integral tail
    n = 10_000_000
    k = np.arange(1, n + 1, dtype=np.float64)
    partial = float(np.sum(1.0 / k**3))
    tail = 1.0 / (2.0 * (n + 0.5) ** 2)
    assert abs(zeta_int(3) - (partial + tail)) <= 1e-12


def test_zeta_int_domain():
    for bad in (1, 0, -3):
        with pytest.raises(DomainError):
            zeta_int(bad)
    with pytest.raises(DomainError):
        zeta_int(2.5)


def test_bernoulli_small_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_zeta_identity():
    # |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^{2k}
    for k in range(1, 9):
        lhs = abs(float(bernoulli(2 * k)))
        rhs = 2.0 * math.factorial(2 * k) * zeta_int(2 * k) / (2.0 * math.pi) ** (2 * k)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_zeta_even_closed_form_via_bernoulli():
    for k in range(1, 9):
        closed = (
            abs(float(bernoulli(2 * k)))
            * (2.0 * math.pi) ** (2 * k)
            / (2.0 * math.factorial(2 * k))
        )
        assert abs(zeta_int(2 * k) - closed) <= 1e-13 * closed


def test_bernoulli_domain():
    for bad in (3, 1, 0, 66, -2):
        with pytest.raises(DomainError):
            bernoulli(bad)


def test_quadrature_bose_moments():
    value, err = integrate_semi_infinite(lambda t: t / np.expm1(t))
    assert abs(value - math.pi**2 / 6.0) <= 1e-12
    assert err >= 0.0
    value, _ = integrate_semi_infinite(lambda t: t * t / np.expm1(t))
    assert abs(value - 2.0 * ZETA3) <= 1e-12


def test_quadrature_pure_exponential():
    value, _ = integrate_semi_infinite(lambda t: np.exp(-t))
    assert abs(value - 1.0) <= 1e-12


def test_quadrature_zeta_gamma_family():
    for n in range(2, 7):
        value, _ = integrate_semi_infinite(lambda t, n=n: t ** (n - 1) / np.expm1(t))
        target = zeta_int(n) * math.factorial(n - 1)
        assert abs(value - target) <= max(DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * target)


def test_quadrature_error_estimate_is_conservative():
    value, err = integrate_semi_infinite(lambda t: t / np.expm1(t))
    assert abs(value - math.pi**2 / 6.0) <= max(err, 1e-14)


def test_quadrature_vector_valued():
    value, _ = integrate_semi_infinite(
        lambda t: np.stack([np.exp(-t), t / np.expm1(t)], axis=-1)
    )
    assert isinstance(value, np.ndarray)
    assert abs(value[0] - 1.0) <= 1e-12
    assert abs(value[1] - math.pi**2 / 6.0) <= 1e-12


def test_quadrature_nonconvergence():
    spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_refinement_levels=6)
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda t: t / np.expm1(t), spec)


def test_quadrature_nodes_are_read_only_and_increasing():
    seen = []

    def f(t):
        with pytest.raises(ValueError):
            t[0] = 1.0
        seen.append(t.copy())
        return np.exp(-t)

    integrate_semi_infinite(f)
    # the first call has one node; narrow integrands get a whole level per
    # later call, each in increasing order
    assert seen[0].size == 1
    assert len(seen) == 4
    assert all(np.all(np.diff(t) > 0.0) for t in seen)
    assert sum(t.size for t in seen) == 68


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(small_t_crossover=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(small_t_crossover=1.5)
    with pytest.raises(DomainError):
        QuadratureSpec(max_refinement_levels=0)
