import math
from fractions import Fraction

import numpy as np
import pytest

from envdet import specfun
from envdet.specfun import (
    EULER_GAMMA,
    LOG_2PI,
    LOG_GLAISHER,
    LOG_PI,
    ZETA_PRIME_NEG1,
    DomainError,
    QuadratureError,
    bernoulli,
    integrate_semi_infinite,
    log_gamma,
    zeta_int,
)

ZETA3 = 1.2020569031595942854


def test_constants_link_zeta_prime_to_glaisher():
    assert abs(ZETA_PRIME_NEG1 - (1.0 / 12.0 - LOG_GLAISHER)) <= 1e-14


def test_euler_gamma_against_euler_maclaurin():
    # independent oracle: gamma = H_n - log n - 1/(2n) + 1/(12 n^2) - 1/(120 n^4) + O(n^-6)
    n = 200
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    oracle = harmonic - math.log(n) - 1 / (2 * n) + 1 / (12 * n**2) - 1 / (120 * n**4)
    assert abs(EULER_GAMMA - oracle) <= 1e-13


def test_log_2pi_log_pi():
    assert abs(LOG_2PI - math.log(2.0 * math.pi)) <= 1e-15
    assert abs(LOG_PI - math.log(math.pi)) <= 1e-15


def test_log_gamma_special_points():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - 0.5 * LOG_PI) <= 1e-15


def test_log_gamma_matches_math_lgamma():
    for x in (0.1, 0.37, 2 / 3, 1.5, 7.25):
        assert abs(log_gamma(x) - math.lgamma(x)) <= 1e-14 * max(1.0, abs(math.lgamma(x)))


def test_log_gamma_critical_value_relation():
    # 2 log Gamma(2/3) recovers the determinant's critical value identity
    from envdet import envelope

    log_det = envelope.log_det_area(envelope.AngleParam(-2.0 / 3.0), 1.0).log_det
    lhs = 2.0 * log_gamma(2.0 / 3.0)
    rhs = (2.0 / 3.0) * LOG_PI + math.log(2.0 / 3.0) / 3.0 - log_det
    assert abs(lhs - rhs) <= 1e-9


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_log_gamma_recurrence_on_grid():
    x = np.linspace(0.05, 10.0, 1000)
    gap = log_gamma(x + 1.0) - log_gamma(x) - np.log(x)
    assert float(np.max(np.abs(gap))) <= 1e-12


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
        assert abs(value - target) <= max(1e-12, 1e-12 * target)


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


def test_quadrature_nonconvergence(monkeypatch):
    monkeypatch.setenv("ENVDET_QUAD_TOL", "1e-30")
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda t: t / np.expm1(t))


_RATES = np.array([0.5, 1.0, 2.0])


def _fast(t):
    # e^{-ct}: accepted at level 1, after 68 nodes
    return np.exp(-t[:, None] * _RATES)


def _slow(t):
    # e^{-t} times a narrow peak at ct = 3: accepted at level 7, after 4352 nodes
    return np.exp(-t[:, None]) / (1.0 + 100.0 * (t[:, None] * _RATES - 3.0) ** 2)


def _counted(f):
    """Integrate f, returning (value, err, nodes evaluated)."""
    nodes = []

    def g(t):
        nodes.append(t.size)
        return f(t)

    value, err = integrate_semi_infinite(g)
    return value, err, sum(nodes)


@pytest.mark.parametrize("first", ["fast", "slow"])
def test_grouped_quadrature_freezes_each_group_at_its_level(first):
    fast, fast_err, fast_nodes = _counted(_fast)
    slow, slow_err, slow_nodes = _counted(_slow)
    assert (fast_nodes, slow_nodes) == (68, 4352)
    groups = [(_fast, fast, fast_err), (_slow, slow, slow_err)]
    if first == "slow":
        groups.reverse()
    value, err, nodes = _counted(lambda t: np.stack([f(t) for f, _, _ in groups], axis=1))
    assert nodes == 4352
    assert value.shape == (2, 3) and err.shape == (2,)
    for g, (_, alone, alone_err) in enumerate(groups):
        assert np.array_equal(value[g], alone)
        assert err[g] == alone_err


def test_grouped_quadrature_raises_while_a_group_is_open(monkeypatch):
    # e^{-t} t^{-0.9} is integrable, but too singular at 0 for ten refinements
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda t: np.stack([_fast(t), _fast(t) * t[:, None] ** -0.9], axis=1))
    monkeypatch.setenv("ENVDET_QUAD_TOL", "1e-30")
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda t: np.stack([_fast(t), _slow(t)], axis=1))


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


def test_quadrature_spec_validation(monkeypatch):
    for tol in (0.0, -1.0, math.inf, math.nan):
        monkeypatch.setenv("ENVDET_QUAD_TOL", repr(tol))
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: np.exp(-t))
    monkeypatch.setenv("ENVDET_QUAD_TOL", "1e-6")
    assert specfun._tol() == 1e-6
    value, _ = integrate_semi_infinite(lambda t: np.exp(-t))
    assert abs(value - 1.0) <= 1e-6
