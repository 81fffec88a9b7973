"""The paper's two "area not too large" thresholds, found with scipy.optimize
on library calls.

At area S the beta-derivative of log det is d1 - d_zeta0 log S, and d_zeta0
vanishes only at -2/3, so every other critical point at area S is a root of
g(beta) = log S, g = d_log_det / d_zeta0 at unit area.  Hence

* S_0 = exp(min g): up to S_0, -2/3 is the only critical point; above it a
  maximum and a minimum split off from g's minimiser, near -0.5893;
* S_abs: the area at which that right-branch minimum b, a root of
  g(b) = log S, has the log det of -2/3, which makes log S the slope
  (L(b) - L(-2/3)) / (zeta0(b) - zeta0(-2/3)) as well, L the unit-area log
  det; from S_abs on, -2/3 is no longer the absolute minimum.

Both lie below S* = ``critical_area()``, where -2/3 turns into a local
maximum.  g at its minimiser is checked against the 40-digit reference.
"""

import math

import pytest
from mp_reference import d1 as mp_d1, zeta0 as mp_zeta0
from scipy import optimize

from envdet.envelope import (
    BETA_CRITICAL,
    AngleParam,
    critical_area,
    d2_log_det,
    d2_zeta0,
    d_log_det,
    d_zeta0,
    log_det_area,
    zeta0,
)

S_0 = 1.75217377152
S_ABS = 1.77251804764


def _g(beta):
    p = AngleParam(beta)
    return d_log_det(p) / d_zeta0(p)


def _unit_log_det(beta):
    return log_det_area(AngleParam(beta), 1.0).log_det


@pytest.fixture(scope="module")
def g_minimum():
    # right of -2/3, where g's 0/0 is removable, and well inside the domain
    found = optimize.minimize_scalar(
        _g, bounds=(-0.64, -0.54), method="bounded", options={"xatol": 1e-12})
    assert found.success
    return found.x, found.fun


def test_s0_is_the_exp_of_the_minimum_of_d1_over_d_zeta0(g_minimum):
    beta, g_min = g_minimum
    assert beta == pytest.approx(-0.58933, abs=1e-5)
    assert abs(math.exp(g_min) - S_0) <= 1e-9


def test_g_at_its_minimiser_agrees_with_the_40_digit_reference(g_minimum):
    beta, g_min = g_minimum
    reference = float(mp_d1(beta) / mp_zeta0(beta, 1))
    assert abs(g_min - reference) <= 1e-14


def test_s_abs_is_where_the_right_minimum_ties_with_the_equilateral_point(g_minimum):
    c = BETA_CRITICAL
    log_det_c, zeta0_c = _unit_log_det(c), zeta0(AngleParam(c))

    def tie_gap(beta):
        slope = (_unit_log_det(beta) - log_det_c) / (zeta0(AngleParam(beta)) - zeta0_c)
        return _g(beta) - slope

    beta = optimize.brentq(tie_gap, g_minimum[0], -0.52, xtol=1e-15)
    assert beta == pytest.approx(-0.57269, abs=1e-5)
    s_abs = math.exp(_g(beta))
    assert abs(s_abs - S_ABS) <= 1e-9
    # at S_abs, b is a minimum with the equilateral log det
    p, log_s = AngleParam(beta), math.log(s_abs)
    assert abs(d_log_det(p) - d_zeta0(p) * log_s) <= 1e-12
    assert d2_log_det(p) - d2_zeta0(p) * log_s > 0.0
    assert abs(log_det_area(p, s_abs).log_det - log_det_area(AngleParam(c), s_abs).log_det) <= 1e-12
    assert S_0 < s_abs < critical_area()
