import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envdet import envelope
from envdet.envelope import (
    AngleParam,
    BETA_CRITICAL,
    asymptotic_neg1,
    asymptotic_neghalf,
    convexity_lower_bound,
    critical_area,
    d2_log_det,
    d2_zeta0,
    d_log_det,
    d_zeta0,
    geometry,
    log_det_area,
    refine_minimum,
    scaling_factor,
    scan,
    zeta0,
)
from envdet.specfun import LOG_PI, DomainError, integrate_semi_infinite

# Closed-form values, frozen from a 40-digit evaluation.
CLOSED_M23 = 0.0216976709018315181
CLOSED_M34 = 0.0829015200310546721
CLOSED_M56 = 0.3286679922892368324
FROZEN_MIDPOINTS = {
    -0.71: 0.03779886831634390581708638,
    -0.60: 0.07048110182635191322151578,
    -0.90: 0.9786098600881386130758154,
}
FROZEN_D2_CRITICAL = 17.60936110864121939
FROZEN_CRITICAL_AREA = 1.9197568925882997
FROZEN_C_BETA_M071 = 0.2664890401077568000853114


def closed_form_m23():
    return (
        2.0 / 3.0 * LOG_PI
        + math.log(2.0 / 3.0) / 3.0
        - 2.0 * math.lgamma(2.0 / 3.0)
    )


# ---------------------------------------------------------------------------
# AngleParam
# ---------------------------------------------------------------------------


def test_angle_param_rejects_out_of_interval():
    for bad in (-1.0, -0.5, -0.2, -1.2, 0.3):
        with pytest.raises(DomainError):
            AngleParam(bad)


def test_angle_param_rejects_endpoint_slivers():
    with pytest.raises(DomainError):
        AngleParam(-1.0 + 1e-9)
    with pytest.raises(DomainError):
        AngleParam(-0.5 - 1e-9)


def test_angle_param_derived_quantities():
    for beta in np.linspace(-0.99, -0.51, 97):
        p = AngleParam(float(beta))
        assert 0.0 < p.a1 < 0.5
        assert 0.0 < p.a2 < 1.0
        assert p.a1 == p.beta + 1.0
        assert p.a2 == -2.0 * p.beta - 1.0
        assert abs(2.0 * p.a1 + p.a2 - 1.0) <= 1e-15


def test_angle_param_from_fraction():
    p = AngleParam.from_fraction(Fraction(-2, 3))
    assert p.exact == Fraction(-2, 3)
    assert p.beta == float(Fraction(-2, 3))
    with pytest.raises(DomainError):
        AngleParam(-0.625, exact=Fraction(-2, 3))


@pytest.mark.parametrize("beta", [np.array([-0.75, -0.7]), np.array([-0.75])])
def test_angle_param_exact_needs_scalar_beta(beta):
    with pytest.raises(DomainError, match="scalar beta"):
        AngleParam(beta, exact=Fraction(-3, 4))


# ---------------------------------------------------------------------------
# scaling factor
# ---------------------------------------------------------------------------


def test_scaling_factor_right_isosceles():
    expected = 2.0 * math.sqrt(math.pi) / math.gamma(0.25) ** 2
    assert abs(scaling_factor(AngleParam(-0.75)) - expected) <= 1e-13 * expected


def test_scaling_factor_equilateral():
    expected = (
        2.0
        / (math.gamma(1.0 / 6.0) * math.gamma(1.0 / 3.0))
        * math.sqrt(math.pi / math.sin(math.pi / 3.0))
    )
    got = scaling_factor(AngleParam(BETA_CRITICAL))
    assert abs(got - expected) <= 1e-13 * expected


def test_scaling_factor_positive_on_grid():
    for beta in np.linspace(-0.999, -0.501, 200):
        assert scaling_factor(AngleParam(float(beta))) > 0.0


def test_scaling_factor_frozen_value():
    assert abs(scaling_factor(AngleParam(-0.71)) - FROZEN_C_BETA_M071) <= 1e-13


# ---------------------------------------------------------------------------
# log det assembly
# ---------------------------------------------------------------------------


def test_log_det_critical_value():
    det = log_det_area(AngleParam(BETA_CRITICAL), 1.0)
    assert abs(det.log_det - closed_form_m23()) <= 1e-9
    assert abs(det.log_det - 0.0217) <= 1e-4
    assert det.area == 1.0 and det.area_term == 0.0


def test_log_det_special_values_both_routes():
    cases = [
        (Fraction(-3, 4), CLOSED_M34, 0.0829),
        (Fraction(-5, 6), CLOSED_M56, 0.3287),
    ]
    for frac, closed, four_dec in cases:
        p = AngleParam.from_fraction(frac)
        rational = log_det_area(p, 1.0, route="rational").log_det
        integral = log_det_area(p, 1.0, route="integral").log_det
        assert abs(rational - closed) <= 1e-12
        assert abs(rational - four_dec) <= 1e-4
        assert abs(rational - integral) <= 1e-9


def test_log_det_series_route_within_certificate():
    p = AngleParam(-0.8)
    exact = log_det_area(p, 1.0).log_det
    from envdet.barnes import series_error_bound

    for n in (3, 4, 5):
        approx = log_det_area(p, 1.0, route="series", series_terms=n).log_det
        budget = 4.0 * series_error_bound(p.a1, n) + 2.0 * series_error_bound(p.a2, n)
        assert abs(approx - exact) <= budget + 1e-13


def test_log_det_rational_route_needs_fraction():
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.75), 1.0, route="rational")
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.75), 1.0, route="bogus")


@pytest.mark.parametrize("beta", sorted(FROZEN_MIDPOINTS))
def test_log_det_frozen_midpoints(beta):
    assert abs(log_det_area(AngleParam(beta), 1.0).log_det - FROZEN_MIDPOINTS[beta]) <= 1e-12


def test_det_result_decomposition():
    for beta in (-0.9, -0.74, BETA_CRITICAL, -0.58):
        for area in (0.5, 1.0, 3.0):
            det = log_det_area(AngleParam(beta), area)
            total = det.elementary_part + det.barnes_part + det.area_term
            assert abs(det.log_det - total) <= 1e-12


# ---------------------------------------------------------------------------
# zeta0 and rescaling
# ---------------------------------------------------------------------------


def test_zeta0_values():
    assert abs(zeta0(AngleParam(BETA_CRITICAL)) + 1.0 / 3.0) <= 1e-13
    assert abs(zeta0(AngleParam(-0.75)) + 0.25) <= 1e-13


def test_zeta0_derivatives_at_critical():
    p = AngleParam(BETA_CRITICAL)
    assert abs(d_zeta0(p)) <= 1e-12
    assert abs(d2_zeta0(p) - 27.0) <= 1e-10


def test_log_det_area_critical_line():
    for area in (0.5, 1.0, 1.92, 3.0):
        det = log_det_area(AngleParam(BETA_CRITICAL), area)
        expected = closed_form_m23() + math.log(area) / 3.0
        assert abs(det.log_det - expected) <= 1e-9


def test_rescaling_identity():
    for beta in (-0.9, -0.7, -0.55):
        p = AngleParam(beta)
        lhs = log_det_area(p, 3.0).log_det - log_det_area(p, 1.0).log_det
        assert abs(lhs + zeta0(p) * math.log(3.0)) <= 1e-13


@pytest.mark.parametrize("area", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_area_must_be_finite_and_positive(area):
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.6), area)
    with pytest.raises(DomainError):
        geometry(AngleParam(-0.6), area)
    with pytest.raises(DomainError):
        scan(-0.9, -0.6, 11, area=area)


def test_log_det_area_domain():
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.6), 0.0)
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.6), -2.0)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_neg1_leading_ratio():
    gaps = []
    for a1 in (1e-2, 1e-4, 1e-6):
        p = AngleParam(-1.0 + a1)
        ratio = asymptotic_neg1(p) * p.a1 / (-math.log(p.a1))
        gaps.append(abs(ratio - 1.0 / 6.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 0.04


def test_asymptotic_neg1_residual_shrinks():
    res = {}
    for beta in (-0.99, -0.999, -0.9999):
        p = AngleParam(beta)
        res[beta] = log_det_area(p, 1.0).log_det - asymptotic_neg1(p)
    assert abs(res[-0.999]) < abs(res[-0.99])
    # remainder is first order: calibrate the constant two decades out
    c = abs(res[-0.99]) / 1e-2
    assert abs(res[-0.9999]) <= 3.0 * c * 1e-4


def test_asymptotic_neghalf_leading_ratio():
    gaps = []
    for a2 in (1e-2, 1e-4, 2e-6):
        p = AngleParam(-0.5 - a2 / 2.0)
        ratio = asymptotic_neghalf(p) * (2.0 * p.beta + 1.0) / math.log(p.a2)
        gaps.append(abs(ratio - 1.0 / 12.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 0.03


def test_asymptotic_neghalf_residual_shrinks_linearly():
    r1 = log_det_area(AngleParam(-0.505), 1.0).log_det - asymptotic_neghalf(AngleParam(-0.505))
    r2 = log_det_area(AngleParam(-0.5005), 1.0).log_det - asymptotic_neghalf(AngleParam(-0.5005))
    assert abs(r2) < abs(r1)
    assert 1.0 / 30.0 <= abs(r2) / abs(r1) <= 1.0 / 3.0


def test_log_det_blows_up_toward_both_endpoints():
    minimum = log_det_area(AngleParam(BETA_CRITICAL), 1.0).log_det
    v999 = log_det_area(AngleParam(-0.999), 1.0).log_det
    v99 = log_det_area(AngleParam(-0.99), 1.0).log_det
    assert v999 > v99 > minimum
    v501 = log_det_area(AngleParam(-0.501), 1.0).log_det
    v51 = log_det_area(AngleParam(-0.51), 1.0).log_det
    assert v501 > v51 > minimum


def test_scaling_factor_expansions():
    # endpoint expansions of log c hold through second order
    from envdet.envelope import _log_c

    log2 = math.log(2.0)
    for a1 in (1e-2, 1e-3, 1e-4):
        b = -1.0 + a1
        main = 0.5 * math.log(a1) + 0.5 * log2 - 0.5 * LOG_PI - 2.0 * a1 * log2
        assert abs(float(_log_c(b)) - main) / a1**2 <= 0.1
    for a2 in (1e-2, 1e-3, 1e-4):
        b = (-1.0 - a2) / 2.0
        x2 = 2.0 * b + 1.0
        main = 0.5 * math.log(a2) - 0.5 * LOG_PI + x2 * log2
        assert abs(float(_log_c(b)) - main) / a2**2 <= 0.1


# ---------------------------------------------------------------------------
# array beta
# ---------------------------------------------------------------------------

ARRAY_AWARE = {
    "log_det_area": lambda p: log_det_area(p, 1.3).log_det,
    "d_log_det": d_log_det,
    "d2_log_det": d2_log_det,
    "zeta0": zeta0,
    "d_zeta0": d_zeta0,
    "d2_zeta0": d2_zeta0,
    "asymptotic_neg1": asymptotic_neg1,
    "asymptotic_neghalf": asymptotic_neghalf,
    "convexity_lower_bound": convexity_lower_bound,
}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0 + 1e-5, -0.5 - 1e-5), min_size=1, max_size=6))
def test_array_beta_matches_scalar_calls(betas):
    b = np.asarray(betas)
    for name, fn in ARRAY_AWARE.items():
        vec = fn(AngleParam(b))
        assert isinstance(vec, np.ndarray) and vec.shape == b.shape, name
        for x, v in zip(betas, vec):
            one = fn(AngleParam(x))
            assert isinstance(one, float), name
            # the quadrature over a wider array may stop one refinement
            # later; the absolute floor covers d_log_det's zero at -2/3
            assert v == pytest.approx(one, rel=1e-12, abs=1e-12), (name, x)


def test_scan_columns_are_the_public_functions():
    area = 2.0
    table = scan(-0.95, -0.55, 41, area)
    p = AngleParam(table.beta)
    det = log_det_area(p, area)
    log_area = math.log(area)
    expected = [
        det.log_det,
        d_log_det(p) - d_zeta0(p) * log_area,
        d2_log_det(p) - d2_zeta0(p) * log_area,
        asymptotic_neg1(p) + det.area_term,
        asymptotic_neghalf(p) + det.area_term,
    ]
    columns = [table.log_det, table.d1, table.d2,
               table.asymptotic_neg1, table.asymptotic_neghalf]
    for got, want in zip(columns, expected):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# derivatives in beta
# ---------------------------------------------------------------------------


def test_critical_point():
    assert abs(d_log_det(AngleParam(BETA_CRITICAL))) <= 1e-9


@pytest.mark.parametrize("beta", [-0.9, -0.7, -0.55])
def test_d_log_det_matches_finite_difference(beta):
    h = 1e-6
    fd = (
        log_det_area(AngleParam(beta + h), 1.0).log_det
        - log_det_area(AngleParam(beta - h), 1.0).log_det
    ) / (2.0 * h)
    assert abs(d_log_det(AngleParam(beta)) - fd) <= 1e-6


def test_d_log_det_sign_change():
    assert d_log_det(AngleParam(-0.8)) < 0.0
    assert d_log_det(AngleParam(-0.6)) > 0.0


def test_d2_log_det_at_critical():
    d2 = d2_log_det(AngleParam(BETA_CRITICAL))
    assert abs(d2 - FROZEN_D2_CRITICAL) <= 1e-8
    assert abs(d2 - 17.614) <= 5e-3


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.999, -0.501))
def test_derivatives_match_central_differences(beta):
    # step 1e-3 of the distance to the nearer endpoint, rounded to a step
    # the doubles represent exactly; relative tolerance 1e-5
    h = 1e-3 * min(beta + 1.0, -0.5 - beta)
    h = (beta + h) - beta

    def f(b):
        return log_det_area(AngleParam(b), 1.0).log_det

    p = AngleParam(beta)
    for analytic, fd in (
        (d_log_det(p), (f(beta + h) - f(beta - h)) / (2.0 * h)),
        (d2_log_det(p), (f(beta + h) - 2.0 * f(beta) + f(beta - h)) / (h * h)),
    ):
        assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd)), (beta, analytic, fd)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.999, -0.501), st.floats(math.log(1e-3), math.log(1e3)))
def test_rescaling_identity_property(beta, log_area):
    # S log-uniform on [1e-3, 1e3]
    area = math.exp(log_area)
    p = AngleParam(beta)
    scaled = log_det_area(p, area).log_det
    expected = log_det_area(p, 1.0).log_det - zeta0(p) * math.log(area)
    assert abs(scaled - expected) <= 1e-12 * max(1.0, abs(expected)), (beta, area)


@pytest.mark.parametrize("beta", [-0.8, BETA_CRITICAL, -0.6])
def test_d2_log_det_matches_finite_difference(beta):
    h = 1e-4
    fd = (
        log_det_area(AngleParam(beta + h), 1.0).log_det
        - 2.0 * log_det_area(AngleParam(beta), 1.0).log_det
        + log_det_area(AngleParam(beta - h), 1.0).log_det
    ) / h**2
    assert abs(d2_log_det(AngleParam(beta)) - fd) <= 1e-4


def test_d2_log_det_positive_on_grid():
    b = np.linspace(-0.995, -0.505, 2000)
    d2 = d2_log_det(AngleParam(b))
    assert float(np.min(d2)) > 0.0


# ---------------------------------------------------------------------------
# convexity bound and the critical area
# ---------------------------------------------------------------------------


def test_convexity_bound_positive_at_critical():
    assert convexity_lower_bound(AngleParam(BETA_CRITICAL)) > 0.0


def test_convexity_chain_on_grid():
    p = AngleParam(np.linspace(-0.999, -0.501, 2000))
    bound = convexity_lower_bound(p)
    assert float(np.min(bound)) > 0.0
    d2 = d2_log_det(p)
    assert float(np.min(d2 - bound)) > 0.0


def test_critical_area_value():
    s_star = critical_area()
    assert abs(s_star - 1.92) <= 0.01
    assert abs(s_star - FROZEN_CRITICAL_AREA) <= 1e-9


def test_critical_area_defining_property():
    p = AngleParam(BETA_CRITICAL)
    s_star = critical_area()
    d2_at = d2_log_det(p) - d2_zeta0(p) * math.log(s_star)
    assert abs(d2_at) <= 1e-6
    assert d2_log_det(p) - d2_zeta0(p) * math.log(3.0) < 0.0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_geometry_equilateral():
    geo = geometry(AngleParam(BETA_CRITICAL), 1.0)
    for angle in (geo.angle_a, geo.angle_b, geo.angle_c):
        assert abs(angle - math.pi / 3.0) <= 1e-12


def test_geometry_right_isosceles_unit_side():
    geo = geometry(AngleParam(-0.75), 1.0)
    assert abs(geo.side_ab - 1.0) <= 1e-12


def test_geometry_invariants_on_grid():
    for beta in np.linspace(-0.95, -0.55, 41):
        for area in (0.5, 1.0, 2.7):
            p = AngleParam(float(beta))
            geo = geometry(p, area)
            assert abs(geo.angle_a + geo.angle_b + geo.angle_c - math.pi) <= 1e-12
            assert abs(geo.side_ab**2 * math.sin(geo.angle_b) - area) <= 1e-12
            assert geo.angle_a == geo.angle_c


def test_geometry_domain():
    with pytest.raises(DomainError):
        geometry(AngleParam(-0.6), 0.0)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_two_points():
    table = scan(-0.9, -0.6, 2)
    assert len(table.beta) == 2
    assert table.beta[0] == -0.9
    assert table.beta[1] == -0.6


def test_scan_validation():
    with pytest.raises(DomainError):
        scan(-0.9, -0.6, 1)
    with pytest.raises(DomainError):
        scan(-0.6, -0.9, 11)
    with pytest.raises(DomainError):
        scan(-0.9, -0.6, 11, area=0.0)


def test_scan_count_is_capped():
    # rejected before the grid is allocated, so this costs nothing
    with pytest.raises(DomainError, match="count"):
        scan(-0.9, -0.6, 10**6 + 1)


# 5 doubles from -0.75 to the upper end; a larger count repeats betas
NARROW = (-0.75, -0.7499999999999996)


@pytest.mark.parametrize("exact", [False, True])
def test_scan_count_beyond_the_doubles_in_range(exact):
    with pytest.raises(DomainError, match="exceeds the doubles"):
        scan(*NARROW, 9, include_exact_points=exact)
    with pytest.raises(DomainError, match="exceeds the doubles"):
        scan(*NARROW, 6, include_exact_points=exact)
    table = scan(*NARROW, 5, include_exact_points=exact)
    assert len(set(table.beta.tolist())) == len(table.beta) == 5


def test_scan_rows_strictly_increasing():
    table = scan(-0.95, -0.55, 101, include_exact_points=True)
    betas = table.beta.tolist()
    assert all(x < y for x, y in zip(betas, betas[1:]))


def test_scan_minimum_at_equilateral_unit_area():
    table = scan(-0.95, -0.55, 101, 1.0)
    b, ld = table.beta, table.log_det
    i_star = int(np.argmin(np.abs(b - BETA_CRITICAL)))
    assert int(np.argmin(ld)) == i_star
    # strict convexity: first differences change sign exactly once
    signs = np.sign(np.diff(ld))
    flips = np.sum(np.abs(np.diff(signs)) > 0)
    assert flips == 1


def test_scan_local_max_at_area_three():
    table = scan(-0.95, -0.55, 101, 3.0)
    b, ld = table.beta, table.log_det
    i_star = int(np.argmin(np.abs(b - BETA_CRITICAL)))
    assert ld[i_star] > ld[i_star - 1]
    assert ld[i_star] > ld[i_star + 1]
    i_left = int(np.argmin(np.abs(b - (-0.75))))
    i_right = int(np.argmin(np.abs(b - (-0.58))))
    assert ld[i_star] > ld[i_left]
    assert ld[i_star] > ld[i_right]


def test_scan_rowwise_rescaling():
    t1 = scan(-0.95, -0.55, 101, 1.0)
    t3 = scan(-0.95, -0.55, 101, 3.0)
    assert np.array_equal(t1.beta, t3.beta)
    for beta, ld1, ld3 in zip(t1.beta.tolist(), t1.log_det.tolist(), t3.log_det.tolist()):
        z0 = zeta0(AngleParam(beta))
        assert abs((ld3 - ld1) + z0 * math.log(3.0)) <= 1e-12


def test_scan_exact_points_inserted():
    table = scan(-0.95, -0.55, 101, 1.0, include_exact_points=True)
    betas = table.beta.tolist()
    assert float(Fraction(-2, 3)) in betas
    assert -0.75 in betas
    assert abs(table.log_det[betas.index(-0.75)] - CLOSED_M34) <= 1e-12
    assert abs(table.log_det[betas.index(float(Fraction(-2, 3)))] - CLOSED_M23) <= 1e-12


def test_scan_exact_points_share_one_evaluation(monkeypatch):
    calls = []

    def quadrature(f, *args):
        calls.append(f)
        return integrate_semi_infinite(f, *args)

    monkeypatch.setattr(envelope.barnes, "integrate_semi_infinite", quadrature)
    scan(-0.8, -0.6, 11, 1.5, include_exact_points=True)
    assert len(calls) == 1  # orders 0, 1 and 2 together, over the grid and the exact betas at once


def test_scan_runs_one_quadrature_and_one_kernel_call_per_node(monkeypatch):
    quadratures, kernel_calls = [], []
    kernel = envelope.barnes.f_kernel

    def quadrature(f, *args):
        quadratures.append(f)
        return integrate_semi_infinite(f, *args)

    def counted_kernel(r, derivative=0):
        kernel_calls.append((np.shape(r), derivative))
        return kernel(r, derivative)

    monkeypatch.setattr(envelope.barnes, "integrate_semi_infinite", quadrature)
    monkeypatch.setattr(envelope.barnes, "f_kernel", counted_kernel)
    scan(-0.9999, -0.5001, 20000, 1.7)
    assert len(quadratures) == 1
    # all three orders at each of the 68 nodes, on the 40000 values of a
    assert kernel_calls == [((1, 40000), (0, 1, 2))] * 68


_ROUTES = ("zeta_b_prime0_values", "d_zeta_b_prime0", "d2_zeta_b_prime0")


@pytest.mark.parametrize("beta", [-0.7, np.linspace(-0.9, -0.6, 5)], ids=["scalar", "array"])
def test_each_order_calls_its_own_barnes_route_once(beta, monkeypatch):
    calls = []
    for name in _ROUTES:
        def counted(a, name=name, route=getattr(envelope.barnes, name)):
            calls.append(name)
            return route(a)

        monkeypatch.setattr(envelope.barnes, name, counted)
    p = AngleParam(beta)
    for op, name in zip(
        (lambda: log_det_area(p, 2.0), lambda: d_log_det(p), lambda: d2_log_det(p)), _ROUTES
    ):
        op()
        assert calls == [name]
        calls.clear()
    # a scan runs all three orders in one quadrature, through no public route
    scan(-0.9, -0.6, 5, 2.0)
    assert calls == []


def test_scan_exact_point_wins_a_tie_with_the_grid():
    table = scan(*NARROW, 5, 2.0, include_exact_points=True)
    assert table.beta[0] == -0.75
    rational = log_det_area(AngleParam.from_fraction(Fraction(-3, 4)), 2.0, route="rational")
    assert table.log_det[0] == rational.log_det
    assert np.array_equal(table.log_det[1:], scan(*NARROW, 5, 2.0).log_det[1:])


def _exact_betas_by_denominator(beta_min, beta_max, max_denominator=12):
    """The exact scan points as first defined: every -num/den in lowest terms
    with den <= 12 inside (-1, -1/2) and [beta_min, beta_max]."""
    found = []
    for den in range(2, max_denominator + 1):
        for num in range(den // 2 + 1, den):
            frac = Fraction(-num, den)
            if frac.denominator != den:
                continue
            if Fraction(-1) < frac < Fraction(-1, 2) and beta_min <= float(frac) <= beta_max:
                found.append(frac)
    return sorted(set(found))


@pytest.mark.parametrize(
    "beta_min, beta_max",
    [
        (-0.9999, -0.5001),
        (-0.95, -0.55),
        (-0.99, -0.51),
        (-0.8, -0.52),
        (-0.7, -0.6),
        (-0.67, -0.66),  # holds -2/3 alone
        (-0.751, -0.749),  # holds -3/4 alone
        (-0.53, -0.52),  # holds none
        (-0.75, -2.0 / 3.0),  # both ends on a fraction
    ],
)
def test_exact_betas_match_by_denominator_definition(beta_min, beta_max):
    got = envelope._exact_betas(beta_min, beta_max)
    assert got == _exact_betas_by_denominator(beta_min, beta_max)
    assert all(type(x) is Fraction for x in got)


def test_reduced_fractions_are_reduced_and_complete():
    fracs = list(envelope.reduced_fractions())
    # one fraction for each p < q coprime to q: phi(2) + ... + phi(12) = 45
    assert len(fracs) == len(set(fracs)) == 45
    assert all(0 < f < 1 and f.denominator <= 12 for f in fracs)
    assert fracs[:3] == [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]


def test_scan_columns_match_operations():
    table = scan(-0.9, -0.6, 7, 2.0)
    for i, beta in enumerate(table.beta.tolist()):
        p = AngleParam(beta)
        assert abs(table.log_det[i] - log_det_area(p, 2.0).log_det) <= 1e-12
        d1 = d_log_det(p) - d_zeta0(p) * math.log(2.0)
        d2 = d2_log_det(p) - d2_zeta0(p) * math.log(2.0)
        assert abs(table.d1[i] - d1) <= 1e-10
        assert abs(table.d2[i] - d2) <= 1e-9
        shift = -zeta0(p) * math.log(2.0)
        assert abs(table.asymptotic_neg1[i] - (asymptotic_neg1(p) + shift)) <= 1e-10
        assert abs(table.asymptotic_neghalf[i] - (asymptotic_neghalf(p) + shift)) <= 1e-10


def test_refine_minimum_locates_equilateral():
    assert abs(refine_minimum() - BETA_CRITICAL) <= 1e-6


def test_refine_minimum_stops_when_the_bracket_stops_shrinking():
    # a tolerance below the spacing of doubles ends at a bracket a few ulps wide
    assert abs(refine_minimum(tol=1e-300) - BETA_CRITICAL) <= 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan},
     {"beta_min": -0.6, "beta_max": -0.9}, {"beta_min": -0.7, "beta_max": -0.7}],
)
def test_refine_minimum_domain(kwargs):
    with pytest.raises(DomainError):
        refine_minimum(**kwargs)
