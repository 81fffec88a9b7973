import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    log_det_unit,
    refine_minimum,
    scaling_factor,
    scan,
    zeta0,
)
from envdet.specfun import CONSTANTS, DomainError

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
        2.0 / 3.0 * CONSTANTS.log_pi
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
    det = log_det_unit(AngleParam(BETA_CRITICAL))
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
        rational = log_det_unit(p, route="rational").log_det
        integral = log_det_unit(p, route="integral").log_det
        assert abs(rational - closed) <= 1e-12
        assert abs(rational - four_dec) <= 1e-4
        assert abs(rational - integral) <= 1e-9


def test_log_det_series_route_within_certificate():
    p = AngleParam(-0.8)
    exact = log_det_unit(p).log_det
    from envdet.barnes import series_error_bound

    for n in (3, 4, 5):
        approx = log_det_unit(p, route="series", series_terms=n).log_det
        budget = 4.0 * series_error_bound(p.a1, n) + 2.0 * series_error_bound(p.a2, n)
        assert abs(approx - exact) <= budget + 1e-13


def test_log_det_rational_route_needs_fraction():
    with pytest.raises(DomainError):
        log_det_unit(AngleParam(-0.75), route="rational")
    with pytest.raises(DomainError):
        log_det_unit(AngleParam(-0.75), route="bogus")


@pytest.mark.parametrize("beta", sorted(FROZEN_MIDPOINTS))
def test_log_det_frozen_midpoints(beta):
    assert abs(log_det_unit(AngleParam(beta)).log_det - FROZEN_MIDPOINTS[beta]) <= 1e-12


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


def test_log_det_area_unit_matches():
    p = AngleParam(-0.61)
    assert log_det_area(p, 1.0).log_det == log_det_unit(p).log_det


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
        res[beta] = log_det_unit(p).log_det - asymptotic_neg1(p)
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
    r1 = log_det_unit(AngleParam(-0.505)).log_det - asymptotic_neghalf(AngleParam(-0.505))
    r2 = log_det_unit(AngleParam(-0.5005)).log_det - asymptotic_neghalf(AngleParam(-0.5005))
    assert abs(r2) < abs(r1)
    assert 1.0 / 30.0 <= abs(r2) / abs(r1) <= 1.0 / 3.0


def test_log_det_blows_up_toward_both_endpoints():
    minimum = log_det_unit(AngleParam(BETA_CRITICAL)).log_det
    v999 = log_det_unit(AngleParam(-0.999)).log_det
    v99 = log_det_unit(AngleParam(-0.99)).log_det
    assert v999 > v99 > minimum
    v501 = log_det_unit(AngleParam(-0.501)).log_det
    v51 = log_det_unit(AngleParam(-0.51)).log_det
    assert v501 > v51 > minimum


def test_scaling_factor_expansions():
    # endpoint expansions of log c hold through second order
    from envdet.envelope import _log_c

    log2 = math.log(2.0)
    for a1 in (1e-2, 1e-3, 1e-4):
        b = -1.0 + a1
        main = 0.5 * math.log(a1) + 0.5 * log2 - 0.5 * CONSTANTS.log_pi - 2.0 * a1 * log2
        assert abs(float(_log_c(b)) - main) / a1**2 <= 0.1
    for a2 in (1e-2, 1e-3, 1e-4):
        b = (-1.0 - a2) / 2.0
        x2 = 2.0 * b + 1.0
        main = 0.5 * math.log(a2) - 0.5 * CONSTANTS.log_pi + x2 * log2
        assert abs(float(_log_c(b)) - main) / a2**2 <= 0.1


# ---------------------------------------------------------------------------
# array beta
# ---------------------------------------------------------------------------

ARRAY_AWARE = {
    "log_det_unit": lambda p: log_det_unit(p).log_det,
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
    beta, *columns = np.array(table.rows).T
    p = AngleParam(beta)
    det = log_det_area(p, area)
    log_area = math.log(area)
    expected = [
        det.log_det,
        d_log_det(p) - d_zeta0(p) * log_area,
        d2_log_det(p) - d2_zeta0(p) * log_area,
        asymptotic_neg1(p) + det.area_term,
        asymptotic_neghalf(p) + det.area_term,
    ]
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
        log_det_unit(AngleParam(beta + h)).log_det
        - log_det_unit(AngleParam(beta - h)).log_det
    ) / (2.0 * h)
    assert abs(d_log_det(AngleParam(beta)) - fd) <= 1e-6


def test_d_log_det_sign_change():
    assert d_log_det(AngleParam(-0.8)) < 0.0
    assert d_log_det(AngleParam(-0.6)) > 0.0


def test_d2_log_det_at_critical():
    d2 = d2_log_det(AngleParam(BETA_CRITICAL))
    assert abs(d2 - FROZEN_D2_CRITICAL) <= 1e-8
    assert abs(d2 - 17.614) <= 5e-3


@pytest.mark.parametrize("beta", [-0.8, BETA_CRITICAL, -0.6])
def test_d2_log_det_matches_finite_difference(beta):
    h = 1e-4
    fd = (
        log_det_unit(AngleParam(beta + h)).log_det
        - 2.0 * log_det_unit(AngleParam(beta)).log_det
        + log_det_unit(AngleParam(beta - h)).log_det
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
    assert len(table.rows) == 2
    assert table.rows[0].beta == -0.9
    assert table.rows[1].beta == -0.6


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


def test_scan_rows_strictly_increasing():
    table = scan(-0.95, -0.55, 101, include_exact_points=True)
    betas = [r.beta for r in table.rows]
    assert all(x < y for x, y in zip(betas, betas[1:]))


def test_scan_minimum_at_equilateral_unit_area():
    table = scan(-0.95, -0.55, 101, 1.0)
    b = np.asarray([r.beta for r in table.rows])
    ld = np.asarray([r.log_det for r in table.rows])
    i_star = int(np.argmin(np.abs(b - BETA_CRITICAL)))
    assert int(np.argmin(ld)) == i_star
    # strict convexity: first differences change sign exactly once
    signs = np.sign(np.diff(ld))
    flips = np.sum(np.abs(np.diff(signs)) > 0)
    assert flips == 1


def test_scan_local_max_at_area_three():
    table = scan(-0.95, -0.55, 101, 3.0)
    b = np.asarray([r.beta for r in table.rows])
    ld = np.asarray([r.log_det for r in table.rows])
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
    for r1, r3 in zip(t1.rows, t3.rows):
        z0 = zeta0(AngleParam(r1.beta))
        assert abs((r3.log_det - r1.log_det) + z0 * math.log(3.0)) <= 1e-12


def test_scan_exact_points_inserted():
    table = scan(-0.95, -0.55, 101, 1.0, include_exact_points=True)
    betas = [r.beta for r in table.rows]
    assert float(Fraction(-2, 3)) in betas
    assert -0.75 in betas
    row = table.rows[betas.index(-0.75)]
    assert abs(row.log_det - CLOSED_M34) <= 1e-12
    row23 = table.rows[betas.index(float(Fraction(-2, 3)))]
    assert abs(row23.log_det - CLOSED_M23) <= 1e-12


def test_scan_columns_match_operations():
    table = scan(-0.9, -0.6, 7, 2.0)
    for row in table.rows:
        p = AngleParam(row.beta)
        assert abs(row.log_det - log_det_area(p, 2.0).log_det) <= 1e-12
        d1 = d_log_det(p) - d_zeta0(p) * math.log(2.0)
        d2 = d2_log_det(p) - d2_zeta0(p) * math.log(2.0)
        assert abs(row.d1 - d1) <= 1e-10
        assert abs(row.d2 - d2) <= 1e-9
        shift = -zeta0(p) * math.log(2.0)
        assert abs(row.asymptotic_neg1 - (asymptotic_neg1(p) + shift)) <= 1e-10
        assert abs(row.asymptotic_neghalf - (asymptotic_neghalf(p) + shift)) <= 1e-10


def test_refine_minimum_locates_equilateral():
    assert abs(refine_minimum() - BETA_CRITICAL) <= 1e-6
