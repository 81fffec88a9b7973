import hashlib
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import mp_reference

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


def _reference_check_beta(b):
    """The beta check as four numpy reductions over every element: the
    DomainError message, or None for an accepted beta."""
    if not (np.all(b > -1.0) and np.all(b < -0.5)):
        return "beta must lie in the open interval (-1, -1/2)"
    if np.any(b + 1.0 < envelope._EDGE) or np.any(-0.5 - b < envelope._EDGE):
        return f"beta within {envelope._EDGE:g} of an endpoint; use the asymptotic expansions there"
    return None


def _message(check, beta):
    try:
        check(beta)
    except DomainError as exc:
        return str(exc)
    return None


def _edge_neighbours(x):
    # the doubles a few ulps either side of x
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(3):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


_E = envelope._EDGE
_SPECIAL_BETAS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, -1.0, -0.5, -0.75, BETA_CRITICAL, math.nextafter(-1.0, 0.0),
    math.nextafter(-0.5, -1.0),
    *(-1.0 + _E * (1.0 + s * eps) for s in (-1.0, 1.0) for eps in (2.0**-52, 1e-12, 1e-9, 1e-3)),
    *(-0.5 - _E * (1.0 + s * eps) for s in (-1.0, 1.0) for eps in (2.0**-52, 1e-12, 1e-9, 1e-3)),
    *_edge_neighbours(-1.0 + _E),
    *_edge_neighbours(-0.5 - _E),
]


def _beta_forms(values):
    """A list of betas as every form AngleParam takes: each value as a float
    and as a 0-d array, and the whole list as a list and as a 1-D array."""
    return [*values, *(np.array(v) for v in values), list(values), np.array(values, dtype=float)]


def _assert_check_beta_matches_reference(beta):
    expected = _reference_check_beta(np.asarray(beta, dtype=float))
    assert _message(envelope._check_beta, np.asarray(beta, dtype=float)) == expected
    assert _message(AngleParam, beta) == expected


def _beta_id(beta):
    """repr, but a nonempty list or 1-D array as its type and length: the
    repr of the whole list is hundreds of characters, numpy's spans lines and
    changes with its print options."""
    if np.ndim(beta) == 1 and len(beta):
        return f"{type(beta).__name__}-of-{len(beta)}"
    return repr(beta)


@pytest.mark.parametrize("beta", [*_beta_forms(_SPECIAL_BETAS), [], np.array([])], ids=_beta_id)
def test_check_beta_matches_the_elementwise_reference(beta):
    _assert_check_beta_matches_reference(beta)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.sampled_from(_SPECIAL_BETAS), st.floats(), st.floats(-1.0, -0.5)),
    max_size=6,
))
def test_check_beta_matches_the_elementwise_reference_property(values):
    for beta in _beta_forms(values):
        _assert_check_beta_matches_reference(beta)


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
    # exact is set by from_fraction only, so it always matches beta
    with pytest.raises(TypeError):
        AngleParam(-0.625, exact=Fraction(-2, 3))
    assert AngleParam(-0.625).exact is None


@pytest.mark.parametrize("beta", [[-0.7, -0.6], (-0.7,), np.array([-0.7, -0.6], dtype=np.float32)])
def test_angle_param_array_like_beta_is_a_float64_array(beta):
    p = AngleParam(beta)
    expected = np.asarray(beta, dtype=float)
    assert type(p.beta) is np.ndarray and p.beta.dtype == np.float64 and p.beta.ndim == 1
    assert np.array_equal(p.beta, expected)
    assert np.array_equal(p.a1, expected + 1.0)
    assert np.array_equal(p.a2, -2.0 * expected - 1.0)
    assert np.array_equal(log_det_area(p, 1.0).log_det, log_det_area(AngleParam(expected), 1.0).log_det)


@pytest.mark.parametrize("beta", [[[-0.7, -0.6]], np.full((2, 2), -0.7), np.full((1, 1, 1), -0.7)])
def test_angle_param_rejects_beta_of_two_or_more_dimensions(beta):
    with pytest.raises(DomainError, match="1-D"):
        AngleParam(beta)


def test_angle_param_float_beta_stays_a_float():
    p = AngleParam(-0.7)
    assert type(p.beta) is float and type(p.a1) is float and type(p.a2) is float


@pytest.mark.parametrize("beta", [np.array([-0.75, -0.7]), np.array([-0.75])])
def test_angle_param_exact_needs_scalar_beta(beta):
    with pytest.raises(DomainError) as info:
        AngleParam.from_fraction(beta)
    assert str(info.value) == (
        f"AngleParam.from_fraction takes a float beta, got an array of shape {beta.shape}")


# Arguments that are not real numbers.  Before every numeric argument went
# through one gate, most of these calls raised a TypeError, ValueError or
# OverflowError, or parsed a string as a number.
_P = AngleParam(-0.7)
NOT_REAL = {
    'AngleParam("-0.7")': lambda: AngleParam("-0.7"),
    'AngleParam(b"-0.7")': lambda: AngleParam(b"-0.7"),
    "AngleParam(-0.7+0j)": lambda: AngleParam(-0.7 + 0j),
    'AngleParam(["-0.7"])': lambda: AngleParam(["-0.7"]),
    "AngleParam(None)": lambda: AngleParam(None),
    "AngleParam(ragged)": lambda: AngleParam([[-0.7], [-0.7, -0.6]]),
    "AngleParam(fraction list)": lambda: AngleParam([Fraction(-2, 3)]),
    'from_fraction("-2/3")': lambda: AngleParam.from_fraction("-2/3"),
    "from_fraction(nan)": lambda: AngleParam.from_fraction(math.nan),
    'log_det_area(p, "1")': lambda: log_det_area(_P, "1"),
    "log_det_area(p, [1.0, 2.0])": lambda: log_det_area(_P, np.array([1.0, 2.0])),
    "log_det_area(p, 10**400)": lambda: log_det_area(_P, 10**400),
    'geometry(p, "2")': lambda: geometry(_P, "2"),
    "scan(count=nan)": lambda: scan(-0.9, -0.6, math.nan),
    "scan(count=inf)": lambda: scan(-0.9, -0.6, math.inf),
    "scan(count=10**400)": lambda: scan(-0.9, -0.6, 10**400),
    'scan(beta_min="-0.9")': lambda: scan("-0.9", -0.6, 11),
    'refine_minimum(tol="1e-3")': lambda: refine_minimum(tol="1e-3"),
    "refine_minimum(beta_max=None)": lambda: refine_minimum(beta_max=None),
}


@pytest.mark.parametrize("call", list(NOT_REAL.values()), ids=list(NOT_REAL))
def test_an_argument_that_is_not_real_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "beta, area",
    [(np.float64(-0.7), 1.3), (np.array(-0.7), 1.3), (Fraction(-2, 3), 3.0),
     (-0.7, 3), (-0.7, np.array(2.5)), (-0.7, np.float64(2.5)), (-0.7, Fraction(5, 2))],
    ids=repr,
)
def test_every_real_scalar_gives_the_bits_of_its_float(beta, area):
    p, ref = AngleParam(beta), AngleParam(float(beta))
    assert type(p.beta) is float and p == ref
    got, expected = log_det_area(p, area), log_det_area(ref, float(area))
    assert type(got.area) is float
    for name in ("log_det", "elementary_part", "barnes_part", "area_term", "area"):
        assert getattr(got, name).hex() == getattr(expected, name).hex(), name
    assert geometry(p, area) == geometry(ref, float(area))
    assert d2_log_det(p).hex() == d2_log_det(ref).hex()


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


def test_log_det_rational_route_needs_fraction():
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.75), 1.0, route="rational")
    with pytest.raises(DomainError):
        log_det_area(AngleParam(-0.75), 1.0, route="bogus")
    # the series route is zeta_b_prime0_series' and BarnesEval's only
    with pytest.raises(DomainError) as info:
        log_det_area(AngleParam(-0.75), 1.0, route="series")
    assert str(info.value) == "route must be one of 'integral', 'rational', got 'series'"
    with pytest.raises(TypeError):
        log_det_area(AngleParam(-0.75), 1.0, series_terms=4)


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
    # the remainder is -(d log d)/6 + c1 d, d = a1, so |res| / d grows like
    # log(1/d) / 6: calibrate the constant two decades out, with room for that
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
        assert abs(float(_log_c(AngleParam(b))) - main) / a1**2 <= 0.1
    for a2 in (1e-2, 1e-3, 1e-4):
        b = (-1.0 - a2) / 2.0
        x2 = 2.0 * b + 1.0
        main = 0.5 * math.log(a2) - 0.5 * LOG_PI + x2 * log2
        assert abs(float(_log_c(AngleParam(b))) - main) / a2**2 <= 0.1


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


@pytest.mark.parametrize("exact", [False, True], ids=["grid", "exact-points"])
@pytest.mark.parametrize("area", [0.1, 1.92, 3.0, 1e6])
def test_scan_area_rule_is_bit_exact(area, exact):
    # area enters every column only as the shift by z log S, with z = zeta0
    # for log det and both expansions and its derivatives for d1 and d2
    unit = scan(-0.99, -0.51, 301, 1.0, include_exact_points=exact)
    table = scan(-0.99, -0.51, 301, area, include_exact_points=exact)
    p, log_area = AngleParam(unit.beta), math.log(area)
    assert np.array_equal(table.beta, unit.beta)
    for column, z in (("log_det", zeta0), ("d1", d_zeta0), ("d2", d2_zeta0),
                      ("asymptotic_neg1", zeta0), ("asymptotic_neghalf", zeta0)):
        expected = getattr(unit, column) - z(p) * log_area
        assert np.array_equal(getattr(table, column), expected), column


_DOMAIN_BETAS = st.floats(-1.0, -0.5, exclude_min=True, exclude_max=True)


def _in_domain(betas):
    try:
        return AngleParam(betas)
    except DomainError:  # within the excluded sliver at an endpoint
        return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(_DOMAIN_BETAS, st.lists(_DOMAIN_BETAS, min_size=1, max_size=8)))
def test_x2_is_minus_a2_bit_for_bit(betas):
    # 2 beta + 1 is -a2, its square a2**2 and its cube AngleParam's memo,
    # computed once, so none is written apart
    p = _in_domain(np.asarray(betas) if isinstance(betas, list) else betas)
    assume(p is not None)
    x2 = 2.0 * p.beta + 1.0
    assert np.array_equal(x2, -p.a2)
    assert np.array_equal(x2**2, p.a2**2)
    assert type(x2) is type(-p.a2)
    cube = p._x2_cube
    assert np.array_equal(cube, x2**3) and type(cube) is type(x2**3)
    assert p._x2_cube is cube


def test_the_cube_memo_is_not_a_field():
    # nor is the sine memo
    p, q = AngleParam(-0.7), AngleParam(-0.7)
    shown = repr(p)
    p._x2_cube, p._sin_cos  # each read fills its memo
    assert p == q and hash(p) == hash(q) and repr(p) == shown
    assert p._sin_cos is p._sin_cos


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


# d2_log_det on verify criterion 5's grid and near both endpoints, recorded
# before its trigamma was taken from scipy's zeta(2, .) in place of
# polygamma(1, .), which multiplies the same zeta by 1.0
D2_CRITERION_5_SHA256 = "ee89d64ceca202bd6c47fb6d67a893b7766908dd45719347688bf9ac64a3e69c"
# beta -> (float beta, one 8-element array of all eight betas)
D2_NEAR_ENDPOINTS = {
    -0.9999985: ("0x1.0ac3572eb3634p+60", "0x1.0ac3572eb3636p+60"),
    -0.999997: ("0x1.f71fd8babcaafp+56", "0x1.f71fd8babcab1p+56"),
    -0.999994: ("0x1.d8b9100770fe7p+53", "0x1.d8b9100770fe7p+53"),
    -0.9999905: ("0x1.c810a383420a5p+51", "0x1.c810a383420a5p+51"),
    -0.5000015: ("0x1.d8b903180e431p+57", "0x1.d8b903180e431p+57"),
    -0.500003: ("0x1.ba5247541b4c1p+54", "0x1.ba5247541b4c1p+54"),
    -0.500006: ("0x1.9bebb25e25561p+51", "0x1.9bebb25e25561p+51"),
    -0.5000095: ("0x1.8acb3c594b00fp+49", "0x1.8acb3c594b00fp+49"),
}


def test_d2_log_det_on_the_criterion_5_grid_is_pinned():
    d2 = d2_log_det(AngleParam(np.linspace(-0.999, -0.501, 10_000)))
    assert hashlib.sha256(d2.tobytes()).hexdigest() == D2_CRITERION_5_SHA256


# convexity_lower_bound and the three orders of _elementary, stacked, on
# verify criterion 5's grid, recorded before each cube and sine of theirs
# was computed once
CONVEXITY_CRITERION_5_SHA256 = "1cef25bbe10f2eb7ce8b7992dc3b1f2ef1877507ac860ba08afa4ae8920c3d11"
ELEMENTARY_CRITERION_5_SHA256 = "324f2909d096c94c3aca274af84e1505a2a00a5a38c4341c38d01fffd773467a"


def test_elementary_terms_on_the_criterion_5_grid_are_pinned():
    p = AngleParam(np.linspace(-0.999, -0.501, 10_000))
    bound = convexity_lower_bound(p)
    assert hashlib.sha256(bound.tobytes()).hexdigest() == CONVEXITY_CRITERION_5_SHA256
    terms = np.stack(envelope._elementary(p, (0, 1, 2)))
    assert hashlib.sha256(terms.tobytes()).hexdigest() == ELEMENTARY_CRITERION_5_SHA256


def test_d2_log_det_near_the_endpoints_is_pinned():
    betas = list(D2_NEAR_ENDPOINTS)
    array = d2_log_det(AngleParam(np.array(betas)))
    got = {b: (d2_log_det(AngleParam(b)).hex(), v.hex()) for b, v in zip(betas, array.tolist())}
    assert got == D2_NEAR_ENDPOINTS


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


# 40-digit oracles at the equilateral point.  The d2 value is
# mp_reference.d2 at the exact -2/3, to 20 digits.  envdet evaluates at
# BETA_CRITICAL, the double nearest -2/3, where d2 is 2.7e-15 larger
# (17.609361108641222114), so its checks take the reference there.
MP_D2_CRITICAL = "17.609361108641219393"


def _mp_critical_value():
    """(2/3) log pi + (1/3) log(2/3) - 2 log Gamma(2/3), at 40 digits."""
    with mpmath.workdps(40):
        third = mpmath.mpf(1) / 3
        oracle = 2 * third * mpmath.log(mpmath.pi) + third * mpmath.log(2 * third)
        return oracle - 2 * mpmath.loggamma(2 * third)


def test_critical_value_against_40_digits():
    # measured 7.3e-17 off
    error = abs(log_det_area(AngleParam(BETA_CRITICAL), 1.0).log_det - _mp_critical_value())
    assert error <= 1e-15


def test_critical_d2_against_40_digits():
    # measured 1.7e-15 off, half an ulp of d2
    with mpmath.workdps(40):
        error = abs(d2_log_det(AngleParam(BETA_CRITICAL)) - mp_reference.d2(
            Fraction(BETA_CRITICAL)))
    assert error <= 7e-15


def test_critical_area_against_40_digits():
    # exp(d2 / 27), 27 being d2_zeta0 at -2/3; measured 2.8e-16 off, 1.3 ulps
    with mpmath.workdps(40):
        error = abs(critical_area() - mpmath.exp(mp_reference.d2(Fraction(BETA_CRITICAL)) / 27))
    assert error <= 1e-15


def test_mp_reference_at_the_exact_equilateral_point():
    # the closed-form value, d1 = 0 and the frozen d2, each regenerated
    third = Fraction(-2, 3)
    with mpmath.workdps(40):
        assert abs(mp_reference.log_det(third) - _mp_critical_value()) <= mpmath.mpf("1e-35")
        assert abs(mp_reference.d1(third)) <= mpmath.mpf("1e-35")
        assert mpmath.nstr(mp_reference.d2(third), 20) == MP_D2_CRITICAL


@pytest.mark.parametrize("beta", [-0.99, -0.75, -0.55])
@pytest.mark.parametrize("k", [1, 2])
def test_mp_reference_elementary_derivatives_match_differences(beta, k):
    # the Leibniz-rule derivatives against mpmath's numerical derivative of
    # the value
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        numeric = mpmath.diff(lambda x: mp_reference._elementary(x, 0), b, k)
        assert abs(mp_reference._elementary(b, k) - numeric) <= 1e-30 * abs(numeric)


# beta 1e-5 from each endpoint and between
MP_BETAS = (-1.0 + 1e-5, -0.99, -0.75, -0.55, -0.5 - 1e-5)


def _mp_tolerance(beta):
    # Relative to the sum of the parts' sizes.  The second term is the error
    # of sin(pi a2), whose argument pi a2 rounds near pi as beta -> -1 (the
    # double pi is 1.2e-16 off, and the sine is about 2 pi a1).  Measured
    # worst: 3.4e-13 at 1e-5 from -1 (d2), 6.2e-16 at -0.99, 2.3e-16 elsewhere.
    return 1e-15 + 1e-17 / (beta + 1.0)


@pytest.mark.parametrize("beta", MP_BETAS)
@pytest.mark.parametrize("area", [0.5, 1.0, 3.0])
def test_log_det_area_against_mp_reference(beta, area):
    det = log_det_area(AngleParam(beta), area)
    elementary, barnes = mp_reference.parts(beta, 0)
    shift = mp_reference.zeta0(beta) * mpmath.log(area)
    with mpmath.workdps(40):
        scale = abs(elementary) + abs(barnes) + abs(shift)
        tol = _mp_tolerance(beta)
        assert abs(det.log_det - mp_reference.log_det(beta, area)) <= tol * scale
        assert abs(det.elementary_part - elementary) <= tol * abs(elementary)
        assert abs(det.barnes_part - barnes) <= tol * abs(barnes)
        assert abs(det.area_term + shift) <= tol * scale


@pytest.mark.parametrize("beta", MP_BETAS)
@pytest.mark.parametrize("k", [1, 2])
def test_derivatives_against_mp_reference(beta, k):
    got = (d_log_det, d2_log_det)[k - 1](AngleParam(beta))
    elementary, barnes = mp_reference.parts(beta, k)
    with mpmath.workdps(40):
        scale = abs(elementary) + abs(barnes)
        assert abs(got - (elementary + barnes)) <= _mp_tolerance(beta) * scale


@pytest.mark.parametrize("k", [1, 2])
def test_mp_reference_zeta0_derivatives_match_differences(k):
    with mpmath.workdps(40):
        b = mpmath.mpf(-0.7)
        numeric = mpmath.diff(lambda x: mp_reference._zeta0(x, 0), b, k)
        assert abs(mp_reference._zeta0(b, k) - numeric) <= 1e-30 * abs(numeric)


# A seeded sample of scan rows, the first and the last among them: 3000
# rows are enough for the quadrature to give the kernel one sorted row per
# node, and a third of those rows (22 of 68) start below barnes._TINY.
MP_SCAN_COUNT = 3000
MP_SCAN_ROWS = [0, *sorted(np.random.default_rng(25).choice(
    np.arange(1, MP_SCAN_COUNT - 1), 4, replace=False).tolist()), MP_SCAN_COUNT - 1]


@pytest.mark.parametrize("area", [0.5, 1.0, 3.0])
def test_scan_rows_against_mp_reference(area, monkeypatch):
    starts = []
    kernel = envelope.barnes.f_kernel

    def recorded(r, derivative=0):
        starts.append(np.min(r))
        return kernel(r, derivative)

    monkeypatch.setattr(envelope.barnes, "f_kernel", recorded)
    table = scan(-1.0 + 1e-5, -0.5 - 1e-5, MP_SCAN_COUNT, area)
    assert np.mean(np.array(starts) < envelope.barnes._TINY) > 0.3
    with mpmath.workdps(40):
        log_s = mpmath.log(area)
        for i in MP_SCAN_ROWS:
            beta = float(table.beta[i])
            tol = _mp_tolerance(beta)
            for k, column in enumerate((table.log_det, table.d1, table.d2)):
                elementary, barnes = mp_reference.parts(beta, k)
                shift = mp_reference.zeta0(beta, k) * log_s
                scale = abs(elementary) + abs(barnes) + abs(shift)
                assert abs(column[i] - (elementary + barnes - shift)) <= tol * scale, (i, k)
            shift = mp_reference.zeta0(beta) * log_s
            for column, endpoint in ((table.asymptotic_neg1, -1), (table.asymptotic_neghalf, -0.5)):
                terms = mp_reference.asymptotic_terms(beta, endpoint)
                scale = mpmath.fsum(abs(t) for t in terms) + abs(shift)
                expected = mpmath.fsum(terms) - shift
                assert abs(column[i] - expected) <= tol * scale, (i, endpoint)


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


@pytest.mark.parametrize("op", [scaling_factor, geometry])
@pytest.mark.parametrize("beta", [np.array([-0.75]), np.array([-0.75, -0.6])])
def test_scalar_only_ops_reject_an_array_beta(op, beta):
    with pytest.raises(DomainError, match="takes a float beta"):
        op(AngleParam(beta))


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


def _scan_call_plan(count, monkeypatch):
    """The quadratures and the (shape, orders) of the kernel calls of one
    ``count``-point scan."""
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
    scan(-0.9999, -0.5001, count, 1.7)
    return quadratures, kernel_calls


def test_scan_runs_one_quadrature_and_one_kernel_call_per_node(monkeypatch):
    count = envelope._SPLIT_MIN - 1
    quadratures, kernel_calls = _scan_call_plan(count, monkeypatch)
    assert len(quadratures) == 1
    # all three orders at each of the 68 nodes, on the 2 x count values of a
    assert kernel_calls == [((1, 2 * count), (0, 1, 2))] * 68


def test_a_wide_scan_runs_two_quadratures_and_one_kernel_call_per_node_in_each(monkeypatch):
    quadratures, kernel_calls = _scan_call_plan(20000, monkeypatch)
    # orders 0 and 1 in one quadrature, order 2 in the other, on the other
    # thread; the two append in either order
    assert len(quadratures) == 2
    assert Counter(kernel_calls) == Counter(
        [((1, 40000), (0, 1))] * 68 + [((1, 40000), (2,))] * 68
    )


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
    # a wide one runs orders 0 and 1 so, and order 2 through its own route
    scan(-0.9, -0.6, envelope._SPLIT_MIN, 2.0)
    assert calls == ["d2_zeta_b_prime0"]


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
     {"beta_min": -0.6, "beta_max": -0.9}, {"beta_min": -0.7, "beta_max": -0.7},
     {"beta_min": -5.0, "beta_max": 10.0, "tol": 100.0}, {"area": -1.0, "tol": 1.0},
     {"area": math.nan, "tol": 1.0}, {"tol": math.inf}],
)
def test_refine_minimum_domain(kwargs):
    with pytest.raises(DomainError):
        refine_minimum(**kwargs)
