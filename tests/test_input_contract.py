"""The library's input contract, as a property of every public function:
whatever its numeric arguments are, a call returns finite values or raises
``DomainError`` or ``QuadratureError``; nothing else escapes (property-based
testing after MacIver and Hatfield-Dodds, "Hypothesis: A new approach to
property-based testing", JOSS 2019).

The arguments are strings, bytes, bools, None, complex numbers, lists, 0-d
and 2-D arrays, fractions, ints beyond the doubles, NaN, +-inf, +-0,
subnormals and the largest doubles, next to numbers inside each domain;
``f_kernel`` also gets sorted rows, with and without NaN and negatives.  A
function that takes an ``AngleParam`` gets one built from a drawn beta.  The
selectors ``derivative``, ``route``, ``include_exact_points``, ``suite`` and
the criterion number of ``verify.run_criterion`` are drawn from their valid
values and from arrays, lists, strings, bools, ints and floats.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envdet
from envdet import barnes, envelope, specfun, verify
from envdet.specfun import DomainError, QuadratureError

_EDGE = envelope._EDGE
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def _arguments(valid, floats=st.floats()):
    """A number from ``valid`` two times in three, else an argument of any
    other kind: a number from ``floats`` or a special double, or a non-number."""
    number = st.one_of(valid, floats, st.sampled_from(_SPECIAL))
    other = st.one_of(
        floats,
        st.sampled_from(_SPECIAL),
        st.integers(-3, 3),
        number.map(np.array),
        number.map(lambda x: np.full((2, 2), x)),
        st.lists(number, max_size=3),
        st.lists(st.one_of(number, st.text(max_size=2), st.none()), min_size=1, max_size=2),
        st.sampled_from(["-0.7", "1", "nan", b"-0.7", 10**400, -(10**400)]),
        st.text(max_size=3),
        st.binary(max_size=3),
        st.booleans(),
        st.none(),
        st.complex_numbers(max_magnitude=2.0),
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
    )
    # st.one_of(valid, other) would flatten into one choice among all leaves
    return st.sampled_from([valid, valid, other]).flatmap(lambda strategy: strategy)


_BETA = _arguments(st.one_of(
    st.floats(-0.999, -0.501),
    st.sampled_from([-1.0 + _EDGE * (1.0 + s * 1e-9) for s in (-1, 1)]
                    + [-0.5 - _EDGE * (1.0 + s * 1e-9) for s in (-1, 1)] + [Fraction(-2, 3)]),
))
# (beta_min, beta_max): an increasing pair of betas half the time, as few
# independent draws are
_RANGE = st.one_of(st.tuples(st.floats(-0.999, -0.75), st.floats(-0.74, -0.501)),
                   st.tuples(_BETA, _BETA))
_AREA = _arguments(st.floats(1e-3, 1e3))
# no valid count above 64: a larger grid costs more than this test may
_COUNT = _arguments(st.integers(2, 64), floats=st.floats(-1e3, 64.0) | st.just(1e300))
_TOL = _arguments(st.floats(1e-9, 1.0))
_A = _arguments(st.floats(1e-6, 5.0))
_N = _arguments(st.integers(2, 16))
_R = _arguments(st.one_of(st.floats(0.0, 1e3), st.fractions(min_value=0, max_value=5,
                                                            max_denominator=40)))
_INT = _arguments(st.integers(1, 60))
# sorted rows, 1-D or (1, n), which f_kernel splits at one index when they
# start at 0 or above; np.sort puts NaN last and -inf and negatives first
_SORTED_ROW = st.lists(
    st.one_of(st.floats(0.0, 1e3), st.floats(), st.sampled_from(_SPECIAL)), min_size=1, max_size=6,
).map(np.sort).flatmap(lambda r: st.sampled_from([r, r[None, :]]))


def _selector(valid):
    """One of the ``valid`` values of a selector two times in three, else a
    value of another kind: a 0-d or 1-D array or a list of valid values, a
    tuple of them, a string, a bool, an int or a float."""
    choice = st.sampled_from(valid)
    other = st.one_of(
        choice.map(np.array),
        st.lists(choice, min_size=1, max_size=2).map(np.array),
        st.lists(choice, max_size=2),
        st.tuples(choice, choice),
        st.text(max_size=3),
        st.booleans(),
        st.integers(-1, 3),
        st.sampled_from([0.0, 1.0, 2.0, math.nan]),
        st.floats(),
    )
    return st.sampled_from([choice, choice, other]).flatmap(lambda strategy: strategy)


_DERIVATIVE = _selector([0, 1, 2, (0, 1, 2), (2, 0)])
_ROUTE = _selector(["integral", "rational"])
_EXACT_POINTS = _selector([False, True])
_CRITERION = _selector(list(range(1, 10)))
_SUITE = _selector(["fast", "full"])


def _kernel(draw):
    r = draw(st.one_of(_R, _SORTED_ROW))
    values = barnes.f_kernel(r, draw(_DERIVATIVE))
    # F(+inf) = -inf is F's limit there
    return np.where(np.isposinf(np.asarray(r, dtype=float)), 0.0, values)


def _angle(draw):
    """An AngleParam from a drawn beta, half of them with an exact beta."""
    beta = draw(_BETA)
    if draw(st.booleans()):
        return envelope.AngleParam.from_fraction(beta)
    return envelope.AngleParam(beta)


_ON_ANGLE = ["scaling_factor", "zeta0", "d_zeta0", "d2_zeta0", "asymptotic_neg1",
             "asymptotic_neghalf", "d_log_det", "d2_log_det", "convexity_lower_bound"]
CALLS = {
    **{name: (lambda name: lambda draw: getattr(envelope, name)(_angle(draw)))(name)
       for name in _ON_ANGLE},
    "AngleParam": _angle,
    "log_det_area": lambda draw: envelope.log_det_area(
        _angle(draw), draw(_AREA), route=draw(_ROUTE)),
    "critical_area": lambda draw: envelope.critical_area(),
    "geometry": lambda draw: envelope.geometry(_angle(draw), draw(_AREA)),
    "scan": lambda draw: envelope.scan(*draw(_RANGE), draw(_COUNT), draw(_AREA),
                                       include_exact_points=draw(_EXACT_POINTS)),
    "reduced_fractions": lambda draw: list(envelope.reduced_fractions()),
    "refine_minimum": lambda draw: envelope.refine_minimum(*draw(_RANGE), draw(_AREA), draw(_TOL)),
    "dedekind_sum": lambda draw: barnes.dedekind_sum(draw(_INT), draw(_INT)),
    "f_kernel": _kernel,
    "zeta_b_prime0": lambda draw: barnes.zeta_b_prime0(draw(_A)),
    "zeta_b_prime0_series": lambda draw: barnes.zeta_b_prime0_series(draw(_A), draw(_N)),
    "zeta_b_prime0_rational": lambda draw: barnes.zeta_b_prime0_rational(draw(_R)),
    "d_zeta_b_prime0": lambda draw: barnes.d_zeta_b_prime0(draw(_A)),
    "d2_zeta_b_prime0": lambda draw: barnes.d2_zeta_b_prime0(draw(_A)),
    "run_criterion": lambda draw: verify.run_criterion(draw(_CRITERION)),
    "run_suite": lambda draw: verify.run_suite(draw(_SUITE)),
}
# values the library returns, not entry points, and constants
NOT_CALLED = {"BarnesEval", "DetResult", "EnvelopeGeometry", "ScanTable", "CheckResult",
              "BETA_CRITICAL", "CRITERIA"}


def test_every_public_function_is_called():
    public = set(barnes.__all__) | set(envelope.__all__) | set(verify.__all__)
    assert set(CALLS) == public - NOT_CALLED
    exported = {name for name, value in vars(envdet).items()
                if not name.startswith("_") and callable(value)}
    assert exported <= public | {"DomainError", "QuadratureError"}


def _assert_finite(result):
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            _assert_finite(getattr(result, field.name))
    elif isinstance(result, (list, tuple)):
        for item in result:
            _assert_finite(item)
    elif not isinstance(result, (str, Fraction, type(None))):
        assert np.all(np.isfinite(result)), result


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_call_returns_finite_values_or_raises_domain_or_quadrature_error(name, data):
    try:
        result = CALLS[name](data.draw)
    except (DomainError, QuadratureError):
        return
    _assert_finite(result)


_SELECTOR_CALLS = {
    "f_kernel(1.0, np.array([0, 1]))": lambda: barnes.f_kernel(1.0, np.array([0, 1])),
    "f_kernel(1.0, np.array(1))": lambda: barnes.f_kernel(1.0, np.array(1)),
    "f_kernel(1.0, True)": lambda: barnes.f_kernel(1.0, True),
    "f_kernel(1.0, 1.0)": lambda: barnes.f_kernel(1.0, 1.0),
    "f_kernel(1.0, (0, True))": lambda: barnes.f_kernel(1.0, (0, True)),
    "f_kernel(1.0, ())": lambda: barnes.f_kernel(1.0, ()),
    "scan(include_exact_points=np.array([1, 0]))": lambda: envelope.scan(
        -0.9, -0.6, 5, include_exact_points=np.array([1, 0])),
    "scan(include_exact_points=1)": lambda: envelope.scan(-0.9, -0.6, 5, include_exact_points=1),
    "log_det_area(route=np.array(['a', 'b']))": lambda: envelope.log_det_area(
        envelope.AngleParam(-0.7), 1.0, route=np.array(["a", "b"])),
    "log_det_area(route='series')": lambda: envelope.log_det_area(
        envelope.AngleParam(-0.7), 1.0, route="series"),
    "BarnesEval(0.0, 'x', 'integral')": lambda: barnes.BarnesEval(0.0, "x", "integral"),
    "BarnesEval(0.0, nan, 'integral')": lambda: barnes.BarnesEval(0.0, math.nan, "integral"),
    "BarnesEval(0.0, 0.0, ['series'])": lambda: barnes.BarnesEval(0.0, 0.0, ["series"]),
    "run_suite(['fast'])": lambda: verify.run_suite(["fast"]),
    "run_suite('bogus')": lambda: verify.run_suite("bogus"),
    **{f"run_criterion({number!r})": (lambda number: lambda: verify.run_criterion(number))(number)
       for number in (0, 10, True, 1.0, "1", None)},
}


@pytest.mark.parametrize("name", sorted(_SELECTOR_CALLS))
def test_a_selector_outside_its_values_raises_domain_error(name):
    with pytest.raises(DomainError):
        _SELECTOR_CALLS[name]()


def test_a_selector_of_numpy_kind_is_taken_at_its_value():
    assert barnes.f_kernel(0.7, np.int64(1)) == barnes.f_kernel(0.7, 1)
    assert np.array_equal(barnes.f_kernel(0.7, (np.int32(2), 0)), barnes.f_kernel(0.7, (2, 0)))
    p = envelope.AngleParam.from_fraction(-0.75)  # -3/4
    assert (envelope.log_det_area(p, 1.0, route=np.str_("rational"))
            == envelope.log_det_area(p, 1.0, route="rational"))
    exact = envelope.scan(-0.9, -0.6, 3, include_exact_points=np.True_)
    assert exact.beta.tobytes() == envelope.scan(-0.9, -0.6, 3, include_exact_points=True).beta.tobytes()


def test_the_argument_gate_sees_each_argument_once(monkeypatch):
    # both gates, the real-number one and the whole-number one (which takes
    # an int without the real-number gate)
    seen = []

    def counting(gate):
        def counted(value, what, *args, **kwargs):
            seen.append(what)
            return gate(value, what, *args, **kwargs)

        return counted

    for name in ("_real", "_whole"):
        counted = counting(getattr(specfun, name))
        for module in (specfun, barnes, envelope):
            monkeypatch.setattr(module, name, counted)
    barnes.zeta_b_prime0_series(0.3, 4)
    assert seen == ["a", "n", "error_bound"]  # the last in BarnesEval
    # each integral route checks a, its quadrature groups and width, and its
    # one kernel call r
    quadrature = ["a", "groups", "width", "r"]
    for route, expected in ((barnes.zeta_b_prime0, quadrature + ["error_bound"]),
                            (barnes.d_zeta_b_prime0, quadrature),
                            (barnes.d2_zeta_b_prime0, quadrature)):
        seen.clear()
        route(0.3)
        assert seen == expected
    seen.clear()
    envelope.AngleParam.from_fraction(-0.7)
    assert seen == ["beta"]  # exact is taken from the checked beta
    # a scan's quadrature takes the betas AngleParam checked
    seen.clear()
    envelope.scan(-0.9, -0.6, 5)
    assert seen == ["count", "beta_min", "beta_max", "area", "beta", "groups", "width", "r"]
    # a scalar determinant call checks beta, its area, then the pair a1, a2
    # of its one quadrature and kernel call
    seen.clear()
    envelope.log_det_area(envelope.AngleParam(-0.7), 1.3)
    assert seen == ["beta", "area", "a", "groups", "width", "r"]
    for derivative in (envelope.d_log_det, envelope.d2_log_det):
        seen.clear()
        derivative(envelope.AngleParam(-0.7))
        assert seen == ["beta", "a", "groups", "width", "r"]


# betas over the domain, the critical one, and within 1e-5 of each end
_PATH_BETAS = np.concatenate([np.linspace(-1.0 + 2 * _EDGE, -0.5 - 2 * _EDGE, 2390),
                              [-2.0 / 3.0], -1.0 + _EDGE * np.array([1.0, 1.5, 3.0, 10.0]),
                              -0.5 - _EDGE * np.array([1.0, 1.5, 3.0, 10.0]), [-0.75]])


def test_a_float_beta_takes_the_path_of_a_one_element_array():
    # one path for every width: each part of the determinant of a float
    # beta has the bits of the same part of a one-element array
    for beta in _PATH_BETAS.tolist():
        scalar = envelope.log_det_area(envelope.AngleParam(beta), 1.3)
        array = envelope.log_det_area(envelope.AngleParam(np.array([beta])), 1.3)
        for name in ("log_det", "elementary_part", "barnes_part", "area_term"):
            got, expected = getattr(scalar, name), getattr(array, name)
            assert type(got) is float and expected.shape == (1,)
            assert np.float64(got).tobytes() == expected.tobytes(), (beta, name)
