import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from quadrature_reference import reference_quadrature

from envdet import barnes, specfun
from envdet.specfun import (
    EULER_GAMMA,
    LOG_2PI,
    LOG_GLAISHER,
    LOG_PI,
    ZETA_PRIME_NEG1,
    DomainError,
    QuadratureError,
    integrate_semi_infinite,
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


def test_log_gamma_critical_value_relation():
    # 2 log Gamma(2/3) recovers the determinant's critical value identity
    from envdet import envelope

    log_det = envelope.log_det_area(envelope.AngleParam(-2.0 / 3.0), 1.0).log_det
    lhs = 2.0 * math.lgamma(2.0 / 3.0)
    rhs = (2.0 / 3.0) * LOG_PI + math.log(2.0 / 3.0) / 3.0 - log_det
    assert abs(lhs - rhs) <= 1e-9


def _bernfrac(n):
    return Fraction(*mpmath.bernfrac(n))


def test_bernoulli_small_values():
    assert [barnes._B[n] for n in (0, 1, 2, 4, 6, 12)] == [
        1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-691, 2730)
    ]


def test_bernoulli_zeta_identity():
    # |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^{2k}
    for k in range(1, 9):
        lhs = abs(float(barnes._B[2 * k]))
        rhs = 2.0 * math.factorial(2 * k) * float(mpmath.zeta(2 * k)) / (2.0 * math.pi) ** (2 * k)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_barnes_tables_match_mpmath():
    # independent oracle: mpmath's exact Bernoulli numbers and 40-digit zeta
    assert barnes._B == [_bernfrac(n) for n in range(2 * barnes._KMAX + 1)]
    ks = range(2, barnes._KMAX + 1)
    f0 = [float(_bernfrac(2 * k) / math.factorial(2 * k)) for k in ks]
    assert barnes._F0 == f0
    assert barnes._F1 == [c * (2 * k - 1) for k, c in zip(ks, f0)]
    assert barnes._F2 == [c * (2 * k - 1) * (2 * k - 2) for k, c in zip(ks, f0)]
    with mpmath.workdps(40):
        for k, tail in zip(ks, barnes._TAIL, strict=True):
            b = _bernfrac(2 * k)
            exact = mpmath.mpf(b.numerator) / b.denominator / (2 * k * (2 * k - 1))
            exact *= mpmath.zeta(2 * k - 1)
            assert abs(mpmath.mpf(tail) - exact) <= 4 * math.ulp(tail)


def _integrate(g, width=1):
    """Integrate one group of ``width`` integrands, ``g(t)`` shaped (n,) or
    (n, width): its values and its error estimate."""
    values, errs = integrate_semi_infinite(
        lambda t, open_: g(t).reshape(t.size, 1, -1), 1, width
    )
    return values[0], errs[0]


def test_quadrature_bose_moments():
    value, err = _integrate(lambda t: t / np.expm1(t))
    assert abs(value - math.pi**2 / 6.0) <= 1e-12
    assert err >= 0.0
    value, _ = _integrate(lambda t: t * t / np.expm1(t))
    assert abs(value - 2.0 * ZETA3) <= 1e-12


def test_quadrature_pure_exponential():
    value, _ = _integrate(lambda t: np.exp(-t))
    assert abs(value - 1.0) <= 1e-12


def test_quadrature_zeta_gamma_family():
    for n in range(2, 7):
        value, _ = _integrate(lambda t, n=n: t ** (n - 1) / np.expm1(t))
        target = float(mpmath.zeta(n)) * math.factorial(n - 1)
        assert abs(value - target) <= max(1e-12, 1e-12 * target)


def test_quadrature_error_estimate_is_conservative():
    value, err = _integrate(lambda t: t / np.expm1(t))
    assert abs(value - math.pi**2 / 6.0) <= max(err, 1e-14)


def test_quadrature_vector_valued():
    value, _ = _integrate(lambda t: np.stack([np.exp(-t), t / np.expm1(t)], axis=-1), 2)
    assert isinstance(value, np.ndarray)
    assert abs(value[0] - 1.0) <= 1e-12
    assert abs(value[1] - math.pi**2 / 6.0) <= 1e-12


def test_quadrature_nonconvergence():
    # e^{-t} t^{-0.9} is integrable, but too singular at 0 for ten refinements
    with pytest.raises(QuadratureError, match="did not reach tolerance 1e-12 within 10"):
        _integrate(lambda t: np.exp(-t) * t ** -0.9)


_RATES = np.array([0.5, 1.0, 2.0])


def _fast(t):
    # e^{-ct}: accepted at level 1, after 68 nodes
    return np.exp(-t[:, None] * _RATES)


def _slow(t):
    # e^{-t} times a narrow peak at ct = 3: accepted at level 7, after 4352 nodes
    return np.exp(-t[:, None]) / (1.0 + 100.0 * (t[:, None] * _RATES - 3.0) ** 2)


def _stacked(*fs):
    """The grouped integrand of the groups ``fs``: the open ones stacked."""
    return lambda t, open_: np.stack([fs[g](t) for g in open_], axis=1)


def _counted(*fs):
    """Integrate the groups ``fs`` at once, returning (values, errs, nodes
    evaluated, nodes each group was passed on)."""
    nodes, per_group = [], [0] * len(fs)
    integrand = _stacked(*fs)

    def g(t, open_):
        nodes.append(t.size)
        for k in open_:
            per_group[k] += t.size
        return integrand(t, open_)

    value, err = integrate_semi_infinite(g, len(fs), _RATES.size)
    return value, err, sum(nodes), per_group


@pytest.mark.parametrize("first", ["fast", "slow"])
def test_grouped_quadrature_freezes_each_group_at_its_level(first):
    (fast,), (fast_err,), fast_nodes, _ = _counted(_fast)
    (slow,), (slow_err,), slow_nodes, _ = _counted(_slow)
    assert (fast_nodes, slow_nodes) == (68, 4352)
    groups = [(_fast, fast, fast_err, 68), (_slow, slow, slow_err, 4352)]
    if first == "slow":
        groups.reverse()
    value, err, nodes, per_group = _counted(*(f for f, _, _, _ in groups))
    assert nodes == 4352
    # a frozen group is no longer passed to the integrand
    assert per_group == [alone_nodes for _, _, _, alone_nodes in groups]
    assert value.shape == (2, 3) and err.shape == (2,)
    for g, (_, alone, alone_err, _) in enumerate(groups):
        assert np.array_equal(value[g], alone)
        assert err[g] == alone_err


def _singular(t):
    # e^{-ct} t^{-0.9} is integrable, but too singular at 0 for ten refinements
    return _fast(t) * t[:, None] ** -0.9


def test_grouped_quadrature_raises_while_a_group_is_open():
    # the open group after a frozen one, and before one frozen later
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(_stacked(_fast, _singular), 2, _RATES.size)
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(_stacked(_singular, _slow), 2, _RATES.size)


def test_quadrature_nodes_are_read_only_and_increasing():
    def sizes_seen(g):
        seen = []

        def f(t, open_):
            with pytest.raises(ValueError):
                t[0] = 1.0
            assert np.all(np.diff(t) > 0.0)
            seen.append(t.size)
            return g(t)[:, None, :]

        integrate_semi_infinite(f, 1, _RATES.size)
        return seen

    # a narrow integrand gets the whole h = 1/8 grid in one call, then one
    # call per extra level, each in increasing order
    assert sizes_seen(_fast) == [68]
    assert sizes_seen(_slow) == [68, 68, 136, 272, 544, 1088, 2176]


def _gate_message(what, value):
    """The whole-number gate's message for a bad ``what`` of ``value``."""
    if isinstance(value, (int, float)):
        return f"{what} must be an integer in [1, inf], got {value!r}"
    return f"{what} must be a real number, got {value!r}"


def _bose(t, open_):
    """e^-t for each open group, one integrand wide."""
    return np.repeat(np.exp(-t)[:, None, None], len(open_), axis=1)


@pytest.mark.parametrize("width", [0, -1, 1.5, "3", None])
def test_quadrature_width_must_be_a_positive_integer(width):
    with pytest.raises(DomainError, match=re.escape(_gate_message("width", width))):
        integrate_semi_infinite(_bose, 1, width)


@pytest.mark.parametrize("groups", [0, -1, 1.5, "2", None])
def test_quadrature_groups_must_be_a_positive_integer(groups):
    with pytest.raises(DomainError, match=re.escape(_gate_message("groups", groups))):
        integrate_semi_infinite(_bose, groups, 1)


@pytest.mark.parametrize("groups", [2.0, np.int64(2)], ids=["float", "int64"])
def test_quadrature_takes_an_integral_groups_as_its_int(groups):
    def bits(n):
        values, errs = integrate_semi_infinite(_bose, n, 1)
        return values.tobytes(), errs.tobytes()

    assert bits(groups) == bits(2)


@pytest.mark.parametrize("returned", [(1, 2), (2, 1), (1,)])
def test_quadrature_rejects_an_integrand_of_the_wrong_shape(returned):
    # an integrand 2 wide passed off as 1 wide, and one group too many or
    # too few dimensions
    def f(t, open_):
        return np.ones((t.size,) + returned)

    expected = re.escape(f"shape {(68,) + returned}, expected (68, 1, 1)")
    with pytest.raises(ValueError, match=expected):
        integrate_semi_infinite(f, 1, 1)


def _run(quadrature, fs, width):
    """The bytes of the values and errors of the groups ``fs``, or the
    QuadratureError message, with the nodes each group was passed on."""
    nodes = [0] * len(fs)

    def g(t, open_):
        for k in open_:
            nodes[k] += t.size
        return np.stack([fs[k](t) for k in open_], axis=1)

    try:
        values, errs = quadrature(g, len(fs), width)
    except QuadratureError as exc:
        return str(exc), nodes
    assert values.shape == (len(fs), width)
    return values.tobytes(), errs.tobytes(), nodes


def _families(width):
    """Integrands of ``width`` rates each: (n,) nodes -> (n, width)."""
    c = np.linspace(0.5, 2.0, width)

    def at(t):
        return t[:, None] * c

    return {
        # -0.0 at the first nodes, where exp(-1/t) underflows
        "underflow": lambda t: -np.exp(-at(t) - 1.0 / t[:, None]),
        "negative-zero": lambda t: -0.0 * np.exp(-at(t)),
        # integrates to 1/c - 1/c + 1 = 1 from terms of size 30
        "cancelling": lambda t: (
            30.0 * (np.exp(-at(t)) - 2.0 * np.exp(-2.0 * at(t))) + np.exp(-t[:, None])
        ),
        "bose": lambda t: at(t) / np.expm1(at(t)),
        # accepted at level 7
        "slow": lambda t: np.exp(-t[:, None]) / (1.0 + 100.0 * (at(t) - 3.0) ** 2),
        # integrable, but too singular at 0 for ten refinements
        "singular": lambda t: np.exp(-at(t)) * t[:, None] ** -0.9,
    }


@pytest.mark.parametrize("width", [1, 20, 100, 3000])
@pytest.mark.parametrize("groups", [
    ("underflow", "negative-zero", "cancelling", "bose"),
    ("slow", "underflow", "cancelling"),
    ("negative-zero", "singular", "bose"),
])
def test_quadrature_matches_sequential_reference(groups, width):
    families = _families(width)
    fs = [families[name] for name in groups]
    got = _run(integrate_semi_infinite, fs, width)
    assert got == _run(reference_quadrature, fs, width)
    # only the singular group exhausts the refinements
    assert len(got) == (2 if "singular" in groups else 3)


@pytest.mark.parametrize("width", [2, 20], ids=["narrow", "wide"])
def test_groups_accepted_at_one_eighth_and_groups_that_refine_match_the_reference(width):
    # h = 1/8 is tested for every group at once; the groups it leaves open
    # refine on their own.  bose and negative-zero pass the absolute test at
    # h = 1/8, large (of size 1e8) only the relative one, underflow refines
    # once and slow five times.  Five groups are 10 values a node (the
    # narrow level sums) at width 2 and 100 (the wide ones) at width 20.
    families = _families(width)
    c = np.linspace(0.5, 2.0, width)
    families["large"] = lambda t: 1e8 * np.exp(-t[:, None] * c)
    names = ("bose", "slow", "large", "underflow", "negative-zero")
    fs = [families[name] for name in names]
    got = _run(integrate_semi_infinite, fs, width)
    assert got == _run(reference_quadrature, fs, width)
    # the nodes each group was passed on give its level: 68 is h = 1/8
    assert got[-1] == [68, 4352, 68, 136, 68]
    _, errs = integrate_semi_infinite(_stacked(*fs), len(fs), width)
    assert errs[2] > specfun._TOL  # accepted by the relative test alone


# ---------------------------------------------------------------------------
# the whole-number gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [
    3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0), np.array(3.0), Fraction(6, 2),
], ids=repr)
def test_a_whole_number_is_taken_as_its_int(value):
    n = specfun._whole(value, "n", 1, 5)
    assert type(n) is int and n == 3


def test_an_int_is_taken_exactly():
    assert specfun._whole(2**60 + 1, "q", 1, math.inf) == 2**60 + 1
    assert specfun._whole(np.int64(2**62), "q", 1, math.inf) == 2**62
    assert specfun._whole(10**400, "q", 1, math.inf) == 10**400


@pytest.mark.parametrize("value", [
    0, 6, pytest.param(10**400, id="10**400"), np.int64(-3),
    1.5, math.nan, math.inf, -math.inf, 1e300, Fraction(7, 2),
], ids=repr)
def test_a_number_that_is_no_whole_number_in_range_raises_domain_error(value):
    with pytest.raises(DomainError, match=re.escape("n must be an integer in [1, 5], got")):
        specfun._whole(value, "n", 1, 5)


@pytest.mark.parametrize("value", ["3", b"3", None, 3j, np.array([3]), [3]], ids=repr)
def test_a_whole_number_argument_that_is_not_real_raises_the_real_gates_error(value):
    with pytest.raises(DomainError, match="n must be a real number"):
        specfun._whole(value, "n", 1, 5)
