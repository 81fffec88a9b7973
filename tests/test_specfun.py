import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from envdet import barnes, specfun
from envdet.specfun import (
    EULER_GAMMA,
    LOG_2PI,
    LOG_GLAISHER,
    LOG_PI,
    ZETA_PRIME_NEG1,
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


@pytest.mark.parametrize("width", [0, -1, 1.5, "3", None])
def test_quadrature_width_must_be_a_positive_integer(width):
    with pytest.raises(ValueError, match="width must be a positive integer"):
        integrate_semi_infinite(lambda t, open_: np.exp(-t)[:, None, None], 1, width)


@pytest.mark.parametrize("returned", [(1, 2), (2, 1), (1,)])
def test_quadrature_rejects_an_integrand_of_the_wrong_shape(returned):
    # an integrand 2 wide passed off as 1 wide, and one group too many or
    # too few dimensions
    def f(t, open_):
        return np.ones((t.size,) + returned)

    expected = re.escape(f"shape {(68,) + returned}, expected (68, 1, 1)")
    with pytest.raises(ValueError, match=expected):
        integrate_semi_infinite(f, 1, 1)


def _reference_quadrature(f, groups, width):
    """The rule as a plain loop, one node per call: the levels h = 1/2, 1/4,
    1/8, ... in turn, each level's weighted values added in node order from
    0.0.  Returns ``(values, errs, nodes)`` like ``_run``."""
    target = specfun._TOL
    decades = -math.log(min(target, 1e-6))
    u_hi = math.log(decades + 45.0)
    u_lo = -math.log(decades + 40.0)
    nodes = [0] * groups

    def level_sum(h, odd_only, open_):
        total = 0.0
        for k in range(math.ceil(u_lo / h), math.floor(u_hi / h) + 1):
            if odd_only and k % 2 == 0:
                continue
            u = k * h
            emu = math.exp(-u)
            t = math.exp(u - emu)
            for g in open_:
                nodes[g] += 1
            total += f(np.array([t]), open_)[0] * (t * (1.0 + emu))
        return total

    h = 0.5
    open_ = tuple(range(groups))
    estimate = list(level_sum(h, False, open_) * h)
    errs = [math.inf] * groups
    for level in range(specfun._MAX_LEVELS):
        h /= 2.0
        still_open = []
        for g, new in zip(open_, level_sum(h, True, open_) * h):
            new = new + estimate[g] / 2.0
            errs[g] = float(np.abs(new - estimate[g]).max())
            tol = max(target, target * float(np.abs(new).max()))
            if not (level >= 1 and errs[g] <= tol):
                still_open.append(g)
            estimate[g] = new
        open_ = tuple(still_open)
        if not open_:
            return np.array(estimate), np.array(errs), nodes
    raise QuadratureError(
        f"quadrature did not reach tolerance {target:g} within "
        f"{specfun._MAX_LEVELS} refinements (last diff {max(errs[g] for g in open_):g})"
    )


def _run(quadrature, fs, width):
    """The bytes of the values and errors of the groups ``fs``, or the
    QuadratureError message, with the nodes each group was passed on."""
    nodes = [0] * len(fs)

    def g(t, open_):
        for k in open_:
            nodes[k] += t.size
        return np.stack([fs[k](t) for k in open_], axis=1)

    try:
        values, errs = quadrature(g, len(fs), width)[:2]
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
    assert got == _run(_reference_quadrature, fs, width)
    # only the singular group exhausts the refinements
    assert len(got) == (2 if "singular" in groups else 3)
