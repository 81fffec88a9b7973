"""Self-verification suite: every headline claim of the extremal analysis as
an executable check with a pinned tolerance.

Used both by the ``verify`` CLI subcommand and by the acceptance test module;
checks are grouped into nine numbered criteria, each with a wall-clock
budget.  The ``fast`` suite skips only the dense convexity grid (criterion 5).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from . import barnes, envelope
from .specfun import _choice

__all__ = ["CheckResult", "run_criterion", "run_suite", "CRITERIA"]

# Closed-form special values, frozen from a 40-digit evaluation of
# (2/3)log pi + (1/3)log(2/3) - 2 log Gamma(2/3)  and its -3/4, -5/6 analogues.
CLOSED_FORM_M23 = 0.0216976709018315181
CLOSED_FORM_M34 = 0.0829015200310546721
CLOSED_FORM_M56 = 0.3286679922892368324

# Four-decimal reference values quoted for the three special envelopes.
REFERENCE_M23 = 0.0217
REFERENCE_M34 = 0.0829
REFERENCE_M56 = 0.3287
REFERENCE_D2 = 17.614
REFERENCE_CRITICAL_AREA = 1.92


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float


def _at_most(name: str, measured: float, tolerance: float, deviation=None) -> CheckResult:
    """A check that passes when ``deviation``, by default ``measured``, is at
    most ``tolerance``."""
    deviation = measured if deviation is None else deviation
    return CheckResult(name, deviation <= tolerance, measured, tolerance)


def _above_zero(name: str, measured: float) -> CheckResult:
    """A check that passes when ``measured`` is strictly positive."""
    return CheckResult(name, measured > 0.0, measured, 0.0)


def _criterion_1() -> List[CheckResult]:
    p = envelope.AngleParam(envelope.BETA_CRITICAL)
    value = envelope.log_det_area(p, 1.0).log_det
    gap = abs(value - CLOSED_FORM_M23)
    return [
        _at_most("critical_value", value, 1e-4, abs(value - REFERENCE_M23)),
        _at_most("critical_value_route_gap", gap, 1e-9),
    ]


def _criterion_2() -> List[CheckResult]:
    out = []
    cases = [
        (Fraction(-3, 4), CLOSED_FORM_M34, REFERENCE_M34, "special_value_m34"),
        (Fraction(-5, 6), CLOSED_FORM_M56, REFERENCE_M56, "special_value_m56"),
    ]
    for frac, closed, reference, name in cases:
        p = envelope.AngleParam.from_fraction(frac)
        rational = envelope.log_det_area(p, 1.0, route="rational").log_det
        integral = envelope.log_det_area(p, 1.0, route="integral").log_det
        gap = abs(rational - integral)
        out.append(_at_most(name, rational, 1e-4, abs(rational - reference)))
        out.append(_at_most(f"{name}_route_gap", gap, 1e-9))
        # the exact route must also sit on the frozen closed form
        out.append(_at_most(f"{name}_closed_form", abs(rational - closed), 1e-12))
    return out


def _criterion_3() -> List[CheckResult]:
    p = envelope.AngleParam(envelope.BETA_CRITICAL)
    d1 = abs(envelope.d_log_det(p))
    a = 1.0 / 3.0
    dz = barnes.d_zeta_b_prime0(np.array([a, 1.0 - 2.0 * a]))
    combo = float(abs(2.0 * dz[0] - 2.0 * dz[1]))
    return [
        _at_most("criticality_d1", d1, 1e-9),
        _at_most("lemma_a1_3", combo, 1e-9),
    ]


def _criterion_4() -> List[CheckResult]:
    d2 = envelope.d2_log_det(envelope.AngleParam(envelope.BETA_CRITICAL))
    s_star = envelope.critical_area()
    return [
        _at_most("second_derivative", d2, 5e-3, abs(d2 - REFERENCE_D2)),
        _at_most("critical_area", s_star, 1e-2, abs(s_star - REFERENCE_CRITICAL_AREA)),
    ]


def _criterion_5() -> List[CheckResult]:
    p = envelope.AngleParam(np.linspace(-0.999, -0.501, 10_000))
    # the bound runs on the background thread while d2's quadrature runs here
    bound = envelope._in_background(envelope.convexity_lower_bound, p)
    try:
        d2 = envelope.d2_log_det(p)
    finally:
        bound = bound()
    min_bound = float(np.min(bound))
    min_gap = float(np.min(d2 - bound))
    return [
        _above_zero("convexity_bound_positive", min_bound),
        _above_zero("convexity_gap_positive", min_gap),
    ]


def _criterion_6() -> List[CheckResult]:
    fractions = list(envelope.reduced_fractions())
    integral = barnes.zeta_b_prime0_values(np.array([float(f) for f in fractions]))
    worst = max(
        abs(float(value) - barnes.zeta_b_prime0_rational(frac).value)
        for value, frac in zip(integral, fractions)
    )

    grid = np.linspace(0.005, 1.0, 200)
    integral_vals = barnes.zeta_b_prime0_values(grid)
    excess = -math.inf
    eps = float(np.finfo(float).eps)  # Python floats: each check holds a bool and a float
    for n in (2, 3, 4, 5):
        for a, target in zip(grid.tolist(), integral_vals.tolist()):
            approx = barnes.zeta_b_prime0_series(a, n)
            # the truncation certificate is exact-arithmetic; comparing two
            # double-precision evaluations needs a few ulps of headroom
            fp_slack = 8.0 * eps * (1.0 + abs(target))
            excess = max(excess, abs(approx.value - target) - approx.error_bound - fp_slack)
    return [
        _at_most("barnes_route_agreement", worst, 1e-10),
        _at_most("series_certificate", excess, 0.0),
    ]


def _residual_spread(
    beta_at: Callable[[float], float], expansion: Callable[[envelope.AngleParam], float]
) -> float:
    """Spread max/min of |log det - expansion| / d over the distances d of
    beta = ``beta_at(d)`` from an endpoint: about 1 where the residual is O(d)."""
    ratios = []
    for d in (1e-2, 1e-3, 1e-4):
        p = envelope.AngleParam(beta_at(d))
        ratios.append(abs(envelope.log_det_area(p, 1.0).log_det - expansion(p)) / d)
    return max(ratios) / min(ratios)


def _criterion_7() -> List[CheckResult]:
    spread1 = _residual_spread(lambda d: -1.0 + d, envelope.asymptotic_neg1)
    spread2 = _residual_spread(lambda d: -0.5 - d / 2.0, envelope.asymptotic_neghalf)
    return [
        _at_most("asymptotics_neg1_order", spread1, 3.0),
        _at_most("asymptotics_neghalf_order", spread2, 3.0),
    ]


def _criterion_8() -> List[CheckResult]:
    failures = 0
    # the law is symmetric in p and q: each unordered coprime pair once
    for p in range(1, 31):
        for q in range(1, p + 1):
            if math.gcd(p, q) != 1:
                continue
            lhs = barnes.dedekind_sum(q, p) + barnes.dedekind_sum(p, q)
            # -1/4 + (p/q + q/p + 1/(pq)) / 12 over one denominator
            rhs = Fraction(p * p + q * q + 1 - 3 * p * q, 12 * p * q)
            if lhs != rhs:
                failures += 1
    return [_at_most("dedekind_reciprocity", float(failures), 0.0)]


def _criterion_9() -> List[CheckResult]:
    t1 = envelope.scan(-0.95, -0.55, 101, 1.0)
    t3 = envelope.scan(-0.95, -0.55, 101, 3.0)
    b, ld1, ld3 = t1.beta, t1.log_det, t3.log_det
    i_star = int(np.argmin(np.abs(b - envelope.BETA_CRITICAL)))

    min_offset = float(abs(int(np.argmin(ld1)) - i_star))
    local_max_margin = float(
        min(ld3[i_star] - ld3[i_star - 1], ld3[i_star] - ld3[i_star + 1])
    )
    z0 = envelope.zeta0(envelope.AngleParam(b))
    rescale_err = float(np.max(np.abs((ld3 - ld1) + z0 * math.log(3.0))))
    return [
        _at_most("scan_minimum_unit_area", min_offset, 0.0),
        _above_zero("scan_local_max_area3", local_max_margin),
        _at_most("rescaling_rowwise", rescale_err, 1e-12),
    ]


# criterion number -> (check runner, wall-clock budget in seconds)
CRITERIA: dict[int, Tuple[Callable[[], List[CheckResult]], float]] = {
    1: (_criterion_1, 0.1),
    2: (_criterion_2, 0.5),
    3: (_criterion_3, 1.0),
    4: (_criterion_4, 1.0),
    5: (_criterion_5, 120.0),
    6: (_criterion_6, 30.0),
    7: (_criterion_7, 10.0),
    8: (_criterion_8, 1.0),
    9: (_criterion_9, 30.0),
}


def run_criterion(number: int) -> Tuple[List[CheckResult], float]:
    """Run criterion ``number``, 1 to 9; returns its checks and the elapsed time."""
    runner, _budget = CRITERIA[_choice(number, tuple(CRITERIA), "criterion")]
    start = time.perf_counter()
    checks = runner()
    return checks, time.perf_counter() - start


def run_suite(suite: str = "fast") -> List[CheckResult]:
    """Run the verification suite; ``fast`` skips the dense convexity grid."""
    suite = _choice(suite, ("fast", "full"), "suite")
    results: List[CheckResult] = []
    for number, (_runner, budget) in CRITERIA.items():
        if suite == "fast" and number == 5:
            continue
        checks, elapsed = run_criterion(number)
        results.extend(checks)
        results.append(
            CheckResult(f"criterion_{number}_runtime", elapsed < budget, elapsed, budget)
        )
    return results
