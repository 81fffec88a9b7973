"""Zeta-regularized spectral determinant on Euclidean isosceles triangle
envelopes: special functions, three-route Barnes double zeta evaluation, the
determinant as a function of angle and area, and its extremal analysis."""

from .specfun import DomainError, QuadratureError
from .barnes import (
    dedekind_sum,
    zeta_b_prime0,
    zeta_b_prime0_rational,
    zeta_b_prime0_series,
)
from .envelope import (
    AngleParam,
    BETA_CRITICAL,
    DetResult,
    asymptotic_neg1,
    asymptotic_neghalf,
    critical_area,
    d2_log_det,
    d_log_det,
    geometry,
    log_det_area,
    refine_minimum,
    scan,
)

__version__ = "0.1.0"
