"""Zeta-regularized spectral determinant on Euclidean isosceles triangle
envelopes: special functions, three-route Barnes double zeta evaluation, the
determinant as a function of angle and area, and its extremal analysis."""

from .specfun import (
    CONSTANTS,
    Constants,
    DEFAULT_QUAD,
    DomainError,
    QuadratureError,
    QuadratureSpec,
    bernoulli,
    digamma,
    integrate_semi_infinite,
    log_gamma,
    trigamma,
    zeta_int,
)
from .barnes import (
    BarnesEval,
    d2_zeta_b_prime0,
    d_zeta_b_prime0,
    dedekind_sum,
    f_kernel,
    sawtooth,
    zeta_b_prime0,
    zeta_b_prime0_alt,
    zeta_b_prime0_rational,
    zeta_b_prime0_series,
)
from .envelope import (
    AngleParam,
    BETA_CRITICAL,
    DetResult,
    EnvelopeGeometry,
    ScanRow,
    ScanTable,
    asymptotic_neg1,
    asymptotic_neghalf,
    convexity_lower_bound,
    critical_area,
    d2_log_det,
    d_log_det,
    geometry,
    log_det_area,
    log_det_unit,
    refine_minimum,
    scaling_factor,
    scan,
    zeta0,
)

__version__ = "0.1.0"
