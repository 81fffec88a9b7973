"""Where is the determinant extremal?

Walks the unit-area determinant curve over the admissible angle range,
shows that the equilateral envelope (beta = -2/3) is the absolute minimum,
and checks the closed-form critical value against the numerical pipeline.
"""

import math

from envdet import AngleParam, d2_log_det, d_log_det, log_det_area, refine_minimum

print("log det of the Friederichs Laplacian, unit-area envelopes")
print()
print(f"{'beta':>9}  {'log det':>12}  {'d/dbeta':>12}")
for beta in (-0.95, -0.85, -0.75, -2.0 / 3.0, -0.62, -0.57):
    p = AngleParam(beta)
    det = log_det_area(p, 1.0)
    print(f"{beta:>9.4f}  {det.log_det:>12.8f}  {d_log_det(p):>12.6f}")

print()
beta_star = refine_minimum(-0.95, -0.55, tol=1e-8)
print(f"grid-refined minimizer : {beta_star:.8f}   (equilateral: {-2/3:.8f})")

p = AngleParam(-2.0 / 3.0)
value = log_det_area(p, 1.0).log_det
closed = 2.0 / 3.0 * math.log(math.pi) + math.log(2.0 / 3.0) / 3.0 - 2.0 * math.lgamma(2.0 / 3.0)
print(f"critical value, pipeline: {value:.12f}")
print(f"critical value, closed  : {closed:.12f}")
print(f"slope at the minimum    : {d_log_det(p):.2e}")
print(f"curvature at the minimum: {d2_log_det(p):.6f}  (strictly positive)")
