"""The minimum/maximum flip as the envelope area grows.

At unit area the equilateral envelope minimizes the determinant.  The
area only shifts the determinant by -zeta0(beta) * log(area), but zeta0
is itself beta-dependent, so growing the area eventually turns the
equilateral critical point into a local maximum.  The flip happens at
area S* = exp(d2/27) ~ 1.92, the paper's "sufficiently large" area.

Its "not too large" area has two thresholds below S*.  Up to
S_0 = exp(min d_log_det / d_zeta0) ~ 1.752174 the equilateral point is the
only critical point; above it a pair of critical points splits off from
beta ~ -0.5893, and from S_abs ~ 1.772518 the right one (at beta ~ -0.5727
there) is the absolute minimum, while -2/3 stays a local minimum up to S*.
"""

import math

from envdet import AngleParam, BETA_CRITICAL, critical_area, d2_log_det, scan
from envdet.envelope import d2_zeta0

p = AngleParam(BETA_CRITICAL)
d2_unit = d2_log_det(p)
s_star = critical_area()
print(f"curvature in beta at the equilateral point, unit area: {d2_unit:.6f}")
print(f"area sensitivity of that curvature: d2(zeta0) = {d2_zeta0(p):.1f}")
print(f"flip threshold exp({d2_unit:.4f} / 27) = {s_star:.6f}")
print()

print(f"{'area':>6}  {'curvature at -2/3':>18}  classification")
for area in (0.5, 1.0, 1.5, s_star, 2.5, 3.0):
    d2_at = d2_unit - d2_zeta0(p) * math.log(area)
    if abs(d2_at) <= 1e-6:
        kind = "degenerate (threshold)"
    elif d2_at > 0:
        kind = "minimum"
    else:
        kind = "local maximum"
    print(f"{area:>6.3f}  {d2_at:>18.6f}  {kind}")

print()
print("grid view at area 3: the equilateral row dominates its neighbours")
table = scan(-0.70, -0.63, 8, area=3.0)
for beta, log_det in zip(table.beta, table.log_det):
    marker = "  <-- nearest to -2/3" if abs(beta - BETA_CRITICAL) < 0.006 else ""
    print(f"  beta {beta:>9.5f}   log det {log_det:.9f}{marker}")
