"""Degenerating envelopes: the determinant blows up at both endpoints.

As beta -> -1 (needle envelope) or beta -> -1/2 (flattened envelope) an
internal angle goes to zero and log det grows without bound.  The library
ships truncated endpoint expansions; their residuals shrink linearly in
the distance to the endpoint, which this script makes visible.
"""

from envdet import AngleParam, asymptotic_neg1, asymptotic_neghalf, log_det_area

print("approach beta -> -1 (base angle pi(beta+1) -> 0):")
print(f"{'beta+1':>8}  {'log det':>14}  {'expansion':>14}  {'residual':>11}  {'resid/(beta+1)':>15}")
for d in (1e-2, 1e-3, 1e-4):
    p = AngleParam(-1.0 + d)
    exact = log_det_area(p, 1.0).log_det
    approx = asymptotic_neg1(p)
    print(f"{d:>8.0e}  {exact:>14.6f}  {approx:>14.6f}  {exact - approx:>11.3e}  {(exact - approx) / d:>15.4f}")

print()
print("approach beta -> -1/2 (apex angle pi(-2 beta - 1) -> 0):")
print(f"{'|2b+1|':>8}  {'log det':>14}  {'expansion':>14}  {'residual':>11}  {'resid/|2b+1|':>15}")
for d in (1e-2, 1e-3, 1e-4):
    p = AngleParam(-0.5 - d / 2.0)
    exact = log_det_area(p, 1.0).log_det
    approx = asymptotic_neghalf(p)
    print(f"{d:>8.0e}  {exact:>14.6f}  {approx:>14.6f}  {exact - approx:>11.3e}  {(exact - approx) / d:>15.4f}")

print()
print("both residual/distance columns stay within a small constant band:")
print("the truncations capture every unbounded term of the expansion.")
