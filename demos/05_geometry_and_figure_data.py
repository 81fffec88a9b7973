"""Envelope geometry and figure-data export.

Shows the triangle geometry carried by each angle parameter and writes the
determinant curve (with exact rational anchor points) to a CSV through the
``envdet scan`` command.  If matplotlib is importable a quick plot is saved
next to the CSV.

Usage: python demos/05_geometry_and_figure_data.py [output directory]
(by default the files go next to this script).
"""

import math
import os
import sys

import numpy as np

from envdet import AngleParam, geometry
from envdet.cli import main

print("geometry at unit area:")
print(f"{'beta':>9}  {'base angle':>11}  {'apex angle':>11}  {'side |AB|':>10}")
for beta in (-0.9, -0.75, -2.0 / 3.0, -0.55):
    geo = geometry(AngleParam(beta), 1.0)
    print(
        f"{beta:>9.4f}  {math.degrees(geo.angle_a):>10.3f}d  {math.degrees(geo.angle_b):>10.3f}d"
        f"  {geo.side_ab:>10.6f}"
    )

out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)
out_csv = os.path.join(out_dir, "determinant_curve.csv")
print()
code = main(["scan", "--from", "-0.95", "--to", "-0.55", "--count", "161", "--area", "1",
             "--exact-points", "--out", out_csv])
if code:
    raise SystemExit(code)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    betas, values = np.loadtxt(out_csv, delimiter=",", skiprows=1, usecols=(0, 1), unpack=True)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(betas, values, lw=1.2)
    ax.axvline(-2.0 / 3.0, ls="--", lw=0.8, color="gray")
    ax.set_xlabel("beta")
    ax.set_ylabel("log det (unit area)")
    ax.set_title("Determinant on isosceles triangle envelopes")
    out_png = out_csv.replace(".csv", ".png")
    fig.savefig(out_png, dpi=150, bbox_inches="tight")
    print(f"saved plot to {out_png}")
