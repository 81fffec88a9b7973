"""The demos run clean, with every warning an error.

Demo 05 writes its figure data into a temporary directory given as its
argument; the CSV is the ``envdet scan`` file of the same grid.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_critical_point.py", "02_barnes_three_routes.py", "03_area_threshold.py",
         "04_small_angle_blowup.py", "05_geometry_and_figure_data.py"]
# sha256 of `envdet scan --from -0.95 --to -0.55 --count 161 --area 1 --exact-points`
CURVE_SHA256 = "fb9ef4646c82dbe684c25e5ba1d3940ad03c0534ff51e4c4643171dc551a1934"


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    writes_files = demo.startswith("05")
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)]
        + ([str(tmp_path)] if writes_files else []),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if writes_files:
        data = (tmp_path / "determinant_curve.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == CURVE_SHA256
