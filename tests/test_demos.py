"""The demos run clean, with every warning an error.

Demo 05 is left out: it writes its figure data next to itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_critical_point.py", "02_barnes_three_routes.py", "03_area_threshold.py",
         "04_small_angle_blowup.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
