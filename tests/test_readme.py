"""The README's library quick start runs and prints the values it quotes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_prints_quoted_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    printed = done.stdout.split()
    quoted = ["0.021697670901831", "0.082901520031", "17.609361", "1.919756"]
    assert len(printed) == len(quoted)
    for value, prefix in zip(printed, quoted):
        assert value.startswith(prefix), (value, prefix)
