"""Every span the benchmark's tracer installs names a real envdet attribute.

``perfbench/spans.py`` is loaded from its file, without writing bytecode
next to it; a renamed or deleted public function shows up here as a missing
name, before any benchmark run reports ``trace.absent_names``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_an_envdet_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = []
    for name in spans.TRACED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"envdet.{module_name}")
        if not hasattr(module, attr):
            missing.append(name)
    assert missing == []
