"""The benchmark's tracer, checked against envdet.

``perfbench/spans.py`` is loaded from its file, without writing bytecode
next to it.  A renamed or deleted public function shows up here as a
missing name, before any benchmark run reports ``trace.absent_names``; the
per-layer counts of one scalar call and of one wide scan pin the call plan
the trace reports.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from envdet import barnes, envelope

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_an_envdet_attribute(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TRACED
    missing = []
    for name in spans.TRACED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"envdet.{module_name}")
        if not hasattr(module, attr):
            missing.append(name)
    assert missing == []


_PLAN = (
    "specfun.quad.calls",
    "specfun.quad.nodes",
    "barnes.kernel.calls",
    "barnes.kernel.points",
)


def _call_plan(monkeypatch, call, names=_PLAN):
    """The per-layer counts ``names`` of one traced ``call``; None names
    every count the tracer keeps exact."""
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    with tracer.tracing(0):
        call()
    metrics = spans.layer_metrics(tracer.take(), 0)
    return {name: metrics[name][0] for name in (names or spans.EXACT)}


def test_scalar_log_det_area_is_one_kernel_call(monkeypatch):
    counts = _call_plan(monkeypatch, lambda: envelope.log_det_area(envelope.AngleParam(-0.7), 1.3))
    # one quadrature over a1 and a2: the 68 nodes of the h = 1/8 grid in one
    # integrand call, and so one kernel call on 68 x 2 points
    assert counts == {
        "specfun.quad.calls": 1,
        "specfun.quad.nodes": 1,
        "barnes.kernel.calls": 1,
        "barnes.kernel.points": 136,
    }


@pytest.mark.parametrize("name", ["d_log_det", "d2_log_det"])
def test_scalar_derivative_is_one_kernel_call(name, monkeypatch):
    # the same plan as log_det_area: one quadrature, one integrand call and
    # one kernel call on the 68 x 2 points of the h = 1/8 grid
    counts = _call_plan(monkeypatch, lambda: getattr(envelope, name)(envelope.AngleParam(-0.7)))
    assert counts == {
        "specfun.quad.calls": 1,
        "specfun.quad.nodes": 1,
        "barnes.kernel.calls": 1,
        "barnes.kernel.points": 136,
    }


@pytest.mark.parametrize("call, plan", [
    # accepted at h = 1/16: the first table, then the 68 odd nodes of the
    # next, one integrand and one kernel call each
    (lambda: barnes.zeta_b_prime0(10.0), (1, 2, 2, 136)),
    # accepted at h = 1/128: the first table and four more, 1088 nodes
    (lambda: barnes.d_zeta_b_prime0(1e6), (1, 5, 5, 1088)),
], ids=["zeta_b_prime0(10)", "d_zeta_b_prime0(1e6)"])
def test_a_refining_route_calls_the_kernel_once_per_table(call, plan, monkeypatch):
    assert tuple(_call_plan(monkeypatch, call).values()) == plan


def test_a_wide_scan_is_two_quadratures_on_two_threads(monkeypatch):
    def wide_scan():
        envelope.scan(-0.9999, -0.5001, 20_000, 1.7)

    first, second = (_call_plan(monkeypatch, wide_scan, None) for _ in range(2))
    # the counts stay exact with traced names called on two threads
    assert first == second
    # orders 0 and 1 in one quadrature and order 2, through its public
    # route, in the other: 68 nodes each, one kernel call per node on the
    # 40000 values of a, for two orders and for one
    assert {name: first[name] for name in _PLAN + ("barnes.integral.calls",)} == {
        "specfun.quad.calls": 2,
        "specfun.quad.nodes": 136,
        "barnes.kernel.calls": 136,
        "barnes.kernel.points": 8_160_000,
        "barnes.integral.calls": 1,
    }
