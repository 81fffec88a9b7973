"""Spans around envdet's public module attributes, and the per-layer
metrics derived from them.

The program is traced from outside: a wrapper replaces each public
attribute the program calls through, records a span per call, and is put
back when the traced operation returns.  Untraced operations therefore call
exactly the code a user calls.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

# span fields: name, start_ns, end_ns, parent index (-1 at the top),
# operation id, work done (points, terms or the criterion number), raised
NAME, START, END, PARENT, OP, WORK, RAISED = range(7)

QUADRATURE = "barnes.integrate_semi_infinite"
INTEGRAND = "barnes.integrand"
KERNEL = "barnes.f_kernel"
INTEGRALS = (
    "barnes.zeta_b_prime0",
    "barnes.zeta_b_prime0_values",
    "barnes.d_zeta_b_prime0",
    "barnes.d2_zeta_b_prime0",
)
RATIONAL = "barnes.zeta_b_prime0_rational"
DEDEKIND = "barnes.dedekind_sum"
ENVELOPE = (
    "envelope.log_det_area",
    "envelope.d_log_det",
    "envelope.d2_log_det",
    "envelope.scan",
)
CRITERION = "verify.run_criterion"
CLI = "cli.main"
CRITERIA = range(1, 10)


def _result_size(args, result) -> int:
    return int(np.size(result))


def _rational_terms(args, result) -> int:
    r = Fraction(args[0])
    return r.numerator + r.denominator


def _dedekind_terms(args, result) -> int:
    return int(args[1])  # dedekind_sum(q, p) sums over j = 1..p


def _criterion_number(args, result) -> int:
    return int(args[0])


# span name -> work counted per call
TRACED = {
    QUADRATURE: None,
    KERNEL: _result_size,
    **{name: None for name in INTEGRALS},
    RATIONAL: _rational_terms,
    DEDEKIND: _dedekind_terms,
    **{name: None for name in ENVELOPE},
    CRITERION: _criterion_number,
    CLI: None,
}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = 0
        self._patches = []  # (module, attribute, original, wrapper)
        self.absent = []
        for name, work in TRACED.items():
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"envdet.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, work)
            if name == QUADRATURE:
                wrapper = self._wrap_quadrature(wrapper)
            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, result)
            return result

        return wrapper

    def _wrap_quadrature(self, traced_quadrature):
        # the integrand is wrapped too, to count nodes and their width
        def wrapper(f, *args, **kwargs):
            integrand = self._wrap(INTEGRAND, f, _result_size)
            return traced_quadrature(integrand, *args, **kwargs)

        return wrapper

    @contextmanager
    def tracing(self, op: int):
        """Install the wrappers for one operation with id ``op``."""
        self._op = op
        try:
            for module, attr, _original, wrapper in self._patches:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original, _wrapper in self._patches:
                setattr(module, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(spans: list, path: Path) -> None:
    """One JSON object per line: name, start_ns, end_ns, parent, op, work, raised."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "start_ns", "end_ns", "parent", "op", "work", "raised")
    with open(path, "w", encoding="ascii") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list, bytes_out: int) -> dict:
    """Per-layer metrics, name -> (value, unit), of one batch of spans.

    ``.s`` is the time inside a layer's calls, ``.self_s`` that time minus
    the time of the calls beneath it.  Every metric is present even when its
    layer was not called, with zero calls.
    """
    duration = [(s[END] - s[START]) * 1e-9 for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += duration[i]

    def select(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def total(seq, values):
        return float(sum(values[i] for i in seq))

    self_time = [d - c for d, c in zip(duration, covered)]
    work = [s[WORK] for s in spans]

    quad, nodes, kernel = select(QUADRATURE), select(INTEGRAND), select(KERNEL)
    integral, rational, dedekind = select(*INTEGRALS), select(RATIONAL), select(DEDEKIND)
    envelope, criterion, cli = select(*ENVELOPE), select(CRITERION), select(CLI)
    kernel_points = total(kernel, work)
    kernel_s = total(kernel, duration)

    out = {
        "specfun.quad.calls": (len(quad), "count"),
        "specfun.quad.nodes": (len(nodes), "count"),
        "specfun.quad.nodes_per_call": (len(nodes) / len(quad) if quad else 0.0, "count"),
        "specfun.quad.points": (total(nodes, work), "count"),
        "specfun.quad.self_s": (total(quad, self_time), "s"),
        "specfun.quad.failed": (sum(spans[i][RAISED] for i in quad), "count"),
        "barnes.kernel.calls": (len(kernel), "count"),
        "barnes.kernel.points": (kernel_points, "count"),
        "barnes.kernel.s": (kernel_s, "s"),
        "barnes.kernel.ns_per_point": (
            kernel_s * 1e9 / kernel_points if kernel_points else 0.0,
            "ns",
        ),
        "barnes.integrand.self_s": (total(nodes, self_time), "s"),
        "barnes.integral.calls": (len(integral), "count"),
        "barnes.integral.s": (total(integral, duration), "s"),
        "barnes.rational.calls": (len(rational), "count"),
        "barnes.rational.terms": (total(rational, work), "count"),
        "barnes.rational.s": (total(rational, duration), "s"),
        "barnes.dedekind.calls": (len(dedekind), "count"),
        "barnes.dedekind.terms": (total(dedekind, work), "count"),
        "barnes.dedekind.s": (total(dedekind, duration), "s"),
        "envelope.calls": (len(envelope), "count"),
        "envelope.self_s": (total(envelope, self_time), "s"),
    }
    for k in CRITERIA:
        runs = [i for i in criterion if work[i] == k]
        out[f"verify.criterion_{k}.s"] = (total(runs, duration), "s")
    out["verify.self_s"] = (total(criterion, self_time), "s")
    out["cli.self_s"] = (total(cli, self_time), "s")
    out["cli.bytes_out"] = (bytes_out, "bytes")
    return out


# Exact counts: identical on every traced batch of the same inputs.
EXACT = (
    "specfun.quad.calls",
    "specfun.quad.nodes",
    "specfun.quad.points",
    "barnes.kernel.calls",
    "barnes.kernel.points",
    "barnes.integral.calls",
    "barnes.rational.calls",
    "barnes.rational.terms",
    "barnes.dedekind.calls",
    "barnes.dedekind.terms",
    "envelope.calls",
)
