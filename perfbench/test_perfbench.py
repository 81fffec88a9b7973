"""Tests of the benchmark itself: seeded inputs, metric names, oracles and
tracing.

    python3 -m pytest perfbench
"""

import itertools
import json
import math
import re

import pytest

import run
import spans
import workloads

ENVDET = workloads.load_envdet()
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def first(wl, seed, n):
    return list(itertools.islice(wl.inputs(seed), n))


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    assert first(wl, 7, 60) == first(wl, 7, 60)
    if name != "verify":  # the suite has no inputs to vary
        assert first(wl, 7, 60) != first(wl, 8, 60)


def test_point_inputs_mix():
    inputs = first(workloads.Point, 3, 3000)
    edge = [i for i in inputs if min(i.beta + 1.0, -0.5 - i.beta) < 1e-2]
    rational = [i for i in inputs if i.exact is not None]
    assert 0.07 < len(edge) / len(inputs) < 0.13
    assert 0.07 < len(rational) / len(inputs) < 0.13
    for i in inputs:
        assert -1.0 < i.beta < -0.5 and 0.1 <= i.area <= 10.0
        assert min(i.beta + 1.0, -0.5 - i.beta) >= 1e-5 * (1 - 1e-9)
    for i in rational:
        assert i.exact.denominator <= 60 and float(i.exact) == i.beta
    assert {i.kind for i in inputs} == set(workloads.Point.KINDS)


def test_grid_inputs_repeat_the_anchor_and_mix_json():
    inputs = first(workloads.Grid, 5, 48)
    anchors = inputs[:: workloads.Grid.ANCHOR_EVERY]
    assert all(a == anchors[0] and a.anchor and a.fmt == "csv" for a in anchors)
    others = [i for i in inputs if not i.anchor]
    assert len(set(others)) == len(others)
    assert [i.fmt == "json" for i in inputs] == [k % 4 == 3 for k in range(48)]
    for i in inputs:
        assert -1.0 + 1e-6 < i.beta_from < i.beta_to < -0.5 - 1e-6


# --------------------------------------------------------------------------
# metric names
# --------------------------------------------------------------------------


def declared(kind):
    return [m["name"] for m in BENCHMARK[kind]]


def test_declared_metric_names_are_valid_and_unique():
    names = declared("end_to_end") + declared("per_layer")
    assert all(METRIC_NAME.match(n) for n in names)
    assert len(set(names)) == len(names)


def test_runs_report_exactly_the_declared_metrics(tmp_path):
    wl = workloads.Point(ENVDET, tmp_path)
    tally, metrics, _notes = run.measure(wl, 1, 0.2, setup=(1.0, 1.0))
    assert list(metrics) == declared("end_to_end")
    assert tally.failed == 0 and all(v > 0 for v, _unit in metrics.values())
    tally, metrics, _notes = run.measure_traced(wl, 1, 0.0, tmp_path / "spans.jsonl")
    assert list(metrics) == declared("per_layer")
    assert tally.failed == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: u for n, (_v, u) in metrics.items()} == units


def test_throughput_is_the_median_over_batches():
    tally = run.Tally()
    tally.latencies = [1.0, 1.0, 1.0, 9.0, 2.0, 2.0, 5.0]
    tally.items = [1, 1, 2, 2, 2, 2, 9]
    assert run.throughput(tally, 2) == 1.0  # rates 1.0, 0.4, 1.0; the rest dropped
    assert run.throughput(tally, 10) == 19 / 21


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# --------------------------------------------------------------------------
# oracles flag perturbed outputs
# --------------------------------------------------------------------------


def test_point_oracles(tmp_path):
    wl = workloads.Point(ENVDET, tmp_path)
    inputs = first(wl, 11, 400)
    value = next(i for i in inputs if i.exact is not None and i.kind == "log_det_area")
    out = wl.run(value)
    assert wl.check(value, out) is None
    assert wl.check(value, out + 1e-7) is not None
    assert wl.check(value, math.nan) is not None
    for kind in ("d_log_det", "d2_log_det"):
        inp = next(i for i in inputs if i.kind == kind)._replace(check_fd=True)
        out = wl.run(inp)
        assert wl.check(inp, out) is None
        assert wl.check(inp, out + 1e-3 * max(1.0, abs(out))) is not None
        assert wl.check(inp, math.inf) is not None


def test_grid_oracles(tmp_path):
    wl = workloads.Grid(ENVDET, tmp_path)
    anchor = next(wl.inputs(2))
    out = wl.run(anchor)
    assert wl.check(anchor, out) is None
    rows = workloads.parse_scan(out[2].read_bytes(), "csv")
    assert wl.check_rows(anchor, rows) is None

    def perturbed(i, column, delta):
        copy = list(rows)
        row = list(copy[i])
        row[column] += delta * max(1.0, abs(row[column]))
        copy[i] = tuple(row)
        return copy

    assert wl.check_rows(anchor, rows[:-1]) is not None
    assert wl.check_rows(anchor, rows[:5] + [rows[6], rows[5]] + rows[7:]) is not None
    assert wl.check_rows(anchor, perturbed(100, 4, math.nan)) is not None
    for column in (1, 3):  # log_det and d2 of a sampled row
        assert wl.check_rows(anchor, perturbed(anchor.sample[1], column, 1e-8)) is not None
    assert wl.check(anchor._replace(fmt="json", anchor=False), out) is not None

    path = out[2]
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    assert wl.check(anchor, out) == "repeated scan input wrote a different file"
    assert wl.check(anchor, (2, "", path)) is not None


def test_verify_oracle(tmp_path):
    wl = workloads.Verify(ENVDET, tmp_path)
    inp = next(wl.inputs(1))
    code, stdout = wl.run(inp)
    assert wl.check(inp, (code, stdout)) is None
    assert wl.check(inp, (1, stdout)) is not None
    doc = json.loads(stdout)
    doc["results"]["checks_failed"] = 1
    assert wl.check(inp, (0, json.dumps(doc))) is not None
    doc = json.loads(stdout)
    doc["diagnostics"][0][1] = "fail"
    assert wl.check(inp, (0, json.dumps(doc))) is not None
    assert wl.check(inp, (0, stdout[:-10])) is not None


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans_ = [
        ["cli.main", 0, 100, -1, 0, 0, False],
        ["envelope.scan", 10, 70, 0, 0, 0, False],
        ["barnes.zeta_b_prime0_values", 20, 60, 1, 0, 0, False],
        ["barnes.integrate_semi_infinite", 20, 55, 2, 0, 0, False],
        ["barnes.integrand", 25, 45, 3, 0, 3, False],
        ["barnes.f_kernel", 30, 40, 4, 0, 3, False],
    ]
    m = spans.layer_metrics(spans_, 123)
    ns = 1e-9
    assert m["cli.self_s"][0] == pytest.approx(40 * ns)
    assert m["envelope.self_s"][0] == pytest.approx(20 * ns)
    assert m["specfun.quad.self_s"][0] == pytest.approx(15 * ns)
    assert m["barnes.integrand.self_s"][0] == pytest.approx(10 * ns)
    assert m["barnes.kernel.ns_per_point"][0] == pytest.approx(10 / 3)
    assert m["specfun.quad.nodes_per_call"][0] == 1
    assert m["cli.bytes_out"][0] == 123


def test_tracing_counts_repeat_and_leave_outputs_unchanged(tmp_path):
    wl = workloads.Point(ENVDET, tmp_path)
    inp = next(i for i in first(wl, 4, 50) if i.kind == "log_det_area")
    tracer = spans.Tracer()
    plain = wl.run(inp)
    counts = []
    for _ in range(2):
        with tracer.tracing(0):
            assert wl.run(inp) == plain
        m = spans.layer_metrics(tracer.take(), 0)
        counts.append({name: m[name][0] for name in spans.EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["specfun.quad.calls"] >= 1
    assert counts[0]["specfun.quad.points"] >= counts[0]["specfun.quad.nodes"] >= 1
    assert ENVDET.barnes.f_kernel.__module__ == "envdet.barnes"  # wrappers removed


def test_absent_names_are_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(ENVDET.barnes, "zeta_b_prime0_values")
    tracer = spans.Tracer()
    assert tracer.absent == ["barnes.zeta_b_prime0_values"]
    wl = workloads.Point(ENVDET, tmp_path)
    inp = next(i for i in first(wl, 4, 50) if i.kind == "d_log_det")
    with tracer.tracing(0):
        wl.run(inp)
    m = spans.layer_metrics(tracer.take(), 0)
    assert m["barnes.integral.calls"][0] == 1  # d_zeta_b_prime0 only
    assert m["barnes.dedekind.calls"][0] == 0
