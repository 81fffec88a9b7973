import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envdet
from envdet import barnes, envelope
from envdet.cli import SCHEMA_VERSION, main
from envdet.specfun import DomainError, QuadratureError

CLOSED_M34 = 0.0829015200310546721


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text_critical_value(capsys):
    code, out, _ = run_cli(["eval", "--beta", "-0.6666666666666666", "--area", "1"], capsys)
    assert code == 0
    assert "log_det: 0.0216977" in out


def test_eval_json_right_isosceles(capsys):
    code, out, _ = run_cli(
        ["eval", "--beta", "-0.75", "--area", "1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "eval"
    assert abs(doc["results"]["log_det"] - 0.0829) <= 1e-4
    assert abs(doc["results"]["side_ab"] - 1.0) <= 1e-12
    # breakdown recombines
    total = (
        doc["results"]["elementary_part"]
        + doc["results"]["barnes_part"]
        + doc["results"]["area_term"]
    )
    assert abs(doc["results"]["log_det"] - total) <= 1e-12


def test_eval_domain_errors(capsys):
    code, _, err = run_cli(["eval", "--beta", "-0.6", "--area", "0"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["eval", "--beta", "-0.4", "--area", "1"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--beta", "-1.2", "--area", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("area", ["inf", "-inf", "nan", "0", "-1"])
def test_non_finite_or_non_positive_area_exits_two(area, tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    for argv in (
        ["eval", "--beta", "-0.7", f"--area={area}", "--format", "json"],
        ["critical", f"--area={area}", "--format", "json"],
        ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "5", f"--area={area}",
         "--out", str(out_path)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "" and "error" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "beta,code", [(-1.0 + 7e-7, 2), (-0.5 - 7e-7, 2), (-1.0 + 2e-6, 0), (-0.5 - 2e-6, 0)]
)
def test_endpoint_rule_matches_library(beta, code, capsys):
    assert run_cli(["eval", f"--beta={beta!r}"], capsys)[0] == code
    if code == 2:
        with pytest.raises(DomainError):
            envelope.AngleParam(beta)
    else:
        envelope.AngleParam(beta)


def test_scan_csv_contract(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["scan", "--from", "-0.95", "--to", "-0.55", "--count", "101",
         "--area", "1", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    text = out_path.read_text(encoding="ascii")
    lines = text.splitlines()
    assert len(lines) == 102
    assert lines[0] == "beta,log_det,d1,d2,asym_neg1,asym_neghalf"
    assert text.endswith("\n") and "\r" not in text

    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    betas = [r[0] for r in rows]
    log_dets = [r[1] for r in rows]
    i_star = min(range(len(betas)), key=lambda i: abs(betas[i] + 2.0 / 3.0))
    assert log_dets.index(min(log_dets)) == i_star


def test_scan_area_three_flip(tmp_path, capsys):
    out_path = tmp_path / "scan3.csv"
    code, _, _ = run_cli(
        ["scan", "--from", "-0.95", "--to", "-0.55", "--count", "101",
         "--area", "3", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = [
        [float(x) for x in line.split(",")]
        for line in out_path.read_text().splitlines()[1:]
    ]
    betas = [r[0] for r in rows]
    log_dets = [r[1] for r in rows]

    def nearest(target):
        return min(range(len(betas)), key=lambda i: abs(betas[i] - target))

    i_star = nearest(-2.0 / 3.0)
    assert log_dets[i_star] > log_dets[nearest(-0.75)]
    assert log_dets[i_star] > log_dets[nearest(-0.58)]


def test_scan_deterministic_output(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        code, _, _ = run_cli(
            ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "11",
             "--area", "1.5", "--out", str(p), "--exact-points"],
            capsys,
        )
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_exact_points_rows(tmp_path, capsys):
    base = tmp_path / "base.csv"
    extra = tmp_path / "extra.csv"
    args = ["scan", "--from", "-0.95", "--to", "-0.55", "--count", "21", "--area", "1"]
    assert run_cli(args + ["--out", str(base)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(extra), "--exact-points"], capsys)[0] == 0
    n_base = len(base.read_text().splitlines())
    n_extra = len(extra.read_text().splitlines())
    assert n_extra > n_base
    rows = {
        float(line.split(",")[0]): float(line.split(",")[1])
        for line in extra.read_text().splitlines()[1:]
    }
    assert abs(rows[-0.75] - CLOSED_M34) <= 1e-12


def test_scan_json_schema(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, _, _ = run_cli(
        ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "5",
         "--out", str(out_path), "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == "1"
    assert len(doc["rows"]) == 5
    assert set(doc["rows"][0]) == {"beta", "log_det", "d1", "d2", "asym_neg1", "asym_neghalf"}
    # round-trips losslessly
    again = json.loads(json.dumps(doc))
    assert again == doc


COLUMNS = ("beta", "log_det", "d1", "d2", "asym_neg1", "asym_neghalf")


def _table_rows(table):
    """The table as rows of plain floats, one per beta, in COLUMNS order."""
    columns = (table.beta, table.log_det, table.d1, table.d2,
               table.asymptotic_neg1, table.asymptotic_neghalf)
    return list(zip(*(c.tolist() for c in columns)))


def _reference_scan_text(rows, inputs, fmt):
    """The scan file as written before the row templates: an f-string per
    value joined per row, or json.dumps of the whole document."""
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        for row in rows:
            lines.append(",".join(f"{value:.17g}" for value in row))
        return "\n".join(lines) + "\n"
    doc = {
        "schema_version": "1",
        "command": "scan",
        "inputs": inputs,
        "rows": [dict(zip(COLUMNS, row)) for row in rows],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_writer_matches_reference(fmt, exact, tmp_path, capsys):
    out_path = tmp_path / f"scan.{fmt}"
    argv = ["scan", "--from", "-0.99", "--to", "-0.51", "--count", "301", "--area", "1.1",
            "--out", str(out_path), "--format", fmt] + (["--exact-points"] if exact else [])
    assert run_cli(argv, capsys)[0] == 0
    rows = _table_rows(envelope.scan(-0.99, -0.51, 301, 1.1, include_exact_points=exact))
    # "%r" of an np.float64 is not its json text: every value is a float
    assert all(type(value) is float for row in rows for value in row)
    inputs = {"beta_from": -0.99, "beta_to": -0.51, "count": 301, "area": 1.1,
              "exact_points": exact}
    expected = _reference_scan_text(rows, inputs, fmt).encode("ascii")
    assert out_path.read_bytes() == expected


# sha256 of scan files written by the per-value writers, before the templates
@pytest.mark.parametrize(
    "args,sha256",
    [
        (["--from", "-0.9999", "--to", "-0.5001", "--count", "20000", "--area", "3.7"],
         "2b8da2f35e15b797b266d4c3e555538de0a2969799a83dcb621e71ffdb9a9ca7"),
        (["--from", "-0.8", "--to", "-0.52", "--count", "5000", "--area", "0.13",
          "--format", "json"],
         "9eab8d62fb6d4c0594b01ef458fe30ca976e3bd0d1feefea10dc9edd500380f0"),
        (["--from", "-0.99", "--to", "-0.51", "--count", "2000", "--area", "1.1",
          "--exact-points"],
         "049fd0f87fc427b2760ac3090c15bbc45607b72e4a901801629dc1af1537bd21"),
        (["--from", "-0.99", "--to", "-0.51", "--count", "2000", "--area", "1.1",
          "--exact-points", "--format", "json"],
         "379bda65ff48d9e371c3d4ba22d640bdabb8073d2d035cd1e4e52379171f4600"),
    ],
    ids=["csv-20000", "json-5000", "csv-exact", "json-exact"],
)
def test_scan_file_sha256_is_pinned(args, sha256, tmp_path, capsys):
    out_path = tmp_path / "scan.out"
    assert run_cli(["scan", *args, "--out", str(out_path)], capsys)[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "log_det, d2, bad",
    [
        pytest.param((0.1, 0.1), (0.3, math.nan), math.nan, id="nan"),
        pytest.param((0.1, 0.1), (0.3, math.inf), math.inf, id="inf"),
        pytest.param((0.1, 0.1), (0.3, -math.inf), -math.inf, id="-inf"),
        # the earlier row holds the later column: json meets the inf first
        pytest.param((0.1, math.nan), (math.inf, 0.3), math.inf, id="inf-row0-d2-nan-row1"),
    ],
)
def test_scan_json_refuses_non_finite_rows(log_det, d2, bad, tmp_path, capsys, monkeypatch):
    def fake_scan(*args, **kwargs):
        return envelope.ScanTable(
            beta=np.array([-0.8, -0.7]), log_det=np.array(log_det), d1=np.array([0.2, 0.2]),
            d2=np.array(d2), asymptotic_neg1=np.array([0.4, 0.4]),
            asymptotic_neghalf=np.array([0.5, 0.5]), area=1.0,
        )

    monkeypatch.setattr(envelope, "scan", fake_scan)
    out_path = tmp_path / "scan.json"
    with pytest.raises(ValueError) as raised:
        main(["scan", "--from", "-0.8", "--to", "-0.7", "--count", "2",
              "--out", str(out_path), "--format", "json"])
    # the error the indenting json encoder raises, as for the whole document
    with pytest.raises(ValueError) as expected:
        json.dumps([bad], indent=2, allow_nan=False)
    assert str(raised.value) == str(expected.value)
    assert not out_path.exists()


def test_scan_io_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "scan.csv"
    code, _, err = run_cli(
        ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "5", "--out", str(missing)],
        capsys,
    )
    assert code == 4
    assert "error" in err


def test_scan_domain_error(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["scan", "--from", "-0.6", "--to", "-0.9", "--count", "5", "--out", str(out_path)],
        capsys,
    )
    assert code == 2
    code, _, _ = run_cli(
        ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "1", "--out", str(out_path)],
        capsys,
    )
    assert code == 2


def test_scan_count_beyond_the_doubles_in_range_exits_two(tmp_path, capsys):
    # 5 doubles lie in the range; 9 grid points would repeat betas
    out_path = tmp_path / "scan.csv"
    for extra in ([], ["--exact-points"]):
        code, _, err = run_cli(
            ["scan", "--from", "-0.75", "--to", "-0.7499999999999996", "--count", "9",
             "--out", str(out_path), *extra],
            capsys,
        )
        assert code == 2
        assert "exceeds the doubles" in err
        assert not out_path.exists()


def test_scan_count_above_cap_exits_two(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, err = run_cli(
        ["scan", "--from", "-0.9", "--to", "-0.6", "--count", str(10**6 + 1),
         "--out", str(out_path)],
        capsys,
    )
    assert code == 2
    assert "count" in err
    assert not out_path.exists()


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "fast"], capsys)
    assert code == 0
    assert "PASS critical_value " in out
    assert "FAIL" not in out
    assert "convexity_bound_positive" not in out  # fast skips the dense grid


def test_verify_json_diagnostics(capsys):
    code, out, _ = run_cli(["verify", "--suite", "fast", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["checks_failed"] == 0
    diags = {entry[0]: entry for entry in doc["diagnostics"]}
    assert abs(diags["critical_value"][2] - 0.0217) <= diags["critical_value"][3] == 1e-4
    assert diags["lemma_a1_3"][2] <= 1e-9
    for entry in doc["diagnostics"]:
        assert entry[1] == "pass"
        assert isinstance(entry[2], (int, float))
        assert isinstance(entry[3], (int, float))


def test_verify_failure_exits_one(capsys, monkeypatch):
    from envdet import verify as verify_mod

    def fake_suite(suite):
        return [verify_mod.CheckResult("stub_check", False, 1.0, 0.5)]

    monkeypatch.setattr(verify_mod, "run_suite", fake_suite)
    code, out, _ = run_cli(["verify", "--suite", "fast"], capsys)
    assert code == 1
    assert "FAIL stub_check" in out


def test_critical_classifications(capsys):
    code, out, _ = run_cli(["critical", "--area", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["classification"] == "minimum"
    assert abs(doc["results"]["beta_star"] + 2.0 / 3.0) <= 1e-15

    code, out, _ = run_cli(["critical", "--area", "3", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["classification"] == "maximum"

    s_star = envelope.critical_area()
    code, out, _ = run_cli(["critical", "--area", repr(s_star), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["classification"] == "degenerate"
    assert abs(doc["results"]["d2_at_area"]) <= 1e-6

    code, _, _ = run_cli(["critical", "--area", "-1"], capsys)
    assert code == 2


def test_quadrature_nonconvergence_exits_3(capsys, monkeypatch):
    message = "quadrature did not reach tolerance 1e-12 within 10 refinements"

    def fail(*args):
        raise QuadratureError(message)

    monkeypatch.setattr(barnes, "integrate_semi_infinite", fail)
    code, out, err = run_cli(["eval", "--beta", "-0.7", "--area", "1"], capsys)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_quad_tolerance_env_is_ignored(tmp_path, capsys, monkeypatch):
    # the tolerance is fixed: a value once read from ENVDET_QUAD_TOL, valid
    # or not, changes no exit code, no output and no scan file
    def outputs():
        runs = []
        out_path = tmp_path / "scan.csv"
        for argv in (
            ["eval", "--beta", "-0.7", "--area", "1"],
            ["eval", "--beta", "-0.7", "--format", "json"],
            ["critical", "--area", "3", "--format", "json"],
            ["scan", "--from", "-0.8", "--to", "-0.6", "--count", "5", "--out", str(out_path)],
            ["verify", "--suite", "fast"],
        ):
            code, out, _ = run_cli(argv, capsys)
            # criterion runtimes vary from run to run
            runs.append((code, [line for line in out.splitlines() if "_runtime " not in line]))
        runs.append(out_path.read_bytes())
        return runs

    monkeypatch.delenv("ENVDET_QUAD_TOL", raising=False)
    unset = outputs()
    assert [run[0] for run in unset[:-1]] == [0] * 5
    for raw in ("1e-6", "nan", "not-a-number"):
        monkeypatch.setenv("ENVDET_QUAD_TOL", raw)
        assert outputs() == unset, raw


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


_REPORT_KEYS = ["schema_version", "command", "inputs", "results", "diagnostics"]
# command line -> (inputs keys, results keys) of its JSON report
_REPORTS = {
    ("eval", "--beta", "-0.7", "--area", "2"): (
        ["beta", "area"],
        ["log_det", "elementary_part", "barnes_part", "area_term", "zeta0", "c_beta",
         "side_ab", "angle_a", "angle_b", "angle_c"],
    ),
    ("critical", "--area", "3"): (
        ["area"],
        ["beta_star", "log_det", "d2_unit_area", "d2_at_area", "critical_area",
         "classification"],
    ),
    ("verify", "--suite", "fast"): (["suite"], ["checks_total", "checks_failed"]),
}


@pytest.mark.parametrize("argv", list(_REPORTS), ids=lambda argv: argv[0])
def test_json_reports_parse_strictly(argv, capsys):
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    inputs, results = _REPORTS[argv]
    assert list(doc) == _REPORT_KEYS
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == argv[0]
    assert list(doc["inputs"]) == inputs
    assert list(doc["results"]) == results
    for name, status, measured, tolerance in doc["diagnostics"]:
        assert status == "pass", name
        assert all(type(x) in (int, float) for x in (measured, tolerance))
    assert bool(doc["diagnostics"]) == (argv[0] == "verify")


@pytest.mark.parametrize("exact", [False, True], ids=["grid", "exact-points"])
def test_json_scan_parses_strictly(exact, tmp_path, capsys):
    path = tmp_path / "scan.json"
    argv = ["scan", "--from", "-0.8", "--to", "-0.6", "--count", "7", "--area", "1.5",
            "--out", str(path), "--format", "json"] + ["--exact-points"] * exact
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(path.read_text(encoding="ascii"), parse_constant=_reject_constant)
    assert list(doc) == ["schema_version", "command", "inputs", "rows"]
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "scan"
    assert doc["inputs"] == {"beta_from": -0.8, "beta_to": -0.6, "count": 7, "area": 1.5,
                             "exact_points": exact}
    assert list(doc["inputs"]) == ["beta_from", "beta_to", "count", "area", "exact_points"]
    # [-0.8, -0.6] holds ten reduced fractions with denominator <= 12, four
    # of them (-4/5, -7/10, -2/3, -3/5) on the grid
    assert len(doc["rows"]) == (13 if exact else 7)
    for row in doc["rows"]:
        assert list(row) == ["beta", "log_det", "d1", "d2", "asym_neg1", "asym_neghalf"]
        assert all(type(x) is float for x in row.values())


# In-process sweep of the commands over the edges of their inputs: the
# endpoint slivers either side of envelope._EDGE, the endpoints themselves,
# NaN, and areas from signed zeros and subnormals up to the largest doubles.
_SWEEP_BETAS = [
    -1.0 + envelope._EDGE * (1.0 - 1e-9),
    -1.0 + envelope._EDGE * (1.0 + 1e-9),
    -0.999,
    envelope.BETA_CRITICAL,
    -0.5 - envelope._EDGE * (1.0 + 1e-9),
    -0.5 - envelope._EDGE * (1.0 - 1e-9),
    -1.0,
    -0.5,
    math.nan,
]
_SWEEP_AREAS = [0.0, -0.0, 5e-324, 2.5e-310, 1.0, 7.5, 1.7e308, math.inf, -math.inf, math.nan]
_NON_FINITE = re.compile(r"(?<![a-z_])(?:inf|nan)(?![a-z_])", re.IGNORECASE)


def _sweep(command, fmt, out):
    for area in _SWEEP_AREAS:
        if command == "critical":
            yield ["critical", f"--area={area!r}", f"--format={fmt}"]
            continue
        for beta in _SWEEP_BETAS:
            if command == "eval":
                yield ["eval", f"--beta={beta!r}", f"--area={area!r}", f"--format={fmt}"]
            else:
                lo, hi = (beta, -0.55) if beta < -0.6 else (-0.95, beta)
                yield ["scan", f"--from={lo!r}", f"--to={hi!r}", "--count=3",
                       f"--area={area!r}", f"--out={out}", f"--format={fmt}"]


@pytest.mark.parametrize(
    "command, fmt",
    [("eval", "text"), ("eval", "json"), ("critical", "text"), ("critical", "json"),
     ("scan", "csv"), ("scan", "json")],
)
def test_edge_inputs_exit_cleanly_with_finite_output(command, fmt, tmp_path, capsys):
    out = tmp_path / f"table.{fmt}"
    for argv in _sweep(command, fmt, out):
        out.unlink(missing_ok=True)
        code, stdout, err = run_cli(argv, capsys)
        assert code in (0, 2, 3), (argv, err)
        if code:
            assert err.startswith("error: ") and not stdout, argv
            continue
        texts = [stdout]
        if command == "scan":
            texts.append(out.read_text(encoding="ascii"))
        if fmt == "json":
            json.loads(texts.pop(), parse_constant=_reject_constant)
        for text in texts:
            assert not _NON_FINITE.search(text), (argv, text)


def _mix(*strategies):
    # st.one_of would flatten nested choices and weight each leaf alike
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


_E = envelope._EDGE
_DOUBLES = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, math.inf, -math.inf, math.nan]
))
_EDGE_BETAS = [-1.0 + _E * (1.0 + s * eps) for s in (-1.0, 1.0) for eps in (2.0**-52, 1e-9)]
_EDGE_BETAS += [-0.5 - _E * (1.0 + s * eps) for s in (-1.0, 1.0) for eps in (2.0**-52, 1e-9)]
_BETA_ARG = _mix(st.floats(-0.999, -0.501), st.sampled_from(_EDGE_BETAS), _DOUBLES).map(repr)
# (--from, --to): an increasing pair of betas half the time
_RANGE_ARG = _mix(st.tuples(st.floats(-0.999, -0.75), st.floats(-0.74, -0.501)).map(
    lambda pair: tuple(map(repr, pair))), st.tuples(_BETA_ARG, _BETA_ARG))
_AREA_ARG = _mix(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), _DOUBLES).map(repr)
# a count above 64 only where the count check refuses the scan before it is
# evaluated, so that no example evaluates a large grid
_COUNT_ARG = _mix(st.integers(2, 64), st.integers(-3, 64), st.integers(10**6 + 1, 10**30)).map(str)
# text that float() refuses, and for --count text that int() refuses too
_MALFORMED = st.sampled_from(["", "abc", "1e", "0x1p-3", "1.5.2", "1.5", "nan", "inf"])


def _or_malformed(strategy):
    return _mix(strategy, strategy, strategy, _MALFORMED)


def _run_in_process(argv):
    """``main(argv)``'s exit code, returned or raised by argparse, and its
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["eval", "scan", "critical"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_doubles_exit_cleanly_with_finite_output(command, data):
    # a temporary directory of its own, as hypothesis refuses function-scoped
    # fixtures such as tmp_path and capsys
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table"
        if command == "eval":
            fmt = data.draw(st.sampled_from(["text", "json"]))
            argv = ["eval", f"--beta={data.draw(_or_malformed(_BETA_ARG))}",
                    f"--area={data.draw(_or_malformed(_AREA_ARG))}"]
        elif command == "critical":
            fmt = data.draw(st.sampled_from(["text", "json"]))
            argv = ["critical", f"--area={data.draw(_or_malformed(_AREA_ARG))}"]
        else:
            fmt = data.draw(st.sampled_from(["csv", "json"]))
            beta_from, beta_to = data.draw(_RANGE_ARG)
            argv = ["scan", f"--from={beta_from}", f"--to={beta_to}",
                    f"--count={data.draw(_or_malformed(_COUNT_ARG))}",
                    f"--area={data.draw(_AREA_ARG)}", f"--out={out}"]
            argv += ["--exact-points"] * data.draw(st.booleans())
        code, stdout, err = _run_in_process([*argv, f"--format={fmt}"])
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err, argv
        if code:
            assert not stdout and err.startswith(("error: ", "usage: ")), (argv, err)
            return
        texts = [stdout.replace(str(out), "")]
        if command == "scan":
            texts.append(out.read_text(encoding="ascii"))
        if fmt == "json":
            json.loads(texts.pop(), parse_constant=_reject_constant)
        for text in texts:
            assert not _NON_FINITE.search(text), (argv, text)


def test_settings_are_constants(capsys):
    # the quadrature tolerance, the crossover, the refinement budget, the
    # exact-point denominator and the schema version are fixed where they
    # are used
    assert list(inspect.signature(barnes.f_kernel).parameters) == ["r", "derivative"]
    assert "max_denominator" not in inspect.signature(envelope.scan).parameters
    for info in pkgutil.iter_modules(envdet.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"envdet.{info.name}")
        assert "environ" not in inspect.getsource(module), info.name
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert not {"quad", "spec"} & set(inspect.signature(obj).parameters), name
    code, out, _ = run_cli(["eval", "--beta", "-0.75", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["schema_version", "command", "inputs", "results", "diagnostics"]
    assert doc["schema_version"] == SCHEMA_VERSION
