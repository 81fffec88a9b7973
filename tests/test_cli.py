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
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envdet
from envdet import barnes, cli, envelope
from envdet.cli import _CSV_ROW, SCHEMA_VERSION, main
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


# The CSV writer renders "%.17g" in numpy and falls back to _CSV_ROW for a row
# it cannot render exactly; its bytes must be _CSV_ROW's for every row.
_ORDINARY_ROW = (-0.7, 1.5, -2.25, 312500.0, 0.001, 12345.678)


def _first_difference(text: str, expected: str):
    """None if ``text`` is ``expected``, else the first line that differs: a
    short message for a file of many rows."""
    if text == expected:
        return None
    got, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    return next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w),
                (len(got), len(want)))


def _csv_mismatch(text: str, values):
    """None if ``text`` is _CSV_ROW's rendering of the rows ``values``, else
    the first row that differs."""
    expected = "".join(_CSV_ROW % tuple(row) for row in np.asarray(values).tolist())
    return _first_difference(text, expected)


def _csv_written(values, tmp_path, monkeypatch) -> str:
    """The rows ``envdet scan --format csv`` writes for a scan returning the
    ``(n, 6)`` array ``values``, with every warning an error."""
    values = np.asarray(values, dtype=float).reshape(-1, len(COLUMNS))

    def fake_scan(*args, **kwargs):
        return envelope.ScanTable(*values.T, area=1.0)

    monkeypatch.setattr(envelope, "scan", fake_scan)
    out_path = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", "--from", "-0.8", "--to", "-0.7", "--count", "2",
                     "--out", str(out_path)]) == 0
    header, _, rows = out_path.read_text(encoding="ascii").partition("\n")
    assert header == ",".join(COLUMNS)
    return rows


def _each_column(specials):
    """One row per special value and column, the other columns ordinary."""
    rows = []
    for value in specials:
        for column in range(len(COLUMNS)):
            row = list(_ORDINARY_ROW)
            row[column] = value
            rows.append(row)
    return np.array(rows)


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


_TINIEST = 5e-324
_POWERS_OF_TEN = [float(f"1e{k}") for k in range(-5, 18)]
_CSV_EDGES = {
    "zeros-subnormals-non-finite": [0.0, -0.0, _TINIEST, -_TINIEST, 2.5e-310, math.inf,
                                    -math.inf, math.nan, 1.7e308, -1.7e308],
    "fixed-range-ends": _neighbours([1e-4, -1e-4, 1e17, -1e17]),
    "powers-of-ten": _neighbours(_POWERS_OF_TEN + [-x for x in _POWERS_OF_TEN]),
    "integers-above-2**53": [2.0**53, 2.0**53 + 2, 1e16 + 2, 99999999999999984.0,
                             -(2.0**54 + 4), 12345678901234568.0],
}


@pytest.mark.parametrize("specials", list(_CSV_EDGES.values()), ids=list(_CSV_EDGES))
def test_csv_writer_edges_match_the_row_template(specials, tmp_path, monkeypatch):
    values = _each_column(specials)
    assert _csv_mismatch(_csv_written(values, tmp_path, monkeypatch), values) is None


def _ties(k: int, count: int, rng, digits: int = 17) -> np.ndarray:
    """``count`` doubles ``m 2**-(digits - k)``, odd ``m < 2**53``, in
    [10**k, 10**(k + 1)): x 10**(digits - 1 - k) is an odd multiple of 1/2, so
    rounding to ``digits`` significant digits is a tie."""
    lo = math.ceil(10.0**k * 2.0 ** (digits - k))
    hi = min(math.floor(10.0 ** (k + 1) * 2.0 ** (digits - k)), 2**53)
    m = rng.integers(lo // 2, hi // 2, count) * 2 + 1
    return m * 2.0 ** -(digits - k)


def test_csv_writer_rounds_ties_to_even(tmp_path, monkeypatch):
    rng = np.random.default_rng(30)
    values = np.concatenate([_ties(k, 402, rng) for k in range(-4, 16)])
    values *= rng.choice([-1.0, 1.0], values.size)
    for x in values[::97].tolist():
        k = math.floor(math.log10(abs(x)))
        assert (Fraction(abs(x)) * 10 ** (16 - k)).denominator == 2, x
    written = _csv_written(values, tmp_path, monkeypatch)
    assert _csv_mismatch(written, values.reshape(-1, 6)) is None


def _scan_like(count: int, rng) -> np.ndarray:
    """Rows spread over the fixed range of "%.17g" and either sign."""
    return rng.choice([-1.0, 1.0], (count, 6)) * 10.0 ** rng.uniform(-4.0, 17.0, (count, 6))


@pytest.mark.parametrize("count", [1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1])
def test_csv_writer_blocks(count):
    values = _scan_like(count, np.random.default_rng(count))
    pieces = list(cli._csv_rows(values))
    assert len(pieces) == -(-count // cli._BLOCK)
    assert _csv_mismatch("".join(pieces), values) is None


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_csv_writer_refuses_a_log10_off_by_one(error, monkeypatch):
    # every exponent one off: the exact product then lies outside [1e16, 1e17)
    # and _CSV_ROW renders every row
    values = np.concatenate([_scan_like(500, np.random.default_rng(32)),
                             _each_column(_neighbours(_POWERS_OF_TEN))])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    assert not cli._fields(values.ravel(), False)[1].reshape(-1, 6).all(axis=1).any()
    assert _csv_mismatch("".join(cli._csv_rows(values)), values) is None


def test_csv_writer_python_rows_at_block_edges(tmp_path, monkeypatch):
    # rows _CSV_ROW renders first and last in a block, first in the next and
    # inside one, over the 20000 rows of the benchmark's scans
    values = _scan_like(20000, np.random.default_rng(31))
    block = cli._BLOCK
    for row, value in zip([0, block - 1, block, 2 * block + 7, 19999],
                          [math.nan, 0.0, _TINIEST, -math.inf, 1e300]):
        values[row, row % 6] = value
    assert _csv_mismatch(_csv_written(values, tmp_path, monkeypatch), values) is None


# any double, two times in three from the fixed range of "%.17g"
_CSV_FIELD = st.one_of(st.floats(), st.floats(1e-4, 1e17), st.floats(-1e17, -1e-4))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(*[_CSV_FIELD] * 6), min_size=1, max_size=8))
def test_csv_writer_matches_the_row_template_on_any_floats(rows):
    values = np.array(rows, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = "".join(cli._csv_rows(values))
    assert _csv_mismatch(text, values) is None


# The JSON writer renders repr's shortest digits in numpy and falls back to
# _JSON_ROW for a row it cannot render exactly; its bytes must be _JSON_ROW's
# for every row.
_JSON_INPUTS = {"beta_from": -0.8, "beta_to": -0.7, "count": 2, "area": 1.0,
                "exact_points": False}


def _json_text(values) -> str:
    """The scan file of the rows ``values`` by _JSON_ROW: json's head for
    _JSON_INPUTS, the rows joined by a comma and a newline, json's tail."""
    doc = {"schema_version": "1", "command": "scan", "inputs": _JSON_INPUTS, "rows": None}
    head = json.dumps(doc, indent=2)[: -len("null\n}")]
    rows = ",\n".join(cli._JSON_ROW % tuple(row) for row in np.asarray(values).tolist())
    return head + "[\n" + rows + "\n  ]\n}\n"


def _json_mismatch(values, tmp_path, monkeypatch):
    """None if ``envdet scan --format json`` writes _json_text(values) for a
    scan returning the ``(n, 6)`` array ``values``, with every warning an
    error; else the first line that differs."""
    values = np.asarray(values, dtype=float).reshape(-1, len(COLUMNS))

    def fake_scan(*args, **kwargs):
        return envelope.ScanTable(*values.T, area=1.0)

    monkeypatch.setattr(envelope, "scan", fake_scan)
    out_path = tmp_path / "scan.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scan", "--from", "-0.8", "--to", "-0.7", "--count", "2",
                     "--out", str(out_path), "--format", "json"]) == 0
    return _first_difference(out_path.read_text(encoding="ascii"), _json_text(values))


_POWERS_OF_TWO = [2.0**j for j in range(-15, 56)]
_JSON_EDGES = {
    "zeros-subnormals-huge": [0.0, -0.0, _TINIEST, -_TINIEST, 2.5e-310, 1.7e308, -1.7e308],
    "fixed-range-ends": _neighbours([1e-4, -1e-4, 1e16, -1e16]),
    "powers-of-ten": _neighbours(_POWERS_OF_TEN + [-x for x in _POWERS_OF_TEN]),
    "powers-of-two": _neighbours(_POWERS_OF_TWO + [-x for x in _POWERS_OF_TWO]),
    "integers": [1.0, -3.0, 312500.0, 2.0**52 - 1, 2.0**52 + 1, 2.0**53, 2.0**53 + 2,
                 1e15 + 1, -9999999999999998.0, 12345678901234568.0],
}


@pytest.mark.parametrize("specials", list(_JSON_EDGES.values()), ids=list(_JSON_EDGES))
def test_json_writer_edges_match_the_row_template(specials, tmp_path, monkeypatch):
    assert _json_mismatch(_each_column(specials), tmp_path, monkeypatch) is None


def _significant_digits(x: float) -> int:
    """How many significant digits repr writes for ``x`` in fixed notation."""
    return len(repr(abs(x)).replace(".", "").strip("0"))


def test_json_writer_rounds_ties_to_even(tmp_path, monkeypatch):
    # ties at 15, 16 and 17 digits; at 16 both neighbours of some ties read
    # back to x, and repr takes the even one
    rng = np.random.default_rng(31)
    ties = {digits: np.concatenate([_ties(k, 60, rng, digits)
                                    for k in range(-4, min(16, digits))])
            for digits in (15, 16, 17)}
    for digits, values in ties.items():
        for x in values[::37].tolist():
            k = math.floor(math.log10(x))
            assert (Fraction(x) * 10 ** (digits - 1 - k)).denominator == 2, (digits, x)
    assert any(_significant_digits(x) == 16 for x in ties[16].tolist())
    values = np.concatenate(list(ties.values()))
    values *= rng.choice([-1.0, 1.0], values.size)
    assert _json_mismatch(values, tmp_path, monkeypatch) is None


def test_json_writer_prints_every_length_of_shortest_digits(tmp_path, monkeypatch):
    # for each n from 1 to 17, non-integers whose repr has n significant digits
    rng = np.random.default_rng(33)
    found = {n: [] for n in range(1, 18)}
    for n, values in found.items():
        while len(values) < 42:
            mantissa = int(rng.integers(10 ** (n - 1), 10**n))
            x = float(f"{mantissa}e{int(rng.integers(-4, 16)) - n + 1}")
            if x != math.floor(x) and 1e-4 <= x < 1e16 and _significant_digits(x) == n:
                values.append(x if rng.integers(2) else -x)
    values = np.concatenate([found[n] for n in found])
    assert _json_mismatch(values, tmp_path, monkeypatch) is None


def _json_like(count: int, rng) -> np.ndarray:
    """Rows spread over the fixed range of repr and either sign."""
    return rng.choice([-1.0, 1.0], (count, 6)) * 10.0 ** rng.uniform(-4.0, 16.0, (count, 6))


@pytest.mark.parametrize("count", [1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1])
def test_json_writer_blocks(count):
    values = _json_like(count, np.random.default_rng(count))
    pieces = list(cli._scan_json(_JSON_INPUTS, values))
    assert len(pieces) == 2 + -(-count // cli._BLOCK)  # the head and the tail
    assert _first_difference("".join(pieces), _json_text(values)) is None


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_json_writer_refuses_a_log10_off_by_one(error, monkeypatch):
    # every exponent one off: the exact product then lies outside [1e16, 1e17)
    # and _JSON_ROW renders every row
    values = np.concatenate([_json_like(500, np.random.default_rng(34)),
                             _each_column(_neighbours(_POWERS_OF_TEN))])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    assert not cli._fields(values.ravel(), True)[1].reshape(-1, 6).all(axis=1).any()
    text = "".join(cli._scan_json(_JSON_INPUTS, values))
    assert _first_difference(text, _json_text(values)) is None


def test_json_writer_python_rows_at_block_edges(tmp_path, monkeypatch):
    # rows _JSON_ROW renders first and last in a block, first in the next and
    # inside one, over the 20000 rows of the benchmark's scans
    values = _json_like(20000, np.random.default_rng(35))
    block = cli._BLOCK
    for row, value in zip([0, block - 1, block, 2 * block + 7, 19999],
                          [0.0, 3.0, 1e-5, -1e16, 2.0**60]):
        values[row, row % 6] = value
    assert _json_mismatch(values, tmp_path, monkeypatch) is None


@pytest.mark.parametrize(
    "args, shortest, count",
    [((-0.8, -0.52, 5000, 0.13, False), True, 0), ((-0.99, -0.51, 2000, 1.1, True), True, 3),
     ((-0.9999, -0.5001, 20000, 3.7, False), False, 13),
     ((-0.99, -0.51, 2000, 1.1, True), False, 3)],
    ids=["json-5000", "json-exact", "csv-20000", "csv-exact"],
)
def test_json_writer_leaves_python_only_exponent_or_integer_rows(args, shortest, count):
    # on the inputs of the pinned hashes, _JSON_ROW renders exactly the rows
    # holding a value repr writes in exponent notation or with ".0", and
    # _CSV_ROW those holding a value outside [1e-4, 1e17) or a non-finite one;
    # a value of 15 digits or fewer is not among them
    table = envelope.scan(*args[:4], include_exact_points=args[4])
    values = np.array(_table_rows(table))
    by_python = ~cli._fields(values.ravel(), shortest)[1].reshape(values.shape).all(axis=1)
    a = np.abs(values)
    if shortest:
        expected = ((a < 1e-4) | (a >= 1e16) | (values == np.floor(values))).any(axis=1)
    else:
        expected = ~((a >= 1e-4) & (a < 1e17)).all(axis=1)  # NaN fails both
    assert np.array_equal(by_python, expected)
    assert by_python.sum() == count


def test_no_rounding_boundary_in_the_numpy_range_is_a_short_decimal():
    # The writer's test |D_n - D - rho| < h has no rule for a decimal on the
    # boundary of x's rounding interval, x +- half an ulp, which reads back to
    # x only if x's significand is even.  None lies there: for a non-integer
    # double x with 1e-4 <= |x| < 1e16, h = half an ulp of x times 10**p,
    # p = 16 - k, is not an integer, so x +- half an ulp is no decimal of 17
    # significant digits or fewer.
    for k in range(-4, 16):
        for e in range(-15, 52):  # [2**e, 2**(e + 1)) holds non-integers
            if Fraction(2) ** (e + 1) <= Fraction(10) ** k or 2**e >= Fraction(10) ** (k + 1):
                continue
            assert (Fraction(2) ** (e - 53) * 10 ** (16 - k)).denominator > 1, (k, e)


_SHORT = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 10**17), st.integers(-21, 15))
# any finite double, a value in the fixed range of repr or a short decimal
_JSON_FIELD = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(1e-4, 1e16), st.floats(-1e16, -1e-4), _SHORT)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(*[_JSON_FIELD] * 6), min_size=1, max_size=8))
def test_json_writer_matches_the_row_template_on_any_floats(rows):
    values = np.array(rows, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = "".join(cli._scan_json(_JSON_INPUTS, values))
    assert _first_difference(text, _json_text(values)) is None


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


@pytest.mark.parametrize(
    "lo,hi,message",
    [(-0.6, -0.9, "need beta_min < beta_max, got [-0.6, -0.9]"),
     (-0.7, -0.7, "need beta_min < beta_max, got [-0.7, -0.7]"),
     (-1.2, -0.6, "beta must lie in the open interval (-1, -1/2)"),
     (-0.9, -0.4, "beta must lie in the open interval (-1, -1/2)")],
    ids=["reversed", "equal", "low-end-outside", "high-end-outside"],
)
def test_one_beta_range_gate(lo, hi, message, tmp_path, capsys):
    # scan, refine_minimum and envdet scan refuse a range with one message
    for call in (lambda: envelope.scan(lo, hi, 5), lambda: envelope.refine_minimum(lo, hi)):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message
    out_path = tmp_path / "scan.csv"
    argv = ["scan", f"--from={lo!r}", f"--to={hi!r}", "--count", "5", "--out", str(out_path)]
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


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


def test_verify_full_diagnostics_sha256_is_pinned(capsys):
    # every check's name, verdict, measured value and tolerance, bit for bit;
    # the runtime rows are left out, as their times differ from run to run
    code, out, _ = run_cli(["verify", "--suite", "full", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    doc["diagnostics"] = [d for d in doc["diagnostics"] if not d[0].endswith("_runtime")]
    assert len(doc["diagnostics"]) == 22
    digest = hashlib.sha256(json.dumps(doc, indent=2).encode("ascii")).hexdigest()
    assert digest == "230ca3371e799877aadaf22ec144cbde47bf748174e351614ef5b559706d0556"


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


# sha256 of the JSON report on stdout: the key checks above pass whatever the
# values, and these fail on a change in the last bit of any of them
_REPORT_SHA256 = {
    ("eval", "--beta=-0.999", "--area", "1"):
        "560f191dec7c4e3dcb32d439fc20e911e53acdebb7d6f437f3174fd2583bcd26",
    ("eval", "--beta=-0.999", "--area", "3"):
        "31a116572f9088522805ede6f6d1a0d2bafc1294b2e0c4323f24a7cfacf65e20",
    ("eval", "--beta=-0.75", "--area", "1"):
        "772d4685d4507fc7f01fdb6668c629c1584f9ba5c3f534f3210e646612da0cec",
    ("eval", "--beta=-0.75", "--area", "3"):
        "81655d34e17ffb1ad62c71fab90e907c89aec1d4dba43e92245f2e4d62a9261d",
    ("eval", "--beta=-0.6666666666666666", "--area", "1"):
        "17033d5d92ae7a2bf827e1b29b2f71447350ce7fa6d266006121333be35f912a",
    ("eval", "--beta=-0.6666666666666666", "--area", "3"):
        "90f15ec76dd5dd3ec64a27a8b5fef1f5bdb2535b90c676b4172752670dafcb1c",
    ("eval", "--beta=-0.51", "--area", "1"):
        "fabce004a6d44e02702728ed3b4d936816987a5c68a2c7fea17d849657423868",
    ("eval", "--beta=-0.51", "--area", "3"):
        "2e21630f60ce624fbec73736c3b73307df21d7c9bd99a8815402d17f461e4749",
    ("critical", "--area", "0.5"):
        "82d794b9650d853d502f8c5846c0b5c3ba691f0d9b455d30a6ad87fc8ed07740",
    ("critical", "--area", "1"):
        "f1695f8793d67fa71f6ca30ceba736f0aacbb02c0d51f68ff93d3225500f14f0",
    ("critical", "--area", "3"):
        "939fa7568d442eb571c856289874214c72af33c9cd4c44f431db1072c5c8b8a8",
    # the area shift at the ends of the doubles: d2_at_area is 18668.55 at
    # 1e-300 and -18633.33 at 1e300
    ("eval", "--beta=-0.75", "--area", "1e-300"):
        "2cec07382f24354ef7159df6cccc114bfd8160ab29bcecf81b7cdb334d302ffc",
    ("eval", "--beta=-0.75", "--area", "1e300"):
        "d4e3ca5d57a409362a9b7c270be10b9c09839392dd2067e5767150121fb35aab",
    ("critical", "--area", "1e-300"):
        "49409252659ad9fafb65ad6d7a69057483c09ccd3d2724dc27163996735de7ad",
    ("critical", "--area", "1e300"):
        "2bbeb2b32292f73abf90c6cadd7479934fa72ac38f8378795305d1f0ead7ec9d",
}


@pytest.mark.parametrize("argv", list(_REPORT_SHA256), ids=" ".join)
def test_json_report_sha256_is_pinned(argv, capsys):
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == _REPORT_SHA256[argv]


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


# eval, scan with and without exact points, verify, critical, an argparse
# error, a domain error and a help text, in one process; scan paths are
# relative, so that two working directories get the same stdout
_PARSER_CALLS = [
    ["eval", "--beta", "-0.7", "--area", "2", "--format", "json"],
    ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "7", "--out", "scan.csv"],
    ["verify", "--suite", "fast"],
    ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "7", "--out", "scan.json",
     "--format", "json", "--exact-points"],
    ["eval", "--beta", "-0.7", "--bogus", "1"],
    ["critical", "--area", "3"],
    ["scan", "--from", "-0.9", "--to", "-0.6", "--count", "7", "--out", "scan.csv",
     "--exact-points"],
    ["eval", "--beta", "-0.4"],
    ["verify", "--help"],
    ["critical", "--area", "1", "--format", "json"],
    ["eval", "--beta", "-0.75"],
]


def test_the_cached_parser_gives_the_bytes_of_a_fresh_one(tmp_path, capsys, monkeypatch):
    fresh_parser = cli._build_parser.__wrapped__  # builds a new parser each call
    runs = {"cached": [], "fresh": []}
    for argv in _PARSER_CALLS:
        for mode, runs_of_mode in runs.items():
            workdir = tmp_path / mode
            workdir.mkdir(exist_ok=True)
            with monkeypatch.context() as patch:
                patch.chdir(workdir)
                if mode == "fresh":
                    patch.setattr(cli, "_build_parser", fresh_parser)
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's error and help exits
                    code = f"SystemExit({exc.code})"
                captured = capsys.readouterr()
                files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
            # criterion runtimes vary from run to run
            out = [line for line in captured.out.splitlines() if "_runtime " not in line]
            runs_of_mode.append((argv, code, out, captured.err, files))
    assert runs["cached"] == runs["fresh"]
    assert [run[1] for run in runs["cached"]] == [
        0, 0, 0, 0, "SystemExit(2)", 0, 0, 2, "SystemExit(0)", 0, 0]
    assert sorted(runs["cached"][-1][4]) == ["scan.csv", "scan.json"]
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().currsize == 1


def test_the_cached_parser_runs_a_replaced_command(capsys, monkeypatch):
    assert main(["eval", "--beta", "-0.7"]) == 0  # the parser is built by now
    calls = []
    for name in ("_cmd_eval", "_cmd_critical"):
        monkeypatch.setattr(cli, name, lambda args, name=name: calls.append(name) or 7)
    assert main(["eval", "--beta", "-0.6"]) == 7
    assert main(["critical"]) == 7
    assert calls == ["_cmd_eval", "_cmd_critical"]
    monkeypatch.undo()
    assert main(["eval", "--beta", "-0.6"]) == 0
    assert "log_det" in capsys.readouterr().out
