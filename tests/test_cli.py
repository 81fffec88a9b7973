import json

import pytest

from envdet import envelope
from envdet.cli import main
from envdet.specfun import DomainError

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

    def fake_suite(suite, quad):
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


def test_quad_tolerance_env_nonconvergence(capsys, monkeypatch):
    monkeypatch.setenv("ENVDET_QUAD_TOL", "1e-30")
    code, _, err = run_cli(["eval", "--beta", "-0.7", "--area", "1"], capsys)
    assert code == 3
    assert "error" in err


def test_quad_tolerance_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("ENVDET_QUAD_TOL", "not-a-number")
    code, _, _ = run_cli(["eval", "--beta", "-0.7", "--area", "1"], capsys)
    assert code == 2


def test_quad_tolerance_env_loose_still_works(capsys, monkeypatch):
    monkeypatch.setenv("ENVDET_QUAD_TOL", "1e-6")
    code, out, _ = run_cli(["eval", "--beta", "-0.6666666666666666"], capsys)
    assert code == 0
    assert "log_det: 0.02169" in out

