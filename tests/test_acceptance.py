"""Acceptance gate: the nine numbered verification criteria, each at its
pinned tolerance and wall-clock budget.  Run with ``pytest -s`` to see one
PASS/FAIL line per check."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from envdet import barnes, verify
from envdet.cli import main

CRITERION_LABELS = {
    1: "critical value at the equilateral point",
    2: "special values at -3/4 and -5/6",
    3: "criticality of the equilateral point",
    4: "second derivative and area threshold",
    5: "convexity chain on the dense grid",
    6: "three-route Barnes agreement and series certificate",
    7: "asymptotic residual orders at both endpoints",
    8: "Dedekind reciprocity, exact",
    9: "rescaling identity and minimum/maximum flip",
}


@pytest.mark.parametrize("number", sorted(verify.CRITERIA))
def test_criterion(number):
    checks, elapsed = verify.run_criterion(number)
    budget = verify.CRITERIA[number][1]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"ACCEPTANCE {number} ({CRITERION_LABELS[number]}) {check.name}: {status} "
            f"measured={check.measured:.6g} tolerance={check.tolerance:.6g}"
        )
    print(
        f"ACCEPTANCE {number} runtime: {'PASS' if elapsed < budget else 'FAIL'} "
        f"measured={elapsed:.3f}s budget={budget:g}s"
    )
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"criterion {number} failed checks: {failed}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:g}s budget"


def test_full_suite_through_cli(capsys):
    assert main(["verify", "--suite", "full"]) == 0
    out = capsys.readouterr().out
    assert "checks_failed: 0" in out


def test_critical_value_compares_with_the_quoted_reference(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_M23", 0.1)
    checks, _ = verify.run_criterion(1)
    assert not next(c for c in checks if c.name == "critical_value").passed


def test_dedekind_reciprocity_catches_a_wrong_dedekind_sum(monkeypatch):
    # criterion 8 calls dedekind_sum through the module attribute, so a
    # replaced one is what it checks
    right = barnes.dedekind_sum
    monkeypatch.setattr(barnes, "dedekind_sum", lambda q, p: right(q, p) + Fraction(1, p))
    (check,), _ = verify.run_criterion(8)
    assert check.name == "dedekind_reciprocity"
    assert not check.passed and check.measured > 0.0


def test_dedekind_reciprocity_takes_each_unordered_pair_once(monkeypatch):
    calls = []
    right = barnes.dedekind_sum

    def counted(q, p):
        calls.append((q, p))
        return right(q, p)

    monkeypatch.setattr(barnes, "dedekind_sum", counted)
    (check,), _ = verify.run_criterion(8)
    assert check.passed
    pairs = [(q, p) for p in range(1, 31) for q in range(1, p + 1) if math.gcd(p, q) == 1]
    # S(q, p) and S(p, q), two calls per unordered coprime pair
    assert sorted(calls) == sorted(pairs + [(p, q) for q, p in pairs])
    assert len(calls) == 2 * len(pairs) == 556


def test_every_check_holds_a_bool_and_a_float():
    # numpy scalars would break json.dumps of the checks (numpy.bool is no bool)
    checks = verify.run_suite("full")
    assert all(type(c.passed) is bool and type(c.measured) is float for c in checks)
    json.dumps([dataclasses.asdict(c) for c in checks], allow_nan=False)
