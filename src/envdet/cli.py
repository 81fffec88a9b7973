"""Command line surface: ``eval``, ``scan``, ``verify`` and ``critical``.

Exit codes: 0 success, 1 verification failure, 2 domain error, 3 quadrature
non-convergence, 4 I/O failure.  Machine formats are deterministic: repeated
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from . import envelope, verify
from .specfun import DomainError, QuadratureError, QuadratureSpec

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_QUADRATURE = 3
EXIT_IO = 4

Diagnostic = Tuple[str, bool, float, float]


@dataclass
class OutputRecord:
    """Envelope for everything the CLI reports on stdout."""

    command: str
    inputs: Dict[str, Any]
    results: Dict[str, Any]
    diagnostics: List[Diagnostic] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "diagnostics": [
                [name, "pass" if ok else "fail", measured, tolerance]
                for name, ok, measured, tolerance in self.diagnostics
            ],
        }


def _fmt6(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_text(record: OutputRecord) -> str:
    lines = [f"command: {record.command}"]
    for key, value in record.inputs.items():
        lines.append(f"  {key}: {_fmt6(value)}")
    for key, value in record.results.items():
        lines.append(f"{key}: {_fmt6(value)}")
    for name, ok, measured, tolerance in record.diagnostics:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name} measured={measured:.6g} tolerance={tolerance:.6g}")
    return "\n".join(lines) + "\n"


def _emit(record: OutputRecord, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(record.to_dict(), indent=2, allow_nan=False) + "\n")
    else:
        sys.stdout.write(_render_text(record))


def _quad_from_env() -> QuadratureSpec:
    raw = os.environ.get("ENVDET_QUAD_TOL")
    if raw is None:
        return QuadratureSpec()
    try:
        tol = float(raw)
    except ValueError as exc:
        raise DomainError(f"ENVDET_QUAD_TOL is not a number: {raw!r}") from exc
    return QuadratureSpec(abs_tol=tol, rel_tol=tol)


def _cmd_eval(args: argparse.Namespace, quad: QuadratureSpec) -> int:
    p = envelope.AngleParam(args.beta)
    det = envelope.log_det_area(p, args.area, quad=quad)
    geo = envelope.geometry(p, args.area)
    record = OutputRecord(
        command="eval",
        inputs={"beta": args.beta, "area": args.area},
        results={
            "log_det": det.log_det,
            "elementary_part": det.elementary_part,
            "barnes_part": det.barnes_part,
            "area_term": det.area_term,
            "zeta0": envelope.zeta0(p),
            "c_beta": envelope.scaling_factor(p),
            "side_ab": geo.side_ab,
            "angle_a": geo.angle_a,
            "angle_b": geo.angle_b,
            "angle_c": geo.angle_c,
        },
    )
    _emit(record, args.format)
    return EXIT_OK


_SCAN_COLUMNS = ("beta", "log_det", "d1", "d2", "asym_neg1", "asym_neghalf")


def _cmd_scan(args: argparse.Namespace, quad: QuadratureSpec) -> int:
    table = envelope.scan(
        args.beta_from,
        args.beta_to,
        args.count,
        args.area,
        quad=quad,
        include_exact_points=args.exact_points,
    )
    if args.format == "csv":
        lines = [",".join(_SCAN_COLUMNS)]
        for row in table.rows:
            lines.append(",".join(f"{value:.17g}" for value in row))
        payload = "\n".join(lines) + "\n"
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "scan",
            "inputs": {
                "beta_from": args.beta_from,
                "beta_to": args.beta_to,
                "count": args.count,
                "area": args.area,
                "exact_points": bool(args.exact_points),
            },
            "rows": [dict(zip(_SCAN_COLUMNS, row)) for row in table.rows],
        }
        payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(args.out, "w", encoding="ascii", newline="") as handle:
        handle.write(payload)
    sys.stdout.write(f"wrote {len(table.rows)} rows to {args.out}\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, quad: QuadratureSpec) -> int:
    checks = verify.run_suite(args.suite, quad)
    failed = sum(1 for c in checks if not c.passed)
    record = OutputRecord(
        command="verify",
        inputs={"suite": args.suite},
        results={"checks_total": len(checks), "checks_failed": failed},
        diagnostics=[(c.name, c.passed, c.measured, c.tolerance) for c in checks],
    )
    _emit(record, args.format)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_critical(args: argparse.Namespace, quad: QuadratureSpec) -> int:
    p = envelope.AngleParam.from_fraction(Fraction(-2, 3))
    det = envelope.log_det_area(p, args.area, route="rational")
    d2_unit = envelope.d2_log_det(p, quad)
    d2_at_area = d2_unit - envelope.d2_zeta0(p) * math.log(args.area)
    if abs(d2_at_area) <= 1e-6:
        classification = "degenerate"
    elif d2_at_area > 0.0:
        classification = "minimum"
    else:
        classification = "maximum"
    record = OutputRecord(
        command="critical",
        inputs={"area": args.area},
        results={
            "beta_star": envelope.BETA_CRITICAL,
            "log_det": det.log_det,
            "d2_unit_area": d2_unit,
            "d2_at_area": d2_at_area,
            "critical_area": envelope.critical_area(quad),
            "classification": classification,
        },
    )
    _emit(record, args.format)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envdet",
        description=(
            "Spectral determinant of the Friederichs Laplacian on isosceles "
            "triangle envelopes as a function of angle and area."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate log det at one (beta, area)")
    p_eval.add_argument("--beta", type=float, required=True)
    p_eval.add_argument("--area", type=float, default=1.0)
    p_eval.add_argument("--format", choices=("json", "text"), default="text")
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="tabulate a uniform beta grid to a file")
    p_scan.add_argument("--from", dest="beta_from", type=float, required=True)
    p_scan.add_argument("--to", dest="beta_to", type=float, required=True)
    p_scan.add_argument("--count", type=int, required=True)
    p_scan.add_argument("--area", type=float, default=1.0)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument(
        "--exact-points",
        action="store_true",
        help="add rows at rational beta evaluated through the exact closed form",
    )
    p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_crit = sub.add_parser("critical", help="report the equilateral critical point")
    p_crit.add_argument("--area", type=float, default=1.0)
    p_crit.add_argument("--format", choices=("json", "text"), default="text")
    p_crit.set_defaults(func=_cmd_critical)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        quad = _quad_from_env()
        return args.func(args, quad)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
