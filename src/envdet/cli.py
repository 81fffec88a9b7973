"""Command line surface: ``eval``, ``scan``, ``verify`` and ``critical``.

Exit codes: 0 success, 1 verification failure, 2 domain error, 3 quadrature
non-convergence, 4 I/O failure.  Machine formats are deterministic: repeated
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

import numpy as np

from . import envelope, verify
from .specfun import DomainError, QuadratureError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_QUADRATURE = 3
EXIT_IO = 4


def _fmt6(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(
    fmt: str, command: str, inputs: Dict[str, Any], results: Dict[str, Any], diagnostics=()
) -> None:
    """Write one command's report to stdout; ``diagnostics`` holds
    ``(name, passed, measured, tolerance)`` tuples."""
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "results": results,
            "diagnostics": [
                [name, "pass" if ok else "fail", measured, tolerance]
                for name, ok, measured, tolerance in diagnostics
            ],
        }
        sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        return
    lines = [f"command: {command}"]
    lines += [f"  {key}: {_fmt6(value)}" for key, value in inputs.items()]
    lines += [f"{key}: {_fmt6(value)}" for key, value in results.items()]
    for name, ok, measured, tolerance in diagnostics:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name} measured={measured:.6g} tolerance={tolerance:.6g}")
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_eval(args: argparse.Namespace) -> int:
    p = envelope.AngleParam(args.beta)
    det = envelope.log_det_area(p, args.area)
    geo = envelope.geometry(p, args.area)
    _emit(
        args.format,
        "eval",
        {"beta": args.beta, "area": args.area},
        {
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
    return EXIT_OK


_SCAN_COLUMNS = ("beta", "log_det", "d1", "d2", "asym_neg1", "asym_neghalf")
# One template per row.  "%r" is float.__repr__, exactly what json writes for
# a float, and _JSON_ROW is the layout json.dumps(indent=2) gives a row.
_CSV_ROW = ",".join(["%.17g"] * len(_SCAN_COLUMNS)) + "\n"
_JSON_ROW = "    {\n" + ",\n".join(f'      "{c}": %r' for c in _SCAN_COLUMNS) + "\n    }"


def _scan_json(inputs: Dict[str, Any], columns, rows):
    """The text json.dumps(doc, indent=2, allow_nan=False) gives the scan
    document, as the pieces to write in order, with the rows rendered from
    _JSON_ROW: with an indent json runs its pure-Python encoder, several
    times slower on a large scan."""
    doc = {"schema_version": SCHEMA_VERSION, "command": "scan", "inputs": inputs, "rows": None}
    head = json.dumps(doc, indent=2, allow_nan=False)[: -len("null\n}")]
    values = np.column_stack(columns)
    bad = values[~np.isfinite(values)]  # in row order, as json meets them
    if bad.size:
        raise ValueError(f"Out of range float values are not JSON compliant: {float(bad[0])!r}")
    return head + "[\n", ",\n".join([_JSON_ROW % row for row in rows]), "\n  ]\n}\n"


def _cmd_scan(args: argparse.Namespace) -> int:
    table = envelope.scan(
        args.beta_from,
        args.beta_to,
        args.count,
        args.area,
        include_exact_points=args.exact_points,
    )
    # _SCAN_COLUMNS order; tolist gives floats, so "%r" is float.__repr__
    columns = (table.beta, table.log_det, table.d1, table.d2,
               table.asymptotic_neg1, table.asymptotic_neghalf)
    rows = zip(*(c.tolist() for c in columns))
    # the rows are rendered in one string and written apart from the header,
    # never joined to it: a copy of the whole payload would double the peak
    if args.format == "csv":
        pieces = ",".join(_SCAN_COLUMNS) + "\n", "".join([_CSV_ROW % row for row in rows])
    else:
        inputs = {
            "beta_from": args.beta_from,
            "beta_to": args.beta_to,
            "count": args.count,
            "area": args.area,
            "exact_points": bool(args.exact_points),
        }
        pieces = _scan_json(inputs, columns, rows)
    with open(args.out, "w", encoding="ascii", newline="") as handle:
        for piece in pieces:
            handle.write(piece)
    sys.stdout.write(f"wrote {len(table.beta)} rows to {args.out}\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = verify.run_suite(args.suite)
    failed = sum(1 for c in checks if not c.passed)
    _emit(
        args.format,
        "verify",
        {"suite": args.suite},
        {"checks_total": len(checks), "checks_failed": failed},
        [(c.name, c.passed, c.measured, c.tolerance) for c in checks],
    )
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_critical(args: argparse.Namespace) -> int:
    p = envelope.AngleParam.from_fraction(envelope._BETA_CRITICAL_EXACT)
    det = envelope.log_det_area(p, args.area, route="rational")
    d2_unit = envelope.d2_log_det(p)
    d2_at_area = d2_unit - envelope._area_shifts(p, (2,), args.area)[0]
    if abs(d2_at_area) <= 1e-6:
        classification = "degenerate"
    elif d2_at_area > 0.0:
        classification = "minimum"
    else:
        classification = "maximum"
    _emit(
        args.format,
        "critical",
        {"area": args.area},
        {
            "beta_star": envelope.BETA_CRITICAL,
            "log_det": det.log_det,
            "d2_unit_area": d2_unit,
            "d2_at_area": d2_at_area,
            "critical_area": envelope.critical_area(),
            "classification": classification,
        },
    )
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
        return args.func(args)
    except (DomainError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DomainError):
            return EXIT_DOMAIN
        return EXIT_QUADRATURE if isinstance(exc, QuadratureError) else EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
