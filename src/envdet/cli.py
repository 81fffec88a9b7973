"""Command line surface: ``eval``, ``scan``, ``verify`` and ``critical``.

Exit codes: 0 success, 1 verification failure, 2 domain error, 3 quadrature
non-convergence, 4 I/O failure.  Machine formats are deterministic: repeated
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
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

# The writers print a value x in numpy when its decimal exponent
# k = floor(log10|x|) lies in [-4, 16], where "%.17g" writes fixed notation,
# and so does repr below 1e16.  A row holding any other value (zero,
# |x| < 1e-4, |x| >= 1e17, inf, NaN) is rendered from its template; so, for
# JSON, is a row holding an integer, to which repr appends ".0".  Every double
# from 2**53 up is an integer, so that rule also covers repr's exponent
# notation from 1e16 up.
#
# Digits.  With p = 16 - k, from 0 to 20, 10**p is an exact double, and
# Dekker's product (Veltkamp's split at 2**27 + 1; numpy rounds each operation
# to nearest and fuses none) gives hi + lo = |x| 10**p exactly.  A value is
# taken only if that exact sum lies in [1e16, 1e17), which also refuses a
# log10 off by one, and its rounding D to an integer stays below 1e17.  Then
# hi >= 1e16 > 2**53 is an even integer, so D = hi + rint(lo) is the
# half-even rounding: the 17 significant digits "%.17g" prints, its exponent
# k.  The rest rho = lo - rint(lo), |rho| <= 1/2, keeps D + rho exact.
#
# Shortest digits.  repr prints the fewest significant digits n that read
# back to x and, of those, the decimal nearest x, ties to even (Gay's
# shortest mode).  Let D_n be the n-digit integer nearest the exact
# (D + rho) / 10**(17 - n), ties to even, taken with rho, not from D: of two
# 16-digit decimals that both read back, a D_16 rounded from D can be the
# farther one.  Every real strictly inside x's rounding interval, x +- half an
# ulp, reads back to x.
# - On its ends lies no decimal of 17 digits or fewer, so the parity rule for
#   a decimal there never applies.  For |x| = i 2**(e - 52) in
#   [2**e, 2**(e + 1)) the ends are (2 i +- 1) 5**p 2**(e + p - 53) in units
#   of the 17th digit: integers only if e + p >= 53, which with
#   2**e <= |x| < 10**(17 - p) needs p <= 1 and e >= 52, an integer x.
# - Unless x is a power of two the interval is symmetric about x, so some
#   n-digit decimal reads back to x if and only if D_n does.  A power of two in
#   this range is an integer or 2**-j, j <= 13, whose exact decimal, with at
#   most 10 significant digits, is D_15 itself.
# - n = 15: D_15 < 2**53 and 10**(p - 2) are exact doubles, so their IEEE
#   quotient is the correctly rounded read-back of D_15 (Clinger's fast path),
#   and one comparison with x decides.  The interval, at most 2**-52 |x| wide,
#   is narrower than the 10**-15 |x| or more between 15-digit decimals, so at
#   most one decimal of 15 digits or fewer reads back to x: D_15 with its
#   trailing zeros dropped is the shortest form of any length up to 15.  (For
#   k >= 14 the divisor is clipped to 1, and an integer quotient is never x.)
# - n = 16: D_16 reads back to x if and only if |m - rho| < h, where
#   m = 10 D_16 - D, |m| <= 5, and h is half an ulp of x times 10**p, a power
#   of two times 10**p.  h is exact, with at most 47 significant bits
#   (5**20 < 2**47), the lowest at 2**-47 or above, and h < 12, so m - h and
#   m + h are exact doubles, and comparing rho with each decides exactly.
# - n = 17: D, which always reads back to x (h > 1/2).
# The digits printed are those of the first D_n that reads back to x, as the
# 17-digit integer D_n 10**(17 - n).
#
# Text.  Each value fills a slot of 40 bytes, held as five words with byte c
# of the slot in bits 8 (c % 8) of word c // 8: the sign and, for k < 0, "0."
# and -k - 1 zeros in bytes 0-5; digit j of D in byte 6 + 2 j and, for k >= 0,
# the point in byte 7 + 2 k unless every later digit is zero; NUL bytes
# everywhere else, also in place of trailing zeros.  A row is the template's
# text around its values, each piece NUL-padded to whole words, with the slots
# between them.  The text is the words with their NUL bytes dropped.
_SLOT = 40
# Rows rendered at once.  numpy's freed block arrays stay in the C heap, where
# Python's small objects made later cannot go: over a run of 20000-row CSV
# scans, each file parsed back into floats, blocks of 1024 to 4096 rows left
# the peak memory about 1.5 MB above that of formatting each row in Python,
# and 512 rows level with it.  20000 rows take 17.6 ms to render to CSV in
# blocks of 512, against 19.5 ms in blocks of 256 and 17.8 ms in blocks of
# 1024; to JSON 26.4 ms, against 28.8 and 24.9 ms (medians of 25, in process).
_BLOCK = 512


def _by_word(rows) -> np.ndarray:
    """The byte strings ``rows``, each of ``8 n`` bytes, as ``n`` arrays of
    words: byte ``c`` of row ``j`` is in bits ``8 (c % 8)`` of ``[c // 8][j]``."""
    return np.array([[int.from_bytes(row[i : i + 8], "little") for row in rows]
                     for i in range(0, len(rows[0]), 8)], np.uint64)


def _split(x):
    """Veltkamp's split of ``x`` into ``hi + lo``, each of at most 26
    significant bits, so that their products in Dekker's product are exact."""
    c = (2.0**27 + 1.0) * x
    hi = c - (c - x)
    return hi, x - hi


_POW10 = np.array([float(10**p) for p in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)
_POW10_LESS2 = _POW10[np.maximum(np.arange(21) - 2, 0)]  # by p: 10**(p - 2), at least 1
_GROUP = np.arange(10000, dtype=np.uint16)
# the four digits of each 4-digit group as ASCII in bytes 0, 2, 4 and 6, the
# first in the low byte, and how many of them are trailing zeros (all four
# for 0000)
_DIGITS4 = sum((_GROUP // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << 16 * j for j in range(4))
_TRAILING4 = sum((_GROUP % 10**j == 0).astype(np.int8) for j in range(1, 5))
# Each table is held word by word.  _KEEP[i][j] is word i of the mask that
# keeps digits 0..j of a slot, and _POINT[i][k] word i of the point after
# digit k; k = 16 puts none, as no digit follows digit 16.
_KEEP = _by_word([(b"\xff" * (7 + 2 * j)).ljust(_SLOT, b"\0") for j in range(17)])
_POINT = _by_word([(b"\0" * (7 + 2 * k) + b"." * (k < 16)).ljust(_SLOT, b"\0") for k in range(17)])
# word 0 of the slot, but for the lead digit, by 2 (k + 4) + (x < 0): the
# sign, then "0." and -k - 1 zeros for k < 0
_PREFIX = _by_word([
    ("-" * negative + ("0." + "0" * (-k - 1)) * (k < 0)).encode("ascii").ljust(8, b"\0")
    for k in range(-4, 17) for negative in (0, 1)
])[0]


def _nearest(d, rho, step: int):
    """The multiple ``q step`` of ``step`` nearest ``d + rho`` (``|rho| <= 1/2``),
    ties to even ``q``, as ``q`` and the offset ``q step - d``."""
    q, r = np.divmod(d, step)
    # up if r + rho > step / 2, or on a tie if q is odd
    up = 2 * r + np.sign(rho).astype(np.int64) + (q & 1) > step
    return q + up, step * up - r


def _shortest(a, p, d, rho):
    """repr's significant digits of the values ``a`` as 17-digit integers
    D_n 10**(17 - n), from their 17 digits ``d`` and rest ``rho`` at scale
    10**p (comment above _SLOT)."""
    d15, m15 = _nearest(d, rho, 100)
    fits15 = d15.astype(np.float64) / _POW10_LESS2[p] == a
    m16 = _nearest(d, rho, 10)[1]
    h = 0.5 * np.spacing(a) * _POW10[p]
    fits16 = (m16 - h < rho) & (rho < m16 + h)
    return d + np.where(fits15, m15, fits16 * m16)


def _fields(v: np.ndarray, shortest: bool):
    """The slots of the values ``v`` as ``(len(v), 5)`` words, with
    _CSV_ROW's digits or, if ``shortest``, repr's, and which values they
    render exactly."""
    a = np.abs(v)
    exact = (a >= 1e-4) & (a < 1e17)  # NaN fails both: no warning, no arithmetic
    a = np.where(exact, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p = 16 - k
    hi = a * _POW10[p]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[p], _POW10_LO[p]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    exact &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0.0))
    rounded = np.rint(lo)
    d = hi.astype(np.int64) + rounded.astype(np.int64)
    if shortest:
        exact &= np.floor(a) != a
        d = _shortest(a, p, d, lo - rounded)
    exact &= d < 10**17
    d[~exact] = 10**16  # any D in range, for the tables
    # D = lead g1 g2 g3 g4 in 4-digit groups
    upper, lower = np.divmod(d, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    g1, g2 = np.divmod(upper, 10**4)
    g3, g4 = np.divmod(lower, 10**4)
    trailing = _TRAILING4[g4] + (g4 == 0) * (
        _TRAILING4[g3] + (g3 == 0) * (_TRAILING4[g2] + (g2 == 0) * _TRAILING4[g1]))
    last = 16 - trailing  # the last nonzero digit
    keep = np.maximum(last, k)  # and every digit before the point
    words = [_PREFIX[2 * k + 8 + (v < 0)] | (lead.astype(np.uint64) + 48) << 48,
             *(_DIGITS4[g] for g in (g1, g2, g3, g4))]
    point = np.where((k >= 0) & (last > k), k, 16)
    slots = np.empty((v.size, _SLOT // 8), np.uint64)
    for i, word in enumerate(words):
        slots[:, i] = word & _KEEP[i][keep] | _POINT[i][point]
    return slots, exact


def _text(cells: np.ndarray) -> str:
    """The words ``cells`` as text, with their NUL bytes dropped."""
    return cells.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")


def _rows(values: np.ndarray, template: str, shortest: bool):
    """``"".join(template % tuple(row) for row in values.tolist())`` for the
    ``(n, columns)`` float64 array ``values``, byte for byte, in pieces of
    _BLOCK rows: ``template`` converts each value as _CSV_ROW does or, if
    ``shortest``, as _JSON_ROW does."""
    # the template's text around the values: filled with NaN, cut at each "nan"
    texts = [t.encode("ascii") for t in (template % ((math.nan,) * values.shape[1])).split("nan")]
    sizes = np.array([-(-len(t) // 8) for t in texts])  # in whole words
    fixed = np.frombuffer(b"".join(t.ljust(8 * n, b"\0") for t, n in zip(texts, sizes)), "<u8")
    # a row's words: text 0, slot 0, text 1, ..., slot columns - 1, the last
    # text; text i begins at word starts[i]
    starts = np.cumsum([0, *sizes[:-1] + _SLOT // 8])
    at_text = np.concatenate([np.arange(n) + s for s, n in zip(starts, sizes)])
    at_slot = ((starts[:-1] + sizes[:-1])[:, None] + np.arange(_SLOT // 8)).ravel()
    for start in range(0, len(values), _BLOCK):
        block = values[start : start + _BLOCK]
        slots, exact = _fields(block.ravel(), shortest)
        cells = np.empty((len(block), starts[-1] + sizes[-1]), np.uint64)
        cells[:, at_text] = fixed
        cells[:, at_slot] = slots.reshape(len(block), -1)
        pieces, row = [], 0
        for i in np.flatnonzero(~exact.reshape(block.shape).all(axis=1)):
            pieces += [_text(cells[row:i]), template % tuple(block[i].tolist())]
            row = i + 1
        pieces.append(_text(cells[row:]))
        yield "".join(pieces)


def _csv_rows(values: np.ndarray):
    """``"".join(_CSV_ROW % row for row in values)`` for the ``(n, columns)``
    float64 array ``values``, byte for byte, in pieces of _BLOCK rows."""
    return _rows(values, _CSV_ROW, shortest=False)


def _scan_json(inputs: Dict[str, Any], values: np.ndarray):
    """The text json.dumps(doc, indent=2, allow_nan=False) gives the scan
    document with the ``(n, columns)`` rows ``values``, as the pieces to
    write in order.  The rows are _JSON_ROW's text, each value repr's
    shortest digits, rendered by _rows in blocks: with an indent json runs
    its pure-Python encoder, several times slower on a large scan."""
    doc = {"schema_version": SCHEMA_VERSION, "command": "scan", "inputs": inputs, "rows": None}
    head = json.dumps(doc, indent=2, allow_nan=False)[: -len("null\n}")]
    bad = values[~np.isfinite(values)]  # in row order, as json meets them
    if bad.size:
        raise ValueError(f"Out of range float values are not JSON compliant: {float(bad[0])!r}")
    rows = _rows(values, ",\n" + _JSON_ROW, shortest=True)
    # each row follows ",\n"; the first follows "[\n"
    return itertools.chain([head + "[", next(rows)[1:]], rows, ["\n  ]\n}\n"])


def _cmd_scan(args: argparse.Namespace) -> int:
    table = envelope.scan(
        args.beta_from,
        args.beta_to,
        args.count,
        args.area,
        include_exact_points=args.exact_points,
    )
    # _SCAN_COLUMNS order
    values = np.column_stack((table.beta, table.log_det, table.d1, table.d2,
                              table.asymptotic_neg1, table.asymptotic_neghalf))
    # the rows are written in pieces, never joined to the header: a copy of
    # the whole payload would double the peak
    if args.format == "csv":
        pieces = itertools.chain([",".join(_SCAN_COLUMNS) + "\n"], _csv_rows(values))
    else:
        inputs = {
            "beta_from": args.beta_from,
            "beta_to": args.beta_to,
            "count": args.count,
            "area": args.area,
            "exact_points": bool(args.exact_points),
        }
        pieces = _scan_json(inputs, values)
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


# Built once per process: a build takes about 0.9 ms, a parse 0.06 ms, and
# parse_args leaves the parser as it found it.
@functools.cache
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

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")

    p_crit = sub.add_parser("critical", help="report the equilateral critical point")
    p_crit.add_argument("--area", type=float, default=1.0)
    p_crit.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up at call time, never held by the cached parser: a
        # replaced _cmd_* is the one that runs
        return globals()[f"_cmd_{args.command}"](args)
    except (DomainError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DomainError):
            return EXIT_DOMAIN
        return EXIT_QUADRATURE if isinstance(exc, QuadratureError) else EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
