"""Seeded inputs, operations and output oracles of the three workloads.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  ``inputs(seed)`` yields the
operation inputs, and the program sees nothing but those values.  ``run``
performs one operation; ``check`` compares its output with an independent
oracle and is never inside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_envdet():
    """Import envdet from this checkout's ``src`` tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "envdet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no envdet sources under {src}")
    sys.path.insert(0, str(src))
    import envdet

    if Path(envdet.__file__).resolve().parent != src / "envdet":
        raise SystemExit(f"perfbench: imported envdet from {envdet.__file__}, not {src}")
    return envdet


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


# --------------------------------------------------------------------------
# point: one scalar call
# --------------------------------------------------------------------------


class PointInput(NamedTuple):
    kind: str  # "log_det_area", "d_log_det" or "d2_log_det"
    beta: float
    area: float
    exact: Optional[Fraction]  # beta as a reduced fraction, for the rational oracle
    check_fd: bool  # compare a derivative with central differences


class Point:
    """``log_det_area``, ``d_log_det`` or ``d2_log_det`` at one seeded (beta, S)."""

    name = "point"
    unit_of_work = "ops"
    batch = 100  # operations per batch: throughput and traced passes
    KINDS = ("log_det_area", "d_log_det", "d2_log_det")
    FD_SHARE = 0.1  # derivative operations checked by central differences

    def __init__(self, envdet, workdir: Path):
        self.envelope = envdet.envelope

    @classmethod
    def inputs(cls, seed: int) -> Iterator[PointInput]:
        rng = random.Random(seed)
        while True:
            kind = rng.choice(cls.KINDS)
            u = rng.random()
            exact = None
            if u < 0.1:  # within 1e-5 .. 1e-2 of an endpoint
                d = 10.0 ** rng.uniform(-5.0, -2.0)
                beta = -1.0 + d if rng.random() < 0.5 else -0.5 - d
            elif u < 0.2:  # reduced rational -n/q with q <= 60
                q = rng.randint(3, 60)
                n = rng.choice([n for n in range(q // 2 + 1, q) if math.gcd(n, q) == 1])
                exact = Fraction(-n, q)
                beta = float(exact)
            else:
                beta = rng.uniform(-0.999, -0.501)
            area = _log_uniform(rng, 0.1, 10.0)
            check_fd = kind != "log_det_area" and rng.random() < cls.FD_SHARE
            yield PointInput(kind, beta, area, exact, check_fd)

    def run(self, inp: PointInput) -> float:
        # attribute lookups at call time, so traced wrappers are seen
        p = self.envelope.AngleParam(inp.beta)
        if inp.kind == "log_det_area":
            return self.envelope.log_det_area(p, inp.area).log_det
        return getattr(self.envelope, inp.kind)(p)

    def items(self, inp: PointInput) -> int:
        return 1

    def bytes_out(self, out) -> int:
        return 0

    def check(self, inp: PointInput, out: float) -> Optional[str]:
        env = self.envelope
        if not math.isfinite(out):
            return f"{inp.kind}({inp.beta!r}) = {out!r} is not finite"
        if inp.exact is not None and inp.kind == "log_det_area":
            exact = env.AngleParam.from_fraction(inp.exact)
            ref = env.log_det_area(exact, inp.area, route="rational").log_det
            if abs(out - ref) > 1e-9:
                return f"integral route {out!r} != rational route {ref!r} at beta={inp.exact}"
        if inp.check_fd:
            order = 1 if inp.kind == "d_log_det" else 2
            ref = central_difference(env, inp.beta, order)
            if not _close(out, ref, 1e-5):
                return f"{inp.kind}({inp.beta!r}) = {out!r}, central difference {ref!r}"
        return None


def central_difference(envelope, beta: float, order: int) -> float:
    """First or second beta-derivative of the unit-area log det by central
    differences, with a step of 1e-3 of the distance to the nearer endpoint."""
    h = 1e-3 * min(beta + 1.0, -0.5 - beta)
    h = (beta + h) - beta  # a step the grid of doubles represents exactly

    def f(b: float) -> float:
        return envelope.log_det_area(envelope.AngleParam(b), 1.0).log_det

    if order == 1:
        return (f(beta + h) - f(beta - h)) / (2.0 * h)
    return (f(beta + h) - 2.0 * f(beta) + f(beta - h)) / (h * h)


# --------------------------------------------------------------------------
# grid: one ``envdet scan`` to a file
# --------------------------------------------------------------------------

SCAN_COLUMNS = ("beta", "log_det", "d1", "d2", "asym_neg1", "asym_neghalf")


class GridInput(NamedTuple):
    beta_from: float
    beta_to: float
    area: float
    fmt: str  # "csv" or "json"
    sample: Tuple[int, ...]  # rows compared with scalar calls
    anchor: bool  # the repeated input whose file must never change


class Grid:
    """``cli.main(["scan", ...])`` over a seeded range and area, to a file."""

    name = "grid"
    unit_of_work = "rows"
    batch = 12  # two anchors and three JSON files, as in the whole run
    COUNT = 20000
    ANCHOR_EVERY = 6  # multiples of 6 are even, so the anchor is always CSV
    JSON_EVERY = 4

    def __init__(self, envdet, workdir: Path):
        self.cli = importlib.import_module("envdet.cli")
        self.envelope = envdet.envelope
        self.workdir = workdir
        self.anchor_digest: Optional[str] = None

    @classmethod
    def _draw(cls, rng: random.Random, fmt: str, anchor: bool) -> GridInput:
        beta_from = -1.0 + 10.0 ** rng.uniform(-4.0, -0.7)
        beta_to = -0.5 - 10.0 ** rng.uniform(-4.0, -0.7)
        area = _log_uniform(rng, 0.1, 10.0)
        sample = (0, rng.randrange(1, cls.COUNT - 1), cls.COUNT - 1)
        return GridInput(beta_from, beta_to, area, fmt, sample, anchor)

    @classmethod
    def inputs(cls, seed: int) -> Iterator[GridInput]:
        rng = random.Random(seed)
        anchor = cls._draw(rng, "csv", True)
        for i in itertools.count():
            if i % cls.ANCHOR_EVERY == 0:
                yield anchor
            else:
                fmt = "json" if i % cls.JSON_EVERY == cls.JSON_EVERY - 1 else "csv"
                yield cls._draw(rng, fmt, False)

    def run(self, inp: GridInput):
        path = self.workdir / f"scan.{inp.fmt}"
        argv = [
            "scan",
            "--from", repr(inp.beta_from),
            "--to", repr(inp.beta_to),
            "--count", str(self.COUNT),
            "--area", repr(inp.area),
            "--out", str(path),
            "--format", inp.fmt,
        ]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(argv)
        return code, stdout.getvalue(), path

    def items(self, inp: GridInput) -> int:
        return self.COUNT

    def bytes_out(self, out) -> int:
        code, stdout, path = out
        return len(stdout.encode()) + (path.stat().st_size if path.exists() else 0)

    def check(self, inp: GridInput, out) -> Optional[str]:
        code, _stdout, path = out
        if code != 0:
            return f"scan exited with {code}"
        data = path.read_bytes()
        if inp.anchor:
            digest = hashlib.sha256(data).hexdigest()
            if self.anchor_digest is None:
                self.anchor_digest = digest
            elif digest != self.anchor_digest:
                return "repeated scan input wrote a different file"
        try:
            rows = parse_scan(data, inp.fmt)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable {inp.fmt} scan file: {exc}"
        return self.check_rows(inp, rows)

    def check_rows(self, inp: GridInput, rows) -> Optional[str]:
        if len(rows) != self.COUNT:
            return f"{len(rows)} rows, expected {self.COUNT}"
        if not all(math.isfinite(v) for row in rows for v in row):
            return "non-finite value in scan rows"
        betas = [row[0] for row in rows]
        if betas[0] != inp.beta_from or betas[-1] != inp.beta_to:
            return "scan does not span the requested range"
        if any(b0 >= b1 for b0, b1 in zip(betas, betas[1:])):
            return "scan rows are not sorted by beta"
        env = self.envelope
        log_area = math.log(inp.area)
        for i in inp.sample:
            beta, log_det, _d1, d2 = rows[i][:4]
            p = env.AngleParam(beta)
            ref = env.log_det_area(p, inp.area).log_det
            if not _close(log_det, ref, 1e-10):
                return f"row {i}: log_det {log_det!r}, scalar {ref!r}"
            ref = env.d2_log_det(p) - env.d2_zeta0(p) * log_area
            if not _close(d2, ref, 1e-10):
                return f"row {i}: d2 {d2!r}, scalar {ref!r}"
        return None


def parse_scan(data: bytes, fmt: str):
    """Rows of a scan file as tuples of floats, in file order."""
    text = data.decode("ascii")
    if fmt == "json":
        doc = json.loads(text)
        return [tuple(float(row[c]) for c in SCAN_COLUMNS) for row in doc["rows"]]
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != SCAN_COLUMNS:
        raise ValueError("missing or wrong CSV header")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    if any(len(row) != len(SCAN_COLUMNS) for row in rows):
        raise ValueError("CSV row with the wrong number of fields")
    return rows


# --------------------------------------------------------------------------
# verify: the full self-verification suite
# --------------------------------------------------------------------------


class Verify:
    """``cli.main(["verify", "--suite", "full", "--format", "json"])``.

    The suite has no inputs, so every seed yields the same operation.
    """

    name = "verify"
    unit_of_work = "ops"
    batch = 2
    ARGV = ("verify", "--suite", "full", "--format", "json")

    def __init__(self, envdet, workdir: Path):
        self.cli = importlib.import_module("envdet.cli")

    @classmethod
    def inputs(cls, seed: int) -> Iterator[tuple]:
        return itertools.repeat(cls.ARGV)

    def run(self, inp: tuple):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(list(inp))
        return code, stdout.getvalue()

    def items(self, inp: tuple) -> int:
        return 1

    def bytes_out(self, out) -> int:
        return len(out[1].encode())

    def check(self, inp: tuple, out) -> Optional[str]:
        code, stdout = out
        if code != 0:
            return f"verify exited with {code}"
        try:
            doc = json.loads(stdout)
            results, diagnostics = doc["results"], doc["diagnostics"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable verify output: {exc}"
        if results.get("checks_failed") != 0:
            return f"checks_failed = {results.get('checks_failed')!r}"
        if not diagnostics or results.get("checks_total") != len(diagnostics):
            return "checks_total does not match the diagnostics"
        failing = [d[0] for d in diagnostics if d[1] != "pass"]
        if failing:
            return f"failing checks: {failing}"
        return None


WORKLOADS = {w.name: w for w in (Point, Grid, Verify)}
