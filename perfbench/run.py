"""envdet benchmark: point, grid and verify workloads.

    python3 perfbench/run.py [--workload point|grid|verify|all] [--seed N]
                             [--seconds S] [--trace 0|1]

With ``--trace 0`` it reports the end-to-end metrics of one workload,
measured with tracing off; with ``--trace 1`` the per-layer metrics of a
traced run.  Every output is checked by an oracle outside the timed region.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from reference import Speed
from spans import EXACT, Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".perfbench"
COLD_STARTS = 5  # measured cold starts per run, after one discarded
LONG_OP_S = 0.05  # a full collection takes about 9 ms with envdet loaded


class Tally:
    """Latencies and outcomes of a sequence of operations.

    With a ``speed`` the latencies are scaled to reference speed (see
    reference.py); ``wall`` keeps them as measured.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.latencies = []
        self.wall = []
        self.factors = []
        self.items = []
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0

    def run(self, wl, op: int, inp, tracer=None) -> None:
        """Run one operation, timing only the call, then check its output."""
        self.attempted += 1
        factor = self.speed.factor() if self.speed else 1.0
        with tracer.tracing(op) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                return
            elapsed = time.perf_counter() - start
        if self.speed:
            # the speed may change during a long operation: average the
            # factors before and after it (after is the cached one for a
            # short operation)
            factor = (factor + self.speed.factor()) / 2.0
        self.wall.append(elapsed)
        self.latencies.append(elapsed * factor)
        self.factors.append(factor)
        self.items.append(wl.items(inp))
        self.bytes_out += wl.bytes_out(out)
        problem = wl.check(inp, out)
        if problem:
            self.failed += 1
            print(f"wrong output of operation {op}: {problem}", file=sys.stderr)
        if elapsed > LONG_OP_S:
            # start the next operation without the harness's garbage, so the
            # collections inside it depend on that operation alone
            gc.collect()


def cold_start(name: str, seed: int, workdir: Path) -> float:
    """Seconds from spawning an interpreter until its first operation returns."""
    cmd = [sys.executable, str(HERE / "cold.py"), name, str(seed), str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"cold start of {name} failed (exit code {code})")
    return elapsed


def cold_starts(name: str, seed: int, workdir: Path):
    """Median cold start at reference speed and as measured.  Each cold
    start is scaled by the mean of the speed factors sampled just before
    and just after it."""
    speed = Speed(name)
    cold_start(name, seed, workdir)  # discarded: compiles and caches
    measured, scaled = [], []
    before = speed.sample()
    for _ in range(COLD_STARTS):
        measured.append(cold_start(name, seed, workdir))
        after = speed.sample()
        scaled.append(measured[-1] * (before + after) / 2.0)
        before = after
    return statistics.median(scaled), statistics.median(measured)


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def throughput(tally, batch: int) -> float:
    """Median over consecutive batches of operations of the work done per
    second of operation time.  A batch repeats the workload's mix, and the
    median leaves out batches the host stalled."""
    lat, items = tally.latencies, tally.items
    rates = [
        sum(items[i : i + batch]) / sum(lat[i : i + batch])
        for i in range(0, len(lat) - batch + 1, batch)
    ]
    return statistics.median(rates) if rates else sum(items) / sum(lat)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float, setup):
    """Closed loop over the seeded inputs for ``seconds``: end-to-end metrics.

    ``setup`` is the median cold start at reference speed and as measured.
    """
    setup_s, setup_measured = setup
    Tally().run(wl, -1, next(wl.inputs(seed)))  # warm-up, not reported
    tally = Tally(Speed(wl.name))
    deadline = time.perf_counter() + seconds
    for op, inp in enumerate(wl.inputs(seed)):
        if time.perf_counter() >= deadline:
            break
        tally.run(wl, op, inp)
    tail_ms, tail_pct, n = tail(tally.latencies)
    speed = statistics.median(tally.factors)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput(tally, wl.batch), "1/s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {COLD_STARTS} cold starts, {setup_measured:.6g} s as measured",
        "throughput_per_s": f"{wl.unit_of_work}/s, median over batches of {wl.batch}",
        "op_p50_ms": f"{statistics.median(tally.wall) * 1e3:.6g} ms as measured, "
        f"machine speed {speed:.3g} of reference; not gated: tail "
        f"p{tail_pct:.4g} of {n} samples {tail_ms * 1e3:.6g} ms",
    }
    return tally, metrics, notes


def measure_traced(wl, seed: int, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes over one fixed batch of inputs
    for ``seconds``: per-layer metrics as medians over the traced passes."""
    batch = list(itertools.islice(wl.inputs(seed), wl.batch))
    tracer = Tracer()
    Tally().run(wl, -1, batch[0])  # warm-up, not reported
    total, passes, overhead = Tally(), [], []
    untraced_latencies, traced_latencies = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        plain, traced = Tally(), Tally()
        for op, inp in enumerate(batch):
            plain.run(wl, op, inp)
        for op, inp in enumerate(batch):
            traced.run(wl, op, inp, tracer)
        spans = tracer.take()
        passes.append(layer_metrics(spans, traced.bytes_out))
        overhead.append(sum(traced.latencies) / sum(plain.latencies) - 1.0)
        untraced_latencies += plain.latencies
        traced_latencies += traced.latencies
        for t in (plain, traced):
            total.attempted += t.attempted
            total.failed += t.failed
    write_spans(spans, spans_path)  # the last traced pass

    metrics = {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_value, unit) in passes[0].items()
    }
    varying = [n for n in EXACT if len({p[n][0] for p in passes}) > 1]
    metrics["trace.overhead"] = (statistics.median(overhead), "ratio")
    metrics["trace.overhead_p50_ms"] = (
        (statistics.median(traced_latencies) - statistics.median(untraced_latencies)) * 1e3,
        "ms",
    )
    metrics["trace.absent_names"] = (len(tracer.absent), "count")
    notes = {
        "specfun.quad.calls": f"per batch of {len(batch)} operations, "
        f"median of {len(passes)} traced passes",
        "trace.absent_names": ", ".join(tracer.absent) or "none",
    }
    if varying:
        notes["specfun.quad.nodes"] = "counts differ between passes: " + ", ".join(varying)
    return total, metrics, notes


def report(name: str, tally, metrics: dict, notes: dict) -> dict:
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name}: {tally.attempted} operations, {tally.failed} failed, fail_ratio {ratio:g}")
    for metric, (value, unit) in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:30s} {value:14.6g} {unit}{note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    envdet = workloads.load_envdet()
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](envdet, workdir)
        if trace:
            spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
            tally, metrics, notes = measure_traced(wl, seed, seconds, spans_path)
        else:
            tally, metrics, notes = measure(wl, seed, seconds, cold_starts(name, seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(name, tally, metrics, notes)


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # the default quadrature tolerance is what the oracles and users see
    os.environ.pop("ENVDET_QUAD_TOL", None)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
