"""Run-to-run spread of the end-to-end metrics over fresh seeds.

    python3 perfbench/spread.py [--workloads point grid verify] [--seeds 10]
                                [--first-seed 1] [--seconds S]

Runs ``run.py`` once per workload and seed, one run at a time.  For each
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, their distance as a share of the
median, and the metric's bound from BENCHMARK.json.  A benchmark is steady
when every spread except that of ``setup_s`` stays below a third of its
bound.  The last line of standard output is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)

    summary = {}
    for name in args.workloads:
        values = {m["name"]: [] for m in BENCHMARK["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} wrong outputs")
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(name, seed, {m: round(v[-1], 6) for m, v in values.items()}, flush=True)
        summary[name] = {}
        for m in BENCHMARK["end_to_end"]:
            xs = values[m["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            summary[name][m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "steady": steady, "values": xs,
            }
            print(f"  {name:7s} {m['name']:18s} median {median:12.6g} {m['unit']:4s} "
                  f"spread {spread:7.2%}  bound {m['bound']:.0%}  {'ok' if steady else 'WIDE'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
