"""Cold start of one workload, for the ``setup_s`` metric.

    python3 perfbench/cold.py WORKLOAD SEED WORKDIR

Imports envdet in this fresh interpreter, runs the workload's first
operation and prints ``ready`` once it has returned.
"""

import sys
from pathlib import Path

import workloads


def main(argv) -> int:
    name, seed, workdir = argv
    envdet = workloads.load_envdet()
    wl = workloads.WORKLOADS[name](envdet, Path(workdir))
    wl.run(next(wl.inputs(int(seed))))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
