#!/usr/bin/env python3
"""Run every named experiment at its defaults into one output root.

Full-scale defaults take about 25 s in total on a 2-vCPU VM, 11 s of it
in hmin.  Pass experiment names to run a subset; --seed shifts the base
seed of every run.
"""

import argparse
import sys
import time
from pathlib import Path

from rwslab.cli import main as run_cli
from rwslab.experiments import EXPERIMENT_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help="subset to run (default: all)")
    parser.add_argument("--out", type=Path, default=Path("rws-lab-out"))
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    worst = 0
    for name in args.names or EXPERIMENT_NAMES:
        argv = ["run", name, "--out", str(args.out / name)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        t0 = time.perf_counter()
        code = run_cli(argv)
        print(f"  {name}: exit {code} in {time.perf_counter() - t0:.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
