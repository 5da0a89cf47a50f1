#!/usr/bin/env python3
"""Run every named experiment at its defaults into one output root.

Each experiment runs as its own ``python -m rwslab.cli`` child process;
its exit code, wall time, CPU time (user plus system, all threads) and
peak RSS (the child's own ``ru_maxrss``) are printed, so CPU time well
above wall time shows idle threads spinning.  A last line gives the total
wall and CPU time, the largest peak RSS and the worst exit code, and names
every experiment whose peak RSS is above the 100 MB memory ceiling.  The
script exits with the worst exit code, or with 1 if every child exited 0
but one crossed the ceiling.  Pass experiment names to run a subset;
--seed shifts the base seed of every run.

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process it was forked from, so ``run_child`` over-reads the peak when it
is called from a large process, such as a test session; this script
itself stays small.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import rwslab
from rwslab.experiments import EXPERIMENT_NAMES

RSS_CEILING_MB = 100


def run_child(argv: list[str], env: dict) -> tuple[int, float, float, float]:
    """Exit code, wall seconds, CPU seconds and peak RSS in MB of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, time.perf_counter() - t0, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help="subset to run (default: all)")
    parser.add_argument("--out", type=Path, default=Path("rws-lab-out"))
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    # the children import the same rwslab as this script
    src = str(Path(rwslab.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    worst, total, total_cpu, peak, over = 0, 0.0, 0.0, 0.0, []
    for name in args.names or EXPERIMENT_NAMES:
        argv = [sys.executable, "-m", "rwslab.cli", "run", name,
                "--out", str(args.out / name)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        code, wall, cpu, rss = run_child(argv, env)
        print(f"  {name}: exit {code} in {wall:.1f}s ({cpu:.1f}s CPU), peak RSS {rss:.0f} MB",
              flush=True)
        worst = max(worst, code if code >= 0 else 128 - code)  # killed: 128 + signal
        total, total_cpu, peak = total + wall, total_cpu + cpu, max(peak, rss)
        if rss > RSS_CEILING_MB:
            over.append(f"{name} ({rss:.0f} MB)")
    ceiling = f", above the {RSS_CEILING_MB} MB ceiling: {', '.join(over)}" if over else ""
    print(f"total: {total:.1f}s ({total_cpu:.1f}s CPU), largest peak RSS {peak:.0f} MB, "
          f"worst exit {worst}{ceiling}")
    return worst or int(bool(over))


if __name__ == "__main__":
    sys.exit(main())
