#!/usr/bin/env python3
"""Run every named experiment at its defaults into one output root.

Each experiment runs as its own ``python -m rwslab.cli`` child process;
its exit code, wall time, CPU time (user plus system, all threads), peak
RSS (the child's own ``ru_maxrss``) and minor page faults (``ru_minflt``)
are printed, so CPU time well above wall time shows idle threads spinning
and a fault count far above a few thousand shows arrays paged in again
and again.  A last line gives the total
wall and CPU time, the largest peak RSS and the worst exit code, and names
every experiment whose peak RSS is above the 100 MB memory ceiling.  The
script exits with the worst exit code, or with 1 if every child exited 0
but one crossed the ceiling.  Pass experiment names to run a subset;
--seed shifts the base seed of every run.

--bench PATH runs each experiment ``BENCH_RUNS`` times and writes a JSON
file: a header with the python, numpy and scipy versions, the cpu count
and the run count; for each experiment its exit codes and the median, min
and max of its wall time, CPU time and peak RSS; and the end-to-end
medians of one ``PERFBENCH_SECONDS`` s ``--trace 0`` run of each perfbench
workload (``perfbench/run.py``, seed 1), about 100 s more.

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process it was forked from, so ``run_child`` over-reads the peak when it
is called from a large process, such as a test session; this script
itself stays small.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import rwslab
from rwslab.experiments import EXPERIMENT_NAMES

RSS_CEILING_MB = 100
BENCH_RUNS = 3
PERFBENCH_SECONDS = 20
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def run_child(argv: list[str], env: dict) -> tuple[int, float, float, float, int]:
    """Exit code, wall seconds, CPU seconds, peak RSS in MB and minor page
    faults of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, time.perf_counter() - t0, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, usage.ru_minflt)


def perfbench_metrics(workload: str, env: dict) -> dict:
    """``correct`` and the end-to-end medians of one untraced perfbench run."""
    argv = [sys.executable, str(PERFBENCH), "--workload", workload, "--seed", "1",
            "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"]
    out = subprocess.run(argv, env=env, cwd=PERFBENCH.parent.parent, capture_output=True,
                         text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    return {"correct": result["correct"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def write_bench(path: Path, runs: dict, env: dict) -> None:
    """The ``--bench`` file: a header, each experiment's runs, perfbench's medians."""
    def spread(values):
        return {"median": statistics.median(values), "min": min(values), "max": max(values)}

    header = {"python": platform.python_version(),
              **{lib: importlib.metadata.version(lib) for lib in ("numpy", "scipy")},
              "cpu_count": os.cpu_count(), "runs": BENCH_RUNS}
    defaults = {name: {"exit_codes": [r[0] for r in rows],
                       **{key: spread([r[i] for r in rows])
                          for i, key in enumerate(("wall_s", "cpu_s", "peak_rss_mb"), 1)}}
                for name, rows in runs.items()}
    workloads = ("synth", "series", "draws", "roundtrip")
    bench = {"header": header, "defaults": defaults,
             "perfbench": {w: perfbench_metrics(w, env) for w in workloads}}
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help="subset to run (default: all)")
    parser.add_argument("--out", type=Path, default=Path("rws-lab-out"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--bench", type=Path, default=None, metavar="PATH",
                        help=f"run each experiment {BENCH_RUNS} times and write a JSON summary")
    args = parser.parse_args()

    # the children import the same rwslab as this script
    src = str(Path(rwslab.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    worst, total, total_cpu, runs = 0, 0.0, 0.0, {}
    for name in args.names or EXPERIMENT_NAMES:
        argv = [sys.executable, "-m", "rwslab.cli", "run", name,
                "--out", str(args.out / name)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        for _ in range(BENCH_RUNS if args.bench else 1):
            code, wall, cpu, rss, faults = run_child(argv, env)
            print(f"  {name}: exit {code} in {wall:.1f}s ({cpu:.1f}s CPU), peak RSS {rss:.0f} MB, "
                  f"{faults / 1000:.1f}k minor faults", flush=True)
            runs.setdefault(name, []).append((code, wall, cpu, rss))
            worst = max(worst, code if code >= 0 else 128 - code)  # killed: 128 + signal
            total, total_cpu = total + wall, total_cpu + cpu
    highest = {name: max(r[3] for r in rows) for name, rows in runs.items()}
    over = [f"{name} ({rss:.0f} MB)" for name, rss in highest.items() if rss > RSS_CEILING_MB]
    ceiling = f", above the {RSS_CEILING_MB} MB ceiling: {', '.join(over)}" if over else ""
    print(f"total: {total:.1f}s ({total_cpu:.1f}s CPU), "
          f"largest peak RSS {max(highest.values(), default=0.0):.0f} MB, "
          f"worst exit {worst}{ceiling}")
    if args.bench:
        write_bench(args.bench, runs, env)
    return worst or int(bool(over))


if __name__ == "__main__":
    sys.exit(main())
