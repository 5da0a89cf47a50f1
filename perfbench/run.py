"""rws-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload seed fixes the job list;
``worker.py`` runs it in a fresh child process, one client in a closed
loop, for about ``--seconds`` seconds.  Every job's outputs are checked
(see ``jobs.py``).  Untraced runs (``--trace 0``) report the end-to-end
metrics of BENCHMARK.json, traced runs (``--trace 1``) the per-layer ones.

Standard output: one JSON report line (environment, job list, rounds,
per-metric medians and percentiles, failures), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``failed / attempted``
is the share of failed jobs.  The exit code is 0 whenever a result line is
printed; without the program's sources it is 2, and 1 when a child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import worker

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
# Set-up is timed in this many fresh processes, the run's own included.
SETUP_SAMPLES = 5
# Every run must end within 180 s; the child gets what is left of that.
DEADLINE_S = 170.0


def percentile_summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "percentile": None}
    rank = n - 10
    if rank >= 1 and rank / n >= 0.5:
        out["percentile"] = {"p": 100.0 * rank / n, "value": ordered[rank - 1]}
    return out


def child(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    """Run worker.py with ``args``; parse its last stdout line."""
    env = dict(os.environ)
    env.pop("RWS_LAB_THREADS", None)  # measure the default of one worker
    timeout = deadline - time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], input=stdin,
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="rws-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rwslab" / "__init__.py").is_file():
        print(f"error: no rwslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]
    known = worker.metric_names()
    unknown = [m["name"] for m in bench["per_layer"] if m["name"] not in known]
    if unknown:
        print(f"error: no span or counter gives {unknown}", file=sys.stderr)
        return 2

    job_list = jobs.job_list(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    request = json.dumps({"jobs": job_list, "seconds": args.seconds,
                          "trace": args.trace})
    worker_args = ["--workload", args.workload, "--work", str(work)]
    try:
        setup = [] if args.trace else [
            child(worker_args + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result = child(worker_args, deadline, request)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        jobs.remove_work(work)

    rounds = [r for r in result["rounds"] if not r["traced"]]
    summary = {"wall_s": percentile_summary([r["wall_s"] for r in rounds]),
               "cpu_s": percentile_summary([r["cpu_s"] for r in rounds])}
    if args.trace:
        values = {m["name"]: result["layers"][m["name"]] for m in declared}
    else:
        setup.append(result["setup_s"])
        summary["setup_s"] = percentile_summary(setup)
        values = {"setup_s": summary["setup_s"]["median"],
                  "wall_s": summary["wall_s"]["median"],
                  "cpu_s": summary["cpu_s"]["median"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": result["environment"],
        "jobs": [j["key"] for j in job_list],
        "rounds": result["rounds"],
        "summary": summary,
        "failed_frac": failed / attempted,
        "failures": result["failures"],
    }
    print(json.dumps({"report": report}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
