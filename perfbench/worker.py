"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this file in a fresh child process per workload, so the
peak resident set it reports is this workload's own.  The job list, run
length and trace switch arrive as JSON on stdin.  With ``--setup-only`` it
times the set-up (imports, plus the wavelet tables for roundtrip), prints
that and exits.

A run repeats the job list in rounds until the next round would end past
the run length, with at least two rounds so every job's outputs can be
compared with its first run.  Only the calls themselves are timed; output
checks run between rounds.  In a traced run the rounds alternate untraced,
traced, untraced, ..., and checks run with the recorder removed.
"""

import time

# Set-up time counts from here, before numpy is first imported.
_T0 = time.perf_counter()

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import jobs
import spans

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURES_LISTED = 20


def load_program(workload: str):
    """Import rwslab from this checkout's sources and build set-up state."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rwslab
    import rwslab.cli

    if Path(rwslab.__file__).resolve().parent != (src / "rwslab").resolve():
        raise ImportError(f"rwslab was imported from {rwslab.__file__}, not {src}")
    tables = jobs.roundtrip_tables(rwslab) if workload == "roundtrip" else None
    return rwslab, tables


def blas_threads():
    """OpenBLAS thread count of the numpy wheel's bundled library, if any."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "RWS_LAB_THREADS": os.environ.get("RWS_LAB_THREADS"),
    }


class Runner:
    """Runs rounds of one job list and counts the jobs that fail a check."""

    def __init__(self, rwslab, tables, job_list, work: Path, recorder):
        self.rwslab, self.tables, self.jobs = rwslab, tables, job_list
        self.work, self.recorder = work, recorder
        self.reference = (jobs.load_reference()
                          if any(j["kind"] == "cli" for j in job_list) else {})
        self.hashes: dict = {}
        self.attempted = self.failed = 0
        self.failures: list[dict] = []

    def _call(self, job, out_dir):
        if job["kind"] == "roundtrip":
            return jobs.run_roundtrip(self.rwslab, self.tables, job["seed"])
        return jobs.run_cli(self.rwslab.cli.main, job, out_dir)

    def _check(self, job, out_dir, outcome) -> list[str]:
        if job["kind"] == "roundtrip":
            return jobs.check_roundtrip(self.rwslab, job["seed"], outcome,
                                        self.hashes, job["key"])
        return jobs.check_cli(job, outcome, out_dir, self.reference, self.hashes)

    def round(self, index: int, traced: bool) -> dict:
        """Run every job once; time the calls, then check the outputs."""
        dirs = [jobs.fresh_dir(self.work / f"job{i}") for i in range(len(self.jobs))]
        outcomes, wall, cpu = [], 0.0, 0.0
        if traced:
            self.recorder.install()
        try:
            for job, out_dir in zip(self.jobs, dirs):
                if traced:
                    self.recorder.begin_job()
                cpu0, t0 = time.process_time(), time.perf_counter()
                try:
                    outcomes.append((self._call(job, out_dir), None))
                except Exception:  # a failing job is counted, not fatal
                    outcomes.append((None, traceback.format_exc(limit=4)))
                wall += time.perf_counter() - t0
                cpu += time.process_time() - cpu0
        finally:
            if traced:
                self.recorder.uninstall()
                self.recorder.begin_job()
        for job, out_dir, (outcome, error) in zip(self.jobs, dirs, outcomes):
            if error is None:
                try:
                    problems = self._check(job, out_dir, outcome)
                except Exception:  # unreadable or malformed outputs
                    problems = [traceback.format_exc(limit=4)]
            else:
                problems = [error]
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_LISTED:
                    self.failures.append({"round": index, "job": job["key"],
                                          "problems": problems})
        return {"wall_s": wall, "cpu_s": cpu, "traced": traced}


# Spans that only dispatch into the layers.  Their self time is time spent
# outside the named library functions, so trace.coverage leaves it out.
DISPATCH_SPANS = ("cli.main", "experiments.run_experiment")


def metric_names() -> set[str]:
    """Every per-layer metric a traced run reports."""
    names = {"laws.draw_array.draws_per_s", "synthesis.synthesize.repeat_scale_frac",
             "trace.coverage", "trace.overhead_frac"}
    for target, (counters, _) in spans.TARGETS.items():
        names.update(f"{target}.{stat}" for stat in ("calls", "self_s", *counters))
    names.update(f"experiments.{exp}.wall_s" for spec in jobs.WORKLOADS.values()
                 for exp, _ in spec.get("jobs", ()))
    return names


def layer_metrics(recorder, rounds: list[dict]) -> dict:
    """Per traced round: span counts and self times, counters and ratios.

    Every name of ``metric_names`` is reported; a function the workload
    never calls reads 0.
    """
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    totals = recorder.totals()
    n = len(traced)
    out = dict.fromkeys(metric_names(), 0)
    for key, value in totals.items():
        if key.startswith("experiments.run_experiment.") and key.endswith(".wall_s"):
            key = "experiments." + key[len("experiments.run_experiment."):]
        if key not in out:
            raise KeyError(f"span or counter {key!r} is not a declared metric name")
        per_round = value / n
        out[key] = int(per_round) if isinstance(value, int) and value % n == 0 else per_round
    draws = totals.get("laws.draw_array.draws", 0)
    draw_s = totals.get("laws.draw_array.self_s", 0.0)
    out["laws.draw_array.draws_per_s"] = draws / draw_s if draw_s > 0 else 0.0
    passes = totals.get("synthesis.synthesize.scale_passes", 0)
    out["synthesis.synthesize.repeat_scale_frac"] = (
        totals.get("synthesis.synthesize.repeat_passes", 0) / passes if passes else 0.0)
    self_s = sum(totals.get(f"{target}.self_s", 0.0) for target in spans.TARGETS
                 if target not in DISPATCH_SPANS)
    out["trace.coverage"] = self_s / sum(r["wall_s"] for r in traced)
    out["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                  / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--work", type=Path, help="scratch directory for job outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    rwslab, tables = load_program(args.workload)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    request = json.load(sys.stdin)
    recorder = spans.Recorder() if request["trace"] else None
    runner = Runner(rwslab, tables, request["jobs"], args.work, recorder)
    rounds, started = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(runner.round(len(rounds), bool(recorder) and len(rounds) % 2 == 1))
        rounds[-1]["elapsed_s"] = time.perf_counter() - t0
        next_end = (time.perf_counter() - started
                    + statistics.median(r["elapsed_s"] for r in rounds))
        if len(rounds) >= 2 and next_end > request["seconds"]:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "environment": environment(),
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
