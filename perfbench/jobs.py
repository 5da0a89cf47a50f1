"""Workloads, the job lists drawn from a workload seed, and job checks.

A CLI job is one ``rwslab.cli.main(["run", ...])`` call; a roundtrip job is
a sequence of library calls.  Each workload keeps the per-call sizes of the
shipped experiments and cuts only trial and seed counts, so one pass over
its jobs takes a few seconds.  Every CLI workload also carries one config
the CLI must reject with exit code 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# CLI job seeds are drawn from this pool; reference.json holds the manifest
# flags of every pooled job.
SEED_POOL = range(8)

# Why each workload is there: BENCHMARK.json.
WORKLOADS = {
    # synthesize is about 85% of the time; the filter-bank work shows here.
    "synth": {
        "jobs": [("prop22", {"trials": 2}),
                 ("prop43", {"seeds": 2}),
                 ("modulus", {"seeds": 4}),
                 ("prop31", {"law": "bounded_uniform:1", "seeds": 10})],
        "reject": ("prop43", {"j_lo": 16, "j_hi": 12}),
    },
    # Fourier sums, sawtooth coefficients and path CSVs; almost no synthesis.
    "series": {
        "jobs": [("figure1", {"fourier_terms": 2048, "table_resolution": 15,
                              "resolution": 13, "j_lo": 5, "j_hi": 9}),
                 ("wiener", {"seeds": 5})],
        "reject": ("wiener", {"m_hi": 11}),
    },
    # Draws and dense levels dominate time and memory (hmin at its default
    # j_max=24); the small jobs show per-invocation CLI overhead.
    "draws": {
        "jobs": [("hmin", {"seeds": 1}),
                 ("prop31", {"log_all": True, "seeds": 5}),
                 ("prevalence", {}),
                 ("criteria", {}),
                 ("prop46", {})],
        "reject": ("prop46", {"terms": 26}),
    },
    # Library calls: synthesis then analysis under haar, db4 and db10, the
    # only workload that calls analysis_field.
    "roundtrip": {
        "jobs_per_round": 4,
    },
}

# Roundtrip sizes: db10 R=17 J=13 as in the modulus experiment.
ROUNDTRIP_TABLES = (("haar", "haar", 1), ("db4", "daubechies", 4),
                    ("db10", "daubechies", 10))
ROUNDTRIP = {"r_psi": 17, "alpha": 0.5, "j": 13, "resolution": 17, "j_lo": 8}
# Recovery tolerances of the estimator round-trip tests.
HAAR_ABS_TOL = 1e-8
SMOOTH_LEVEL_TOL = 0.02
# Floats in manifest flags and CSV column summaries.
REL_TOL = 1e-9


def cli_job(experiment: str, seed: int, settings: dict, expect: int) -> dict:
    args = [experiment, "--seed", str(seed)]
    for key, value in sorted(settings.items()):
        args += ["--set", f"{key}={value if isinstance(value, str) else json.dumps(value)}"]
    return {"kind": "cli", "key": " ".join(args), "args": args, "expect": expect}


def job_list(workload: str, seed: int) -> list[dict]:
    """The jobs of one pass over ``workload``; a pure function of ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    spec = WORKLOADS[workload]
    if workload == "roundtrip":
        return [{"kind": "roundtrip", "key": f"roundtrip --seed {s}", "seed": s}
                for s in (rng.randrange(2**63) for _ in range(spec["jobs_per_round"]))]
    jobs = [cli_job(exp, rng.choice(SEED_POOL), settings, 0)
            for exp, settings in spec["jobs"]]
    exp, settings = spec["reject"]
    jobs.append(cli_job(exp, 0, settings, 2))
    return jobs


def pooled_cli_jobs() -> list[dict]:
    """Every CLI job a workload seed can draw that exits 0."""
    return [cli_job(exp, s, settings, 0)
            for spec in WORKLOADS.values() for exp, settings in spec.get("jobs", ())
            for s in SEED_POOL]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work(path: Path) -> None:
    """Delete a scratch directory, and its parent once that is empty."""
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):  # not empty while another run uses it
        path.parent.rmdir()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------------ CLI jobs


def run_cli(cli_main, job: dict, out_dir: Path):
    """Exit code of one in-process CLI call; its messages are discarded."""
    argv = ["run", job["args"][0], "--out", str(out_dir), *job["args"][1:]]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli_main(argv)
        except SystemExit as exc:  # argparse rejects with exit 2
            return exc.code


def csv_summary(path: Path) -> dict:
    """Per column of a CSV output: row count, sum, sum of squares and max |x|.

    A column with a cell that is not a number is summarized by the sha256
    of its cells instead.  Comment lines are skipped.
    """
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    out = {}
    for i, name in enumerate(names):
        cells = [row[i] for row in rows]
        try:
            x = np.array(cells, dtype=np.float64)
        except ValueError:
            out[name] = {"sha256": hashlib.sha256("\n".join(cells).encode()).hexdigest()}
            continue
        out[name] = {"n": len(cells), "sum": float(x.sum()),
                     "sum_sq": float(np.dot(x, x)),
                     "max_abs": float(np.abs(x).max()) if len(cells) else 0.0}
    return out


def output_summaries(out_dir: Path, manifest: dict) -> dict:
    return {entry["path"]: csv_summary(out_dir / entry["path"])
            for entry in manifest["outputs"] if entry["path"].endswith(".csv")}


def _csv_problems(summaries: dict, expected: dict) -> list[str]:
    if sorted(summaries) != sorted(expected):
        return [f"CSV outputs {sorted(summaries)} != reference {sorted(expected)}"]
    problems = []
    for path, columns in expected.items():
        got_columns = summaries[path]
        if sorted(got_columns) != sorted(columns):
            problems.append(f"{path}: columns {sorted(got_columns)} != reference {sorted(columns)}")
            continue
        for name, want in columns.items():
            got = got_columns[name]
            if "sha256" in want:
                ok = got == want
            else:
                # A column sum may cancel to about 0; its tolerance scales
                # with n * max |x|, a bound on the sum of |x|.
                ok = (got.keys() == want.keys() and got["n"] == want["n"]
                      and math.isclose(got["sum"], want["sum"], rel_tol=REL_TOL,
                                       abs_tol=REL_TOL * want["n"] * want["max_abs"])
                      and all(math.isclose(got[k], want[k], rel_tol=REL_TOL)
                              for k in ("sum_sq", "max_abs")))
            if not ok:
                problems.append(f"{path}: column {name} {got}, reference {want}")
    return problems


def _flag_problems(flags: dict, expected: dict) -> list[str]:
    if sorted(flags) != sorted(expected):
        return [f"flag keys {sorted(flags)} != reference {sorted(expected)}"]
    problems = []
    for key, want in expected.items():
        got = flags[key]
        if isinstance(want, float) and type(got) in (int, float):
            ok = math.isclose(got, want, rel_tol=REL_TOL)
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            problems.append(f"flag {key}={got!r}, reference {want!r}")
    return problems


def check_cli(job: dict, code, out_dir: Path, reference: dict,
              hashes: dict) -> list[str]:
    """Problems with a finished CLI job; an empty list means it passed.

    Manifest flags and per-column summaries of the CSV outputs must match
    the reference.  ``hashes`` maps job keys to the output hashes of their
    first run in this process; the first run records them, later runs must
    match.
    """
    if code != job["expect"]:
        return [f"exit code {code}, expected {job['expect']}"]
    manifest_path = out_dir / "manifest.json"
    if job["expect"] != 0:
        return ["rejected config left a manifest"] if manifest_path.exists() else []
    if job["key"] not in reference:
        return ["no reference for this job"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    expected = reference[job["key"]]
    problems = _flag_problems(manifest["flags"], expected["flags"])
    problems += _csv_problems(output_summaries(out_dir, manifest), expected["csv"])
    written = {}
    for entry in manifest["outputs"]:
        digest = file_sha256(out_dir / entry["path"])
        if digest != entry["sha256"]:
            problems.append(f"{entry['path']} does not match its manifest hash")
        written[entry["path"]] = digest
    first = hashes.setdefault(job["key"], written)
    if written != first:
        problems.append("output hashes differ from the first run of this job")
    return problems


# ------------------------------------------------------------ roundtrip jobs


def roundtrip_tables(lib) -> dict:
    return {name: lib.cascade_evaluate(lib.build_filter(family, n),
                                       ROUNDTRIP["r_psi"])
            for name, family, n in ROUNDTRIP_TABLES}


def run_roundtrip(lib, tables: dict, seed: int) -> dict:
    """Synthesize, analyse and fit hmin under each table.

    Calls go through the package namespace, as a library user's would.
    """
    j, res = ROUNDTRIP["j"], ROUNDTRIP["resolution"]
    field_ = lib.uniform_decay_field(ROUNDTRIP["alpha"], j)
    law = lib.gaussian()
    out = {}
    for name, table in tables.items():
        path_ = lib.randomized_synthesize(field_, table, law, seed, j, res)
        recovered = lib.analysis_field(path_, table, j)
        hmin = lib.hmin_estimate(lib.scale_envelope(recovered),
                                 ROUNDTRIP["j_lo"], j)
        out[name] = (recovered, hmin)
    return out


def check_roundtrip(lib, seed: int, result: dict, hashes: dict,
                    key: str) -> list[str]:
    """Recovered coefficients against the randomized field that made them."""
    truth = lib.randomized_field(
        lib.uniform_decay_field(ROUNDTRIP["alpha"], ROUNDTRIP["j"]),
        lib.gaussian(), seed)
    problems = []
    digest = hashlib.sha256()
    for name, (recovered, hmin) in result.items():
        if not math.isfinite(hmin):
            problems.append(f"{name}: hmin estimate {hmin}")
        if name == "haar" and abs(recovered.coarse - truth.coarse) > HAAR_ABS_TOL:
            problems.append(f"haar: coarse error {recovered.coarse - truth.coarse:.3g}")
        for j, (got, want) in enumerate(zip(recovered.levels, truth.levels)):
            err = float(np.max(np.abs(got - want)))
            limit = (HAAR_ABS_TOL if name == "haar"
                     else SMOOTH_LEVEL_TOL * float(np.max(np.abs(want))))
            if err > limit:
                problems.append(f"{name}: level {j} error {err:.3g} > {limit:.3g}")
            digest.update(got.tobytes())
        digest.update(np.float64(hmin).tobytes())
    if hashes.setdefault(key, digest.hexdigest()) != digest.hexdigest():
        problems.append("recovered coefficients differ from the first run of this job")
    return problems
