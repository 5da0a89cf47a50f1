"""Show that the benchmark's job checks flag corrupted outputs and references.

    python3 perfbench/selftest.py

Runs a few cheap jobs once, checks them as the benchmark does, then
corrupts a reference, an output file (also with a manifest hash to match),
a recorded hash, an exit code and recovered coefficients, runs jobs with
``synthesize`` or ``fourier_sawtooth`` off by a relative 1e-6, and breaks
one job so that it raises.  Each of these must be flagged.  Exits 0 when
every case behaves as stated, 1 otherwise.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import jobs
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import rwslab
    from rwslab.cli import main as cli_main

    work = ROOT / ".perfbench_work" / "selftest"
    reference = jobs.load_reference()
    cases = []

    def case(name, problems, flagged):
        ok = bool(problems) == flagged
        cases.append(ok)
        print(f"{'ok' if ok else 'FAIL'}: {name}: {problems or 'passes'}")

    def run(job):
        out_dir = jobs.fresh_dir(work / job["args"][0])
        return jobs.run_cli(cli_main, job, out_dir), out_dir

    try:
        job = jobs.cli_job("prevalence", 0, {}, 0)
        code, out_dir = run(job)
        hashes = {}
        case("clean prevalence job", jobs.check_cli(job, code, out_dir, reference, hashes), False)
        case("same outputs on a second check",
             jobs.check_cli(job, code, out_dir, reference, hashes), False)

        near = copy.deepcopy(reference)
        near[job["key"]]["flags"]["mean_scales_with_exceedance"] *= 1 + 1e-12
        case("float flag within 1e-9", jobs.check_cli(job, code, out_dir, near, {}), False)
        far = copy.deepcopy(reference)
        far[job["key"]]["flags"]["mean_scales_with_exceedance"] *= 1 + 1e-6
        case("float flag off by 1e-6", jobs.check_cli(job, code, out_dir, far, {}), True)

        drift = {job["key"]: {name: "0" * 64 for name in hashes[job["key"]]}}
        case("hash differs from the first run",
             jobs.check_cli(job, code, out_dir, reference, drift), True)
        with open(out_dir / "summary.csv", "a", encoding="utf-8") as fh:
            fh.write("0,0\n")
        case("output file changed after writing",
             jobs.check_cli(job, code, out_dir, reference, {}), True)

        code, out_dir = run(job)
        lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",99"
        (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        for entry in manifest["outputs"]:
            entry["sha256"] = jobs.file_sha256(out_dir / entry["path"])
        (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        case("CSV value changed, manifest hash rewritten to match",
             jobs.check_cli(job, code, out_dir, reference, {}), True)

        for target, job in (("synthesis.synthesize", jobs.cli_job("prop22", 0, {"trials": 2}, 0)),
                            ("synthesis.fourier_sawtooth", jobs.cli_job(
                                "figure1", 0, dict(jobs.WORKLOADS["series"]["jobs"][0][1]), 0))):
            module, name = target.split(".")
            original = getattr(getattr(rwslab, module), name)

            def off(*args, original=original, **kwargs):
                path_ = original(*args, **kwargs)
                return dataclasses.replace(path_, values=path_.values * (1 + 1e-6))

            patched = spans.rebind(original, off)
            try:
                code, out_dir = run(job)
            finally:
                spans.restore(patched)
            case(f"{name} off by 1e-6 in {job['args'][0]}",
                 jobs.check_cli(job, code, out_dir, reference, {}), True)

        job = jobs.cli_job("criteria", 0, {}, 0)
        code, out_dir = run(job)
        wrong = copy.deepcopy(reference)
        wrong[job["key"]]["flags"]["sqrtj"] = "holds"
        case("string flag changed", jobs.check_cli(job, code, out_dir, wrong, {}), True)
        case("job missing from the reference",
             jobs.check_cli(job, code, out_dir, {}, {}), True)

        reject = jobs.cli_job("prop46", 0, {"terms": 26}, 2)
        code, out_dir = run(reject)
        case("rejected config exits 2", jobs.check_cli(reject, code, out_dir, reference, {}), False)
        case("exit 2 where 0 is expected",
             jobs.check_cli(dict(reject, expect=0), code, out_dir, reference, {}), True)

        tables = jobs.roundtrip_tables(rwslab)
        result = jobs.run_roundtrip(rwslab, tables, 11)
        case("clean roundtrip", jobs.check_roundtrip(rwslab, 11, result, {}, "rt"), False)
        for name, delta in (("haar", 1e-6), ("db10", 0.05)):
            bad = copy.deepcopy(result)
            level = bad[name][0].levels[9]
            level[3] += delta * (1.0 if name == "haar" else float(abs(level).max()))
            case(f"{name} coefficient off by {delta}",
                 jobs.check_roundtrip(rwslab, 11, bad, {}, "rt"), True)

        broken = worker.Runner(rwslab, {"haar": None},
                               [{"kind": "roundtrip", "key": "rt", "seed": 11}],
                               work / "runner", None)
        broken.round(0, traced=False)
        case("exception inside a job", [f["problems"][0].splitlines()[-1]
                                        for f in broken.failures], True)
    finally:
        jobs.remove_work(work)
    print(f"{sum(cases)}/{len(cases)} cases as expected")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
