"""Regenerate reference.json: the manifest flags and CSV column summaries
of every pooled CLI job.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  The
benchmark then requires each job's flags and CSV summaries to match: ints,
bools and strings exactly, floats to a relative 1e-9.
"""

import json
import sys
from pathlib import Path

import jobs

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rwslab.cli import main as cli_main

    work = ROOT / ".perfbench_work" / "reference"
    reference = {}
    try:
        for job in jobs.pooled_cli_jobs():
            out_dir = jobs.fresh_dir(work)
            code = jobs.run_cli(cli_main, job, out_dir)
            if code != 0:
                print(f"{job['key']}: exit code {code}", file=sys.stderr)
                return 1
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            reference[job["key"]] = {"flags": manifest["flags"],
                                     "csv": jobs.output_summaries(out_dir, manifest)}
    finally:
        jobs.remove_work(work)
    with open(jobs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} reference entries to {jobs.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
