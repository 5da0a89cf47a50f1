"""The defaults runner's exit code, total line and bench file, with the
children faked, and one real child under the runner's memory ceiling."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_experiments.py"


@pytest.fixture
def runner():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("children, code, named", [
    ({"figure1": (0, 77.0), "modulus": (0, 62.0)}, 0, []),
    ({"figure1": (0, 123.0), "modulus": (0, 101.0)}, 1, ["figure1 (123 MB)", "modulus (101 MB)"]),
    ({"figure1": (0, 123.0), "modulus": (3, 31.0)}, 3, ["figure1 (123 MB)"]),
    ({"figure1": (0, 100.0), "modulus": (2, 62.0)}, 2, []),
])
def test_total_line_names_runs_above_the_ceiling(runner, monkeypatch, tmp_path, capsys,
                                                 children, code, named):
    def fake_child(argv, env):
        exit_code, rss = children[argv[argv.index("run") + 1]]
        return exit_code, 0.5, 0.5, rss, 1234

    monkeypatch.setattr(runner, "run_child", fake_child)
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", *children, "--out", str(tmp_path)])
    assert runner.main() == code
    *lines, total = capsys.readouterr().out.splitlines()
    assert [line.split(", ")[-1] for line in lines] == ["1.2k minor faults"] * len(children)
    assert total.startswith("total: ")
    if named:
        assert total.endswith(f"above the {runner.RSS_CEILING_MB} MB ceiling: " + ", ".join(named))
    else:
        assert "ceiling" not in total


def test_bench_file_records_every_run(runner, monkeypatch, tmp_path, capsys):
    # Each experiment runs BENCH_RUNS times; the file holds its exit codes and
    # the median and range of wall, CPU and peak RSS, a header, and the
    # medians of one perfbench run per workload.
    times = iter([(0, 3.0, 2.0, 40.0), (0, 1.0, 1.5, 42.0), (0, 2.0, 1.0, 41.0),
                  (3, 0.5, 0.4, 30.0), (0, 0.7, 0.6, 31.0), (0, 0.6, 0.5, 29.0)])

    def fake_child(argv, env):
        return (*next(times), 1000)

    def fake_perfbench(workload, env):
        return {"correct": True, "setup_s": 0.1, "wall_s": 0.2, "cpu_s": 0.2,
                "peak_rss_mb": len(workload)}

    monkeypatch.setattr(runner, "run_child", fake_child)
    monkeypatch.setattr(runner, "perfbench_metrics", fake_perfbench)
    path = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "prop22", "hmin",
                                      "--out", str(tmp_path), "--bench", str(path)])
    assert runner.main() == 3
    *lines, total = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * runner.BENCH_RUNS == 6
    bench = json.loads(path.read_text())
    assert list(bench) == ["header", "defaults", "perfbench"]
    header = bench["header"]
    assert header["runs"] == runner.BENCH_RUNS
    assert header["cpu_count"] == os.cpu_count()
    assert header["python"] == platform.python_version()
    assert header["numpy"] == np.__version__
    assert header["scipy"] == importlib.metadata.version("scipy")
    assert bench["defaults"] == {
        "prop22": {"exit_codes": [0, 0, 0],
                   "wall_s": {"median": 2.0, "min": 1.0, "max": 3.0},
                   "cpu_s": {"median": 1.5, "min": 1.0, "max": 2.0},
                   "peak_rss_mb": {"median": 41.0, "min": 40.0, "max": 42.0}},
        "hmin": {"exit_codes": [3, 0, 0],
                 "wall_s": {"median": 0.6, "min": 0.5, "max": 0.7},
                 "cpu_s": {"median": 0.5, "min": 0.4, "max": 0.6},
                 "peak_rss_mb": {"median": 30.0, "min": 29.0, "max": 31.0}}}
    assert list(bench["perfbench"]) == ["synth", "series", "draws", "roundtrip"]
    assert bench["perfbench"]["draws"]["peak_rss_mb"] == 5
    assert all(w["correct"] for w in bench["perfbench"].values())


def test_prop43_db10_child_stays_under_the_ceiling(runner, tmp_path):
    # The sup norm of a db10 table at r_psi = 20 is read off psi at the
    # search depth, not the full table: about 300 MB when it was.  run_child
    # runs in a fresh interpreter, since a child's peak RSS starts from the
    # RSS of the process it is forked from, and this one may be large.
    src = str(SCRIPT.parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import os, runpy, sys; run_child = runpy.run_path(sys.argv[1])['run_child']; "
             "print(*run_child(sys.argv[2:], dict(os.environ)))")
    argv = [sys.executable, "-m", "rwslab.cli", "run", "prop43", "--out", str(tmp_path),
            "--set", "wavelet=daubechies", "--set", "vanishing_moments=10", "--set", "seeds=2"]
    out = subprocess.run([sys.executable, "-c", probe, str(SCRIPT), *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, _, _, rss, faults = out.split()[-5:]
    assert int(code) == 0
    assert float(rss) < runner.RSS_CEILING_MB
    assert int(faults) > 0
