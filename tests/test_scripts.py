"""The defaults runner's exit code and total line, with the children faked,
and one real child under the runner's memory ceiling."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
