"""The defaults runner's exit code and total line, with the children faked."""

from __future__ import annotations

import importlib.util
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
        return exit_code, 0.5, 0.5, rss

    monkeypatch.setattr(runner, "run_child", fake_child)
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", *children, "--out", str(tmp_path)])
    assert runner.main() == code
    total = capsys.readouterr().out.splitlines()[-1]
    assert total.startswith("total: ")
    if named:
        assert total.endswith(f"above the {runner.RSS_CEILING_MB} MB ceiling: " + ", ".join(named))
    else:
        assert "ceiling" not in total
