"""Package surface: exports, import cost, and the names the bench traces."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rwslab

ROOT = Path(__file__).resolve().parents[1]


def test_all_exports_unique_and_resolve():
    names = rwslab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rwslab, n)] == []


def run_fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, which loads only what it asks for
    (this one has scipy loaded already), with the package on its path."""
    src = str(Path(rwslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_leaves_scipy_unloaded():
    # scipy comes in with the first dense Gaussian array: a single draw and
    # the pair of words abs_max finishes run scipy's ndtri without it.
    code = """if True:
        import sys
        import numpy as np
        import rwslab, rwslab.cli
        print("scipy" in sys.modules)
        rwslab.draw(rwslab.heavy_tail(2.0), 0, ("coef", 3, 1))
        print("scipy" in sys.modules)
        rwslab.draw(rwslab.gaussian(), 0, ("coef", 3, 1))
        rwslab.abs_max(rwslab.gaussian(), 0, "coef", 12, 0, 2**12)
        env = rwslab.uniform_decay_envelope(0.4, 8)
        rwslab.randomized_envelope(env, rwslab.gaussian(), 0)
        print("scipy" in sys.modules)
        rwslab.draw_array(rwslab.gaussian(), 0, "coef", 3, np.arange(3))
        print("scipy" in sys.modules)
    """
    assert run_fresh(code).stdout.split() == ["False", "False", "False", "True"]


def test_gaussian_exceedances_cut_leaves_scipy_unloaded():
    # The cut search transforms its probes through the scalar ndtri, and a
    # threshold no Gaussian word reaches leaves no candidate to transform.
    code = """if True:
        import sys
        from rwslab.laws import exceedances, gaussian
        print(*exceedances(gaussian(), 0, "coef", 12, 0, 4096, 27.0), "scipy" in sys.modules)
    """
    assert run_fresh(code).stdout.split() == ["0", "None", "False"]


def test_hmin_run_leaves_scipy_unloaded(tmp_path):
    code = f"""if True:
        import sys
        from rwslab.cli import main
        code = main(["run", "hmin", "--out", {str(tmp_path)!r}, "--set", "j_max=12",
                     "--set", "j_lo=6", "--set", "j_hi=12", "--set", "seeds=2"])
        print(code, "scipy" in sys.modules)
    """
    assert run_fresh(code, cwd=tmp_path).stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "estimates.csv").exists()


def test_import_builds_no_lookup_table():
    # A fresh interpreter: the CSV digit table and the word-block counter
    # table are built on their first use, so runs that write no float-only
    # CSV and stream no word block never pay for them.
    code = """if True:
        import tempfile
        from pathlib import Path
        import numpy as np
        import rwslab, rwslab.cli
        from rwslab import laws, util
        tables = (util._quads, laws._steps)
        print(*[t.cache_info().currsize for t in tables])
        laws.abs_max(laws.heavy_tail(2.0), 0, "coef", 3, 0, 8)
        with tempfile.TemporaryDirectory() as tmp:
            util.write_csv(Path(tmp, "x.csv"), [("x", np.linspace(0.1, 1.0, 5))])
        print(*[t.cache_info().currsize for t in tables])
    """
    assert run_fresh(code).stdout.split() == ["0", "0", "1", "1"]


def test_perfbench_span_targets_exist():
    # perfbench/spans.py rebinds these names for traced runs; a rename or
    # deletion in the package would make every traced run fail.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        module_name, fn_name = target.split(".")
        module = importlib.import_module(f"rwslab.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(target)
    assert missing == []


def test_perfbench_roundtrip_library_calls_exist():
    # perfbench/jobs.py runs the roundtrip workload through ``lib.<name>``
    # with lib = rwslab; a deletion here would fail every roundtrip job.
    tree = ast.parse((ROOT / "perfbench" / "jobs.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    assert names
    assert sorted(n for n in names if not callable(getattr(rwslab, n, None))) == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []
