"""Contract tests for the experiment registry and its command line front end.

Every experiment here runs shrunk (small resolutions, few seeds) so the
module stays fast; full-scale runs live in the acceptance suite.
"""

import ctypes
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rwslab
from rwslab.cli import main
from rwslab.constructions import unbounded_series_field
from rwslab.errors import InvalidParameterError, NumericalFailureError
from rwslab.estimators import sup_growth
from rwslab.experiments import (
    _INT_BOUNDS,
    _PARSERS,
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    config_digest,
    resolve_config,
    run_experiment,
)
from rwslab.fields import CoefficientField
from rwslab.util import canonical_json, sha256_file
from rwslab.wavelets import build_filter, cascade_evaluate, pyramid_evaluate

ALL_NAMES = ("criteria", "figure1", "hmin", "modulus", "prevalence",
             "prop22", "prop31", "prop43", "prop46", "wiener")


def read_manifest(out_dir):
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_rows(path, skiprows=2):
    return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)


# ------------------------------------------------------------- registry


def test_registry_names():
    assert EXPERIMENT_NAMES == ALL_NAMES


def test_defaults_are_flat_json_scalars():
    for name in EXPERIMENT_NAMES:
        config = resolve_config(name)
        assert config == json.loads(canonical_json(config))
        for key, value in config.items():
            assert isinstance(value, (bool, int, float, str)), (name, key)
        assert "seed" in config


def test_registry_tables_name_only_default_keys():
    # a key dropped from the defaults must leave every table that reads it
    def is_int(term):
        return term.lstrip("-").isdigit()

    for name, exp in EXPERIMENTS.items():
        for chain in exp.orderings:
            operands = chain.split()[::2]
            assert [t for t in operands if t not in exp.defaults and not is_int(t)] == [], name
    keys = {key for exp in EXPERIMENTS.values() for key in exp.defaults}
    assert sorted(set(_INT_BOUNDS) - keys) == []
    assert sorted(set(_PARSERS) - keys) == []


def test_default_config_returns_a_copy():
    resolve_config("wiener")["seeds"] = -1
    assert resolve_config("wiener")["seeds"] > 0


# ------------------------------------------------------- config resolution


def test_override_values_parse_as_json_with_string_fallback():
    config = resolve_config("modulus", None, {
        "law": "rademacher", "seeds": "3", "alpha": "0.25", "gamma": "0"})
    assert config["law"] == "rademacher"
    assert config["seeds"] == 3 and isinstance(config["seeds"], int)
    assert config["alpha"] == 0.25
    assert config["gamma"] == 0.0 and isinstance(config["gamma"], float)


def test_unknown_key_and_wrong_types_rejected():
    with pytest.raises(InvalidParameterError):
        resolve_config("criteria", None, {"horzion": "12"})
    with pytest.raises(InvalidParameterError):
        resolve_config("wiener", None, {"seeds": "many"})
    with pytest.raises(InvalidParameterError):
        resolve_config("wiener", None, {"seeds": "2.5"})
    with pytest.raises(InvalidParameterError):
        resolve_config("modulus", None, {"law": "7"})
    with pytest.raises(InvalidParameterError):
        resolve_config("prop31", None, {"log_all": "1"})
    assert resolve_config("prop31", None, {"log_all": "true"})["log_all"] is True


@given(st.data())
def test_precedence_overrides_beat_file_beat_defaults(data):
    defaults = resolve_config("wiener")
    int_keys = sorted(k for k, v in defaults.items()
                      if isinstance(v, int) and not isinstance(v, bool))
    # 1..25 lies inside every key's bounds, resolution's [0, 26) the tightest
    file_obj = data.draw(st.dictionaries(st.sampled_from(int_keys),
                                         st.integers(1, 25)))
    set_vals = data.draw(st.dictionaries(st.sampled_from(int_keys),
                                         st.integers(1, 25)))
    config = resolve_config("wiener", dict(file_obj),
                            {k: str(v) for k, v in set_vals.items()})
    for key in int_keys:
        assert config[key] == set_vals.get(key, file_obj.get(key, defaults[key]))


def test_digest_depends_on_experiment_and_config():
    config = resolve_config("criteria")
    base = config_digest("criteria", config)
    assert len(base) == 64 and base == config_digest("criteria", dict(config))
    assert base != config_digest("prop46", config)
    assert base != config_digest("criteria", {**config, "seed": 99})


# ------------------------------------------------------------- exit codes


def test_unknown_experiment_exits_2_with_name_list(capsys):
    assert main(["run", "prop99"]) == 2
    err = capsys.readouterr().err
    assert "prop99" in err
    for name in ALL_NAMES:
        assert name in err


def test_unknown_key_exits_2(tmp_path):
    assert main(["run", "criteria", "--out", str(tmp_path),
                 "--set", "horzion=12"]) == 2


def test_bad_value_exits_2(tmp_path):
    assert main(["run", "wiener", "--out", str(tmp_path),
                 "--set", "seeds=many"]) == 2


def test_runtime_parameter_error_exits_2(tmp_path):
    assert main(["run", "prop46", "--out", str(tmp_path),
                 "--set", "terms=30"]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "criteria", "--out", str(tmp_path),
                 "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("args", [
    ["modulus", "--set", "gamma=NaN"],
    ["modulus", "--set", "alpha=Infinity"],
    ["wiener", "--set", "seeds=0"],
    ["prop43", "--set", "seeds=-3"],
    ["prop22", "--set", "trials=0"],
    ["prop31", "--set", "seeds=0"],
    ["criteria", "--seed", "-1"],
    ["criteria", "--seed", str(2**64)],
    ["wiener", "--set", "m_hi=11"],
    ["wiener", "--set", "m_lo=0"],
    ["prop22", "--set", "j_lo=16"],
    ["prop43", "--set", "j_lo=0"],
    ["criteria", "--set", "kinds= , "],
    ["hmin", "--set", "j_max=26"],
    ["criteria", "--set", "rate=fancy"],
    ["criteria", "--set", "kinds=bogus"],
    ["modulus", "--set", "resolution=18"],
    ["figure1", "--set", "table_resolution=5"],
    ["prop31", "--set", "field_j_max=14", "--set", "law=bounded_uniform:1"],
    ["hmin", "--set", "j_max=10", "--set", "j_hi=12"],
    ["modulus", "--set", "m_hi=17"],
    ["prevalence", "--set", "field_law=heavy_tail:inf"],
    ["criteria", "--set", "rate=power-log:inf"],
    ["prop31", "--set", "exceedance_j_max=-1"],
    ["prop31", "--set", "exceedance_j_max=26"],
], ids=["nan", "infinity", "seeds-0", "seeds-negative", "trials-0",
        "prop31-seeds-0", "seed-negative", "seed-2-64", "m_hi-above-resolution",
        "m_lo-0", "j_lo-not-below-j_hi", "j_lo-0", "empty-kinds", "j_max-above-cap",
        "unknown-rate", "unknown-kind", "resolution-above-table",
        "table-below-search-granularity", "field_j_max-above-j_max",
        "j_hi-above-j_max",
        "m_hi-not-below-resolution", "non-finite-field-law", "non-finite-rate",
        "exceedance_j_max-negative", "exceedance_j_max-above-cap"])
def test_unrunnable_config_exits_2_without_output(tmp_path, args):
    out = tmp_path / "out"
    assert main(["run", *args, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []       # neither out nor a temporary


def test_parse_error_names_its_config_key(tmp_path, capsys):
    assert main(["run", "prop31", "--set", "field_law=bogus", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error[invalid-parameter]: prop31 config key 'field_law': unknown law 'bogus'")


@pytest.mark.parametrize("name", ["figure1", "modulus", "prop43"])
def test_law_parsed_before_any_table(tmp_path, monkeypatch, name):
    def no_table(config):
        raise AssertionError("wavelet table built for an invalid law")

    monkeypatch.setattr("rwslab.experiments._table", no_table)
    out = tmp_path / "out"
    assert main(["run", name, "--set", "law=bogus", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, args, message", [
    ("figure1", ["--set", "j_lo=10", "--set", "j_hi=9"],
     "figure1 needs 0 <= j_lo <= j_hi, got j_lo=10, j_hi=9"),
    ("modulus", ["--set", "gamma=-2"], "modulus needs 0 <= gamma, got gamma=-2.0"),
    ("figure1", ["--set", "depth=40", "--set", "table_resolution=13"],
     "figure1 needs 0 <= depth <= table_resolution, got depth=40, table_resolution=13"),
], ids=["figure1-j_lo-above-j_hi", "modulus-gamma-negative", "figure1-depth-above-table"])
def test_ordering_checked_before_any_table(tmp_path, monkeypatch, capsys, name, args,
                                           message):
    def no_table(*a, **k):
        raise AssertionError("wavelet table built for an out-of-order config")

    monkeypatch.setattr("rwslab.experiments.cascade_evaluate", no_table)
    out = tmp_path / "out"
    assert main(["run", name, *args, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, code", [
    # fails in its third output, after the two Fourier paths are written
    (["figure1", "--set", "fourier_terms=16", "--set", "resolution=8",
      "--set", "table_resolution=12", "--set", "j_lo=2", "--set", "j_hi=9"], 2),
    (["hmin", "--set", "j_max=12", "--set", "j_lo=8", "--set", "j_hi=10"], 3),
], ids=["figure1-partial", "hmin-exit-3"])
def test_failed_run_writes_nothing(tmp_path, args, code):
    out = tmp_path / "nested" / "out"
    assert main(["run", *args, "--out", str(out)]) == code
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, code, tag", [
    (["hmin", "--set", "seeds=1", "--set", "alpha=-43"], 2, "invalid-parameter"),
    (["modulus", "--set", "seeds=1", "--set", "j_max=8", "--set", "resolution=12",
      "--set", "table_resolution=12", "--set", "m_lo=2", "--set", "m_hi=11",
      "--set", "alpha=100"], 3, "numerical-failure"),
    (["wiener", "--set", "resolution=40"], 2, "invalid-parameter"),
    (["figure1", "--set", "table_resolution=40"], 2, "invalid-parameter"),
    (["wiener", "--set", f"fourier_terms={2**25 + 1}"], 2, "invalid-parameter"),
    (["prop43", "--set", "law=heavy_tail:0.001"], 2, "invalid-parameter"),
    (["prop43", "--set", "rate_power=300", "--set", "seeds=1"], 2, "invalid-parameter"),
    (["modulus", "--set", "gamma=0.001", "--set", "seeds=1", "--set", "j_max=8",
      "--set", "resolution=12", "--set", "m_hi=11", "--set", "table_resolution=12"],
     2, "invalid-parameter"),
], ids=["hmin-envelope-overflow", "modulus-infinite-flags", "wiener-resolution-40",
        "figure1-table_resolution-40", "wiener-fourier_terms-above-2^25",
        "prop43-overflowing-draws", "prop43-rate-power-overflow", "modulus-log-power-overflow"])
def test_edge_config_exits_tagged(tmp_path, capsys, args, code, tag):
    # Overflows, non-finite flags and oversized grids exit with their own
    # tag, never as an internal error, and write nothing.  The oversized
    # configs are rejected at coercion, before anything is allocated.
    out = tmp_path / "nested" / "out"
    assert main(["run", *args, "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error[{tag}]: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, tag", [
    (["modulus", "--set", "seeds=1", "--set", "j_max=8", "--set", "resolution=12",
      "--set", "table_resolution=12", "--set", "m_lo=2", "--set", "m_hi=11",
      "--set", "alpha=100"], "numerical-failure"),
    (["prop43", "--set", "law=heavy_tail:0.001", "--set", "seeds=1"], "invalid-parameter"),
], ids=["modulus-infinite-flags", "prop43-overflowing-draws"])
def test_overflow_prints_only_the_tagged_line(tmp_path, args, tag):
    # A fresh interpreter shows stderr as a user sees it: numpy's
    # floating-point warnings, with their source lines, would come first.
    src = str(Path(rwslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "rwslab.cli", "run", *args, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode in (2, 3)
    assert proc.stderr.startswith(f"error[{tag}]: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_manifest_lists_every_file_the_runner_left(tmp_path, monkeypatch):
    def runner(config, out, comment):
        for name in ("b.csv", "a.txt"):
            (out / name).write_text(name)
        return {"files": 2}

    monkeypatch.setitem(EXPERIMENTS, "criteria",
                        dataclasses.replace(EXPERIMENTS["criteria"], runner=runner))
    assert main(["run", "criteria", "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["flags"] == {"files": 2}
    assert manifest["outputs"] == [{"path": n, "sha256": sha256_file(tmp_path / n)}
                                   for n in ("a.txt", "b.csv")]


def test_failed_rerun_keeps_previous_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "criteria", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "criteria", "--out", str(out), "--set", "rate=fancy"]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert list(tmp_path.iterdir()) == [out]


def test_runner_range_check_exits_2(tmp_path):
    assert main(["run", "wiener", "--out", str(tmp_path),
                 "--set", "m_hi=11"]) == 2


def test_unexpected_exception_exits_3(tmp_path, monkeypatch, capsys):
    def broken(config, out, comment):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(EXPERIMENTS, "criteria",
                        dataclasses.replace(EXPERIMENTS["criteria"], runner=broken))
    assert main(["run", "criteria", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error[internal]: RuntimeError: runner bug\n"


def test_largest_seed_accepted(tmp_path):
    assert main(["run", "criteria", "--seed", str(2**64 - 1),
                 "--out", str(tmp_path)]) == 0
    assert read_manifest(tmp_path)["config"]["seed"] == 2**64 - 1


def test_failed_run_leaves_no_manifest(tmp_path):
    # unchecked library call: no seeds leave NaN means, and a NaN flag is
    # a numerical failure
    config = {**resolve_config("wiener"), "seeds": 0, "fourier_terms": 8,
              "resolution": 6, "m_hi": 6}
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NumericalFailureError, match="wiener flag 'grand_mean'"):
        run_experiment("wiener", config, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_insufficient_window_exits_3(tmp_path, capsys):
    code = main(["run", "hmin", "--out", str(tmp_path), "--set", "j_max=10",
                 "--set", "j_lo=8", "--set", "j_hi=10", "--set", "seeds=1"])
    assert code == 3
    assert "insufficient-data" in capsys.readouterr().err


# --------------------------------------------------------------- criteria


def test_criteria_defaults_manifest_and_verdicts(tmp_path):
    assert main(["run", "criteria", "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["experiment"] == "criteria"
    assert manifest["config"] == resolve_config("criteria", None, {})
    digest = config_digest("criteria", manifest["config"])
    assert manifest["digest"] == digest
    assert [e["path"] for e in manifest["outputs"]] == ["verdicts.csv"]
    for entry in manifest["outputs"]:
        assert sha256_file(tmp_path / entry["path"]) == entry["sha256"]
    assert "started" in manifest and "finished" in manifest

    lines = (tmp_path / "verdicts.csv").read_text().splitlines()
    assert lines[0] == f"# manifest_digest={digest}"
    assert lines[1] == "kind,verdict,gamma"
    verdicts = {ln.split(",")[0]: ln.split(",")[1] for ln in lines[2:]}
    assert verdicts == {"linfty": "holds", "c0": "holds", "l1": "holds",
                        "sqrtj": "fails", "loglog": "holds"}
    assert manifest["flags"]["l1"] == "holds"
    assert manifest["flags"]["sqrtj"] == "fails"
    assert manifest["flags"]["loglog"] == "holds"


def test_criteria_gamma_row(tmp_path):
    assert main(["run", "criteria", "--out", str(tmp_path / "alone"),
                 "--set", "kinds=gamma", "--set", "gamma=2.0"]) == 0
    lines = (tmp_path / "alone" / "verdicts.csv").read_text().splitlines()
    assert lines[2].startswith("gamma,")
    assert lines[2].split(",")[2] == "2"
    # beside kinds with an empty gamma cell, gamma is written the same way
    assert main(["run", "criteria", "--out", str(tmp_path / "mixed"),
                 "--set", "kinds=linfty,gamma", "--set", "gamma=2.0"]) == 0
    lines = (tmp_path / "mixed" / "verdicts.csv").read_text().splitlines()
    assert lines[2:] == ["linfty,holds,", "gamma,fails,2"]


@pytest.mark.parametrize("args", [
    ["--set", "kinds=gamma"],
    ["--set", "kinds=linfty,gamma", "--set", "gamma=3.0"],
    ["--set", "kinds=gamma", "--set", "gamma=-1.0"],
], ids=["default-gamma", "gamma-above-2", "gamma-negative"])
def test_criteria_gamma_checked_before_any_output(tmp_path, monkeypatch, capsys, args):
    def no_verdict(*a, **k):
        raise AssertionError("verdict taken for an invalid gamma")

    monkeypatch.setattr("rwslab.experiments.check_criterion", no_verdict)
    out = tmp_path / "out"
    assert main(["run", "criteria", *args, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []       # neither out nor a temporary
    assert "criteria config key 'gamma'" in capsys.readouterr().err


def test_criteria_gamma_check_leaves_other_exits(tmp_path, capsys):
    # gamma is read only when kinds names it; earlier rejects keep their
    # exit code and their own message
    assert main(["run", "criteria", "--set", "kinds=linfty", "--set", "gamma=3.0",
                 "--out", str(tmp_path / "ok")]) == 0
    for args in (["--set", "kinds=bogus"], ["--set", "rate=fancy", "--set", "kinds=gamma"],
                 ["--set", "gamma=NaN", "--set", "kinds=gamma"]):
        capsys.readouterr()
        assert main(["run", "criteria", *args, "--out", str(tmp_path / "bad")]) == 2
        assert "(0, 2]" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok"]


def test_criteria_unknown_rate_exits_2(tmp_path):
    assert main(["run", "criteria", "--out", str(tmp_path),
                 "--set", "rate=fancy"]) == 2


@pytest.mark.parametrize("rate", ["power-log:-1", "power-log:0:300"])
def test_criteria_decides_rates_without_evaluating_them(tmp_path, rate):
    # the rate values overflow a float at large j (2^j, j^300); the
    # verdicts read only the exponents
    assert main(["run", "criteria", "--set", f"rate={rate}", "--out", str(tmp_path)]) == 0
    flags = read_manifest(tmp_path)["flags"]
    assert flags == dict.fromkeys(["linfty", "c0", "l1", "sqrtj", "loglog"], "fails")


@pytest.mark.parametrize("name", ["criteria", "prop46"])
def test_horizon_is_not_a_config_key(tmp_path, capsys, name):
    # no output read the horizon, so a manifest that carries it is refused
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps({"experiment": name,
                               "config": {**resolve_config(name), "horizon": 4096}}))
    for args in (["--set", "horizon=4096"], ["--config", str(old)]):
        assert main(["run", name, *args, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown {name} config key 'horizon'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [old]


def test_prop31_depth_is_not_a_config_key(tmp_path, capsys):
    # the global sups prop31 writes are the same at every cell depth
    old = tmp_path / "manifest.json"
    old.write_text(json.dumps({"experiment": "prop31",
                               "config": {**resolve_config("prop31"), "depth": 4}}))
    for args in (["--set", "depth=4"], ["--config", str(old)]):
        assert main(["run", "prop31", *args, "--out", str(tmp_path / "out")]) == 2
        assert "unknown prop31 config key 'depth'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [old]


def test_config_precedence_through_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.5, "rate": "harmonic"}))
    out = tmp_path / "out"
    assert main(["run", "criteria", "--config", str(cfg), "--out", str(out),
                 "--set", "gamma=1.5"]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["gamma"] == 1.5
    assert manifest["config"]["rate"] == "harmonic"
    assert manifest["config"]["kinds"] == resolve_config("criteria")["kinds"]
    verdicts = dict(ln.split(",")[:2] for ln in
                    (out / "verdicts.csv").read_text().splitlines()[2:])
    assert verdicts["l1"] == "fails"      # sum 1/j diverges


def test_seed_flag_sets_seed_but_set_wins(tmp_path):
    assert main(["run", "criteria", "--out", str(tmp_path / "a"),
                 "--seed", "7"]) == 0
    assert read_manifest(tmp_path / "a")["config"]["seed"] == 7
    assert main(["run", "criteria", "--out", str(tmp_path / "b"),
                 "--seed", "7", "--set", "seed=9"]) == 0
    assert read_manifest(tmp_path / "b")["config"]["seed"] == 9


# ---------------------------------------------------------- reproduction


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(["run", "prop46", "--out", str(first), "--set", "terms=5"]) == 0
    assert main(["run", "prop46", "--config", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    m1, m2 = read_manifest(first), read_manifest(again)
    assert m1["config"] == m2["config"]
    assert m1["digest"] == m2["digest"]
    assert [e["sha256"] for e in m1["outputs"]] == [e["sha256"] for e in m2["outputs"]]
    for entry in m1["outputs"]:
        assert (first / entry["path"]).read_bytes() == (again / entry["path"]).read_bytes()


def test_manifest_for_other_experiment_exits_2(tmp_path):
    assert main(["run", "prop46", "--out", str(tmp_path), "--set", "terms=4"]) == 0
    assert main(["run", "criteria", "--config", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path / "other")]) == 2


def test_modulus_outputs_identical_on_rerun(tmp_path):
    shrunk = ["--set", "resolution=12", "--set", "table_resolution=12",
              "--set", "j_max=8", "--set", "m_lo=4", "--set", "m_hi=7",
              "--set", "seeds=2"]
    digests = []
    for idx in range(2):
        out = tmp_path / str(idx)
        assert main(["run", "modulus", "--out", str(out), *shrunk]) == 0
        digests.append([e["sha256"] for e in read_manifest(out)["outputs"]])
    assert digests[0] == digests[1]


# ------------------------------------------------------- shrunk experiments


def test_figure1_outputs(tmp_path):
    assert main(["run", "figure1", "--out", str(tmp_path),
                 "--set", "fourier_terms=64", "--set", "resolution=10",
                 "--set", "table_resolution=12", "--set", "j_lo=4",
                 "--set", "j_hi=6", "--set", "depth=3"]) == 0
    manifest = read_manifest(tmp_path)
    outputs = ["randomized_sawtooth.csv", "sawtooth.csv", "wiener.csv"]
    assert [e["path"] for e in manifest["outputs"]] == outputs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", *outputs]
    assert manifest["flags"]["profile_resolution"] == 12
    for name in ("sawtooth.csv", "wiener.csv", "randomized_sawtooth.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first == f"# manifest_digest={manifest['digest']}"
    assert load_rows(tmp_path / "sawtooth.csv").shape == (1024, 2)
    for name in ("sawtooth.csv", "wiener.csv"):
        # x = 0 is a zero of every mode: written as 0, never -0
        assert (tmp_path / name).read_text().splitlines()[2] == "0,0"
    assert load_rows(tmp_path / "wiener.csv").shape == (1024, 2)
    profile = load_rows(tmp_path / "randomized_sawtooth.csv")
    assert profile.shape == (3 * 8, 4)          # truncations 4..6, 2^3 cells
    assert set(profile[:, 0]) == {4.0, 5.0, 6.0}


def test_prop22_tail_bounds_and_witness(tmp_path):
    assert main(["run", "prop22", "--out", str(tmp_path),
                 "--set", "trials=3", "--set", "j_lo=5", "--set", "j_hi=8",
                 "--set", "table_resolution=12", "--set", "witness_levels=2",
                 "--set", "witness_j_max=8"]) == 0
    manifest = read_manifest(tmp_path)
    rows = load_rows(tmp_path / "tail_bounds.csv")
    assert rows.shape == (3, 4)
    assert np.all(rows[:, 1] <= rows[:, 2])     # triangle inequality bound
    assert np.all(rows[:, 3] == 1.0)
    assert manifest["flags"]["fraction_within"] == 1.0

    wit = load_rows(tmp_path / "witness.csv")
    assert wit.shape == (2, 6)
    assert np.all(wit[:, 4] >= wit[:, 5])       # averages clear 0.8 * C * sum
    assert manifest["flags"]["witness_levels_exceeding"] == 2


@pytest.fixture
def syntheses(monkeypatch):
    """What a runner synthesizes: "sup" for each ``sup_growth`` call, "grid"
    for each evaluation of a whole table grid, by ``synthesize`` or any
    other route."""
    made = []

    def counting_sups(*args):
        made.append("sup")
        return sup_growth(*args)

    def evaluate(coarse, a, table, resolution, *window):
        values = pyramid_evaluate(coarse, a, table, resolution, *window)
        if values.size == 2**table.r_psi:
            made.append("grid")
        return values

    monkeypatch.setattr("rwslab.experiments.sup_growth", counting_sups)
    for module in ("estimators", "synthesis", "wavelets"):
        monkeypatch.setattr(f"rwslab.{module}.pyramid_evaluate", evaluate)
    return made


@pytest.mark.parametrize("name, args, calls", [
    ("prop22", ["trials=3", "j_lo=5", "j_hi=8", "table_resolution=12",
                "witness_levels=2", "witness_j_max=8"], 3),
    ("prop43", ["seeds=3", "j_lo=4", "j_hi=6", "table_resolution=10"], 3),
])
def test_tail_bounds_synthesize_once_per_trial(tmp_path, syntheses, name, args, calls):
    # One sup of one tail synthesis per trial or seed, taken without a grid;
    # prop22's witness averages evaluate only the cells under their windows.
    sets = [a for kv in args for a in ("--set", kv)]
    assert main(["run", name, "--out", str(tmp_path), *sets]) == 0
    assert syntheses == ["sup"] * calls


@pytest.mark.parametrize("wavelet", [
    ["wavelet=haar", "table_resolution=12", "witness_j_max=8"],
    ["wavelet=daubechies", "vanishing_moments=4", "table_resolution=16", "witness_j_max=12"]])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_prop22_rejects_a_non_finite_witness_field(tmp_path, monkeypatch, capsys, wavelet, bad):
    # The witness means evaluate only the cells under their windows, but a
    # non-finite coefficient anywhere still fails the run as a config error.
    def spoiled(env, placement):
        field_ = unbounded_series_field(env, placement)
        field_.levels[2][3] = bad  # under every witness cut, far from every window
        return field_

    monkeypatch.setattr("rwslab.experiments.unbounded_series_field", spoiled)
    sets = [a for kv in ["trials=2", "j_lo=5", "j_hi=8", "witness_levels=2", *wavelet]
            for a in ("--set", kv)]
    out = tmp_path / "out"
    assert main(["run", "prop22", "--out", str(out), *sets]) == 2
    assert not out.exists()
    assert "error[invalid-parameter]: sample path contains non-finite values" in \
        capsys.readouterr().err


def test_prop22_rejects_a_witness_window_without_grid_points(tmp_path, capsys):
    # db4 at r_psi 14 places scale 9 at [0.29998779296875, 0.300018310546875),
    # whose ends both fall on grid index 4915: no point to average over
    sets = [a for kv in ["wavelet=daubechies", "vanishing_moments=4", "table_resolution=14",
                         "witness_j_max=10", "witness_levels=2", "trials=2", "j_lo=5",
                         "j_hi=8"] for a in ("--set", kv)]
    out = tmp_path / "out"
    assert main(["run", "prop22", "--out", str(out), *sets]) == 2
    assert not out.exists()
    assert "error[invalid-parameter]: window [4915, 4915) needs 0 <= lo < hi <= 2^14" in \
        capsys.readouterr().err


def test_prop22_rejects_witness_levels_before_trials(tmp_path, syntheses):
    assert main(["run", "prop22", "--out", str(tmp_path), "--set", "trials=2",
                 "--set", "witness_levels=50"]) == 2
    assert syntheses == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value, message", [
    ("witness_levels", -1, "must lie in [1, inf), got -1"),
    ("witness_levels", 0, "must lie in [1, inf), got 0"),
    ("witness_j_max", -1, "must lie in [0, 26), got -1"),
    ("witness_j_max", 26, "must lie in [0, 26), got 26"),
])
def test_prop22_witness_keys_bounded_before_any_table(tmp_path, monkeypatch, capsys, key,
                                                      value, message):
    # witness_j_max levels are dense, so a value past the level cap would try
    # to allocate 2^j entries per level; a table build fails the test first.
    def no_table(*a, **k):
        raise AssertionError("wavelet table built for an out-of-range witness key")

    monkeypatch.setattr("rwslab.experiments.cascade_evaluate", no_table)
    out = tmp_path / "out"
    assert main(["run", "prop22", "--set", f"{key}={value}", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert f"prop22 config key '{key}' {message}" in capsys.readouterr().err


def test_prop22_witness_j_max_far_past_the_cap_rejected_by_its_bound():
    with pytest.raises(InvalidParameterError, match="'witness_j_max' must lie in"):
        resolve_config("prop22", overrides={"witness_j_max": "200"})


def test_prop31_unbounded_regime(tmp_path):
    assert main(["run", "prop31", "--out", str(tmp_path),
                 "--set", "seeds=3", "--set", "exceedance_j_max=6"]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["flags"]["regime"] == "exceedance events logged"
    assert manifest["flags"]["seeds_with_event"] == 3
    rows = load_rows(tmp_path / "exceedances.csv")
    assert rows.shape[1] == 5 and rows.shape[0] >= 3
    assert np.all(np.abs(rows[:, 3]) >= 1)      # each event counts >= 1 hit


def test_prop31_bounded_regime(tmp_path):
    assert main(["run", "prop31", "--out", str(tmp_path),
                 "--set", "law=rademacher", "--set", "seeds=3",
                 "--set", "field_j_max=4", "--set", "j_max=6",
                 "--set", "table_resolution=10"]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["flags"]["regime"] == "bounded-regime"
    assert manifest["flags"]["max_variation"] == 0.0
    rows = load_rows(tmp_path / "stability.csv")
    assert rows.shape == (9, 3)                 # 3 seeds x truncations 4, 5, 6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the filter bank
def test_prop31_overflowing_bounded_law_exits_2(tmp_path, capsys):
    # Draws up to 1.79e308 are finite, their partial sums are not: the sup
    # profile rejects the path before any output or manifest is written.
    out = tmp_path / "out"
    assert main(["run", "prop31", "--out", str(out),
                 "--set", "law=bounded_uniform:1.79e308"]) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == (
        "error[invalid-parameter]: sample path contains non-finite values\n")


def test_prevalence_witness_tables(tmp_path):
    assert main(["run", "prevalence", "--out", str(tmp_path),
                 "--set", "seeds=2", "--set", "j_max=8"]) == 0
    summary = load_rows(tmp_path / "summary.csv")
    assert summary.shape == (2, 2)
    wit = load_rows(tmp_path / "witnesses.csv")
    assert wit.shape[1] == 7
    assert np.all(wit[:, 3] >= wit[:, 4])       # witness blocks <= blocks


def test_prop43_sqrt_bounds(tmp_path):
    assert main(["run", "prop43", "--out", str(tmp_path),
                 "--set", "seeds=3", "--set", "j_lo=4", "--set", "j_hi=6",
                 "--set", "table_resolution=10"]) == 0
    rows = load_rows(tmp_path / "sqrt_bounds.csv")
    assert rows.shape == (3, 4)
    assert np.all(rows[:, 1] > 0)
    flags = read_manifest(tmp_path)["flags"]
    assert 0.0 <= flags["fraction_within"] <= 1.0
    assert flags["bound"] == pytest.approx(rows[0, 2])


def test_prop46_construction_table(tmp_path):
    assert main(["run", "prop46", "--out", str(tmp_path),
                 "--set", "terms=6"]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["flags"]["scale_ratio"] == 5
    assert manifest["flags"]["l1"] == "holds"
    assert manifest["flags"]["sqrtj"] == "fails"
    assert manifest["flags"]["loglog"] == "holds"
    rows = load_rows(tmp_path / "construction.csv")
    assert rows.shape == (6, 6)
    assert np.all(rows[:, 1] == 5.0 ** rows[:, 0])
    assert np.all(np.diff(rows[:, 2]) < 0)      # omega decreasing
    assert np.all(np.diff(rows[:, 5]) > 0)      # l1 partial sums increasing


def test_modulus_ratio_table(tmp_path):
    assert main(["run", "modulus", "--out", str(tmp_path),
                 "--set", "resolution=12", "--set", "table_resolution=12",
                 "--set", "j_max=8", "--set", "m_lo=4", "--set", "m_hi=7",
                 "--set", "seeds=2"]) == 0
    rows = load_rows(tmp_path / "modulus.csv")
    assert rows.shape == (8, 7)                 # 2 seeds x m = 4..7
    assert np.allclose(rows[:, 2], 0.5 ** rows[:, 1])
    assert np.all(rows[:, 3] > 0)
    flags = read_manifest(tmp_path)["flags"]
    assert flags["median_spread"] >= 1.0
    assert 0.0 <= flags["rising_fraction"] <= 1.0
    assert flags["strict_rising_fraction"] <= flags["rising_fraction"]


def test_hmin_estimates(tmp_path):
    assert main(["run", "hmin", "--out", str(tmp_path),
                 "--set", "alpha=0.4", "--set", "j_max=12", "--set", "j_lo=6",
                 "--set", "j_hi=12", "--set", "seeds=2"]) == 0
    flags = read_manifest(tmp_path)["flags"]
    assert flags["deterministic_alpha"] == pytest.approx(0.4, abs=1e-9)
    assert flags["rademacher_exact"] is True
    rows = load_rows(tmp_path / "estimates.csv")
    assert rows.shape == (2, 3)
    # csv rendering rounds to 15 significant digits; exactness is the flag
    assert rows[:, 2] == pytest.approx(flags["deterministic_alpha"], abs=1e-12)


def test_hmin_builds_no_field(tmp_path, monkeypatch):
    # hmin works on scale envelopes alone; no coefficient level is allocated
    def refuse(self):
        raise AssertionError("hmin built a CoefficientField")

    monkeypatch.setattr(CoefficientField, "__post_init__", refuse)
    assert main(["run", "hmin", "--out", str(tmp_path), "--set", "j_max=12",
                 "--set", "j_lo=6", "--set", "j_hi=12", "--set", "seeds=2"]) == 0


def test_wiener_increment_ratios(tmp_path):
    assert main(["run", "wiener", "--out", str(tmp_path),
                 "--set", "fourier_terms=256", "--set", "resolution=8",
                 "--set", "seeds=5", "--set", "m_lo=3", "--set", "m_hi=6"]) == 0
    flags = read_manifest(tmp_path)["flags"]
    assert 0.5 <= flags["grand_mean"] <= 1.5
    means = load_rows(tmp_path / "means.csv")
    assert means.shape == (4, 3)
    rows = load_rows(tmp_path / "variance.csv")
    assert rows.shape == (20, 4)
    assert np.all(rows[:, 3] > 0)


LAPACK_ROUTES = ("linalg.eig", "linalg.eigvals", "linalg.lstsq", "linalg.solve",
                 "linalg.svd", "linalg.inv", "polyfit")


def test_no_run_calls_lapack(tmp_path, monkeypatch):
    # scipy.special first, as a run may load it; then every numpy route
    # into LAPACK raises.  Daubechies tables come from repeated squaring and
    # slopes from their closed form, so every run and table still succeeds.
    importlib.import_module("scipy.special")

    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK route was called")

    for name in LAPACK_ROUTES:
        monkeypatch.setattr(f"numpy.{name}", refuse)
    runs = {
        "hmin": ["j_max=12", "j_lo=6", "j_hi=12", "seeds=2"],
        "modulus": ["resolution=12", "table_resolution=12", "j_max=8", "m_lo=4", "m_hi=7",
                    "seeds=2"],
        "figure1": ["fourier_terms=64", "resolution=10", "table_resolution=12", "j_lo=4",
                    "j_hi=6", "depth=3"],
        "prop22": ["trials=3", "j_lo=5", "j_hi=8", "table_resolution=12", "witness_levels=2",
                   "witness_j_max=8"],
        "prop43": ["seeds=3", "j_lo=4", "j_hi=6", "table_resolution=10",
                   "wavelet=daubechies", "vanishing_moments=4"],
        "prop31": ["seeds=3", "exceedance_j_max=6"],
    }
    for name, sets in runs.items():
        args = [arg for kv in sets for arg in ("--set", kv)]
        assert main(["run", name, "--out", str(tmp_path / name), *args]) == 0, name
    for n in range(2, 21):
        assert cascade_evaluate(build_filter("daubechies", n), 8).refinement_diffs


# ----------------------------------------------------------- entry point


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_smoke(tmp_path):
    """Run the declared ``rws-lab`` entry point as a console-script wrapper would.

    The target is read from ``[project.scripts]`` in ``pyproject.toml`` and
    called in a fresh interpreter, so the test needs no installed executable
    but still fails on a wrong or missing declaration.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rws-lab"]
    module, attr = target.split(":")
    src = str(Path(rwslab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; from {module} import {attr} as f; sys.exit(f())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "criteria", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "manifest.json").exists()
    assert "manifest.json" in proc.stdout


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Allocates a pair of 4 MiB arrays and frees it, three times, after one run,
# and prints the minor faults of the third pair.
ALLOCATOR_PROBE = """
import resource, sys
import numpy as np
from rwslab.cli import main

assert main(["run", "prop46", "--out", sys.argv[1]]) == 0
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pair = [np.ones(2**19), np.ones(2**19)]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    del pair
print(faults)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_cli_fixes_the_allocator_thresholds(tmp_path):
    # glibc's dynamic thresholds would follow the first free pair to a 4 MiB
    # mmap threshold and an 8 MiB trim threshold, so the freed pair's 8 MiB
    # would go back to the system and every later pair would fault its 2,048
    # pages in again.  A fresh interpreter starts from glibc's defaults.
    src = str(Path(rwslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", ALLOCATOR_PROBE, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout.split()[-1]) < 64


@pytest.mark.skipif(shutil.which("rws-lab") is None,
                    reason="rws-lab executable not on PATH (pip install -e .)")
def test_installed_executable_smoke(tmp_path):
    proc = subprocess.run(["rws-lab", "run", "criteria", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "manifest.json").exists()
    assert "manifest.json" in proc.stdout
