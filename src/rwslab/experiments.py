"""Named experiments behind the command line runner.

Each experiment carries a complete default configuration of flat JSON
scalars, so a bare ``run(name)`` works.  The resolved config map is hashed
together with the experiment name; that digest is stamped as a comment
line into every CSV the run writes and recorded in ``manifest.json`` next
to per-file content digests.  Re-running from a manifest therefore
reproduces the CSVs byte for byte, and any figure file can be traced back
to the exact parameters that produced it.

Two defaults deviate from the common R = 17 grid and are equivalent by
construction: the ``wiener`` experiment samples at R = 10 (coefficient
draws do not depend on the grid, so the R = 10 path is the R = 17 path
restricted to every 128th sample up to rounding, and all probed lags are
2^-10 or coarser), and sup profiles live on the mother-table grid R_psi,
which the config pins explicitly.  Haar profiles stop at 2^max(J+1, depth)
points instead: the box repeats each level-(J+1) value over its cell, so
their cell sups are those of the table grid bit for bit.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .constructions import (
    NestedPlacement,
    block_witness_process,
    coefficient_exceedances,
    divergence_scale_field,
    divergent_subsequence,
    nested_placement,
    sparse_loglog_rate,
    unbounded_series_field,
)
from .errors import InvalidParameterError, NumericalFailureError
from .estimators import (
    PowerLogModulus,
    export_profile_csv,
    hmin_estimate,
    modulus_ratio,
    sup_growth,
)
from .fields import (
    CRITERION_KINDS,
    PowerLogRate,
    check_criterion,
    envelope_from_rate,
    step_function_coefficients,
    uniform_decay_envelope,
    uniform_decay_field,
    zero_field,
)
from .laws import (
    bounded_uniform,
    draw_array,
    gaussian,
    parse_law,
    rademacher,
)
from .synthesis import (
    export_path_csv,
    fourier_sawtooth,
    randomized_envelope,
    randomized_field,
    randomized_synthesize,
    synthesize,
    wiener_brownian,
)
from .util import canonical_json, sha256_file, sha256_hex, slope, sup_abs, write_csv
from .wavelets import build_filter, cascade_evaluate


@dataclass(frozen=True)
class Experiment:
    """Complete defaults plus a runner writing CSVs into an output dir.

    The runner gets the config with every string key in ``_PARSERS``
    parsed, writes its files into the output dir and returns a flat dict
    of summary flags for the manifest; every file it leaves there is an
    output.  ``orderings`` are chains of config keys and integers joined
    by < or <=, such as "0 < j_lo < j_hi"; ``checks`` raise on a parsed
    config they reject.
    ``run_experiment`` runs both, after parsing, before any compute.
    """

    defaults: dict
    runner: Callable[[dict, Path, str], dict]
    orderings: tuple[str, ...] = ()
    checks: tuple[Callable[[dict], None], ...] = ()


def _write_rows(path, names, rows, comment):
    """Write row tuples as CSV columns named ``names``; no rows, header only."""
    write_csv(path, [(name, [r[i] for r in rows]) for i, name in enumerate(names)],
              comment=comment)


def _table(config):
    filt = build_filter(config["wavelet"], config["vanishing_moments"])
    return cascade_evaluate(filt, config["table_resolution"])


# ----------------------------------------------------------------- runners


def _run_figure1(config, out, comment):
    table = _table(config)
    terms, res, seed = config["fourier_terms"], config["resolution"], config["seed"]
    export_path_csv(fourier_sawtooth(terms, res), out / "sawtooth.csv", comment=comment)
    export_path_csv(wiener_brownian(terms, res, seed), out / "wiener.csv", comment=comment)

    coeffs = step_function_coefficients(table, "sawtooth", config["j_hi"])
    truncations = list(range(config["j_lo"], config["j_hi"] + 1))
    profile = sup_growth(randomized_field(coeffs, config["law"], seed), table, truncations,
                         config["depth"])
    export_profile_csv(profile, out / "randomized_sawtooth.csv", comment=comment)
    return {"profile_resolution": table.r_psi,
            "max_global_sup": float(profile.global_sups.max())}


def _run_prop22(config, out, comment):
    table = _table(config)
    res = table.r_psi
    rate = PowerLogRate(0.0, a=-1.0)
    env = envelope_from_rate(rate, config["witness_j_max"])
    placement = nested_placement(table, divergent_subsequence(rate, env.j_max))
    levels = config["witness_levels"]
    if len(placement.scales) < levels:
        raise InvalidParameterError(
            f"only {len(placement.scales)} feasible witness scales up to "
            f"j = {config['witness_j_max']}, need {levels}")
    # a greedy prefix is the placement of its own scales
    placement = NestedPlacement(placement.scales[:levels], placement.positions[:levels],
                                placement.intervals[:levels])
    j_lo, j_hi = config["j_lo"], config["j_hi"]
    level_factor = table.support_length * table.sup_norm
    law = bounded_uniform(1.0)
    trials, diffs, bounds = list(range(config["trials"])), [], []
    for trial in trials:
        # S_{j_hi} - S_{j_lo} is the synthesis of the levels above j_lo alone
        tail = zero_field(j_hi)
        for j in range(j_lo + 1, j_hi + 1):
            tail.levels[j][:] = 2.0**-j * draw_array(
                law, config["seed"], f"l1-trial-{trial}", j, np.arange(2**j))
        diffs.append(sup_growth(tail, table, [j_hi], 0).global_sups[0])
        bounds.append(level_factor * sum(sup_abs(lv) for lv in tail.levels[j_lo + 1 :]))
    within = [int(d <= b) for d, b in zip(diffs, bounds)]
    write_csv(out / "tail_bounds.csv",
              [("trial", trials), ("sup_diff", diffs),
               ("tail_bound", bounds), ("within", within)], comment=comment)

    field = unbounded_series_field(env, placement)
    rows = []
    for l, j_trunc in enumerate(placement.scales):
        lo_f, hi_f = placement.intervals[l]
        window = (int(lo_f * 2**res), int(hi_f * 2**res))
        # only the cells under the window are evaluated, not the 2^res grid
        average = float(synthesize(field, table, j_trunc, res, window).values.mean())
        target = 0.8 * table.positivity_floor * sum(
            env.values[j] for j in placement.scales[: l + 1])
        rows.append((l + 1, j_trunc, float(lo_f), float(hi_f), average, target))
    _write_rows(out / "witness.csv", ("level", "scale", "interval_lo", "interval_hi",
                                      "average", "threshold"), rows, comment)
    return {"fraction_within": float(np.mean(within)),
            "witness_levels_exceeding": sum(1 for r in rows if r[4] >= r[5])}


def _run_prop31(config, out, comment):
    law = config["law"]
    seeds, base = config["seeds"], config["seed"]

    if law.is_bounded:
        table = _table(config)
        field = zero_field(config["j_max"])
        src = divergence_scale_field(config["field_law"], config["field_j_max"])
        for j in range(src.j_max + 1):
            field.levels[j][:] = src.levels[j]
        truncations = list(range(config["field_j_max"], config["j_max"] + 1))
        rows, variations = [], []
        for s in range(seeds):
            # global sups are the max over cells at any depth; depth 0 is one cell
            profile = sup_growth(randomized_field(field, law, base + s), table,
                                 truncations, 0)
            sups = profile.global_sups
            variations.append(float(sups.max() - sups.min()))
            rows.extend((base + s, j, float(g))
                        for j, g in zip(truncations, sups))
        _write_rows(out / "stability.csv", ("seed", "J", "global_sup"), rows, comment)
        return {"regime": "bounded-regime", "max_variation": max(variations)}

    stop = None if config["log_all"] else 1
    rows, hit = [], 0
    for s in range(seeds):
        events = coefficient_exceedances(law, config["exceedance_j_max"],
                                         base + s, stop_after=stop)
        hit += bool(events)
        rows.extend((base + s, e["n"], e["j"], e["count"], e["first_k"])
                    for e in events)
    _write_rows(out / "exceedances.csv", ("seed", "n", "j", "count", "first_k"),
                rows, comment)
    return {"regime": "exceedance events logged", "seeds_with_event": hit, "seeds": seeds}


def _run_prevalence(config, out, comment):
    field = divergence_scale_field(config["field_law"], config["j_max"], "strengthened")
    w_rows, s_rows = [], []
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        report = block_witness_process(field, config["law"], seed)
        w_rows.extend((seed, r["n"], r["j"], r["blocks"], r["witness_blocks"],
                       r["chi_exceedances"], r["product_exceedances"])
                      for r in report["per_scale"])
        s_rows.append((seed, report["scales_with_product_exceedance"]))
    _write_rows(out / "witnesses.csv", ("seed", "n", "j", "blocks", "witness_blocks",
                                        "chi_exceedances", "product_exceedances"),
                w_rows, comment)
    _write_rows(out / "summary.csv", ("seed", "scales_with_product_exceedance"),
                s_rows, comment)
    return {"mean_scales_with_exceedance": float(np.mean([r[1] for r in s_rows]))}


def _run_prop43(config, out, comment):
    table = _table(config)
    j_lo, j_hi, power = config["j_lo"], config["j_hi"], config["rate_power"]
    try:
        rates = {j: float(j) ** power for j in range(j_lo + 1, j_hi + 1)}
    except OverflowError:
        raise InvalidParameterError(
            f"j^rate_power overflows a float for rate_power {power} and j_hi {j_hi}") from None
    tail = zero_field(j_hi)  # levels above j_lo: S_{j_hi} - S_{j_lo} in one synthesis
    for j, rate in rates.items():
        tail.levels[j][:] = rate
    level_factor = table.support_length * table.sup_norm
    bound = sum(math.sqrt(2.0 * j) * rate * level_factor for j, rate in rates.items())
    seeds_col = [config["seed"] + s for s in range(config["seeds"])]
    diffs = [sup_growth(randomized_field(tail, config["law"], seed), table, [j_hi], 0).global_sups[0]
             for seed in seeds_col]
    within = [int(diff <= bound) for diff in diffs]
    write_csv(out / "sqrt_bounds.csv",
              [("seed", seeds_col), ("sup_diff", diffs),
               ("bound", [bound] * len(diffs)), ("within", within)],
              comment=comment)
    return {"fraction_within": float(np.mean(within)), "bound": bound}


def _run_prop46(config, out, comment):
    terms = config["terms"]
    rate = sparse_loglog_rate()
    ratio = rate.ratio
    ns = np.arange(1, terms + 1)
    js = ratio ** ns.astype(np.int64)
    omega = np.array([rate.value(int(j)) for j in js])
    jf = js.astype(float)
    write_csv(out / "construction.csv",
              [("n", ns), ("j", js), ("omega", omega),
               ("sqrtj_term", np.sqrt(jf) * omega),
               ("loglog_term", np.sqrt(jf) / np.log(np.log(jf)) * omega),
               ("l1_partial_sum", np.cumsum(omega))], comment=comment)
    return {"scale_ratio": ratio,
            **_write_verdicts(rate, ("l1", "sqrtj", "loglog"), None, out, comment)}


_RATE_FORMS = "loglog-prop46 | harmonic | power-log:<s>[:<a>[:<b>[:<c>]]]"


def _parse_rate(text: str) -> PowerLogRate:
    if text == "loglog-prop46":
        return sparse_loglog_rate()
    if text == "harmonic":
        return PowerLogRate(0.0, a=-1.0)
    if text.startswith("power-log:"):
        parts = text.split(":")[1:]
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            vals = [math.nan]
        if not 1 <= len(vals) <= 4 or not all(map(math.isfinite, vals)):
            raise InvalidParameterError(f"bad power-log rate {text!r}; expected 1 to 4 finite numbers")
        vals += [0.0] * (4 - len(vals))
        return PowerLogRate(vals[0], a=vals[1], b=vals[2], c=vals[3])
    raise InvalidParameterError(
        f"unknown rate {text!r}; expected one of {_RATE_FORMS}")


def _parse_kinds(text: str) -> list[str]:
    kinds = [item.strip() for item in text.split(",") if item.strip()]
    if not kinds or not set(kinds) <= set(CRITERION_KINDS):
        raise InvalidParameterError(
            f"kinds must name one or more of {', '.join(CRITERION_KINDS)}, got {text!r}")
    return kinds


def _write_verdicts(rate, kinds, gamma, out, comment):
    """verdicts.csv with one row per criterion kind; returns kind -> verdict.
    ``gamma`` applies to the "gamma" kind only, and its cell is written by
    ``write_csv``'s float rule whatever the other rows hold."""
    rows, flags = [], {}
    for kind in kinds:
        verdict = check_criterion(rate, kind, gamma if kind == "gamma" else None)
        rows.append((kind, verdict, "%.15g" % gamma if kind == "gamma" else ""))
        flags[kind] = verdict
    _write_rows(out / "verdicts.csv", ("kind", "verdict", "gamma"), rows, comment)
    return flags


def _check_criteria_gamma(config):
    if "gamma" in config["kinds"] and not 0.0 < config["gamma"] <= 2.0:
        raise InvalidParameterError(
            f"{_label('criteria', 'gamma')} must lie in (0, 2] when kinds names "
            f"gamma, got {config['gamma']}")


def _run_criteria(config, out, comment):
    return _write_verdicts(config["rate"], config["kinds"], config["gamma"], out, comment)


def _run_modulus(config, out, comment):
    table = _table(config)
    alpha, gamma = config["alpha"], config["gamma"]
    theta = PowerLogModulus(alpha, gamma or None)  # gamma = 0 drops the log factor
    plain = PowerLogModulus(alpha, None)
    field = uniform_decay_field(alpha, config["j_max"])
    rows, spreads = [], []
    rising = strictly_rising = 0
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        path_ = randomized_synthesize(field, table, config["law"], seed,
                                      config["j_max"], config["resolution"])
        fit = modulus_ratio(path_, theta, config["m_lo"], config["m_hi"])
        if fit.sup_increments.min() <= 0.0:
            raise NumericalFailureError(
                f"sup increment vanished at seed {seed}; ratios are undefined")
        spreads.append(float(fit.ratios.max() / fit.ratios.min()))
        flat = fit.sup_increments / np.array([plain.value(h) for h in fit.lags])
        # Trend across all lags; single steps fluctuate at the scale of a
        # max-of-gaussians statistic, so per-step rises only count extra.
        rising += slope(np.asarray(fit.lags_m, float), flat) > 0.0
        strictly_rising += bool(np.all(np.diff(flat) > 0.0))
        rows.extend(
            (seed, int(m), float(h), float(inc), float(tv), float(rt), float(fl))
            for m, h, inc, tv, rt, fl in zip(
                fit.lags_m, fit.lags, fit.sup_increments,
                fit.theta_values, fit.ratios, flat))
    _write_rows(out / "modulus.csv", ("seed", "m", "h", "sup_increment", "theta",
                                      "ratio", "ratio_no_log"), rows, comment)
    return {"median_spread": float(np.median(spreads)),
            "rising_fraction": rising / config["seeds"],
            "strict_rising_fraction": strictly_rising / config["seeds"]}


def _run_hmin(config, out, comment):
    env = uniform_decay_envelope(config["alpha"], config["j_max"])
    j_lo, j_hi = config["j_lo"], config["j_hi"]
    det = hmin_estimate(env, j_lo, j_hi)
    rows = []
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        gau = hmin_estimate(randomized_envelope(env, gaussian(), seed), j_lo, j_hi)
        rad = hmin_estimate(randomized_envelope(env, rademacher(), seed), j_lo, j_hi)
        rows.append((seed, gau, rad))
    _write_rows(out / "estimates.csv",
                ("seed", "gaussian_estimate", "rademacher_estimate"), rows, comment)
    return {"deterministic_alpha": det,
            "mean_gaussian": float(np.mean([r[1] for r in rows])),
            "rademacher_exact": all(r[2] == det for r in rows)}


def _run_wiener(config, out, comment):
    res = config["resolution"]
    size = 2**res
    ms = list(range(config["m_lo"], config["m_hi"] + 1))
    rows = []
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        path_ = wiener_brownian(config["fourier_terms"], res, seed)
        for m in ms:
            stride = size >> m
            inc = path_.values[stride:] - path_.values[:-stride]
            rows.append((seed, m, 2.0**-m, float(np.mean(inc * inc) * 2.0**m)))
    _write_rows(out / "variance.csv", ("seed", "m", "h", "ratio"), rows, comment)
    by_m = {m: [r[3] for r in rows if r[1] == m] for m in ms}
    mean_ratios = [float(np.mean(by_m[m])) for m in ms]
    write_csv(out / "means.csv",
              [("m", ms), ("h", [2.0**-m for m in ms]),
               ("mean_ratio", mean_ratios)], comment=comment)
    return {"grand_mean": float(np.mean(mean_ratios)),
            "min_mean": float(np.min(mean_ratios)),
            "max_mean": float(np.max(mean_ratios))}


# ---------------------------------------------------------------- registry


EXPERIMENTS: dict[str, Experiment] = {
    "figure1": Experiment(dict(
        fourier_terms=2**14, resolution=17, wavelet="daubechies",
        vanishing_moments=10, table_resolution=19, j_lo=8, j_hi=13,
        law="gaussian", depth=6, seed=0), _run_figure1,
        orderings=("0 <= j_lo <= j_hi", "0 <= depth <= table_resolution")),
    "prop22": Experiment(dict(
        trials=100, j_lo=10, j_hi=16, wavelet="haar", vanishing_moments=1,
        table_resolution=20, witness_levels=4, witness_j_max=12, seed=0),
        _run_prop22, orderings=("0 < j_lo < j_hi",)),
    "prop31": Experiment(dict(
        field_law="heavy_tail:1", law="heavy_tail:1", seeds=100, seed=0,
        exceedance_j_max=22, field_j_max=8, j_max=12,
        wavelet="haar", vanishing_moments=1, table_resolution=16,
        log_all=False), _run_prop31, orderings=("field_j_max <= j_max",)),
    "prevalence": Experiment(dict(
        field_law="heavy_tail:1", law="heavy_tail:1", j_max=12, seeds=50,
        seed=0), _run_prevalence),
    "prop43": Experiment(dict(
        seeds=100, seed=0, j_lo=12, j_hi=16, rate_power=-2.0, law="gaussian",
        wavelet="haar", vanishing_moments=1, table_resolution=20), _run_prop43,
        orderings=("0 < j_lo < j_hi",)),
    "prop46": Experiment(dict(terms=20, seed=0), _run_prop46),
    "modulus": Experiment(dict(
        alpha=0.5, gamma=2.0, j_max=13, resolution=17, m_lo=4, m_hi=12,
        seeds=20, seed=0, law="gaussian", wavelet="daubechies",
        vanishing_moments=10, table_resolution=17), _run_modulus,
        orderings=("2 <= m_lo < m_hi < resolution <= table_resolution", "0 <= gamma")),
    "hmin": Experiment(dict(
        alpha=0.4, j_max=24, j_lo=16, j_hi=24, seeds=20, seed=0), _run_hmin,
        orderings=("0 <= j_lo < j_hi <= j_max",)),
    "wiener": Experiment(dict(
        fourier_terms=2**14, resolution=10, seeds=200, seed=0, m_lo=4,
        m_hi=10), _run_wiener, orderings=("1 <= m_lo <= m_hi <= resolution",)),
    "criteria": Experiment(dict(
        rate="loglog-prop46", kinds="linfty,c0,l1,sqrtj,loglog", gamma=0.0,
        seed=0), _run_criteria, checks=(_check_criteria_gamma,)),
}

EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))


def _lookup(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown experiment {name!r}; known experiments: "
            + ", ".join(EXPERIMENT_NAMES)) from None


def config_digest(name: str, config: dict) -> str:
    _lookup(name)
    return sha256_hex(
        canonical_json({"experiment": name, "config": config}).encode())


def _parse_override(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# Levels are stored densely; 2^j entries past this are not materializable.
_LEVEL_CAP = 25

# [lo, hi) of integer keys: the seed is a u64 stream key, prop46's terms
# keep its geometric scales within int64, levels (j_max, witness_j_max),
# grids (resolution, table_resolution) and Fourier modes (fourier_terms)
# are dense arrays, and exceedance_j_max levels are scanned word by word
_INT_BOUNDS = {"seed": (0, 2**64), "seeds": (1, math.inf), "trials": (1, math.inf),
               "terms": (1, 26), "j_max": (0, _LEVEL_CAP + 1),
               "exceedance_j_max": (0, _LEVEL_CAP + 1),
               "witness_levels": (1, math.inf), "witness_j_max": (0, _LEVEL_CAP + 1),
               "resolution": (0, _LEVEL_CAP + 1), "table_resolution": (0, _LEVEL_CAP + 1),
               "fourier_terms": (0, 2**_LEVEL_CAP + 1)}

# String-valued keys and their parsers; ``run_experiment`` hands the runner
# the parsed values.
_PARSERS = {"law": parse_law, "field_law": parse_law, "rate": _parse_rate,
            "kinds": _parse_kinds}


def _label(name, key):
    return f"{name} config key {key!r}"


def _coerced(name, key, value, default):
    label = _label(name, key)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise InvalidParameterError(f"{label} expects a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameterError(f"{label} expects an integer, got {value!r}")
        lo, hi = _INT_BOUNDS.get(key, (-math.inf, math.inf))
        if not lo <= value < hi:
            raise InvalidParameterError(f"{label} must lie in [{lo}, {hi}), got {value}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise InvalidParameterError(f"{label} expects a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise InvalidParameterError(f"{label} expects a string, got {value!r}")
    return value


def resolve_config(name: str, file_obj: dict | None = None,
                   overrides: dict | None = None,
                   seed: int | None = None) -> dict:
    """defaults <- config file (or a previous manifest) <- --seed <- --set."""
    exp = _lookup(name)
    config = dict(exp.defaults)

    def apply(layer, source):
        for key, value in layer.items():
            if key not in config:
                raise InvalidParameterError(
                    f"unknown {name} config key {key!r} (from {source}); "
                    f"known keys: {', '.join(sorted(config))}")
            config[key] = _coerced(name, key, value, exp.defaults[key])

    if file_obj is not None:
        obj = file_obj
        if isinstance(obj, dict) and "experiment" in obj \
                and isinstance(obj.get("config"), dict):
            if obj["experiment"] != name:
                raise InvalidParameterError(
                    f"manifest describes experiment {obj['experiment']!r}, "
                    f"not {name!r}")
            obj = obj["config"]
        if not isinstance(obj, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        apply(obj, "config file")
    if seed is not None:
        apply({"seed": seed}, "--seed")
    if overrides:
        apply({k: _parse_override(v) for k, v in overrides.items()}, "--set")
    return config


_COMPARE = {"<": operator.lt, "<=": operator.le}


def _check_ordering(name: str, config: dict, chain: str) -> None:
    terms = chain.split()
    operands = terms[::2]
    values = [config[t] if t in config else int(t) for t in operands]
    if not all(_COMPARE[op](a, b)
               for op, a, b in zip(terms[1::2], values, values[1:])):
        got = ", ".join(f"{t}={config[t]}" for t in operands if t in config)
        raise InvalidParameterError(f"{name} needs {chain}, got {got}")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")


def run_experiment(name: str, config: dict, out_dir) -> dict:
    """Run one experiment and write its CSVs plus ``manifest.json``.

    The runner writes into a temporary sibling of ``out_dir``; every file
    it leaves there is hashed, by name order, into the manifest's
    ``outputs``.  Only a run that finishes with finite flags moves its
    outputs, then the manifest, into ``out_dir`` (created at that point).
    A failed run removes the temporary directory and leaves ``out_dir`` as
    it was.
    """
    exp = _lookup(name)
    for chain in exp.orderings:
        _check_ordering(name, config, chain)
    parsed = dict(config)
    for key in [k for k in config if k in _PARSERS]:
        try:
            parsed[key] = _PARSERS[key](config[key])
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{_label(name, key)}: {exc}") from None
    for check in exp.checks:
        check(parsed)
    out = Path(out_dir)
    # the nearest existing ancestor keeps the final renames on one filesystem
    anchor = next(p for p in out.absolute().parents if p.is_dir())
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=anchor))
    try:
        digest = config_digest(name, config)
        started = _utc_now()
        flags = exp.runner(parsed, work, f"manifest_digest={digest}")
        for key, value in flags.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericalFailureError(f"{name} flag {key!r} is not finite: {value}")
        names = sorted(p.name for p in work.iterdir())
        manifest = {
            "experiment": name,
            "config": config,
            "digest": digest,
            "flags": flags,
            "outputs": [{"path": n, "sha256": sha256_file(work / n)} for n in names],
            "started": started,
            "finished": _utc_now(),
        }
        with open(work / "manifest.json", "w", encoding="utf-8") as fh:
            fh.write(canonical_json(manifest) + "\n")
        out.mkdir(parents=True, exist_ok=True)
        for n in [*names, "manifest.json"]:
            os.replace(work / n, out / n)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return manifest
