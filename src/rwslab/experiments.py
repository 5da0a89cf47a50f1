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
2^-10 or coarser), and sup profiles always live on the mother-table grid
R_psi, which the config pins explicitly.
"""

from __future__ import annotations

import datetime
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .constructions import (
    _LEVEL_CAP,
    block_witness_process,
    coefficient_exceedances,
    divergence_scale_field,
    divergent_subsequence,
    geometric_scale_ratio,
    nested_placement,
    sparse_loglog_rate,
    thin_to_feasible,
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
    PowerLogRate,
    check_criterion,
    envelope_from_rate,
    scale_envelope,
    step_function_coefficients,
    uniform_decay_field,
    zero_field,
)
from .laws import (
    BOUNDED_TAGS,
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
from .util import canonical_json, sha256_file, sha256_hex, write_csv
from .wavelets import build_filter, cascade_evaluate


@dataclass(frozen=True)
class Experiment:
    """Complete defaults plus a runner writing CSVs into an output dir.

    The runner returns the written file names in creation order and a flat
    dict of summary flags for the manifest.  ``orderings`` are chains of
    config keys and integers joined by < or <=, such as
    "0 < j_lo < j_hi"; ``run_experiment`` checks them before it writes
    anything.
    """

    defaults: dict
    runner: Callable[[dict, Path, str], tuple[list[str], dict]]
    orderings: tuple[str, ...] = ()


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
    saw = fourier_sawtooth(config["fourier_terms"], config["resolution"])
    export_path_csv(saw, out / "sawtooth.csv", comment=comment)
    wie = wiener_brownian(config["fourier_terms"], config["resolution"],
                          config["seed"])
    export_path_csv(wie, out / "wiener.csv", comment=comment)

    coeffs = step_function_coefficients(table, "sawtooth", config["j_hi"])
    truncations = list(range(config["j_lo"], config["j_hi"] + 1))
    profile = sup_growth(coeffs, table, parse_law(config["law"]),
                         config["seed"], truncations, config["depth"])
    export_profile_csv(profile, out / "randomized_sawtooth.csv", comment=comment)
    flags = {"profile_resolution": int(profile.resolution),
             "max_global_sup": float(profile.global_sups.max())}
    return (["sawtooth.csv", "sawtooth.json", "wiener.csv", "wiener.json",
             "randomized_sawtooth.csv"], flags)


def _run_prop22(config, out, comment):
    table = _table(config)
    res = table.r_psi
    j_lo, j_hi = config["j_lo"], config["j_hi"]
    level_factor = table.support_length * table.sup_norm
    law = bounded_uniform(1.0)
    trials, diffs, bounds = [], [], []
    for trial in range(config["trials"]):
        field = zero_field(j_hi)
        for j in range(j_hi + 1):
            field.levels[j][:] = 2.0**-j * draw_array(
                law, config["seed"], f"l1-trial-{trial}", j, np.arange(2**j))
        hi = synthesize(field, table, j_hi, res)
        lo = synthesize(field, table, j_lo, res)
        trials.append(trial)
        diffs.append(float(np.max(np.abs(hi.values - lo.values))))
        bounds.append(level_factor * sum(
            float(np.max(np.abs(field.levels[j])))
            for j in range(j_lo + 1, j_hi + 1)))
    within = [int(d <= b) for d, b in zip(diffs, bounds)]
    write_csv(out / "tail_bounds.csv",
              [("trial", trials), ("sup_diff", diffs),
               ("tail_bound", bounds), ("within", within)], comment=comment)

    env = envelope_from_rate(PowerLogRate(0.0, a=-1.0), config["witness_j_max"])
    scales = thin_to_feasible(table, divergent_subsequence(env))
    levels = config["witness_levels"]
    if len(scales) < levels:
        raise InvalidParameterError(
            f"only {len(scales)} feasible witness scales up to "
            f"j = {config['witness_j_max']}, need {levels}")
    scales = scales[:levels]
    placement = nested_placement(table, scales)
    field = unbounded_series_field(env, placement)
    rows = []
    for l, j_trunc in enumerate(scales):
        path_ = synthesize(field, table, j_trunc, res)
        lo_f, hi_f = placement.intervals[l]
        a, b = int(lo_f * 2**res), int(hi_f * 2**res)
        average = float(path_.values[a:b].mean())
        target = 0.8 * table.positivity_floor * sum(
            env.values[j] for j in scales[: l + 1])
        rows.append((l + 1, j_trunc, float(lo_f), float(hi_f), average, target))
    _write_rows(out / "witness.csv", ("level", "scale", "interval_lo", "interval_hi",
                                      "average", "threshold"), rows, comment)
    flags = {"fraction_within": float(np.mean(within)),
             "witness_levels_exceeding": sum(1 for r in rows if r[4] >= r[5])}
    return ["tail_bounds.csv", "witness.csv"], flags


def _run_prop31(config, out, comment):
    field_law = parse_law(config["field_law"])
    law = parse_law(config["law"])
    seeds, base = config["seeds"], config["seed"]

    if law.tag in BOUNDED_TAGS:
        table = _table(config)
        field = zero_field(config["j_max"])
        src = divergence_scale_field(field_law, config["field_j_max"])
        for j in range(src.j_max + 1):
            field.levels[j][:] = src.levels[j]
        truncations = list(range(config["field_j_max"], config["j_max"] + 1))
        rows, variations = [], []
        for s in range(seeds):
            profile = sup_growth(field, table, law, base + s, truncations,
                                 config["depth"])
            sups = profile.global_sups
            variations.append(float(sups.max() - sups.min()))
            rows.extend((base + s, j, float(g))
                        for j, g in zip(truncations, sups))
        _write_rows(out / "stability.csv", ("seed", "J", "global_sup"), rows, comment)
        flags = {"regime": "bounded-regime",
                 "max_variation": max(variations)}
        return ["stability.csv"], flags

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
    flags = {"regime": "exceedance events logged",
             "seeds_with_event": hit, "seeds": seeds}
    return ["exceedances.csv"], flags


def _run_prevalence(config, out, comment):
    field = divergence_scale_field(parse_law(config["field_law"]),
                                   config["j_max"], "strengthened")
    law = parse_law(config["law"])
    w_rows, s_rows = [], []
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        report = block_witness_process(field, law, seed)
        w_rows.extend((seed, r["n"], r["j"], r["blocks"], r["witness_blocks"],
                       r["chi_exceedances"], r["product_exceedances"])
                      for r in report["per_scale"])
        s_rows.append((seed, report["scales_with_product_exceedance"]))
    _write_rows(out / "witnesses.csv", ("seed", "n", "j", "blocks", "witness_blocks",
                                        "chi_exceedances", "product_exceedances"),
                w_rows, comment)
    _write_rows(out / "summary.csv", ("seed", "scales_with_product_exceedance"),
                s_rows, comment)
    flags = {"mean_scales_with_exceedance":
             float(np.mean([r[1] for r in s_rows]))}
    return ["witnesses.csv", "summary.csv"], flags


def _run_prop43(config, out, comment):
    table = _table(config)
    law = parse_law(config["law"])
    j_lo, j_hi, power = config["j_lo"], config["j_hi"], config["rate_power"]
    field = zero_field(j_hi)
    for j in range(1, j_hi + 1):
        field.levels[j][:] = float(j) ** power
    level_factor = table.support_length * table.sup_norm
    bound = sum(math.sqrt(2.0 * j) * float(j) ** power * level_factor
                for j in range(j_lo + 1, j_hi + 1))
    seeds_col, diffs, within = [], [], []
    for s in range(config["seeds"]):
        rf = randomized_field(field, law, config["seed"] + s)
        hi = synthesize(rf, table, j_hi, table.r_psi)
        lo = synthesize(rf, table, j_lo, table.r_psi)
        diff = float(np.max(np.abs(hi.values - lo.values)))
        seeds_col.append(config["seed"] + s)
        diffs.append(diff)
        within.append(int(diff <= bound))
    write_csv(out / "sqrt_bounds.csv",
              [("seed", seeds_col), ("sup_diff", diffs),
               ("bound", [bound] * len(diffs)), ("within", within)],
              comment=comment)
    flags = {"fraction_within": float(np.mean(within)), "bound": bound}
    return ["sqrt_bounds.csv"], flags


def _run_prop46(config, out, comment):
    terms = config["terms"]
    rate = sparse_loglog_rate()
    ratio = geometric_scale_ratio()
    ns = np.arange(1, terms + 1)
    js = ratio ** ns.astype(np.int64)
    omega = np.array([rate.value(int(j)) for j in js])
    jf = js.astype(float)
    write_csv(out / "construction.csv",
              [("n", ns), ("j", js), ("omega", omega),
               ("sqrtj_term", np.sqrt(jf) * omega),
               ("loglog_term", np.sqrt(jf) / np.log(np.log(jf)) * omega),
               ("l1_partial_sum", np.cumsum(omega))], comment=comment)

    env = envelope_from_rate(rate, config["horizon"])
    flags = {"scale_ratio": ratio}
    kinds, verdicts = [], []
    for kind in ("l1", "sqrtj", "loglog"):
        decision = check_criterion(env, kind)
        kinds.append(kind)
        verdicts.append(decision.verdict)
        flags[kind] = decision.verdict
    write_csv(out / "verdicts.csv",
              [("kind", kinds), ("verdict", verdicts),
               ("gamma", [""] * len(kinds))], comment=comment)
    return ["construction.csv", "verdicts.csv"], flags


_RATE_FORMS = "loglog-prop46 | harmonic | power-log:<s>[:<a>[:<b>[:<c>]]]"


def _parse_rate(text: str) -> PowerLogRate:
    if text == "loglog-prop46":
        return sparse_loglog_rate()
    if text == "harmonic":
        return PowerLogRate(0.0, a=-1.0)
    if text.startswith("power-log:"):
        parts = text.split(":")[1:]
        if not 1 <= len(parts) <= 4:
            raise InvalidParameterError(f"bad power-log rate {text!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise InvalidParameterError(f"bad power-log rate {text!r}") from exc
        vals += [0.0] * (4 - len(vals))
        return PowerLogRate(vals[0], a=vals[1], b=vals[2], c=vals[3])
    raise InvalidParameterError(
        f"unknown rate {text!r}; expected one of {_RATE_FORMS}")


def _run_criteria(config, out, comment):
    env = envelope_from_rate(_parse_rate(config["rate"]), config["horizon"])
    kinds = _items(config["kinds"])
    gamma = config["gamma"] if config["gamma"] > 0 else None
    rows, flags = [], {}
    for kind in kinds:
        decision = check_criterion(env, kind, gamma if kind == "gamma" else None)
        rows.append((kind, decision.verdict, gamma if kind == "gamma" else ""))
        flags[kind] = decision.verdict
    _write_rows(out / "verdicts.csv", ("kind", "verdict", "gamma"), rows, comment)
    return ["verdicts.csv"], flags


def _run_modulus(config, out, comment):
    table = _table(config)
    law = parse_law(config["law"])
    alpha, gamma = config["alpha"], config["gamma"]
    theta = PowerLogModulus(alpha, gamma if gamma > 0 else None)
    plain = PowerLogModulus(alpha, None)
    field = uniform_decay_field(alpha, config["j_max"])
    rows, spreads = [], []
    rising = strictly_rising = 0
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        path_ = randomized_synthesize(field, table, law, seed,
                                      config["j_max"], config["resolution"])
        fit = modulus_ratio(path_, theta, config["m_lo"], config["m_hi"])
        if fit.sup_increments.min() <= 0.0:
            raise NumericalFailureError(
                f"sup increment vanished at seed {seed}; ratios are undefined")
        spreads.append(float(fit.ratios.max() / fit.ratios.min()))
        flat = fit.sup_increments / np.array([plain.value(h) for h in fit.lags])
        # Trend across all lags; single steps fluctuate at the scale of a
        # max-of-gaussians statistic, so per-step rises only count extra.
        rising += bool(np.polyfit(np.asarray(fit.lags_m, float), flat, 1)[0] > 0.0)
        strictly_rising += bool(np.all(np.diff(flat) > 0.0))
        rows.extend(
            (seed, int(m), float(h), float(inc), float(tv), float(rt), float(fl))
            for m, h, inc, tv, rt, fl in zip(
                fit.lags_m, fit.lags, fit.sup_increments,
                fit.theta_values, fit.ratios, flat))
    _write_rows(out / "modulus.csv", ("seed", "m", "h", "sup_increment", "theta",
                                      "ratio", "ratio_no_log"), rows, comment)
    flags = {"median_spread": float(np.median(spreads)),
             "rising_fraction": rising / config["seeds"],
             "strict_rising_fraction": strictly_rising / config["seeds"]}
    return ["modulus.csv"], flags


def _run_hmin(config, out, comment):
    field = uniform_decay_field(config["alpha"], config["j_max"])
    j_lo, j_hi = config["j_lo"], config["j_hi"]
    det = hmin_estimate(scale_envelope(field), j_lo, j_hi)
    rows = []
    for s in range(config["seeds"]):
        seed = config["seed"] + s
        gau = hmin_estimate(randomized_envelope(field, gaussian(), seed), j_lo, j_hi)
        rad = hmin_estimate(randomized_envelope(field, rademacher(), seed), j_lo, j_hi)
        rows.append((seed, gau, rad))
    _write_rows(out / "estimates.csv",
                ("seed", "gaussian_estimate", "rademacher_estimate"), rows, comment)
    flags = {"deterministic_alpha": det,
             "mean_gaussian": float(np.mean([r[1] for r in rows])),
             "rademacher_exact": all(r[2] == det for r in rows)}
    return ["estimates.csv"], flags


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
    flags = {"grand_mean": float(np.mean(mean_ratios)),
             "min_mean": float(np.min(mean_ratios)),
             "max_mean": float(np.max(mean_ratios))}
    return ["variance.csv", "means.csv"], flags


# ---------------------------------------------------------------- registry


EXPERIMENTS: dict[str, Experiment] = {
    "figure1": Experiment(dict(
        fourier_terms=2**14, resolution=17, wavelet="daubechies",
        vanishing_moments=10, table_resolution=19, j_lo=8, j_hi=13,
        law="gaussian", depth=6, seed=0), _run_figure1),
    "prop22": Experiment(dict(
        trials=100, j_lo=10, j_hi=16, wavelet="haar", vanishing_moments=1,
        table_resolution=20, witness_levels=4, witness_j_max=12, seed=0),
        _run_prop22, orderings=("0 < j_lo < j_hi",)),
    "prop31": Experiment(dict(
        field_law="heavy_tail:1", law="heavy_tail:1", seeds=100, seed=0,
        exceedance_j_max=22, field_j_max=8, j_max=12, depth=4,
        wavelet="haar", vanishing_moments=1, table_resolution=16,
        log_all=False), _run_prop31),
    "prevalence": Experiment(dict(
        field_law="heavy_tail:1", law="heavy_tail:1", j_max=12, seeds=50,
        seed=0), _run_prevalence),
    "prop43": Experiment(dict(
        seeds=100, seed=0, j_lo=12, j_hi=16, rate_power=-2.0, law="gaussian",
        wavelet="haar", vanishing_moments=1, table_resolution=20), _run_prop43,
        orderings=("0 < j_lo < j_hi",)),
    "prop46": Experiment(dict(terms=20, horizon=4096, seed=0), _run_prop46),
    "modulus": Experiment(dict(
        alpha=0.5, gamma=2.0, j_max=13, resolution=17, m_lo=4, m_hi=12,
        seeds=20, seed=0, law="gaussian", wavelet="daubechies",
        vanishing_moments=10, table_resolution=17), _run_modulus),
    "hmin": Experiment(dict(
        alpha=0.4, j_max=24, j_lo=16, j_hi=24, seeds=20, seed=0), _run_hmin),
    "wiener": Experiment(dict(
        fourier_terms=2**14, resolution=10, seeds=200, seed=0, m_lo=4,
        m_hi=10), _run_wiener, orderings=("1 <= m_lo <= m_hi <= resolution",)),
    "criteria": Experiment(dict(
        rate="loglog-prop46", kinds="linfty,c0,l1,sqrtj,loglog", gamma=0.0,
        horizon=4096, seed=0), _run_criteria),
}

EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))


def _lookup(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown experiment {name!r}; known experiments: "
            + ", ".join(EXPERIMENT_NAMES)) from None


def default_config(name: str) -> dict:
    return dict(_lookup(name).defaults)


def config_digest(name: str, config: dict) -> str:
    _lookup(name)
    return sha256_hex(
        canonical_json({"experiment": name, "config": config}).encode())


def _parse_override(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# [lo, hi) of integer keys: the seed is a u64 stream key, prop46's terms
# keep its geometric scales within int64, and j_max levels are dense
_INT_BOUNDS = {"seed": (0, 2**64), "seeds": (1, math.inf), "trials": (1, math.inf),
               "terms": (1, 26), "j_max": (0, _LEVEL_CAP + 1)}

# Comma-separated string keys that must name at least one item.
_LIST_KEYS = ("kinds",)


def _items(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _coerced(name, key, value, default):
    label = f"{name} config key {key!r}"
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
    if key in _LIST_KEYS and not _items(value):
        raise InvalidParameterError(f"{label} must name at least one item, got {value!r}")
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
    """Run one experiment and write its CSVs plus ``manifest.json``."""
    exp = _lookup(name)
    for chain in exp.orderings:
        _check_ordering(name, config, chain)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_digest(name, config)
    started = _utc_now()
    names, flags = exp.runner(config, out, f"manifest_digest={digest}")
    manifest = {
        "experiment": name,
        "config": config,
        "digest": digest,
        "flags": flags,
        "outputs": [{"path": n, "sha256": sha256_file(out / n)} for n in names],
        "started": started,
        "finished": _utc_now(),
    }
    # rendered first, so a NaN flag leaves no empty manifest behind
    text = canonical_json(manifest) + "\n"
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(text)
    return manifest
