"""Analysis, sup profiles, hmin and modulus fits.

Oracles:
  * Round trips run against fields whose coefficients are known exactly;
    analysis inverts synthesis for every filter, so recovery to 1e-12
    relative per level is a rounding floor, not a tuned tolerance.
  * dense_analysis solves the square system of synthesized unit fields
    sampled at the points k 2^-(J+1), independent of the circulant solve
    and the forward filter bank in the module.
  * Nested-interval averages for the divergence witness are computed as
    exact grid means over dyadic slices.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from rwslab.constructions import (
    divergence_scale_field,
    nested_placement,
    unbounded_series_field,
)
from rwslab.errors import InsufficientDataError, InvalidParameterError
from rwslab.estimators import (
    PowerLogModulus,
    _cell_sups,
    analysis_field,
    export_profile_csv,
    hmin_estimate,
    modulus_ratio,
    sup_growth,
)
from rwslab.fields import (
    CoefficientField,
    PowerLogRate,
    ScaleEnvelope,
    envelope_from_rate,
    scale_envelope,
    uniform_decay_envelope,
    uniform_decay_field,
    zero_field,
)
from rwslab.laws import gaussian, rademacher
from rwslab.synthesis import (
    SamplePath,
    randomized_envelope,
    randomized_field,
    randomized_synthesize,
    synthesize,
)
from rwslab.util import sup_abs
from rwslab.wavelets import build_filter, cascade_evaluate, pyramid_lifts


def dense_analysis(path_, table, j_max):
    """(coarse, coefficients of scales 0..j_max in level order) whose synthesis
    takes the path's values at k 2^-(j_max+1): one np.linalg.solve against the
    2^(j_max+1) x 2^(j_max+1) matrix whose columns are synthesized unit fields
    sampled at those points."""
    size = 2 ** (j_max + 1)
    step = path_.values.size // size
    columns = []
    for i in range(size):  # the coarse value, then c_{j,k} at i = 2^j + k
        unit = zero_field(j_max, float(i == 0))
        if i:
            j = i.bit_length() - 1
            unit.levels[j][i - 2**j] = 1.0
        columns.append(synthesize(unit, table, j_max, path_.resolution).values[::step])
    solved = np.linalg.solve(np.column_stack(columns), path_.values[::step])
    return float(solved[0]), solved[1:]


def grid_average(path_, lo: float, hi: float) -> float:
    """Mean of the path over [lo, hi); endpoints must sit on the grid."""
    size = path_.values.size
    a, b = lo * size, hi * size
    assert a == int(a) and b == int(b)
    return float(np.mean(path_.values[int(a) : int(b)]))


def random_field(j_max: int, rng) -> CoefficientField:
    levels = [rng.standard_normal(2**j) for j in range(j_max + 1)]
    return CoefficientField(j_max, float(rng.standard_normal()), levels)


# ------------------------------------------------------------- round trips

def test_round_trip_haar_exact(haar_table):
    f = random_field(8, np.random.default_rng(3))
    path = synthesize(f, haar_table, 8, 12)
    recovered = analysis_field(path, haar_table, 8)
    assert abs(recovered.coarse - f.coarse) <= 1e-8
    for j in range(9):
        assert float(np.max(np.abs(recovered.levels[j] - f.levels[j]))) <= 1e-8


def test_round_trip_db10_envelope(db10_table):
    f = uniform_decay_field(0.5, 8)
    path = synthesize(f, db10_table, 8, 12)
    env = scale_envelope(analysis_field(path, db10_table, 8))
    for j in range(7):  # j <= J - 2
        assert env.values[j] == pytest.approx(2.0 ** (-0.5 * j), rel=0.02)


@functools.lru_cache(maxsize=1)
def table_of(n, r_psi):
    return cascade_evaluate(build_filter("haar" if n == 1 else "daubechies", n), r_psi)


@pytest.mark.parametrize("n, j_max", [(n, 6) for n in range(1, 21)]
                         + [(20, j) for j in range(4)])  # 2^(J+1) points, fewer than the support
def test_round_trip_per_level(n, j_max):
    table = table_of(n, 12)
    f = random_field(j_max, np.random.default_rng(4))
    recovered = analysis_field(synthesize(f, table, j_max, 12), table, j_max)
    assert abs(recovered.coarse - f.coarse) <= 1e-12 * abs(f.coarse)
    for j in range(j_max + 1):
        err = float(np.max(np.abs(recovered.levels[j] - f.levels[j])))
        assert err <= 1e-12 * float(np.max(np.abs(f.levels[j])))


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("j_max", [0, 2, 11])
def test_analysis_interpolates_any_path(n, j_max):
    # Gaussian noise is no synthesis: its analysis is the field whose
    # synthesis takes the noise's values at the points k 2^-(J+1).
    table = table_of(n, 15)
    path = SamplePath(15, np.random.default_rng(n + j_max).standard_normal(2**15))
    again = synthesize(analysis_field(path, table, j_max), table, j_max, 15)
    step = 2 ** (14 - j_max)
    assert float(np.max(np.abs(again.values[::step] - path.values[::step]))) <= 1e-12


def check_analysis_brute_force(table):
    f = random_field(4, np.random.default_rng(5))
    path = synthesize(f, table, 4, 10)
    recovered = analysis_field(path, table, 4)
    coarse, coefficients = dense_analysis(path, table, 4)
    assert recovered.coarse == pytest.approx(coarse, abs=1e-12)
    assert np.concatenate(recovered.levels) == pytest.approx(coefficients, abs=1e-12)


def test_analysis_matches_brute_force(db10_table):
    check_analysis_brute_force(db10_table)


def test_analysis_matches_brute_force_db4(db4_table):
    check_analysis_brute_force(db4_table)


def test_constant_path_envelope(db10_table):
    path = SamplePath(10, np.full(1024, 3.7))
    env = scale_envelope(analysis_field(path, db10_table, 6))
    assert float(np.max(env.values)) <= 1e-8


def test_single_coefficient_orthogonality(db10_table):
    f = zero_field(6)
    f.levels[3][2] = 5.0
    path = synthesize(f, db10_table, 6, 12)
    env = scale_envelope(analysis_field(path, db10_table, 6))
    assert env.values[3] == pytest.approx(5.0, abs=1e-4)
    others = [env.values[j] for j in range(7) if j != 3]
    assert max(others) <= 1e-4


def test_analysis_resolution_check(db10_table):
    path = synthesize(zero_field(4), db10_table, 4, 10)
    with pytest.raises(InvalidParameterError):
        analysis_field(path, db10_table, 7)  # fewer than 4 spare levels
    fine = synthesize(zero_field(4), db10_table, 4, 12)
    coarse_table = cascade_evaluate(build_filter("daubechies", 10), 8)
    with pytest.raises(InvalidParameterError):
        analysis_field(fine, coarse_table, 4)  # finer than the table grid


# -------------------------------------------------------------- sup growth

def test_sup_growth_matches_synthesize(haar_table, db10_table):
    f = random_field(6, np.random.default_rng(6))
    for table in (haar_table, db10_table):
        profile = sup_growth(f, table, [2, 4, 6], 3)
        assert profile.truncations == (2, 4, 6)
        for i, j_trunc in enumerate(profile.truncations):
            path = synthesize(f, table, j_trunc, table.r_psi)
            assert profile.global_sups[i] == float(np.max(np.abs(path.values)))
        assert profile.local_sups.shape == (3, 8)
        assert np.all(profile.local_sups <= profile.global_sups[:, None])
        assert np.array_equal(profile.local_sups.max(axis=1), profile.global_sups)


@pytest.mark.parametrize("table_name", ["haar_table", "db4_table", "db10_table"])
@pytest.mark.parametrize("depth", [1, 7, 10])
def test_sup_growth_lifts_once_for_every_cut(request, monkeypatch, table_name, depth):
    # One pass of the lift serves every cut, unsorted and repeated ones too,
    # and each cut keeps the bits of its own synthesis.  Depth 1 lies below
    # J + 1 for every cut, 7 above the cuts at 2 and 5 and below 8, and 10
    # above them all: the box reads its cells off the coarser grid there.
    table = request.getfixturevalue(table_name)
    f = random_field(8, np.random.default_rng(9))
    lifted = []

    def counting_lifts(levels, table):
        for a in pyramid_lifts(levels, table):
            lifted.append(a.size)
            yield a

    monkeypatch.setattr("rwslab.estimators.pyramid_lifts", counting_lifts)
    profile = sup_growth(f, table, [8, 2, 5, 5], depth)
    assert profile.truncations == (2, 5, 8)
    assert lifted == [2 ** (j + 1) for j in range(9)]
    for i, j_trunc in enumerate(profile.truncations):
        values = synthesize(f, table, j_trunc, table.r_psi).values
        assert profile.local_sups[i].tobytes() == _cell_sups(values, 2**depth).tobytes()
        assert profile.global_sups[i] == sup_abs(values)


@pytest.mark.parametrize("coarse", [None, -0.0])
def test_sup_growth_has_the_bits_of_the_abs_reduction(haar_table, db10_table, coarse):
    # Cell sups are max(max, -min) per cell: the bits of the reduction of
    # |values|, a zero field included, at figure1's cell depth.
    rng = np.random.default_rng(8)
    f = random_field(6, rng) if coarse is None else zero_field(6, coarse=coarse)
    for table in (haar_table, db10_table):
        profile = sup_growth(f, table, [2, 4, 6], 6)
        mags = [np.abs(synthesize(f, table, j, table.r_psi).values) for j in (2, 4, 6)]
        want_global = np.asarray([float(m.max()) for m in mags])
        want_local = np.vstack([m.reshape(64, -1).max(axis=1) for m in mags])
        assert profile.global_sups.tobytes() == want_global.tobytes()
        assert profile.local_sups.tobytes() == want_local.tobytes()


def test_sup_growth_randomized_determinism(haar_table):
    f = uniform_decay_field(0.7, 6)
    a = sup_growth(randomized_field(f, gaussian(), 11), haar_table, [3, 6], 2)
    b = sup_growth(randomized_field(f, gaussian(), 11), haar_table, [3, 6], 2)
    assert np.array_equal(a.global_sups, b.global_sups)
    assert np.array_equal(a.local_sups, b.local_sups)


def test_sup_growth_nested_interval_witness(haar_table):
    # Envelope 1/j concentrated on nested positivity windows: the average
    # over the l-th window after truncating at j_l equals the full
    # progression sum (the wavelet is exactly 1 there), so the local sup at
    # any depth covering that window dominates 0.8 * sum.
    env = envelope_from_rate(PowerLogRate(0.0, a=-1.0), 8)
    scales = [2, 4, 6]
    placement = nested_placement(haar_table, scales)
    f = unbounded_series_field(env, placement)
    profile = sup_growth(f, haar_table, scales, 3)
    deepest_lo, deepest_hi = placement.intervals[-1]
    point = float((deepest_lo + deepest_hi) / 2)
    for l, j_trunc in enumerate(scales):
        expected = sum(1.0 / j for j in scales[: l + 1])
        path = synthesize(f, haar_table, j_trunc, haar_table.r_psi)
        lo, hi = placement.intervals[l]
        assert grid_average(path, float(lo), float(hi)) == pytest.approx(expected, abs=1e-9)
        cell = int(point * 8)
        assert profile.local_sups[l][cell] >= 0.8 * expected


def test_sup_growth_l1_stabilization(haar_table):
    rng = np.random.default_rng(8)
    f = zero_field(8)
    for j in range(9):
        f.levels[j][:] = 2.0**-j * rng.uniform(-1.0, 1.0, 2**j)
    profile = sup_growth(randomized_field(f, rademacher(), 3), haar_table, [6, 8], 0)
    tail = sum(2.0**-j for j in (7, 8))
    bound = haar_table.support_length * haar_table.sup_norm * tail
    assert abs(profile.global_sups[1] - profile.global_sups[0]) <= bound


def test_sup_growth_exceedance_witness(haar_table):
    # Gaussian draws on the heavy-tail divergence grid: only scale j_1 = 2
    # is both feasible and active, and there 2^2 draws of a unit threshold
    # fire often.  When the logged event exists the truncated sup is the
    # max |draw| itself (single active scale, disjoint translates).
    from rwslab.constructions import coefficient_exceedances

    f = divergence_scale_field(gaussian(), 8)
    hits = 0
    for seed in range(25):
        events = coefficient_exceedances(gaussian(), 8, seed)
        profile = sup_growth(randomized_field(f, gaussian(), seed), haar_table, [2], 0)
        if events:
            assert events[0]["n"] == 1 and events[0]["j"] == 2
            assert profile.global_sups[0] >= 1.0
            hits += 1
    assert hits >= 15  # per-seed chance is 1 - (1 - 0.3173)^4 ~ 0.78


def test_sup_growth_validation(haar_table):
    f = zero_field(4)
    with pytest.raises(InvalidParameterError):
        sup_growth(f, haar_table, [2, 5], 2)  # beyond j_max
    with pytest.raises(InvalidParameterError):
        sup_growth(f, haar_table, [], 2)
    with pytest.raises(InvalidParameterError):
        sup_growth(f, haar_table, [2, 4], -1)


# --------------------------------------------------------------- grid rule

def _on_grid(name, table, j, resolution):
    """Call ``name`` on scales 0..j over the grid of 2^resolution points."""
    if name == "synthesize":
        return synthesize(zero_field(j), table, j, resolution)
    if name == "randomized_synthesize":
        return randomized_synthesize(zero_field(j), table, rademacher(), 0, j, resolution)
    if name == "analysis_field":
        path_ = SamplePath(resolution, np.zeros(2**resolution))
        return analysis_field(path_, table, j)
    assert resolution == table.r_psi  # sup profiles always sample the table grid
    return sup_growth(zero_field(j), table, [0, j], 0)


@pytest.mark.parametrize("name", ["synthesize", "randomized_synthesize",
                                  "analysis_field", "sup_growth"])
def test_grid_rule(haar_table, name):
    # one rule, one message: 0 <= J and J + 4 <= R <= r_psi
    r_psi = haar_table.r_psi
    rejects = [(r_psi - 3, r_psi)]  # three spare levels
    if name != "sup_growth":  # sup profiles take no resolution: R = r_psi
        rejects.append((r_psi - 3, r_psi + 1))  # four spare levels, finer than the table
    for j, resolution in rejects:
        with pytest.raises(InvalidParameterError) as err:
            _on_grid(name, haar_table, j, resolution)
        assert str(err.value) == (
            f"scales 0..{j} on a grid of 2^{resolution} points need "
            f"0 <= J and J + 4 <= R <= r_psi = {r_psi}")
    _on_grid(name, haar_table, r_psi - 4, r_psi)


# -------------------------------------------------------------------- hmin

def test_hmin_exact_power():
    env = envelope_from_rate(PowerLogRate(0.3), 16)
    assert hmin_estimate(env, 4, 16) == pytest.approx(0.3, abs=1e-10)


def test_hmin_gaussian_randomized():
    # The max-of-gaussians factor inflates the envelope by ~ sqrt(j),
    # biasing the fitted slope by roughly 0.5 / (j ln 2) per scale; the
    # window must sit deep enough and the estimate be averaged over seeds
    # for that to stay inside the tolerance.
    omega = uniform_decay_envelope(0.4, 22)
    estimates = []
    for seed in range(10):
        env = randomized_envelope(omega, gaussian(), seed)
        estimates.append(hmin_estimate(env, 14, 22))
    assert float(np.mean(estimates)) == pytest.approx(0.4, abs=0.05)


def test_hmin_rademacher_exact_invariance():
    f = uniform_decay_field(0.3, 12)
    det = hmin_estimate(scale_envelope(f), 4, 12)
    twisted = hmin_estimate(scale_envelope(randomized_field(f, rademacher(), 9)), 4, 12)
    assert twisted == det


@pytest.mark.parametrize("law", [gaussian(), rademacher()])
def test_hmin_is_the_direct_polyfit(law):
    # minus the least-squares slope of log2 omega_j over [j_lo, j_hi], bit for bit
    env = randomized_envelope(uniform_decay_envelope(0.4, 14), law, 3)
    js = np.arange(6, 15)
    want = -np.polyfit(js.astype(float), np.log2(env.values[js]), 1)[0]
    assert hmin_estimate(env, 6, 14) == want


def test_hmin_rejects_a_vanishing_scale_in_range():
    values = envelope_from_rate(PowerLogRate(0.3), 16).values.copy()
    values[11] = 0.0
    with pytest.raises(InsufficientDataError):
        hmin_estimate(ScaleEnvelope(values=values), 4, 16)
    assert hmin_estimate(ScaleEnvelope(values=values), 12, 16) == pytest.approx(0.3, abs=1e-10)


def test_hmin_validation():
    env = envelope_from_rate(PowerLogRate(0.5), 12)
    with pytest.raises(InsufficientDataError):
        hmin_estimate(env, 5, 8)  # span below 4
    with pytest.raises(InsufficientDataError):
        hmin_estimate(ScaleEnvelope(values=np.zeros(13)), 4, 12)
    with pytest.raises(InvalidParameterError):
        hmin_estimate(env, 4, 13)  # past j_max


# ----------------------------------------------------------- modulus ratio

def tent_path(resolution: int) -> SamplePath:
    xs = np.arange(2**resolution) * 2.0**-resolution
    return SamplePath(resolution, 1.0 - np.abs(2.0 * xs - 1.0))


def test_modulus_ratio_tent_constant():
    fit = modulus_ratio(tent_path(10), PowerLogModulus(alpha=1.0), 3, 7)
    assert fit.lags_m == (3, 4, 5, 6, 7)
    assert np.array_equal(fit.lags, 2.0 ** -np.arange(3.0, 8.0))
    assert fit.ratios == pytest.approx(np.full(5, 2.0), rel=1e-12)


def test_modulus_ratio_shift_invariance(db10_table):
    f = uniform_decay_field(0.5, 7)
    path = synthesize(randomized_field(f, gaussian(), 2), db10_table, 7, 12)
    rolled = SamplePath(12, np.roll(path.values, 517))
    theta = PowerLogModulus(alpha=0.5, gamma=2.0)
    a = modulus_ratio(path, theta, 4, 7)
    b = modulus_ratio(rolled, theta, 4, 7)
    assert np.array_equal(a.sup_increments, b.sup_increments)


def test_modulus_ratio_spread_and_log_detection(db10_table):
    # Gaussian randomization of the square-root-decay field: with the
    # matching sqrt-log factor the lag ratios stay within a decade; without
    # it they drift upward with m.
    f = uniform_decay_field(0.5, 8)
    spreads, rising = [], 0
    for seed in range(5):
        path = synthesize(randomized_field(f, gaussian(), seed), db10_table, 8, 12)
        with_log = modulus_ratio(path, PowerLogModulus(alpha=0.5, gamma=2.0), 4, 8)
        spreads.append(float(np.max(with_log.ratios) / np.min(with_log.ratios)))
        no_log = modulus_ratio(path, PowerLogModulus(alpha=0.5), 4, 8)
        if no_log.ratios[-1] > no_log.ratios[0]:
            rising += 1
    assert float(np.median(spreads)) <= 10.0
    assert rising >= 4


def test_modulus_ratio_matches_rolled_differences(db10_table):
    # The wrapped increment is read as two slice differences, with the
    # bits of the rolled-copy reduction.
    f = uniform_decay_field(0.5, 8)
    path = synthesize(randomized_field(f, gaussian(), 4), db10_table, 8, 12)
    fit = modulus_ratio(path, PowerLogModulus(alpha=0.5), 2, 11)
    v = path.values
    want = [np.max(np.abs(np.roll(v, -2 ** (12 - m)) - v)) for m in fit.lags_m]
    assert fit.sup_increments.tobytes() == np.asarray(want).tobytes()


def test_modulus_ratio_validation(db10_table):
    path = synthesize(zero_field(4, coarse=1.0), db10_table, 4, 10)
    theta = PowerLogModulus(alpha=0.5, gamma=2.0)
    with pytest.raises(InvalidParameterError):
        modulus_ratio(path, theta, 1, 5)  # lag too coarse
    with pytest.raises(InvalidParameterError):
        modulus_ratio(path, theta, 5, 5)
    with pytest.raises(InvalidParameterError):
        modulus_ratio(path, theta, 4, 10)  # beyond R - 1
    with pytest.raises(InvalidParameterError):
        modulus_ratio(path, "h^0.5", 4, 8)
    with pytest.raises(InvalidParameterError):
        PowerLogModulus(alpha=0.5, gamma=0.0)


def test_constant_path_zero_ratios():
    path = SamplePath(8, np.full(256, 4.0))
    fit = modulus_ratio(path, PowerLogModulus(alpha=0.5, gamma=2.0), 3, 6)
    assert np.all(fit.ratios == 0.0)
    assert np.all(np.isfinite(fit.ratios))


# ------------------------------------------------------------------ export

def test_export_profile_csv(tmp_path, haar_table):
    f = uniform_decay_field(1.0, 5)
    profile = sup_growth(f, haar_table, [3, 5], 1)
    dest = tmp_path / "profile.csv"
    export_profile_csv(profile, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "J,global_sup,interval_id,local_sup"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("3,")
