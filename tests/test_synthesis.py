"""Synthesis backend against brute-force evaluation and closed forms.

Oracles:
  * brute_synthesize evaluates every translate separately through
    eval_periodized, an independent path through the wavelet table
    (per-point wrap loop instead of the filter bank).
  * dirichlet_tail bounds the sawtooth partial-sum error away from the
    jump by summation by parts.
  * loop_sawtooth and loop_wiener sum the Fourier modes one at a time, the
    direct O(M 2^R) route the folded FFT replaces.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from rwslab.constructions import divergence_scale_field
from rwslab.errors import InvalidParameterError
from rwslab.estimators import (
    PowerLogModulus,
    _cell_sups,
    analysis_field,
    modulus_ratio,
    sup_growth,
)
from rwslab.fields import (
    CoefficientField,
    scale_envelope,
    uniform_decay_field,
    zero_field,
)
from rwslab.laws import (
    LAW_TAGS,
    bernoulli,
    bounded_uniform,
    draw,
    draw_array,
    exp_tail,
    gaussian,
    heavy_tail,
    rademacher,
)
from rwslab.synthesis import (
    FOURIER_MODE_STREAM,
    SamplePath,
    _path_finite,
    export_path_csv,
    fourier_sawtooth,
    randomized_envelope,
    randomized_field,
    randomized_synthesize,
    synthesize,
    wiener_brownian,
)
from rwslab.util import sup_abs
from rwslab.wavelets import _block_rows, build_filter, cascade_evaluate, pyramid_evaluate

from wavelet_oracles import eval_periodized, special_levels, tap_lifts


def brute_synthesize(field_, table, j_trunc, resolution):
    """Reference reconstruction: coarse + every translate on its own."""
    xs = np.arange(2**resolution) * 2.0**-resolution
    total = np.full(xs.size, float(field_.coarse))
    for j in range(j_trunc + 1):
        for k in range(2**j):
            c = field_.levels[j][k]
            if c != 0.0:
                total = total + c * eval_periodized(table, j, k, xs)
    return total


def dirichlet_tail(x: float, m_terms: int) -> float:
    """|sum_{m > M} sin(2 pi m x) / (pi m)| <= 2 / (pi (M+1) |sin(pi x)|)."""
    return 2.0 / (math.pi * (m_terms + 1) * abs(math.sin(math.pi * x)))


def loop_sawtooth(m_terms, resolution):
    """-sum_{m <= M} sin(2 pi m x)/(pi m) on the grid, one mode at a time."""
    xs = np.arange(2**resolution) * 2.0**-resolution
    values = np.zeros(xs.size)
    for m in range(1, m_terms + 1):
        values -= np.sin((2.0 * math.pi * m) * xs) / (math.pi * m)
    return values


def loop_wiener(m_terms, resolution, seed):
    """The Brownian sine expansion on the grid, one mode at a time."""
    xs = np.arange(2**resolution) * 2.0**-resolution
    chi = [draw(gaussian(), seed, (FOURIER_MODE_STREAM, 0, m)) for m in range(m_terms + 1)]
    values = (math.sqrt(2.0) * chi[0]) * xs
    for m in range(1, m_terms + 1):
        values += (chi[m] / (math.pi * m)) * np.sin((2.0 * math.pi * m) * xs)
    return values


# (M, R): M < 2^(R-1); M >= 2^R, so modes fold onto each other; R in {0, 1, 2}
FOURIER_CASES = [(5, 6), (100, 10), (600, 12), (64, 6), (100, 5), (1000, 4),
                 (1, 0), (7, 0), (1, 1), (3, 1), (1, 2), (9, 2)]


def random_field(j_max: int, rng) -> CoefficientField:
    levels = [rng.standard_normal(2**j) for j in range(j_max + 1)]
    return CoefficientField(j_max, float(rng.standard_normal()), levels)


# ------------------------------------------------------- wavelet synthesis

def test_matches_brute_force_haar(haar_table):
    f = random_field(5, np.random.default_rng(7))
    path = synthesize(f, haar_table, 5, 9)
    assert path.values == pytest.approx(brute_synthesize(f, haar_table, 5, 9), abs=1e-12)
    assert path.resolution == 9
    assert path.values.size == 512


def check_brute_force(table):
    f = random_field(4, np.random.default_rng(8))
    for j_trunc in (0, 2, 4):
        path = synthesize(f, table, j_trunc, 9)
        oracle = brute_synthesize(f, table, j_trunc, 9)
        assert path.values == pytest.approx(oracle, abs=1e-11)


def test_matches_brute_force_db10(db10_table):
    check_brute_force(db10_table)


def test_matches_brute_force_db4(db4_table):
    check_brute_force(db4_table)


def test_haar_single_coefficient_indicator(haar_table):
    f = zero_field(3)
    f.levels[2][1] = 1.0
    path = synthesize(f, haar_table, 3, 8)
    xs = path.grid_x()
    expected = np.where(
        (xs >= 0.25) & (xs < 0.375), 1.0,
        np.where((xs >= 0.375) & (xs < 0.5), -1.0, 0.0),
    )
    assert np.array_equal(path.values, expected)


def test_zero_field_constant_path(db10_table):
    path = synthesize(zero_field(4, coarse=2.5), db10_table, 4, 10)
    assert np.array_equal(path.values, np.full(1024, 2.5))


def test_linearity(db10_table):
    rng = np.random.default_rng(9)
    f, g = random_field(5, rng), random_field(5, rng)
    combined = CoefficientField(
        5, f.coarse + g.coarse, [a + b for a, b in zip(f.levels, g.levels)]
    )
    lhs = synthesize(combined, db10_table, 5, 10).values
    rhs = synthesize(f, db10_table, 5, 10).values + synthesize(g, db10_table, 5, 10).values
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_truncation_cauchy_bound(db10_table):
    f = uniform_decay_field(1.0, 8)
    p_lo = synthesize(f, db10_table, 4, 12).values
    p_hi = synthesize(f, db10_table, 8, 12).values
    tail = sum(2.0**-j for j in range(5, 9))
    bound = (db10_table.support_length + 1) * db10_table.sup_norm * tail
    assert float(np.max(np.abs(p_hi - p_lo))) <= bound


@pytest.mark.parametrize("table_name", ["haar_table", "db10_table"])
def test_tail_synthesis_equals_truncation_difference(request, table_name):
    # prop22 and prop43 synthesize only the levels j_lo < j <= J; by
    # linearity that is S_J - S_{j_lo}, the pair of syntheses it replaced
    table = request.getfixturevalue(table_name)
    j_lo, j_hi, res = 4, 8, 12
    f = random_field(j_hi, np.random.default_rng(11))
    assert f.coarse != 0.0
    tail = zero_field(j_hi)
    for j in range(j_lo + 1, j_hi + 1):
        tail.levels[j][:] = f.levels[j]
    oracle = synthesize(f, table, j_hi, res).values - synthesize(f, table, j_lo, res).values
    assert synthesize(tail, table, j_hi, res).values == pytest.approx(oracle, abs=1e-12)


def test_resolution_preconditions(db10_table, haar_table):
    f = zero_field(6)
    for table in (db10_table, haar_table):
        with pytest.raises(InvalidParameterError):
            synthesize(f, table, 7, 12)  # truncation beyond the field
        with pytest.raises(InvalidParameterError):
            synthesize(f, table, 6, 9)  # fewer than 4 spare levels
        with pytest.raises(InvalidParameterError):
            synthesize(f, table, 6, 13)  # finer than the table grid
    with pytest.raises(InvalidParameterError):
        randomized_synthesize(f, db10_table, gaussian(), 1, 6, 13)


@pytest.mark.parametrize("n", [1, 4, 10])
def test_synthesis_sup_equals_grid_sup(n):
    # sup_growth against the cell sups of the full grid, bit for bit, at
    # prop22 and prop43 sizes (J = 16 on 2^20 points): prop22's tail trials,
    # bounded uniform levels 2^-j above j_lo = 10, and prop43's seeds,
    # Gaussian multiples of j^-2 above j_lo = 12; then a full field with a
    # coarse value, truncated below its last level.  The box reads its cells
    # off the grid of 2^max(J+1, depth) points: depth 0 is below J + 1 for
    # every cut, 19 above it, and 16 lies between the cut at 14 and those at 16.
    table = cascade_evaluate(build_filter("haar" if n == 1 else "daubechies", n), 20)
    trial, seeded = zero_field(16), zero_field(16)
    for j in range(11, 17):
        trial.levels[j][:] = 2.0**-j * draw_array(bounded_uniform(1.0), 0, "l1-trial-0", j,
                                                  np.arange(2**j))
    for j in range(13, 17):
        seeded.levels[j][:] = float(j) ** -2.0
    full = random_field(16, np.random.default_rng(n))
    for f, j_trunc in ((trial, 16), (randomized_field(seeded, gaussian(), 0), 16), (full, 14)):
        values = synthesize(f, table, j_trunc, 20).values
        for depth in (0, 16, 19):
            profile = sup_growth(f, table, [j_trunc], depth)
            want = _cell_sups(values, 2**depth)
            assert profile.local_sups[0].tobytes() == want.tobytes()
            assert profile.global_sups[0] == sup_abs(values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf in the filter bank
@pytest.mark.parametrize("table_name", ["haar_table", "db10_table"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, "overflow"])
def test_synthesis_sup_rejects_non_finite_field(request, table_name, bad):
    # A field checks its entries when it is made, so a non-finite path comes
    # from an entry set afterwards or from finite entries that overflow.
    # Synthesis and sup profiles reject it with the same error.
    table = request.getfixturevalue(table_name)
    if bad == "overflow":
        f = CoefficientField(4, 1e308, [np.full(2**j, 1e308) for j in range(5)])
    else:
        f = zero_field(4)
        f.levels[3][2] = bad
    message = "sample path contains non-finite values"
    with pytest.raises(InvalidParameterError, match=message):
        synthesize(f, table, 4, 10)
    with pytest.raises(InvalidParameterError, match=message):
        sup_growth(f, table, [4], 0)


def test_box_sup_builds_no_grid():
    # The box's sups come from the 2^17 level-17 values at J = 16: the peak
    # stays under half the 8 MiB of the 2^20-point grid of the table.
    table = cascade_evaluate(build_filter("haar", 1), 20)
    f = random_field(16, np.random.default_rng(3))
    tracemalloc.start()
    try:
        sup_growth(f, table, [16], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_sample_path_validation():
    SamplePath(3, np.zeros(8))
    with pytest.raises(InvalidParameterError):
        SamplePath(3, np.zeros(7))
    with pytest.raises(InvalidParameterError):
        SamplePath(2, np.array([1.0, np.inf, 0.0, 0.0]))


# ------------------------------------------------------------ grid windows

@pytest.mark.parametrize("n", [1, 2, 4, 10])
@pytest.mark.parametrize("spare", [0, 2])
def test_window_has_the_bits_of_the_whole_grid(n, spare):
    # prop22's witness averages: windows that start or end mid-cell, one
    # cell, one point, the whole grid, and for db10 windows across a row
    # block boundary of the level's product.
    table = cascade_evaluate(build_filter("haar" if n == 1 else "daubechies", n), 14)
    f = random_field(10, np.random.default_rng(n))
    res = table.r_psi - spare
    size = 2**res
    for j in (3, 6, 10 - spare):
        whole = synthesize(f, table, j, res)
        cell = size // 2 ** (j + 1)
        windows = [(0, size), (cell, 2 * cell), (cell // 2 + 1, 5 * cell - 3), (7, 8),
                   (size - cell - 5, size)]
        step = _block_rows(2 ** (j + 1), np.empty((table.support_length, cell)))
        if n == 10 and spare == 0 and j >= 6:
            assert step < 2 ** (j + 1)  # the level spans several blocks
        windows += [(b * cell - cell - 3, b * cell + cell // 2)
                    for b in range(step, 2 ** (j + 1), step)][:4]
        for lo, hi in windows:
            part = synthesize(f, table, j, res, (lo, hi))
            assert part.window == (lo, hi)
            assert part.values.tobytes() == whole.values[lo:hi].tobytes()
            assert part.values.mean().tobytes() == whole.values[lo:hi].mean().tobytes()
            assert part.grid_x().tobytes() == whole.grid_x()[lo:hi].tobytes()


@pytest.mark.parametrize("table_name", ["haar_table", "db4_table"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1.7e308])
def test_window_rejects_a_non_finite_path(request, table_name, bad):
    # A non-finite coefficient far from the window is rejected as the whole
    # grid rejects it, from its scale on.  1.7e308 is finite, and so is the
    # box's path, but db4's psi peaks at 1.36: its path overflows.
    table = request.getfixturevalue(table_name)
    f = zero_field(6)
    f.levels[5][20] = bad
    rejected = not (table_name == "haar_table" and bad == 1.7e308)
    res = table.r_psi
    assert synthesize(f, table, 4, res, (0, 4)).values.tolist() == [0.0] * 4
    for cut in (5, 6):
        if not rejected:
            assert synthesize(f, table, cut, res, (0, 4)).values.tolist() == [0.0] * 4
            continue
        for window in (None, (0, 4)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(InvalidParameterError, match="non-finite"):
                synthesize(f, table, cut, res, window)


@pytest.mark.parametrize("coarse", [0.0, -0.0, 0.375, 1.7e308, -1.7e308])
def test_box_path_finite_reads_the_extremes(haar_table, coarse):
    # coarse + max a and coarse + min a decide finiteness as the dense
    # path does, with infinities, nans and overflow in the lifts.
    levels = special_levels("special", 8, seed=6)
    seen = set()
    with np.errstate(all="ignore"):
        for j, a in enumerate(tap_lifts(levels, haar_table)):
            want = bool(np.all(np.isfinite(pyramid_evaluate(coarse, a, haar_table, j + 3))))
            assert _path_finite(coarse, a, haar_table, j + 3) == want
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("window", [(-1, 4), (0, 0), (5, 5), (6, 2), (0, 2**8 + 1),
                                    (2**8, 2**8 + 1)])
def test_window_outside_the_grid_is_rejected(haar_table, window):
    with pytest.raises(InvalidParameterError, match=r"window \[.*needs 0 <= lo < hi <= 2\^8"):
        synthesize(zero_field(3), haar_table, 3, 8, window)
    with pytest.raises(InvalidParameterError, match="window"):
        SamplePath(8, np.zeros(4), window)


def test_window_path_validation(haar_table):
    part = SamplePath(3, np.zeros(2), (5, 7))
    assert part.grid_x().tolist() == [5 / 8, 6 / 8]
    with pytest.raises(InvalidParameterError, match="expected 2 samples"):
        SamplePath(3, np.zeros(3), (5, 7))
    with pytest.raises(InvalidParameterError, match="non-finite"):
        SamplePath(3, np.array([0.0, np.nan]), (5, 7))
    # analysis and increments read the whole torus
    part = synthesize(zero_field(3), haar_table, 3, 8, (0, 16))
    with pytest.raises(InvalidParameterError, match="whole grid"):
        analysis_field(part, haar_table, 3)
    with pytest.raises(InvalidParameterError, match="whole grid"):
        modulus_ratio(part, PowerLogModulus(0.5), 2, 5)


# ---------------------------------------------------- randomized synthesis

def test_rademacher_preserves_envelope():
    f = random_field(6, np.random.default_rng(10))
    twisted = randomized_field(f, rademacher(), 123)
    assert np.array_equal(scale_envelope(twisted).values, scale_envelope(f).values)
    assert not np.array_equal(twisted.levels[6], f.levels[6])


def test_randomized_determinism_and_provenance(db10_table):
    # (field, law, seed, truncation) identifies the path: the record a
    # caller keeps beside it is enough to regenerate it bit for bit
    f = uniform_decay_field(0.5, 6)
    a = randomized_synthesize(f, db10_table, gaussian(), 42, 6, 11)
    b = randomized_synthesize(f, db10_table, gaussian(), 42, 6, 11)
    c = randomized_synthesize(f, db10_table, gaussian(), 43, 6, 11)
    d = randomized_synthesize(f, db10_table, gaussian(), 42, 5, 11)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)


def test_bounded_randomization_sup_bound(db10_table):
    # One coefficient column of size 1/n^2 per divergence scale; a bounded
    # multiplier keeps the partial sums below the absolute-convergence bound
    # no matter how deep the truncation runs.
    field_ = divergence_scale_field(heavy_tail(1.0), 8)
    bound = (db10_table.support_length + 1) * db10_table.sup_norm * sum(
        1.0 / n**2 for n in range(1, 7)
    )
    for j_trunc in (5, 8):
        path = randomized_synthesize(
            field_, db10_table, bounded_uniform(1.0), 7, j_trunc, 12
        )
        assert float(np.max(np.abs(path.values))) <= bound


# ---------------------------------------------------- randomized envelope

ENVELOPE_LAWS = {"rademacher": rademacher(), "gaussian": gaussian(),
                 "bernoulli": bernoulli(0.3), "exp_tail": exp_tail(0.5, 0.5),
                 "heavy_tail": heavy_tail(1.5), "bounded_uniform": bounded_uniform(2.0)}


@pytest.fixture(scope="module")
def envelope_fields():
    """Depth-19 constant-magnitude fields (level 19 spans two draw blocks)."""
    rng = np.random.default_rng(19)
    j_max = 19
    constant = uniform_decay_field(0.4, j_max)
    signed = [2.0**-j * rng.choice([-1.0, 1.0], 2**j) for j in range(j_max + 1)]
    return {
        "constant": constant,
        "negative-constant": CoefficientField(j_max, 0.0, [-lv for lv in constant.levels]),
        "zero": zero_field(j_max),
        "signed-constant": CoefficientField(j_max, 0.0, signed),
    }


@pytest.mark.parametrize("tag", LAW_TAGS)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_randomized_envelope_equals_dense_envelope(envelope_fields, tag, seed):
    law = ENVELOPE_LAWS[tag]
    for name, f in envelope_fields.items():
        dense = scale_envelope(randomized_field(f, law, seed)).values
        got = randomized_envelope(scale_envelope(f), law, seed).values
        assert np.array_equal(got, dense), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf draws, 0 * inf
def test_randomized_envelope_rejects_non_finite_draws():
    law = heavy_tail(0.001)  # u^-1000 overflows for most u
    for f in (uniform_decay_field(0.5, 4), random_field(4, np.random.default_rng(1)),
              zero_field(4)):
        with pytest.raises(InvalidParameterError):
            randomized_field(f, law, 0)
        with pytest.raises(InvalidParameterError):
            randomized_envelope(scale_envelope(f), law, 0)


# ------------------------------------------------------------ Fourier side

def test_sawtooth_zero_at_half():
    path = fourier_sawtooth(64, 6)
    assert path.values[32] == pytest.approx(0.0, abs=1e-12)


def test_sawtooth_quarter_point():
    path = fourier_sawtooth(4096, 8)
    assert abs(path.values[64] - (-0.25)) <= dirichlet_tail(0.25, 4096)


def test_sawtooth_sup_error_away_from_jump():
    m_terms = 2**14
    path = fourier_sawtooth(m_terms, 10)
    xs = path.grid_x()
    mask = (xs >= 0.1) & (xs <= 0.9)
    err = float(np.max(np.abs(path.values[mask] - (xs[mask] - 0.5))))
    assert err <= dirichlet_tail(0.1, m_terms)
    assert err <= 1e-3


def test_sawtooth_provenance_and_validation():
    # the mode count and the grid identify the deterministic partial sum
    a, b = fourier_sawtooth(3, 5), fourier_sawtooth(3, 5)
    assert a.values.shape == (32,) and np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, fourier_sawtooth(4, 5).values)
    with pytest.raises(InvalidParameterError):
        fourier_sawtooth(0, 5)


@pytest.mark.parametrize("m_terms,resolution", FOURIER_CASES)
def test_sawtooth_matches_term_by_term_sum(m_terms, resolution):
    path = fourier_sawtooth(m_terms, resolution)
    assert np.max(np.abs(path.values - loop_sawtooth(m_terms, resolution))) <= 1e-12


@pytest.mark.parametrize("m_terms,resolution", FOURIER_CASES + [(0, 6), (0, 1)])
def test_wiener_matches_term_by_term_sum(m_terms, resolution):
    path = wiener_brownian(m_terms, resolution, 17)
    assert np.max(np.abs(path.values - loop_wiener(m_terms, resolution, 17))) <= 1e-12


@pytest.mark.parametrize("m_terms,resolution", [(1, 1), (64, 6), (100, 5), (2**14, 10)])
def test_sawtooth_exact_positive_zeros(m_terms, resolution):
    # every mode vanishes at x = 0 and x = 1/2; the samples there are +0.0,
    # so the CSV never reads -0
    values = fourier_sawtooth(m_terms, resolution).values
    for i in (0, values.size // 2):
        assert values[i] == 0.0 and math.copysign(1.0, values[i]) == 1.0


def test_wiener_origin_and_determinism():
    a = wiener_brownian(128, 9, 5)
    b = wiener_brownian(128, 9, 5)
    assert a.values[0] == 0.0
    assert np.array_equal(a.values, b.values)


def test_wiener_no_modes_is_linear():
    path = wiener_brownian(0, 8, 21)
    chi0 = draw(gaussian(), 21, (FOURIER_MODE_STREAM, 0, 0))
    assert np.array_equal(path.values, math.sqrt(2.0) * chi0 * path.grid_x())


def test_wiener_variance_at_half():
    # At x = 1/2 all sine modes vanish, so the variance there is the
    # variance of the linear term alone: (sqrt(2)/2)^2 = 1/2.
    vals = [wiener_brownian(8, 6, seed).values[32] ** 2 for seed in range(200)]
    assert abs(float(np.mean(vals)) - 0.5) <= 0.075


# ------------------------------------------------------------------ export

def test_export_path_csv(tmp_path, haar_table):
    f = zero_field(2, coarse=1.0)
    f.levels[1][0] = -0.5
    path_obj = synthesize(f, haar_table, 2, 7)
    dest = tmp_path / "path.csv"
    export_path_csv(path_obj, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "0,0.5"
    assert len(lines) == 1 + 128
    assert list(tmp_path.iterdir()) == [dest]  # the CSV alone, no sidecar
