import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwslab import InvalidParameterError, build_filter, cascade_evaluate
from rwslab.fields import (
    CoefficientField,
    PowerLogRate,
    _psi_reductions,
    _step_closed_form,
    check_criterion,
    envelope_from_rate,
    field_digest,
    scale_envelope,
    step_function_coefficients,
    uniform_decay_envelope,
    uniform_decay_field,
    zero_field,
)

from wavelet_oracles import eval_periodized


# ---------------------------------------------------------------- oracles

def heaviside_cumsum_oracle(table, k):
    """T(k) for k < 0 via partial sums of the table, an independent
    reduction of the same integral: T = Z - 2 S_below - psi(jump) step."""
    step = table.grid_step
    psi = table.psi_level(table.r_psi)[:-1]
    idx = -k * 2**table.r_psi
    below = float(np.sum(psi[:idx]) * step)
    total = float(np.sum(psi) * step)
    return total - 2.0 * below - float(psi[idx]) * step


def table_reductions(psi, r_psi):
    """psi's per-unit sums, its values at the integers and its first moment
    sum_i i psi_i, summed from the psi table one unit at a time."""
    psi, unit = psi[:-1], 2**r_psi
    moment = math.fsum(
        float(np.sum(np.arange(lo, lo + unit, dtype=float) * psi[lo : lo + unit]))
        for lo in range(0, psi.size, unit))
    return np.add.reduceat(psi, np.arange(0, psi.size, unit)), psi[::unit], moment


def sawtooth_xspace_oracle(table, j, k, r):
    """Crude independent route: torus-grid quadrature of the sawtooth
    against the periodized wavelet.  Jump-cell error ~ 2^{j-r}."""
    x = np.arange(2**r) / 2**r
    saw = np.where(x == 0.0, 0.0, x - 0.5)
    return 2.0**j * float(np.mean(saw * eval_periodized(table, j, k, x)))


def sawtooth_quadrature_oracle(table, j_max):
    """Sawtooth coefficients by quadrature of the folded integrand over the
    whole table for every wrap-crossing translate (O(L 2^r_psi) each); the
    other positions are 2^-j times the first moment of psi."""
    length, step = table.support_length, table.grid_step
    u = np.arange(length * 2**table.r_psi) * step
    psi = table.psi_level(table.r_psi)[:-1]
    first_moment = float(np.sum(u * psi) * step)
    levels = []
    for j in range(j_max + 1):
        size, scale = 2**j, 2.0**-j
        lv = np.full(size, scale * first_moment)
        for k in range(max(0, size - length + 1), size):
            x = ((u + k) * scale) % 1.0
            saw = np.where(x == 0.0, 0.0, x - 0.5)
            lv[k] = float(np.sum(saw * psi) * step)
        levels.append(lv)
    return levels


RATE_GRID = [
    PowerLogRate(s, a, b, c)
    for s in (-0.5, 0.0, 0.7)
    for a in (-2.0, -1.0, -0.5, 0.0, 1.0)
    for b in (-2.0, -1.0, 0.0, 1.0)
    for c in (-2.0, -1.0, 0.0, 1.0)
]


# ---------------------------------------------------------------- fields

def test_field_validation():
    with pytest.raises(InvalidParameterError):
        CoefficientField(1, 0.0, [np.zeros(1)])
    with pytest.raises(InvalidParameterError):
        CoefficientField(1, 0.0, [np.zeros(1), np.zeros(3)])
    with pytest.raises(InvalidParameterError):
        CoefficientField(0, math.nan, [np.zeros(1)])
    with pytest.raises(InvalidParameterError):
        CoefficientField(1, 0.0, [np.zeros(1), np.array([1.0, math.inf])])


def test_scale_envelope_examples():
    env = scale_envelope(zero_field(5))
    assert np.array_equal(env.values, np.zeros(6))

    f = uniform_decay_field(0.5, 8)
    env = scale_envelope(f)
    assert np.allclose(env.values, 2.0 ** (-0.5 * np.arange(9)), rtol=0, atol=0)
    assert np.array_equal(uniform_decay_envelope(0.5, 8).values, env.values)

    g = zero_field(5)
    g.levels[3][5] = -7.0
    env = scale_envelope(g)
    assert env.values[3] == 7.0
    assert np.all(env.values[np.arange(6) != 3] == 0.0)


def test_scale_envelope_equals_max_abs_bit_for_bit():
    rng = np.random.default_rng(5)
    f = zero_field(4)
    f.levels[1][:] = [-0.0, -0.0]                    # max alone would give -0.0
    f.levels[2][:] = -rng.random(4) - 0.5            # all negative
    f.levels[3][:] = rng.standard_normal(8)          # mixed signs
    f.levels[4][:] = rng.standard_normal(16) * 1e-300
    got = scale_envelope(f).values
    want = [np.max(np.abs(lv)) for lv in f.levels]
    for g, w in zip(got, want):
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w)
    assert math.copysign(1.0, got[1]) == 1.0 and got[0] == 0.0


@given(st.integers(min_value=0, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_scale_envelope_permutation_invariant(j_max, rnd):
    f = zero_field(j_max)
    for j in range(j_max + 1):
        f.levels[j][:] = [rnd.uniform(-2, 2) for _ in range(2**j)]
    base = scale_envelope(f).values
    for j in range(j_max + 1):
        perm = list(range(2**j))
        rnd.shuffle(perm)
        f.levels[j] = f.levels[j][perm]
    assert np.array_equal(scale_envelope(f).values, base)


# ---------------------------------------------------------------- rates

def test_rate_values_and_envelope():
    r = PowerLogRate(s=0.5)
    env = envelope_from_rate(r, 10)
    assert env.values[4] == 2.0**-2.0
    assert env.values[0] == 0.0  # below first supported scale

    sparse = PowerLogRate(0.0, a=-0.5, b=-1.0, c=-1.0, support="geometric", ratio=5)
    env = envelope_from_rate(sparse, 30)
    assert env.values[5] == pytest.approx(
        5**-0.5 / (math.log(5) * math.log(math.log(5))))
    assert env.values[25] > 0
    assert np.count_nonzero(env.values) == 2


def test_geometric_rate_is_zero_off_its_support():
    sparse = PowerLogRate(0.0, a=-0.5, b=-1.0, c=-1.0, support="geometric", ratio=5)
    on = {5**n for n in range(1, 27)}
    for j in [0, 1, 2, 3, 4, 6, 10, 24, 26, 124, 126, 5**26 - 1, 5**26 + 1, 2 * 5**20]:
        assert sparse.value(j) == 0.0, j
    assert all(sparse.value(j) > 0.0 for j in on)
    # ratio^0 = 1 is not a support scale, even where every factor is defined
    assert PowerLogRate(0.0, support="geometric", ratio=3).value(1) == 0.0
    assert PowerLogRate(0.0, support="geometric", ratio=3).value(9) == 1.0


def test_rate_validation():
    with pytest.raises(InvalidParameterError):
        PowerLogRate(0.0, support="geometric")
    with pytest.raises(InvalidParameterError):
        PowerLogRate(0.0, support="sometimes")


# ---------------------------------------------------------------- criteria

def test_criterion_examples():
    assert check_criterion(PowerLogRate(s=1.0), "l1") == "holds"
    assert check_criterion(PowerLogRate(0.0, a=-2.0), "sqrtj") == "holds"  # p-series 3/2
    prop46 = PowerLogRate(0.0, a=-0.5, b=-1.0, c=-1.0, support="geometric", ratio=5)
    assert check_criterion(prop46, "loglog") == "holds"
    assert check_criterion(prop46, "sqrtj") == "fails"
    assert check_criterion(prop46, "l1") == "holds"


def test_criterion_boundary_cases():
    harmonic = PowerLogRate(0.0, a=-1.0)
    assert check_criterion(harmonic, "l1") == "fails"
    assert check_criterion(harmonic, "linfty") == "holds"
    assert check_criterion(harmonic, "c0") == "holds"
    constant = PowerLogRate(0.0)
    assert check_criterion(constant, "linfty") == "holds"
    assert check_criterion(constant, "c0") == "fails"
    assert check_criterion(PowerLogRate(0.0, a=1.0), "linfty") == "fails"
    assert check_criterion(PowerLogRate(-0.5), "linfty") == "fails"
    assert check_criterion(PowerLogRate(-0.5), "l1") == "fails"
    # Bertrand borderline: 1/(j log j) diverges, 1/(j log^2 j) converges
    assert check_criterion(PowerLogRate(0.0, a=-1.0, b=-1.0), "l1") == "fails"
    assert check_criterion(PowerLogRate(0.0, a=-1.0, b=-2.0), "l1") == "holds"
    assert check_criterion(PowerLogRate(0.0, a=-1.0, b=-1.0, c=-2.0), "l1") == "holds"


def test_criterion_gamma():
    r = PowerLogRate(0.0, a=-2.0)
    assert check_criterion(r, "gamma", gamma=1.0) == "fails"  # sum 1/j
    assert check_criterion(r, "gamma", gamma=2.0) == "holds"  # sum j^{-3/2}
    with pytest.raises(InvalidParameterError):
        check_criterion(r, "gamma")
    with pytest.raises(InvalidParameterError):
        check_criterion(r, "gamma", gamma=2.5)
    with pytest.raises(InvalidParameterError):
        check_criterion(r, "l1", gamma=1.0)
    with pytest.raises(InvalidParameterError):
        check_criterion(r, "summable")


@pytest.mark.parametrize("rate", RATE_GRID)
def test_criterion_implication_chain(rate):
    # weight ordering for j >= 16: sqrt j >= sqrt j / log log j >= 1,
    # so convergence propagates down the chain, and l1 forces vanishing
    verdicts = {k: check_criterion(rate, k) for k in ("c0", "l1", "sqrtj", "loglog")}
    if verdicts["sqrtj"] == "holds":
        assert verdicts["loglog"] == "holds"
    if verdicts["loglog"] == "holds":
        assert verdicts["l1"] == "holds"
    if verdicts["l1"] == "holds":
        assert verdicts["c0"] == "holds"


@pytest.mark.parametrize("rate", [
    PowerLogRate(0.0, a, b, c, support="geometric", ratio=q)
    for a in (-1.0, -0.5, 0.0, 0.5)
    for b in (-2.0, -1.0, 0.0)
    for c in (-2.0, -1.0, 0.0)
    for q in (2, 5)
])
def test_criterion_chain_on_subsequences(rate):
    verdicts = {k: check_criterion(rate, k) for k in ("c0", "l1", "sqrtj", "loglog")}
    if verdicts["sqrtj"] == "holds":
        assert verdicts["loglog"] == "holds"
    if verdicts["loglog"] == "holds":
        assert verdicts["l1"] == "holds"
    if verdicts["l1"] == "holds":
        assert verdicts["c0"] == "holds"


def test_geometric_series_vs_partial_sum_sanity():
    # a' = 0 divergence on subsequences is slow; check the partial sums at
    # least keep growing where the symbolic verdict says "fails"
    rate = PowerLogRate(0.0, a=-0.5, b=-1.0, c=-1.0, support="geometric", ratio=5)
    env = envelope_from_rate(rate, 5**4)
    assert check_criterion(rate, "sqrtj") == "fails"
    sums = np.cumsum(np.sqrt(np.arange(env.j_max + 1)) * env.values)
    assert sums[5**4] > sums[5**3] > sums[5**2] > 0


# ------------------------------------------------------- step functions

def test_haar_heaviside_all_vanish(haar_table):
    f = step_function_coefficients(haar_table, "heaviside", 6)
    assert all(np.all(lv == 0.0) for lv in f.levels)


def test_haar_sawtooth_closed_form(haar_table):
    f = step_function_coefficients(haar_table, "sawtooth", 6)
    for j in range(7):
        assert np.all(f.levels[j] == -(2.0**-j) / 4.0), j


def test_db10_heaviside_cone(db10_table):
    f = step_function_coefficients(db10_table, "heaviside", 6)
    # support of translate k covers 0 only for -18 <= k <= -1
    lv5 = f.levels[5]
    assert np.flatnonzero(lv5).tolist() == list(range(32 - 18, 32))
    # scale invariance c_{j,k} = c_{j+1,k}, exact here by construction
    for k in range(-18, 0):
        assert f.levels[5][k % 32] == f.levels[6][k % 64]
    # against the independent cumulative-sum reduction
    for k in (-18, -9, -1):
        assert f.levels[6][k % 64] == pytest.approx(
            heaviside_cumsum_oracle(db10_table, k), abs=1e-14)


def test_db10_sawtooth_properties(db10_table):
    f = step_function_coefficients(db10_table, "sawtooth", 6)
    hv = step_function_coefficients(db10_table, "heaviside", 6)
    # off the wrap the ten vanishing moments leave only quadrature dust
    assert np.max(np.abs(f.levels[5][:14])) < 1e-10
    # the jump relation: sawtooth = -heaviside/2 on the cone (the linear
    # part integrates to the first moment, zero for ten moments)
    for j in (5, 6):
        for k in range(-18, 0):
            pos = k % 2**j
            assert f.levels[j][pos] == pytest.approx(-hv.levels[j][pos] / 2, abs=1e-12)
    # j-invariance of the cone values, each level computed independently
    for k in range(-18, 0):
        assert f.levels[5][k % 32] == pytest.approx(f.levels[6][k % 64], abs=1e-12)


@pytest.mark.parametrize("name", ["haar_table", "db4_table", "db10_table"])
def test_sawtooth_matches_full_table_quadrature(name, request):
    # for db4 and db10, j = 0..6 covers scales with 2^j below the support
    # length (a translate crosses the wrap several times) and deeper ones
    table = request.getfixturevalue(name)
    f = step_function_coefficients(table, "sawtooth", 6)
    for j, want in enumerate(sawtooth_quadrature_oracle(table, 6)):
        assert np.max(np.abs(f.levels[j] - want)) <= 1e-12, j


def test_sawtooth_closed_form_on_arbitrary_table():
    # Daubechies tables vanish at u = 0, so a random psi is what exercises
    # the midpoint term of a translate starting on the wrap (k = 0)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(5 * 2**10 + 1)
    table = types.SimpleNamespace(support_length=5, r_psi=10, grid_step=2.0**-10,
                                  psi_level=lambda level: psi)
    f = _step_closed_form("sawtooth", 4, 5, 2.0**-10, *table_reductions(psi, 10))
    for j, want in enumerate(sawtooth_quadrature_oracle(table, 4)):
        assert np.max(np.abs(f.levels[j] - want)) <= 1e-12, j


@pytest.mark.parametrize("n", [2, 4, 10, 20])
@pytest.mark.parametrize("r_psi", range(12, 18))
def test_tap_reductions_match_the_table(n, r_psi):
    # The cell-sum recursion on the taps is the psi table's own level-r_psi
    # quadrature: equal up to rounding, and psi at the integers bit for bit.
    table = cascade_evaluate(build_filter("daubechies", n), r_psi)
    unit_sums, psi_int, moment = _psi_reductions(table)
    want_sums, want_int, want_moment = table_reductions(table.psi_level(r_psi), r_psi)
    assert np.max(np.abs(unit_sums - want_sums)) <= 1e-14 * np.max(np.abs(want_sums))
    assert np.array_equal(psi_int, want_int)
    # at least two vanishing moments: the first moment is quadrature dust either way
    for m in (moment, want_moment):
        assert abs(m * table.grid_step) <= 1e-9


@pytest.mark.parametrize("r_psi", [6, 12, 19])
def test_box_reductions_are_exact(r_psi):
    table = cascade_evaluate(build_filter("haar", 1), r_psi)
    unit_sums, psi_int, moment = _psi_reductions(table)
    want_sums, want_int, want_moment = table_reductions(table.psi_level(r_psi), r_psi)
    assert np.array_equal(unit_sums, want_sums) and np.array_equal(psi_int, want_int)
    assert moment == want_moment == -(4.0 ** (r_psi - 1))


def test_sawtooth_makes_no_table_sized_array():
    # The reductions come from the taps and phi at the integers, so neither
    # kind refines psi or any phi level: the traced peak stays far below
    # the 20 MB of phi at level 18 alone.
    table = cascade_evaluate(build_filter("daubechies", 10), 19)
    for kind in ("sawtooth", "heaviside"):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step_function_coefficients(table, kind, 9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert "psi" not in vars(table), kind
        assert peak < 2**20, kind


def test_sawtooth_against_xspace_oracle(db10_table):
    f = step_function_coefficients(db10_table, "sawtooth", 6)
    for j, k in [(5, 29), (5, 20), (6, 50), (4, 3)]:
        crude = sawtooth_xspace_oracle(db10_table, j, k, 12)
        assert f.levels[j][k] == pytest.approx(crude, abs=1e-3)


def test_sawtooth_resolution_consistency():
    a = step_function_coefficients(cascade_evaluate(build_filter("daubechies", 10), 12), "sawtooth", 6)
    b = step_function_coefficients(cascade_evaluate(build_filter("daubechies", 10), 14), "sawtooth", 6)
    worst = max(float(np.max(np.abs(x - y))) for x, y in zip(a.levels, b.levels))
    assert worst < 1e-6


def test_step_function_validation(db10_table):
    with pytest.raises(InvalidParameterError):
        step_function_coefficients(db10_table, "square", 5)


def test_step_coefficients_deeper_than_r_psi_minus_6(db10_table):
    # The suffix sums are taken in u = 2^j x - k at the integers, so levels
    # past r_psi - 6 = 6 follow the same closed forms as the shallow ones.
    saw = step_function_coefficients(db10_table, "sawtooth", 9)
    for j, want in enumerate(sawtooth_quadrature_oracle(db10_table, 9)):
        assert np.max(np.abs(saw.levels[j] - want)) <= 1e-12, j
    cone = step_function_coefficients(db10_table, "heaviside", 9)
    for k in range(-18, 0):
        assert cone.levels[9][k % 512] == cone.levels[5][k % 32]


# ------------------------------------------------------------------ digest

def test_field_digest_sees_every_coefficient():
    digest = field_digest(uniform_decay_field(0.5, 6))
    assert len(digest) == 12 and digest == field_digest(uniform_decay_field(0.5, 6))
    flipped = uniform_decay_field(0.5, 6)
    flipped.levels[6][63] = -flipped.levels[6][63]
    assert field_digest(flipped) != digest
