import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwslab import (
    InvalidParameterError,
    InvalidPreconditionError,
    NoDivergenceSequenceError,
    build_filter,
    cascade_evaluate,
    resolve_config,
)
from rwslab.constructions import (
    WITNESS_SIGN_STREAM,
    block_witness_process,
    coefficient_exceedances,
    divergence_scale_field,
    divergence_scales,
    divergent_subsequence,
    geometric_scale_ratio,
    nested_placement,
    sparse_loglog_rate,
    unbounded_series_field,
)
from rwslab.fields import (
    PowerLogRate,
    check_criterion,
    envelope_from_rate,
    scale_envelope,
    uniform_decay_field,
    zero_field,
)
from rwslab import constructions, laws
from rwslab.laws import (BLOCK, COEFFICIENT_STREAM, divergence_sequence, draw_array, exp_tail,
                         gaussian, heavy_tail, rademacher)


# ---------------------------------------------------------------- oracles

def dense_exceedances_oracle(law, j_max, seed, stop_after=1):
    """Exceedance events from each scale's full draw vector."""
    events = []
    for n, j in divergence_scales(law, j_max):
        chi = draw_array(law, seed, COEFFICIENT_STREAM, j, np.arange(2**j))
        hits = np.abs(chi) >= float(n) ** 3
        if hits.any():
            events.append({"n": n, "j": j, "count": int(hits.sum()),
                           "first_k": int(np.argmax(hits))})
            if stop_after is not None and len(events) >= stop_after:
                break
    return events


def doubling_divergence_scales(law, j_max, variant="plain"):
    """Divergence scales up to j_max by doubling n_max until the sequence
    passes j_max, recomputing it on each round."""
    n_max = 8
    seq = divergence_sequence(law, variant, n_max)
    while seq[-1] <= j_max:
        n_max *= 2
        seq = divergence_sequence(law, variant, n_max)
    return [(n, j) for n, j in enumerate(seq, start=1) if j <= j_max]


def greedy_blocks_oracle(values, horizon):
    """Block-by-block greedy selection, written independently with plain
    Python sums: per block, candidates are the progressions keeping gaps
    non-decreasing, scored by their remaining total."""
    picked = []
    gap = 2
    while True:
        if picked:
            candidates = [picked[-1] + gap - 1, picked[-1] + gap]
        else:
            candidates = []
            for r in range(gap):
                firsts = [j for j in range(r, horizon + 1, gap) if values[j] > 0]
                if firsts:
                    candidates.append(firsts[0])
        candidates = [s for s in candidates if s <= horizon]
        if not candidates:
            return picked
        scored = sorted(
            (-math.fsum(values[s + gap * t] for t in range((horizon - s) // gap + 1)), s)
            for s in candidates)
        s = scored[0][1]
        total = 0.0
        while s <= horizon and total < 1.0:
            picked.append(s)
            total += values[s]
            s += gap
        if total < 1.0:
            return picked
        gap += 1


def window_fractions(table):
    step = Fraction(2) ** -table.positivity_interval.level
    return (table.positivity_interval.index * step,
            (table.positivity_interval.index + 1) * step)


def brute_leftmost(table, j, lo, hi):
    a, b = window_fractions(table)
    first = math.floor(lo * 2**j - a) - 2
    for k in range(first, first + table.support_length + 8):
        if (k + a) / 2**j >= lo and (k + b) / 2**j <= hi:
            return k
    return None


def assert_nesting(table, placement):
    a, b = window_fractions(table)
    target = (Fraction(1, 8), Fraction(3, 8))
    for j, k, (lo, hi) in zip(placement.scales, placement.positions,
                              placement.intervals):
        # stored window belongs to the stored (possibly wrapped) position
        unwrapped = lo * 2**j - a
        assert unwrapped.denominator == 1
        assert unwrapped % 2**j == k
        assert hi == lo + (b - a) / 2**j
        assert lo >= target[0] and hi <= target[1]
        assert brute_leftmost(table, j, *target) == unwrapped
        width = hi - lo
        target = (lo + width / 4, hi - width / 4)


def thin_then_place_oracle(table, scales):
    """Two-pass placement: keep the scales where some window fits the
    current target, then place the kept scales by brute-force search."""
    kept, target = [], (Fraction(1, 8), Fraction(3, 8))
    a, b = window_fractions(table)
    for j in scales:
        k = brute_leftmost(table, j, *target)
        if k is None:
            continue
        kept.append(j)
        lo, hi = (k + a) / 2**j, (k + b) / 2**j
        target = (lo + (hi - lo) / 4, hi - (hi - lo) / 4)
    positions, intervals, target = [], [], (Fraction(1, 8), Fraction(3, 8))
    for j in kept:
        k = brute_leftmost(table, j, *target)
        lo, hi = (k + a) / 2**j, (k + b) / 2**j
        positions.append(k % 2**j)
        intervals.append((lo, hi))
        target = (lo + (hi - lo) / 4, hi - (hi - lo) / 4)
    return tuple(kept), tuple(positions), tuple(intervals)


# ------------------------------------------------------------ subsequence

def test_subsequence_harmonic_matches_oracle():
    rate = PowerLogRate(0.0, a=-1.0)
    got = divergent_subsequence(rate, 4096)
    assert got == greedy_blocks_oracle(envelope_from_rate(rate, 4096).values, 4096)
    # first block is the single term 1/1, second walks 3, 6, ..., 33
    assert got[:13] == [1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36]


def test_subsequence_constant_envelope():
    got = divergent_subsequence(PowerLogRate(0.0), 64)
    # unit mass per term: one-element blocks, gap growing each time
    assert got == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
    gaps = np.diff(got)
    assert np.all(np.diff(gaps) >= 0) and gaps[-1] > gaps[0]


def test_subsequence_selected_sum_grows():
    rate = PowerLogRate(0.0, a=-1.0)
    s_short = sum(rate.value(j) for j in divergent_subsequence(rate, 256))
    s_long = sum(rate.value(j) for j in divergent_subsequence(rate, 8192))
    # harmonic blocks stretch exponentially, so growth per horizon
    # doubling is well under one unit but never stalls
    assert s_long > s_short + 0.5


def test_subsequence_preconditions():
    with pytest.raises(InvalidPreconditionError):
        divergent_subsequence(PowerLogRate(s=1.0), 64)


@given(st.sampled_from([-1.0, -0.9, -0.5, 0.0]),
       st.sampled_from([-1.0, 0.0, 0.5]),
       st.integers(min_value=128, max_value=1024))
@settings(max_examples=40, deadline=None)
def test_subsequence_gap_properties(a, b, horizon):
    rate = PowerLogRate(0.0, a=a, b=b)
    if check_criterion(rate, "l1") != "fails":
        return
    got = divergent_subsequence(rate, horizon)
    gaps = np.diff(got)
    assert np.all(np.diff(gaps) >= 0)
    assert gaps[-1] >= 3  # three blocks fit in every horizon above


# -------------------------------------------------------------- placement

def test_nested_placement_haar(haar_table):
    p = nested_placement(haar_table, [2, 4, 6, 8])
    assert p.positions[0] == 1
    assert p.intervals[0] == (Fraction(1, 4), Fraction(3, 8))
    assert p.positions[1] == 5
    assert_nesting(haar_table, p)


def test_nested_placement_db10(db10_table):
    root = next(j for j in range(2, 32)
                if brute_leftmost(db10_table, j, Fraction(1, 8), Fraction(3, 8)) is not None)
    # the level-6 positivity window makes translates step 2^-j across a
    # width-2^-(6+j) target, so nesting needs gaps past the window level
    p = nested_placement(db10_table, [root, root + 8, root + 16, root + 24])
    assert_nesting(db10_table, p)
    assert nested_placement(db10_table, [root, root + 2]).scales == (root,)


def test_nested_placement_gap_too_small(haar_table):
    # the scale with no fitting window is skipped
    assert nested_placement(haar_table, [2, 3]) == nested_placement(haar_table, [2])
    assert nested_placement(haar_table, [2, 3, 4, 6]).scales == (2, 4, 6)


def test_nested_placement_greedy_over_long_runs(haar_table):
    p = nested_placement(haar_table, list(range(2, 20)))
    assert len(p.scales) > 3
    assert_nesting(haar_table, p)
    # a greedy prefix is the placement of its own scales
    q = nested_placement(haar_table, p.scales[:3])
    assert (q.scales, q.positions, q.intervals) == \
        (p.scales[:3], p.positions[:3], p.intervals[:3])


@given(st.sampled_from(["haar", "db10"]),
       st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12,
                unique=True))
@settings(max_examples=60, deadline=None)
def test_nested_placement_matches_thin_then_place(haar_table, db10_table, wavelet, scales):
    table = {"haar": haar_table, "db10": db10_table}[wavelet]
    scales = sorted(scales)
    p = nested_placement(table, scales)
    assert (p.scales, p.positions, p.intervals) == thin_then_place_oracle(table, scales)


def test_nested_placement_single_scale(haar_table):
    p = nested_placement(haar_table, [2])
    lo, hi = p.intervals[0]
    assert Fraction(1, 8) <= lo and hi <= Fraction(3, 8)


def test_nested_placement_validation(haar_table):
    for bad in ([], [4, 2], [-1, 3], [2.5, 4]):
        with pytest.raises(InvalidParameterError):
            nested_placement(haar_table, bad)


# ------------------------------------------------------------ spike chain

def test_unbounded_series_field(haar_table):
    env = envelope_from_rate(PowerLogRate(0.0, a=-1.0), 8)
    p = nested_placement(haar_table, [2, 4, 6, 8])
    f = unbounded_series_field(env, p)
    assert np.array_equal(scale_envelope(f).values, env.values)
    for j, k in zip(p.scales, p.positions):
        assert f.levels[j][k] == env.values[j]
    # off scales park at the translate covering 3/4
    assert f.levels[5][24] == env.values[5]
    assert np.count_nonzero(f.levels[5]) == 1
    assert f.levels[3][6] == env.values[3]


def test_unbounded_series_zero_envelope(haar_table):
    env = scale_envelope(zero_field(8))
    f = unbounded_series_field(env, nested_placement(haar_table, [2, 4, 6]))
    assert all(np.all(lv == 0.0) for lv in f.levels)


def test_unbounded_series_scale_overflow(haar_table):
    env = envelope_from_rate(PowerLogRate(0.0, a=-1.0), 5)
    p = nested_placement(haar_table, [2, 4, 6])
    with pytest.raises(InvalidParameterError):
        unbounded_series_field(env, p)


def test_unbounded_series_empty_placement(haar_table):
    env = envelope_from_rate(PowerLogRate(0.0, a=-1.0), 5)
    # a Haar window at scale 0 or 1 is half a unit interval, wider than
    # [1/8, 3/8), so neither scale is placed
    p = nested_placement(haar_table, [0, 1])
    assert p.scales == ()
    with pytest.raises(InvalidParameterError, match="no scale"):
        unbounded_series_field(env, p)


def test_prop22_default_placement():
    # the witness construction prop22 builds at its defaults
    config = resolve_config("prop22")
    table = cascade_evaluate(build_filter(config["wavelet"], config["vanishing_moments"]),
                             config["table_resolution"])
    scales = divergent_subsequence(PowerLogRate(0.0, a=-1.0), config["witness_j_max"])
    p = nested_placement(table, nested_placement(table, scales).scales[:config["witness_levels"]])
    assert p.scales == (3, 6, 9, 12)
    assert p.positions == (1, 9, 73, 585)


# ------------------------------------------------------- divergence scales

def test_divergence_scale_field_heavy():
    f = divergence_scale_field(heavy_tail(1.0), 8)
    expected = {0: 1.0, 3: 0.25, 5: 1 / 9, 6: 1 / 16, 7: 1 / 25, 8: 1 / 36}
    for j in range(9):
        lv = f.levels[j]
        if j in expected:
            assert np.all(lv == expected[j])
        else:
            assert np.all(lv == 0.0)


def test_divergence_scale_field_partial_sums():
    f = divergence_scale_field(heavy_tail(1.0), 22)
    total = math.fsum(float(np.max(lv)) for lv in f.levels)
    n = len(divergence_scales(heavy_tail(1.0), 22))
    assert n == 20
    assert total == pytest.approx(math.fsum(1 / m**2 for m in range(1, 21)))
    assert abs(total - math.pi**2 / 6) < 1 / 20  # p-series tail bound


def test_divergence_scale_field_gaussian():
    f = divergence_scale_field(gaussian(), 10)
    assert np.all(f.levels[2] == 1.0)
    assert sum(np.count_nonzero(lv) for lv in f.levels) == 4
    assert divergence_scales(gaussian(), 50)[:2] == [(1, 2), (2, 50)]


@pytest.mark.parametrize("law", [heavy_tail(0.2), heavy_tail(1.0), heavy_tail(3.0), gaussian(),
                                 exp_tail(0.5, 1.0), exp_tail(2.0, 2.0)])
@pytest.mark.parametrize("variant", ["plain", "strengthened"])
def test_divergence_scales_match_doubling_loop(law, variant):
    for j_max in range(-1, 40):
        assert divergence_scales(law, j_max, variant) == \
            doubling_divergence_scales(law, j_max, variant), j_max


def test_divergence_scales_computed_once_per_law_and_scale(monkeypatch):
    calls = []

    def counting(law, variant, n_max):
        calls.append((law, variant, n_max))
        return divergence_sequence(law, variant, n_max)

    constructions._divergence_scales.cache_clear()
    monkeypatch.setattr(constructions, "divergence_sequence", counting)
    law = heavy_tail(1.0)
    first = divergence_scales(law, 16)
    first.append((0, 0))  # each call returns a list of its own
    assert divergence_scales(law, 16) == first[:-1] == doubling_divergence_scales(law, 16)
    for seed in range(3):
        coefficient_exceedances(law, 16, seed, stop_after=None)
    assert len(calls) == 1
    divergence_scales(law, 16, "strengthened")
    divergence_scales(law, 15)
    assert len(calls) == 3
    constructions._divergence_scales.cache_clear()


def test_divergence_scale_field_bounded_law():
    with pytest.raises(NoDivergenceSequenceError):
        divergence_scale_field(rademacher(), 10)


def test_coefficient_exceedances_heavy():
    law = heavy_tail(1.0)
    for seed in range(20):
        events = coefficient_exceedances(law, 8, seed)
        # |draw| = u^{-1} > 1 almost surely, so n = 1 always logs
        assert events and events[0] == {"n": 1, "j": 0, "count": 1, "first_k": 0}
    full = coefficient_exceedances(law, 8, 7, stop_after=None)
    ns = [e["n"] for e in full]
    assert ns[0] == 1 and ns == sorted(set(ns))
    # recount one logged scale directly from the same stream
    n, j = full[-1]["n"], full[-1]["j"]
    chi = draw_array(law, 7, "coef", j, np.arange(2**j))
    assert full[-1]["count"] == int(np.sum(np.abs(chi) >= n**3))


@pytest.mark.parametrize("law", [heavy_tail(1.0), exp_tail(0.5, 0.5), gaussian()],
                         ids=["heavy_tail", "exp_tail", "gaussian"])
@pytest.mark.parametrize("stop_after", [None, 1])
def test_coefficient_exceedances_match_dense_scan(law, stop_after):
    deep_first_k = False
    for seed in (0, 3, 2**64 - 1):
        expected = dense_exceedances_oracle(law, 20, seed, stop_after=stop_after)
        assert coefficient_exceedances(law, 20, seed, stop_after=stop_after) == expected
        deep_first_k |= any(e["first_k"] >= BLOCK for e in expected)
    if law.tag == "exp_tail" and stop_after is None:
        assert deep_first_k  # a first hit past the first draw block


def test_exceedance_cuts_searched_once_per_law_and_threshold():
    law = heavy_tail(1.0)
    laws._cut.cache_clear()
    first = coefficient_exceedances(law, 16, 0, stop_after=None)
    searched = laws._cut.cache_info().misses
    assert searched == len(divergence_scales(law, 16, "plain"))
    for seed in (1, 2):
        assert coefficient_exceedances(law, 16, seed, stop_after=None) == \
            dense_exceedances_oracle(law, 16, seed, stop_after=None)
    assert laws._cut.cache_info().misses == searched
    assert coefficient_exceedances(law, 16, 0, stop_after=None) == first


def test_coefficient_exceedances_errors():
    with pytest.raises(NoDivergenceSequenceError):
        coefficient_exceedances(rademacher(), 8, 0)


# ----------------------------------------------------------- block witness

def test_block_witness_zero_field():
    rec = block_witness_process(zero_field(10), heavy_tail(1.0), seed=5)
    for row in rec["per_scale"]:
        # |±1/n^2 + 0| meets the threshold exactly: every block witnesses
        assert row["witness_blocks"] == row["blocks"]
        assert row["blocks"] == 2 ** row["j"] // (2 * row["j"])
        assert row["product_exceedances"] >= row["chi_exceedances"]
    assert rec["scales_with_product_exceedance"] == sum(
        row["product_exceedances"] > 0 for row in rec["per_scale"])


def test_block_witness_exact_cancellation():
    law = heavy_tail(1.0)
    f = zero_field(12)
    seed = 11
    for n, j in divergence_scales(law, 12, "strengthened"):
        signs = draw_array(rademacher(), seed, WITNESS_SIGN_STREAM, j, np.arange(2**j))
        f.levels[j][:] = -signs / float(n) ** 2
    rec = block_witness_process(f, law, seed)
    assert all(row["witness_blocks"] == 0 for row in rec["per_scale"])
    assert rec["scales_with_product_exceedance"] == 0


def test_block_witness_independent_adversary():
    law = heavy_tail(1.0)
    f = zero_field(12)
    for n, j in divergence_scales(law, 12, "strengthened"):
        signs = draw_array(rademacher(), 999, WITNESS_SIGN_STREAM, j, np.arange(2**j))
        f.levels[j][:] = -signs / float(n) ** 2
    rec = block_witness_process(f, law, seed=11)
    # per-k miss probability 1/2, per-block 2^{-2j}: scales with >= 64
    # blocks should be witness-saturated
    for row in rec["per_scale"]:
        if row["blocks"] >= 64:
            assert row["witness_blocks"] >= 0.95 * row["blocks"]


def test_block_witness_deterministic():
    f = uniform_decay_field(0.5, 10)
    a = block_witness_process(f, heavy_tail(1.0), seed=3)
    b = block_witness_process(f, heavy_tail(1.0), seed=3)
    assert a == b
    # at n = 1 any witness block yields a product |c| * |chi| >= 1
    assert a["scales_with_product_exceedance"] >= 1


def test_block_witness_bounded_law():
    with pytest.raises(NoDivergenceSequenceError):
        block_witness_process(zero_field(8), bounded_law := rademacher(), 0)
    del bounded_law


# ----------------------------------------------------------- sparse scales

def test_geometric_scale_ratio_value():
    assert geometric_scale_ratio() == 5
    assert math.floor(2.0 / (0.6931471805599453 - 0.25)) == 4


def test_sparse_rate_verdicts():
    rate = sparse_loglog_rate()
    assert np.flatnonzero(envelope_from_rate(rate, 625).values).tolist() == [5, 25, 125, 625]
    assert check_criterion(rate, "loglog") == "holds"
    assert check_criterion(rate, "sqrtj") == "fails"
    assert check_criterion(rate, "l1") == "holds"
