import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwslab import (
    InvalidParameterError,
    NumericalFailureError,
    ScalingFilter,
    build_filter,
    cascade_evaluate,
)
from rwslab.fields import uniform_decay_field
from rwslab.synthesis import synthesize
from rwslab.util import sup_abs
from rwslab.wavelets import (
    _BLOCK,
    _GEMM_CELLS,
    _GEMV_ROWS,
    DyadicInterval,
    INTERVAL_GRANULARITY,
    PROBE_DEPTH,
    SEARCH_DEPTH,
    _CONVERGENCE_FLOOR,
    _WIDEST_LEVEL,
    _blocked_matmul,
    _integer_values,
    _phi_rows,
    _positivity_search,
    _probe_diffs,
    _refine,
    _two_scale,
    _two_scale_matrices,
    periodized_grid,
    pyramid_analysis,
    pyramid_lifts,
    pyramid_synthesis,
)

from wavelet_oracles import (eval_periodized, full_psi, gather_analysis, gather_synthesis,
                             psi_at, special_levels, tap_lifts)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- oracles

def solve_four_tap_system():
    """Independent oracle: solve the 4-tap orthonormality/moment system exactly.

    Equations: unit sum (sqrt 2), unit energy, shift-2 orthogonality, and a
    vanishing first moment of the mirror filter.  Returns all real solutions.
    """
    import sympy as sp

    h = sp.symbols("h0:4", real=True)
    eqs = [
        h[0] + h[1] + h[2] + h[3] - sp.sqrt(2),
        h[0] ** 2 + h[1] ** 2 + h[2] ** 2 + h[3] ** 2 - 1,
        h[0] * h[2] + h[1] * h[3],
        -h[2] + 2 * h[1] - 3 * h[0],
    ]
    sols = sp.solve(eqs, list(h), dict=True)
    return [tuple(float(s[x].evalf(20)) for x in h) for s in sols]


def brute_periodized(table, j, k, x):
    """Reference wrap sum over a generous translate range, one term at a time.

    At j=0 every translate of the length-19 support overlaps [0,1), so the
    range must cover the whole support, not just a few wraps.
    """
    psi = full_psi(table)
    total = 0.0
    for l in range(-24, 25):
        t = 2.0**j * (x - l) - k
        idx = round(t * 2**table.r_psi)
        if 0 <= idx < psi.size:
            total += psi[idx]
    return total


def per_tap_refine(values, weights, r):
    """The two-scale sum as one whole-array pass per weight (the former kernel)."""
    out = np.zeros(values.size + (weights.size - 1) * 2**r)
    for k, w in enumerate(weights):
        lo = k * 2**r
        out[lo : lo + values.size] += w * values
    return out


def per_tap_cascade(filt, r_psi):
    """(phi, psi, refinement diffs) from full per-tap refinements at every level."""
    (c, d), length = _two_scale(filt), filt.support_length
    diffs = []
    probe = np.zeros(length + 1)
    probe[0] = 1.0
    for r in range(r_psi):
        nxt = per_tap_refine(probe, c, r)
        diffs.append(float(np.max(np.abs(nxt[::2] - probe))))
        probe = nxt
    phi = _integer_values(c, length)
    for r in range(r_psi):
        nxt = per_tap_refine(phi, c, r)
        nxt[::2] = phi
        phi = nxt
    psi = per_tap_refine(phi[::2], d, r_psi - 1)
    return phi, psi, diffs


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def riemann(values, step):
    # left endpoint rule; the right endpoint value is dropped
    return float(np.sum(values[:-1]) * step)


# ---------------------------------------------------------------- filters

def test_haar_taps_closed_form():
    f = build_filter("haar", 1)
    assert f.support_length == 1
    assert len(f.taps) == 2
    assert f.taps[0] == f.taps[1]
    # correctly-rounded 1/sqrt(2); note 1/math.sqrt(2) is one ulp off
    assert f.taps[0] == math.sqrt(0.5)


def test_db2_taps_match_polynomial_system_oracle():
    ours = build_filter("daubechies", 2).taps
    sols = solve_four_tap_system()
    assert any(max(abs(a - b) for a, b in zip(ours, s)) < 1e-14 for s in sols)
    # extremal phase: energy concentrated at the front
    front = ours[0] ** 2 + ours[1] ** 2
    assert front > 0.5


@pytest.mark.parametrize("n", range(1, 21))
def test_filter_invariants(n):
    f = build_filter("daubechies", n)
    h = np.asarray(f.taps)
    assert len(h) == 2 * n
    assert abs(h.sum() - SQRT2) < 1e-12
    for m in range(1, n):
        assert abs(np.dot(h[: 2 * n - 2 * m], h[2 * m :])) < 1e-10
    assert abs(np.dot(h, h) - 1.0) < 1e-10
    g = np.asarray(f.highpass_taps())
    i = np.arange(2 * n, dtype=float)
    for m in range(n):
        terms = i**m * g
        scale = max(1.0, np.abs(terms).sum())
        assert abs(terms.sum()) / scale < 1e-8, (n, m)


def test_build_filter_rejects_bad_input():
    with pytest.raises(InvalidParameterError, match="1..20"):
        build_filter("daubechies", 21)
    with pytest.raises(InvalidParameterError):
        build_filter("daubechies", 0)
    with pytest.raises(InvalidParameterError):
        build_filter("coiflet", 2)
    with pytest.raises(InvalidParameterError):
        build_filter("haar", 2)


# ---------------------------------------------------------------- cascade

def test_haar_table_exact_closed_form(haar_table):
    r_psi = haar_table.r_psi
    g = np.arange(2**r_psi + 1) * haar_table.grid_step
    expected_psi = np.where(g < 0.5, 1.0, np.where(g < 1.0, -1.0, 0.0))
    expected_phi = np.where(g < 1.0, 1.0, 0.0)
    assert np.array_equal(haar_table.psi_level(r_psi), expected_psi)
    assert np.array_equal(haar_table.phi_level(r_psi), expected_phi)
    assert haar_table.sup_norm == 1.0


def test_haar_signed_intervals(haar_table):
    assert haar_table.positivity_interval == DyadicInterval(index=0, level=1)
    assert haar_table.positivity_floor == 1.0


def test_haar_sup_and_intervals_leave_psi_unbuilt():
    # The box's sup and positivity interval come from its psi at level
    # SEARCH_DEPTH, refined from phi one level coarser like any filter's,
    # and neither is kept.  The box is constant on every search bin, so they
    # agree with the search over psi at r_psi = 20, the table prop22 and
    # prop43 read.
    table = cascade_evaluate(build_filter("haar", 1), 20)
    got = (table.sup_norm, table.positivity_interval, table.positivity_floor)
    assert "psi" not in vars(table)
    assert deepest_level(table) == 0
    psi = table.psi_level(20)
    pos, pos_floor = _positivity_search(psi, 20, 1)
    assert got == (float(np.max(np.abs(psi))), pos, pos_floor)


@pytest.mark.parametrize("n", [4, 10])
def test_search_reads_psi_at_search_depth(n):
    # Past SEARCH_DEPTH the sup and the positivity search read psi at that
    # level, bit for bit.  The sampled sup then lies below the level-18 sup
    # by at most 1e-9 (measured: 0 for db4, 3.02e-10 for db10), and the
    # interval stays put.
    table = cascade_evaluate(build_filter("daubechies", n), 18)
    got = (table.sup_norm, table.positivity_interval, table.positivity_floor)
    psi = table.psi_level(SEARCH_DEPTH)
    pos, pos_floor = _positivity_search(psi, SEARCH_DEPTH, table.support_length)
    assert got == (sup_abs(psi), pos, pos_floor)
    full = table.psi_level(18)
    assert 0.0 <= sup_abs(full) - table.sup_norm <= 1e-9
    assert _positivity_search(full, 18, table.support_length)[0] == pos


def test_search_holds_under_32_mb():
    # db10 at r_psi = 20 searches phi at level SEARCH_DEPTH - 1 (5 MB) and
    # one psi at SEARCH_DEPTH (10 MB), where psi at r_psi alone is 160 MB,
    # and keeps neither.
    table = cascade_evaluate(build_filter("daubechies", 10), 20)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table.sup_norm, table.positivity_interval
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert "psi" not in vars(table)
    assert deepest_level(table) == 0


@pytest.mark.parametrize("n", [1, 2, 4, 10])
@pytest.mark.parametrize("r_psi", [10, 18])
def test_search_keeps_no_phi_level(n, r_psi):
    # phi refined for the search is dropped with its psi: the table is no
    # larger after the read, and a level refined before stays as it was.
    filt = build_filter("haar" if n == 1 else "daubechies", n)
    for level in (0, 3):
        table = cascade_evaluate(filt, r_psi)
        table.phi_level(level)
        kept = table._deepest
        table.sup_norm
        assert table._deepest is kept


# sup_norm, the positivity interval (index, level) and its floor as the
# search read them when it kept its phi level, as float.hex() strings.
SEARCH_BITS = {
    (1, 10): ("0x1.0000000000000p+0", 0, 1, "0x1.0000000000000p+0"),
    (1, 18): ("0x1.0000000000000p+0", 0, 1, "0x1.0000000000000p+0"),
    (2, 10): ("0x1.bb67ae8584caap+0", 95, 6, "0x1.af6fba982e18dp+0"),
    (2, 18): ("0x1.bb67ae8584caap+0", 95, 6, "0x1.af6fba982e18dp+0"),
    (4, 10): ("0x1.5bf295a7bc87ep+0", 230, 6, "0x1.5afebde78ae7fp+0"),
    (4, 18): ("0x1.5bf312a441dafp+0", 230, 6, "0x1.5af2cb81cf8b1p+0"),
    (10, 10): ("0x1.06a5417641c12p+0", 589, 6, "0x1.b0141fb770c50p-1"),
    (10, 18): ("0x1.06a5712140b0ep+0", 589, 6, "0x1.b00004d8e73ccp-1"),
}


@pytest.mark.parametrize("key", sorted(SEARCH_BITS))
def test_search_keeps_its_bits(key):
    n, r_psi = key
    table = cascade_evaluate(build_filter("haar" if n == 1 else "daubechies", n), r_psi)
    interval = table.positivity_interval
    got = (table.sup_norm.hex(), interval.index, interval.level, table.positivity_floor.hex())
    assert got == SEARCH_BITS[key]


def test_db10_quadrature_invariants(db10_table):
    t = db10_table
    step, psi = t.grid_step, t.psi_level(t.r_psi)
    assert abs(riemann(psi, step)) < 1e-8
    assert abs(riemann(psi**2, step) - 1.0) < 1e-6
    assert abs(riemann(t.phi_level(t.r_psi), step) - 1.0) < 1e-6


@pytest.mark.parametrize("n", [3, 5, 20])
def test_table_quadrature_across_orders(n):
    t = cascade_evaluate(build_filter("daubechies", n), 12)
    step, psi = t.grid_step, t.psi_level(12)
    assert abs(riemann(psi, step)) < 1e-8
    assert abs(riemann(psi**2, step) - 1.0) < 1e-6


def test_db2_needs_deeper_grid_for_energy():
    # phi is barely Hoelder-1/2 smooth here, so the level-12 Riemann sum
    # misses 1e-6; four more levels recover it.
    t = cascade_evaluate(build_filter("daubechies", 2), 16)
    assert abs(riemann(t.psi_level(16) ** 2, t.grid_step) - 1.0) < 1e-6


def test_refinement_diffs_decrease(db10_table):
    d = db10_table.refinement_diffs
    assert d[-1] < d[-2] < d[-3]


def test_signed_intervals_bound_psi(db10_table):
    t = db10_table
    iv = t.positivity_interval
    lo = iv.index * 2 ** (t.r_psi - iv.level)
    hi = (iv.index + 1) * 2 ** (t.r_psi - iv.level)
    assert np.all(t.psi_level(t.r_psi)[lo:hi] >= t.positivity_floor)
    assert t.positivity_floor > 0


def test_interval_search_deterministic():
    a = cascade_evaluate(build_filter("daubechies", 10), 12)
    b = cascade_evaluate(build_filter("daubechies", 10), 12)
    assert a.positivity_interval == b.positivity_interval
    assert a.positivity_floor == b.positivity_floor
    assert np.array_equal(a.psi_level(12), b.psi_level(12))


def brute_positivity_search(psi, sample_level, length):
    """Every dyadic interval at levels INTERVAL_GRANULARITY.._WIDEST_LEVEL inside
    [0, length), the best by key (floor, -level, -index) among positive floors."""
    best, best_iv = None, None
    for level in range(INTERVAL_GRANULARITY, _WIDEST_LEVEL - 1, -1):
        width = 2 ** (sample_level - level)
        for index in range(length * 2**sample_level // width):
            floor = float(np.min(psi[index * width : (index + 1) * width]))
            key = (floor, -level, -index)
            if floor > 0.0 and (best is None or key > best):  # NaN floors fail
                best, best_iv = key, DyadicInterval(index=index, level=level)
    return (None, 0.0) if best is None else (best_iv, best[0])


def bins_psi(length, bins):
    """psi sampled at level 7 over [0, length]: -1 but on the given level-6 bins."""
    psi = np.full(length * 2**7 + 1, -1.0)
    for lo, hi, value in bins:
        psi[2 * lo : 2 * hi] = value
    return psi


@pytest.mark.parametrize("bins, expected", [
    # equal floors at levels 6 and 2: the wider wins, though it lies right
    ([(3, 4, 0.25), (32, 48, 0.25)], (DyadicInterval(index=2, level=2), 0.25)),
    # equal floors within level 6: the leftmost wins
    ([(50, 51, 0.75), (9, 10, 0.75), (20, 21, 0.5)], (DyadicInterval(index=9, level=6), 0.75)),
    # a NaN bin beside positive ones: never picked, and it spoils the pair it joins
    ([(9, 10, 1.0), (10, 11, np.nan), (11, 12, 2.0)], (DyadicInterval(index=11, level=6), 2.0)),
    ([(0, 64, 0.5), (1, 2, np.nan)], (DyadicInterval(index=1, level=1), 0.5)),
    # no positive bin: zeros, NaN and negatives
    ([(0, 8, 0.0), (8, 9, np.nan)], (None, 0.0)),
])
def test_positivity_search_tie_rules(bins, expected):
    psi = bins_psi(1, bins)
    assert _positivity_search(psi, 7, 1) == expected
    assert brute_positivity_search(psi, 7, 1) == expected


@pytest.mark.parametrize("length", [1, 3, 7, 39])
@pytest.mark.parametrize("seed", range(4))
def test_positivity_search_matches_brute_force(length, seed):
    # Few distinct values, constant over level-4 cells with single level-6
    # bins changed, make ties within and across levels; NaN samples among them.
    rng = np.random.default_rng([length, seed])
    values = rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0], size=length * 2**4)
    psi = np.append(np.repeat(values, 2**3), -1.0)
    for b in rng.integers(0, length * 2**6, size=2 * length):
        psi[2 * b : 2 * b + 2] = rng.choice([-1.0, 0.25, 1.0, 1.0, 2.0])
    psi[rng.integers(0, psi.size, size=2 * length)] = np.nan
    assert _positivity_search(psi, 7, length) == brute_positivity_search(psi, 7, length)


@pytest.mark.parametrize("n, r_psi", [(2, 8), (2, 16), (4, 14), (10, 15), (20, 14)])
def test_blocked_refinement_matches_per_tap_oracle(n, r_psi):
    # Blocked whole-level refinement, coarse values written back, against
    # full per-tap passes, bit for bit.  db4 r14 ends in a partial block: 7 2^14 + 1 = 3.5 blocks.
    # The probe stops at PROBE_DEPTH: its diffs are the oracle's first ones.
    filt = build_filter("daubechies", n)
    table = cascade_evaluate(filt, r_psi)
    phi, psi, diffs = per_tap_cascade(filt, r_psi)
    assert same_bits(table.phi_level(r_psi), phi)
    assert same_bits(table.psi_level(r_psi), psi)
    assert table.refinement_diffs == tuple(diffs[:PROBE_DEPTH])
    pos, pos_floor = _positivity_search(psi, r_psi, filt.support_length)
    assert (table.positivity_interval, table.positivity_floor) == (pos, pos_floor)
    assert table.sup_norm == float(np.max(np.abs(psi)))


@pytest.mark.parametrize("size, r", [(1, 0), (_BLOCK - 3, 0), (_BLOCK + 1, 5),
                                     (3 * _BLOCK + 7, 12), (5, 16)])
def test_refine_kernel_matches_per_tap_oracle(size, r):
    # Random signed values, with zeros and -0.0 among them, across block
    # boundaries and shifts wider than a block.
    weights = _two_scale(build_filter("daubechies", 6))[0]
    values = np.random.default_rng(size + r).standard_normal(size)
    values[::7] = 0.0
    values[3::11] = -0.0
    assert same_bits(_refine(values, weights, r), per_tap_refine(values, weights, r))


def test_cascade_probe_holds_under_two_levels():
    # The probe stops at level PROBE_DEPTH = 12 whatever r_psi is: figure1's
    # db10 r19 table holds at most two of its levels at a time.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cascade_evaluate(build_filter("daubechies", 10), 19)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (19 * 2**PROBE_DEPTH + 1) * 8


@pytest.mark.parametrize("n", range(2, 21))
def test_frozen_taps_converge_at_full_depth(n):
    # Tables probe only PROBE_DEPTH levels, so the frozen taps are checked
    # here at the depths the experiments tabulate: 17, and figure1's 19 for
    # db10.  The diffs fall strictly from level 3 on, and the convergence
    # rule (it raises at full depth) fires at no prefix, whatever r_psi a
    # table stops at.
    filt = build_filter("daubechies", n)
    diffs = _probe_diffs(_two_scale(filt)[0], filt.support_length, 19 if n == 10 else 17)
    assert all(b < a for a, b in zip(diffs[1:], diffs[2:]))
    assert not any(a > _CONVERGENCE_FLOOR and a >= b >= c
                   for c, b, a in zip(diffs, diffs[1:], diffs[2:]))
    assert diffs[:PROBE_DEPTH] == list(cascade_evaluate(filt, PROBE_DEPTH).refinement_diffs)


def reference_cascade(filt, r_psi):
    """(phi, psi, diffs) of ``per_tap_cascade``; the unit box in closed form."""
    if filt.support_length > 1:
        return per_tap_cascade(filt, r_psi)
    g = np.arange(2**r_psi + 1) / 2**r_psi
    return (np.where(g < 1.0, 1.0, 0.0), np.where(g < 0.5, 1.0, np.where(g < 1.0, -1.0, 0.0)),
            [0.0] * r_psi)


def deepest_level(table):
    return ((table._deepest.size - 1) // table.support_length).bit_length() - 1


@pytest.mark.parametrize("n", [1, 2, 4, 10, 20])
@pytest.mark.parametrize("reads", [
    ("coarse rows", "search", "phi"),
    ("search", "coarse rows", "phi"),
    ("phi", "search", "coarse rows"),
])
def test_levels_read_in_any_order_match_full_table(n, reads):
    # A table keeps phi only as deep as it is read: the pyramid's rows
    # read the level of their cell, the sup and positivity search keep no
    # level (psi at min(r_psi, SEARCH_DEPTH) = r_psi is built from phi one
    # level coarser, refined and dropped), and phi the last.  Whatever the order,
    # every level refined so far is the subsample of the full table, every
    # field has the bits of full per-tap refinement, and no psi is kept.
    r_psi = 10
    filt = build_filter("haar" if n == 1 else "daubechies", n)
    table = cascade_evaluate(filt, r_psi)
    phi, psi, diffs = reference_cascade(filt, r_psi)
    reads_level = {"coarse rows": 3, "search": 0, "phi": r_psi}
    depth = 0
    for read in reads:
        if read == "coarse rows":
            for cell in (1, 2, 8):
                _phi_rows(table, cell)
        elif read == "search":
            table.sup_norm
        else:
            table.phi_level(r_psi)
        depth = max(depth, reads_level[read])
        assert deepest_level(table) == depth
        for level in range(depth + 1):
            assert same_bits(table.phi_level(level), phi[:: 2 ** (r_psi - level)])
    assert "psi" not in vars(table)
    assert same_bits(table.psi_level(r_psi), psi)
    assert table.refinement_diffs == tuple(diffs)
    pos, pos_floor = _positivity_search(psi, r_psi, filt.support_length)
    assert (table.positivity_interval, table.positivity_floor) == (pos, pos_floor)
    assert table.sup_norm == float(np.max(np.abs(psi)))


def test_psi_level_rejects_levels_off_the_table(db4_table):
    for level in (0, db4_table.r_psi + 1):
        with pytest.raises(InvalidParameterError, match="r_psi = 12"):
            db4_table.psi_level(level)


def test_phi_level_rejects_levels_off_the_table(db4_table):
    for level in (-1, db4_table.r_psi + 1):
        with pytest.raises(InvalidParameterError, match="r_psi = 12"):
            db4_table.phi_level(level)


def test_pyramid_refines_only_the_cell_level(monkeypatch):
    # One analysis at roundtrip sizes reads phi at the integers only, and
    # one synthesis phi at the level of its 8-sample cell: no deeper phi and
    # no psi is refined, while the eager probe ran to level PROBE_DEPTH.
    table = cascade_evaluate(build_filter("daubechies", 10), 17)
    j, resolution = 13, 17
    sizes = []
    refine = _refine

    def recording(values, taps, r):
        out = refine(values, taps, r)
        sizes.append(out.size)
        return out

    monkeypatch.setattr("rwslab.wavelets._refine", recording)
    rng = np.random.default_rng(3)
    pyramid_analysis(rng.standard_normal(2**resolution), table, j)
    assert sizes == [] and deepest_level(table) == 0
    pyramid_synthesis(0.0, [rng.standard_normal(2**i) for i in range(j + 1)], table, resolution)
    monkeypatch.undo()
    assert sizes and max(sizes) <= table.support_length * 2**3 + 1
    assert deepest_level(table) == 3
    assert "psi" not in vars(table)
    assert len(table.refinement_diffs) == PROBE_DEPTH


@functools.lru_cache(maxsize=2)  # phi only to the deepest level read (14 at most): a few MB each
def deep_table(n, r_psi):
    return cascade_evaluate(build_filter("haar" if n == 1 else "daubechies", n), r_psi)


@pytest.mark.parametrize("n, r_psi, j, resolution", [
    (1, 17, 13, 17), (2, 17, 13, 17), (4, 17, 13, 17), (10, 17, 13, 17),  # roundtrip sizes
    (1, 20, 16, 20),  # prop22 and prop43
    (20, 15, 11, 15),
    (10, 15, 0, 4),  # a level of 2 scaling coefficients, shorter than the support
    (10, 15, 2, 6), (20, 15, 3, 7),  # lift levels shorter than the filter
    (10, 15, 0, 15),  # 4 rows would exceed the block: blocks split the columns
    (10, 15, 11, 12),  # one-sample cells: matrix-vector blocks
])
def test_pyramid_matches_gather_oracle(n, r_psi, j, resolution):
    # Strided windows and row-blocked products against %-gathers and
    # whole-level products, bit for bit.
    table = deep_table(n, r_psi)
    rng = np.random.default_rng(n + j)
    levels = [rng.standard_normal(2**i) for i in range(j + 1)]
    assert same_bits(pyramid_synthesis(0.25, levels, table, resolution),
                     gather_synthesis(0.25, levels, table, resolution))
    values = rng.standard_normal(2**resolution)
    (got_coarse, got), (want_coarse, want) = (pyramid_analysis(values, table, j),
                                              gather_analysis(values, table, j))
    assert same_bits(np.array(got_coarse), np.array(want_coarse))
    assert len(got) == len(want) == j + 1
    assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("kind", ["normal", "zeros", "special"])
def test_box_lifts_are_the_tap_loop(kind):
    # Sums and differences written into the polyphase columns keep the bits
    # of the tap loop with weights (1, 1) and (1, -1), signed zeros, infinities
    # and nans included.
    table = deep_table(1, 12)
    levels = special_levels(kind, 11, seed=5)
    with np.errstate(all="ignore"):
        pairs = list(zip(pyramid_lifts(levels, table), tap_lifts(levels, table), strict=True))
    assert len(pairs) == 12
    assert all(same_bits(got, want) for got, want in pairs)
    if kind == "special":
        assert all(np.isnan(got).any() and np.isfinite(got).any() for got, _ in pairs[3:])


def test_analysis_symbol_stays_off_zero():
    # Analysis divides by the DFT of phi at the integers folded onto the
    # 2^s points of its finest level; a floor of 0.03 (db5 comes closest)
    # bounds the solve's loss of relative accuracy at about 33x.
    for n in range(1, 21):
        table = cascade_evaluate(build_filter("haar" if n == 1 else "daubechies", n), 6)
        length = table.support_length
        for s in range(1, 15):
            symbol = np.bincount(np.arange(length) % 2**s, table.phi_level(0)[:length], 2**s)
            assert np.min(np.abs(np.fft.rfft(symbol))) >= 0.03, (n, s)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("coarse", [0.0, -0.0])
def test_pyramid_zero_field_keeps_the_sign_of_zero(n, coarse):
    # The coarse value is added last (Haar: to each coefficient before the
    # repeat; others: in place into the product), as the oracle adds it.
    table = deep_table(n, 17)
    levels = [np.zeros(2**i) for i in range(5)]
    want = gather_synthesis(coarse, levels, table, 10)
    assert same_bits(pyramid_synthesis(coarse, levels, table, 10), want)
    assert not np.signbit(want).any()


def test_haar_synthesis_holds_under_one_and_a_half_grids():
    # The box evaluates as a repeat of the top level: the grid itself plus
    # level-sized bank arrays, no product or coarse-shifted copy of the grid.
    table = cascade_evaluate(build_filter("haar", 1), 20)
    field = uniform_decay_field(0.5, 16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        synthesize(field, table, 16, 20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20 * 8


@pytest.mark.parametrize("m, k, cols", [(1003, 19, 64), (1003, 20, None), (1003, 19, 1), (3, 19, 8192)])
def test_blocked_matmul_matches_whole_product(m, k, cols):
    # Pyramid levels are powers of two, so their blocks divide them; a row
    # count off any block size still gives the whole product's bits.
    rng = np.random.default_rng(m + k)
    rows = rng.standard_normal((m, k))
    mat = rng.standard_normal(k if cols is None else (k, cols))
    assert same_bits(_blocked_matmul(rows, mat), rows @ mat)


@pytest.mark.parametrize("n", [1, 4, 10])
def test_pyramid_products_stay_below_threading_cutoff(monkeypatch, n):
    # Every product of one synthesis and one analysis at roundtrip sizes
    # goes through np.matmul in blocks that BLAS runs on one thread, and
    # the blocks cover every output entry.
    table = deep_table(n, 17)
    j, resolution = 13, 17
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    rng = np.random.default_rng(n)
    pyramid_synthesis(0.0, [rng.standard_normal(2**i) for i in range(j + 1)], table, resolution)
    synthesis_shapes, shapes[:] = list(shapes), []
    pyramid_analysis(rng.standard_normal(2**resolution), table, j)
    monkeypatch.undo()

    def entries(recorded):
        return sum(a[0] * (b[1] if len(b) == 2 else 1) for a, b in recorded)

    if n == 1:
        assert synthesis_shapes == []  # the box repeats its coefficients: no product
    else:
        assert entries(synthesis_shapes) == 2**resolution
    assert entries(shapes) == 2 * (2 ** (j + 1) - 1)  # the bank's two vectors per level
    for a, b in synthesis_shapes + shapes:
        if len(b) == 1 or b[1] == 1:
            assert a[0] <= _GEMV_ROWS
        else:
            assert a[0] * a[1] * b[1] <= _GEMM_CELLS


def test_cascade_rejects_shallow_depth():
    with pytest.raises(InvalidParameterError):
        cascade_evaluate(build_filter("haar", 1), 3)
    # the sign-interval search needs r_psi >= INTERVAL_GRANULARITY = 6
    for filt in (build_filter("haar", 1), build_filter("daubechies", 2)):
        for r_psi in (4, 5):
            with pytest.raises(InvalidParameterError, match=">= 6"):
                cascade_evaluate(filt, r_psi)


def mp_integer_values(weights):
    """phi at 1..L-1 from the double weights in 50-digit arithmetic: the
    solve of (M - I) v = 0 with sum v = 1 over the interior block M."""
    with mp.workdps(50):
        length = weights.size - 1
        rows = mp.matrix([[mp.mpf(float(x)) for x in row]
                          for row in _two_scale_matrices(weights)[0][1:, 1:]]) - mp.eye(length - 1)
        for m in range(length - 1):
            rows[length - 2, m] = 1
        rhs = mp.matrix([0] * (length - 2) + [1])
        return mp.lu_solve(rows, rhs)


@pytest.mark.parametrize("n", range(2, 21))
def test_integer_values_match_a_50_digit_solve(n):
    # Repeated squaring finds phi at the integers within 2.6e-15 of the
    # largest value, where LAPACK's eig came to 2.58e-15 at worst.
    weights, length = _two_scale(build_filter("daubechies", n))[0], 2 * n - 1
    got = _integer_values(weights, length)
    want = mp_integer_values(weights)
    assert got[0] == got[length] == 0.0
    scale = max(abs(v) for v in want)
    assert max(abs(mp.mpf(float(g)) - v) for g, v in zip(got[1:length], want)) < 2.6e-15 * scale


@pytest.mark.parametrize("n", range(2, 21))
def test_integer_values_reject_taps_off_their_sum(n):
    # Taps scaled by 1.01 leave no unit eigenvalue: the squared power is not
    # reproduced by the matrix, by 1% of the vector.
    good = build_filter("daubechies", n)
    with pytest.raises(NumericalFailureError, match="no unit eigenvector"):
        _integer_values(1.01 * _two_scale(good)[0], good.support_length)
    with pytest.raises(NumericalFailureError):
        cascade_evaluate(ScalingFilter("daubechies", n, tuple(1.01 * h for h in good.taps)), 12)


def test_cascade_detects_corrupt_taps():
    # r_psi 17 and 19 are the deepest tables the experiments build; their
    # probe stops at PROBE_DEPTH and must still catch both.
    good = build_filter("daubechies", 10)
    scaled = ScalingFilter("daubechies", 10, tuple(1.05 * h for h in good.taps))
    r2 = 1 / SQRT2
    wild = ScalingFilter("daubechies", 2, (2.0, -1.0, r2 - 2.0, r2 + 1.0))
    for r_psi in (12, 17, 19):
        with pytest.raises(NumericalFailureError):
            cascade_evaluate(scaled, r_psi)
        with pytest.raises(NumericalFailureError, match="not converging"):
            cascade_evaluate(wild, r_psi)


def test_sign_interval_failure_raises_on_first_interval_read(monkeypatch):
    # The interval search runs on the first read of an interval field, so
    # a psi positive on no interval fails there, not in cascade_evaluate.
    monkeypatch.setattr("rwslab.wavelets._positivity_search",
                        lambda psi, sample_level, length: (None, 0.0))
    table = cascade_evaluate(build_filter("daubechies", 2), 8)
    assert table.sup_norm > 0.0
    for name in ("positivity_interval", "positivity_floor"):
        with pytest.raises(NumericalFailureError, match="positive wavelet"):
            getattr(table, name)


# ---------------------------------------------------------------- periodization

def test_haar_periodized_closed_form(haar_table):
    assert eval_periodized(haar_table, 0, 0, 0.25) == 1.0
    # psi(4 * 0.3 - 1) = psi(0.2) = 1
    assert eval_periodized(haar_table, 2, 1, 0.3) == 1.0
    assert eval_periodized(haar_table, 2, 1, 0.45) == -1.0


def test_periodized_matches_brute_force(db10_table):
    rng = np.random.default_rng(7)
    for j, k in [(0, 0), (1, 1), (3, 5), (5, 17), (8, 200)]:
        for x in rng.uniform(0, 1, 8):
            fast = eval_periodized(db10_table, j, k, float(x))
            slow = brute_periodized(db10_table, j, k, float(x))
            assert fast == pytest.approx(slow, abs=1e-12), (j, k, x)


def test_periodized_translate_count_small(db10_table):
    # at j=3 the support 19 spans ceil(19/8)+1 = 4 translates at most;
    # widening the brute range changes nothing
    x = 0.9
    total = sum(
        psi_at(db10_table, 2.0**3 * (x - l) - 5) for l in range(-10, 11)
    )
    assert eval_periodized(db10_table, 3, 5, x) == pytest.approx(float(total), abs=1e-13)


def test_periodized_rejects_bad_args(db10_table):
    with pytest.raises(InvalidParameterError):
        eval_periodized(db10_table, 3, 8, 0.5)
    with pytest.raises(InvalidParameterError):
        eval_periodized(db10_table, 3, -1, 0.5)
    with pytest.raises(InvalidParameterError):
        eval_periodized(db10_table, 3, 0, 1.0)


def test_periodized_vanishing_integral(db10_table):
    r = 12
    x = np.arange(2**r) / 2**r
    for j, k in [(0, 0), (2, 3), (5, 30)]:
        vals = eval_periodized(db10_table, j, k, x)
        assert abs(vals.mean()) < 1e-6


def test_periodized_orthonormality(db10_table):
    r = 12
    for j in (2, 4, 6):
        base = periodized_grid(db10_table, j, r)
        shift = 2 ** (r - j)
        for k, kp in [(0, 0), (0, 1), (1, 3), (2, 2)]:
            a = np.roll(base, k * shift)
            b = np.roll(base, kp * shift)
            inner = 2.0**j * float(a @ b) / 2**r
            target = 1.0 if k == kp else 0.0
            assert abs(inner - target) < 1e-4, (j, k, kp)


def test_periodized_grid_matches_pointwise(db10_table):
    for j, r in [(3, 10), (0, 8), (6, 12), (2, 14)]:
        grid = periodized_grid(db10_table, j, r)
        x = np.arange(2**r) / 2**r
        direct = eval_periodized(db10_table, j, 0, x)
        assert np.array_equal(grid, direct), (j, r)


def test_periodized_grid_rejects_grids_finer_than_the_table(db10_table):
    # r_psi + j is the finest grid that psi at level r_psi samples exactly
    assert periodized_grid(db10_table, 2, 14).size == 2**14
    with pytest.raises(InvalidParameterError, match="r_psi \\+ j = 14"):
        periodized_grid(db10_table, 2, 15)


@settings(max_examples=25, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=7),
    frac=st.floats(min_value=0.0, max_value=0.999999),
)
def test_periodized_translation_covariance(db10_table, j, frac):
    # psi_{j,k}(x) = psi_{j,0}(x - k 2^-j mod 1) on grid points
    k = int(frac * 2**j)
    x = 0.375
    shifted = (x - k * 2.0**-j) % 1.0
    a = eval_periodized(db10_table, j, k, x)
    b = eval_periodized(db10_table, j, 0, shifted)
    assert a == pytest.approx(b, abs=1e-9)


def test_dyadic_interval_geometry():
    iv = DyadicInterval(index=3, level=2)
    width = 2.0 ** -iv.level
    assert iv.index * width == 0.75
    assert (iv.index + 1) * width == 1.0
    assert width == 0.25
