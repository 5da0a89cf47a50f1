import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwslab import InvalidParameterError, NoDivergenceSequenceError
from rwslab.laws import (
    BLOCK,
    LAW_PARAMS,
    LAW_TAGS,
    RandomLaw,
    abs_max,
    bernoulli,
    bounded_uniform,
    divergence_sequence,
    draw,
    draw_array,
    exceedances,
    exp_tail,
    gaussian,
    gaussian_max_check,
    heavy_tail,
    law_string,
    log_tail_probability,
    parse_law,
    rademacher,
)
from rwslab.laws import _cut, _from_words, _word_blocks

mp.mp.dps = 50


# ---------------------------------------------------------------- oracles

def gaussian_max_oracle(js, trials, seed):
    """Per-j exceedance rate from each trial's full draw vector."""
    rates = {}
    for j in js:
        n = 2**j
        hits = [float(np.max(np.abs(draw_array(gaussian(), seed, "gaussian-max", j,
                                               np.arange(t * n, (t + 1) * n)))))
                > math.sqrt(2.0 * j) for t in range(trials)]
        rates[j] = sum(hits) / trials
    return rates


def erfc_tail_oracle(x):
    """P(|Z| >= x) for a standard Gaussian, at 50 digits."""
    return mp.erfc(x / mp.sqrt(2))


def plain_divergence_oracle(law, n_max):
    """Minimal j with 2^-j <= P(|chi| >= n^3), high-precision, then the
    strict-increase fixup."""
    out, prev = [], None
    for n in range(1, n_max + 1):
        x = mp.mpf(n) ** 3
        if law.tag == "gaussian":
            p = erfc_tail_oracle(x)
        elif law.tag == "heavy_tail":
            p = mp.mpf(1) if x <= 1 else x ** (-mp.mpf(law.exponent))
        else:
            raise AssertionError("oracle covers gaussian/heavy_tail only")
        j = int(mp.ceil(-mp.log(p, 2)))
        j = max(j, 0)
        if prev is not None and j <= prev:
            j = prev + 1
        out.append(j)
        prev = j
    return out


ALL_LAWS = [
    rademacher(),
    gaussian(),
    bernoulli(0.3),
    exp_tail(1.0, 1.0),
    exp_tail(2.0, 0.5),
    heavy_tail(1.0),
    heavy_tail(3.0),
    bounded_uniform(3.0),
]


# ---------------------------------------------------------------- laws

def test_law_validation():
    with pytest.raises(InvalidParameterError):
        RandomLaw("cauchy")
    with pytest.raises(InvalidParameterError):
        bernoulli(1.0)
    with pytest.raises(InvalidParameterError):
        exp_tail(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        exp_tail(1.0, 2.5)
    with pytest.raises(InvalidParameterError):
        heavy_tail(-1.0)
    with pytest.raises(InvalidParameterError):
        bounded_uniform(0.0)
    with pytest.raises(InvalidParameterError):
        heavy_tail(math.inf)
    with pytest.raises(InvalidParameterError):
        exp_tail(math.inf, 1.0)
    with pytest.raises(InvalidParameterError):
        bounded_uniform(math.inf)
    with pytest.raises(InvalidParameterError):
        bernoulli(math.nan)


@pytest.mark.parametrize("text", [
    "rademacher", "gaussian", "bernoulli:0.3", "exp_tail:1:1",
    "exp_tail:2:0.5", "heavy_tail:1", "bounded_uniform:3",
])
def test_parse_law_round_trip(text):
    law = parse_law(text)
    assert parse_law(law_string(law)) == law


def _valid_param(hi, closed):
    return st.floats(min_value=0.0, max_value=None if math.isinf(hi) else hi,
                     exclude_min=True, exclude_max=not closed and not math.isinf(hi),
                     allow_nan=False, allow_infinity=False)


@given(st.sampled_from(LAW_TAGS).flatmap(lambda tag: st.builds(
    lambda values: RandomLaw(tag, **values),
    st.fixed_dictionaries({name: _valid_param(hi, closed)
                           for name, hi, closed in LAW_PARAMS[tag]}))))
def test_law_string_round_trips_exactly(law):
    assert parse_law(law_string(law)) == law


def test_parse_law_errors():
    for bad in ["gauss", "bernoulli", "bernoulli:a", "exp_tail:1", "heavy_tail:1:2"]:
        with pytest.raises(InvalidParameterError):
            parse_law(bad)


# ---------------------------------------------------------------- draws

def test_draw_deterministic():
    law = gaussian()
    a = draw(law, 12345, ("coef", 7, 99))
    b = draw(law, 12345, ("coef", 7, 99))
    assert a == b  # identical bits


def test_draw_array_chunk_invariant():
    law = gaussian()
    whole = draw_array(law, 9, "coef", 3, np.arange(100))
    parts = np.concatenate([
        draw_array(law, 9, "coef", 3, np.arange(0, 37)),
        draw_array(law, 9, "coef", 3, np.arange(37, 100)),
    ])
    assert np.array_equal(whole, parts)
    assert whole[58] == draw(law, 9, ("coef", 3, 58))


def test_draw_distinguishes_indices():
    law = gaussian()
    base = draw(law, 1, ("coef", 5, 17))
    assert draw(law, 2, ("coef", 5, 17)) != base
    assert draw(law, 1, ("other", 5, 17)) != base
    assert draw(law, 1, ("coef", 6, 17)) != base
    assert draw(law, 1, ("coef", 5, 18)) != base


def test_draw_supports():
    ks = np.arange(4096)
    r = draw_array(rademacher(), 5, "s", 0, ks)
    assert set(np.unique(r)) == {-1.0, 1.0}
    u = draw_array(bounded_uniform(3.0), 5, "s", 0, ks)
    assert np.all((u >= -3.0) & (u <= 3.0))
    b = draw_array(bernoulli(0.3), 5, "s", 0, ks)
    assert set(np.unique(b)) <= {0.0, 1.0}
    h = draw_array(heavy_tail(1.0), 5, "s", 0, ks)
    assert np.all(np.abs(h) >= 1.0)


def test_draw_moments_within_three_se():
    n = 100_000
    ks = np.arange(n)
    cases = [
        (rademacher(), 0.0, 1.0),
        (gaussian(), 0.0, 1.0),
        (bernoulli(0.3), 0.3, 0.21),
        (bounded_uniform(3.0), 0.0, 3.0),
        (exp_tail(1.0, 1.0), 0.0, 2.0),  # E W^2 = Gamma(3) = 2
        (heavy_tail(3.0), 0.0, 3.0),  # E u^{-2/3} = 3
    ]
    for law, mean, var in cases:
        v = draw_array(law, 77, "m", 1, ks)
        se_mean = math.sqrt(var / n)
        assert abs(v.mean() - mean) < 3 * se_mean, law.tag
        # crude SE for the variance estimate; generous factor
        assert abs(v.var() - var) < 0.05 * max(1.0, var), law.tag


def test_gaussian_draws_match_erfc_tail():
    n = 100_000
    v = np.abs(draw_array(gaussian(), 3, "t", 0, np.arange(n)))
    for x in (1.0, 2.0, 3.0):
        p = float(erfc_tail_oracle(x))
        se = math.sqrt(p * (1 - p) / n)
        assert abs((v >= x).mean() - p) < 3 * se, x


def test_exp_tail_draws_match_exact_tail():
    law = exp_tail(2.0, 0.5)
    n = 100_000
    v = np.abs(draw_array(law, 4, "t", 0, np.arange(n)))
    for x in (0.1, 0.5, 1.0):
        p = math.exp(-2.0 * x**0.5)
        se = math.sqrt(p * (1 - p) / n)
        assert abs((v >= x).mean() - p) < 3 * se, x


def test_pairwise_correlation_small():
    n = 10_000
    a = draw_array(gaussian(), 11, "a", 5, np.arange(n))
    for other in [
        draw_array(gaussian(), 11, "a", 6, np.arange(n)),
        draw_array(gaussian(), 11, "b", 5, np.arange(n)),
        draw_array(gaussian(), 11, "a", 5, np.arange(1, n + 1)),
    ]:
        r = np.corrcoef(a, other)[0, 1]
        assert abs(r) < 0.05


def test_lemma_partial_sums_diverge():
    # omega_j = 1/j, Gaussian draws: partial sums at J = 2^16 clear half of
    # E|chi| * ln J in at least 95 of 100 trials
    big_j = 2**16
    weights = 1.0 / np.arange(1, big_j + 1)
    threshold = 0.5 * math.sqrt(2.0 / math.pi) * math.log(big_j)
    hits = 0
    for trial in range(100):
        ks = np.arange(trial * big_j, (trial + 1) * big_j)
        s = float(np.abs(draw_array(gaussian(), 21, "lemma", 0, ks)) @ weights)
        hits += s >= threshold
    assert hits >= 95


# ---------------------------------------------------------------- tails

def test_tail_closed_forms():
    assert log_tail_probability(gaussian(), 0.0) == 0.0
    assert log_tail_probability(heavy_tail(1.0), 0.5) == 0.0
    assert log_tail_probability(heavy_tail(1.0), 8.0) == -math.log(8.0)
    assert log_tail_probability(exp_tail(1.0, 2.0), 2.0) == -4.0
    for law in ALL_LAWS:
        with pytest.raises(InvalidParameterError):
            log_tail_probability(law, -1.0)
    for law in (rademacher(), bernoulli(0.3), bounded_uniform(3.0)):
        with pytest.raises(InvalidParameterError):
            log_tail_probability(law, 1.0)


def test_gaussian_tail_against_erfc_oracle():
    # the moderate tails below the deep oracle's range, n^3 = 1 and 8 included
    for x in (0.5, 1.0, 2.0, 4.0, 8.0):
        ours = math.exp(log_tail_probability(gaussian(), x))
        exact = float(erfc_tail_oracle(x))
        assert ours == pytest.approx(exact, rel=1e-13)
    assert math.exp(log_tail_probability(gaussian(), 8.0)) == pytest.approx(1.22e-15, rel=0.01)


def test_log_tail_matches_deep_oracle():
    for x in (8.0, 27.0, 1000.0, 8000.0):
        ours = log_tail_probability(gaussian(), x)
        exact = float(mp.log(erfc_tail_oracle(x)))
        assert ours == pytest.approx(exact, rel=1e-12)
    assert log_tail_probability(heavy_tail(2.0), 8.0) == pytest.approx(-2 * math.log(8))
    with pytest.raises(InvalidParameterError):
        log_tail_probability(rademacher(), 1.0)


@given(st.sampled_from([law for law in ALL_LAWS if not law.is_bounded]),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_tail_non_increasing(law, x):
    l0 = log_tail_probability(law, x)
    l1 = log_tail_probability(law, x + 0.5)
    assert l1 <= l0 <= 0.0


# ------------------------------------------------------- divergence scales

def test_divergence_examples():
    assert divergence_sequence(heavy_tail(1.0), "plain", 2) == [0, 3]
    seq = divergence_sequence(gaussian(), "plain", 2)
    assert seq[1] == 50
    with pytest.raises(NoDivergenceSequenceError):
        divergence_sequence(rademacher(), "plain", 5)
    with pytest.raises(NoDivergenceSequenceError):
        divergence_sequence(bounded_uniform(1.0), "plain", 5)
    with pytest.raises(InvalidParameterError):
        divergence_sequence(gaussian(), "plain", 0)
    with pytest.raises(InvalidParameterError):
        divergence_sequence(gaussian(), "fast", 5)


def test_divergence_against_oracle():
    for law in (gaussian(), heavy_tail(1.0), heavy_tail(2.5)):
        ours = divergence_sequence(law, "plain", 20)
        assert ours == plain_divergence_oracle(law, 20), law.tag


def test_heavy_tail_sequence_prefix():
    seq = divergence_sequence(heavy_tail(1.0), "plain", 20)
    assert seq[:6] == [0, 3, 5, 6, 7, 8]
    # from n=8 on the strict-increase fixup drives the sequence: j_n = n + 2
    assert seq[-1] == 22


def test_strengthened_dominates_plain():
    for law in (gaussian(), heavy_tail(1.0), exp_tail(1.0, 1.0)):
        plain = divergence_sequence(law, "plain", 12)
        strong = divergence_sequence(law, "strengthened", 12)
        assert all(s >= p for s, p in zip(strong, plain))
        # minimality: one scale earlier breaks the inequality (when j > 1)
        for n, j in enumerate(strong, start=1):
            if j <= 1 or (n > 1 and j == strong[n - 2] + 1):
                continue  # forced by strict increase, not by the tail bound
            log_p = log_tail_probability(law, float(n) ** 3)
            assert math.log(j - 1) - (j - 1) * math.log(2) > log_p


@given(st.sampled_from([gaussian(), heavy_tail(1.0), heavy_tail(0.5), exp_tail(0.5, 1.0)]),
       st.sampled_from(["plain", "strengthened"]),
       st.integers(min_value=1, max_value=25))
@settings(max_examples=60, deadline=None)
def test_divergence_strictly_increasing(law, variant, n_max):
    seq = divergence_sequence(law, variant, n_max)
    assert len(seq) == n_max
    assert all(b > a for a, b in zip(seq, seq[1:]))


# ------------------------------------------------------- streamed draws

# One law per tag; a tag added to LAW_TAGS fails below until it is listed.
STREAM_LAWS = {"rademacher": rademacher(), "gaussian": gaussian(),
               "bernoulli": bernoulli(0.3), "exp_tail": exp_tail(0.5, 0.5),
               "heavy_tail": heavy_tail(1.5), "bounded_uniform": bounded_uniform(2.0)}
EXTREME_SEEDS = (0, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize("tag", LAW_TAGS)
def test_draw_blocks_equal_draw_array(tag):
    # the block counter arithmetic of abs_max and exceedances; the word
    # buffer is reused, so each block is copied before the next is drawn
    law = STREAM_LAWS[tag]
    start, stop = BLOCK - 5, 2 * BLOCK + 7
    for seed in (0, 2**64 - 1):
        blocks = [(lo, words.copy())
                  for lo, words in _word_blocks(seed, "coef", 19, start, stop)]
        assert [lo for lo, _ in blocks] == [start, start + BLOCK]
        assert [w.size for _, w in blocks] == [BLOCK, 12]
        dense = draw_array(law, seed, "coef", 19, np.arange(start, stop))
        streamed = np.concatenate([_from_words(law, w) for _, w in blocks])
        assert np.array_equal(streamed, dense)
    assert list(_word_blocks(0, "coef", 3, 4, 4)) == []


@pytest.mark.parametrize("tag", LAW_TAGS)
def test_extreme_mantissas_draw_finite_values(tag):
    # m = 2^53 - 1 rounds to u = 1.0 unless clamped, and the Gaussian
    # quantile of 1.0 is +inf; both low bits, so both signs
    top = (2**53 - 1) << 11
    chi = _from_words(STREAM_LAWS[tag], np.array([0, 1, top, top | 1], dtype=np.uint64))
    assert np.all(np.isfinite(chi))


def sign_for_every_law(law, words):
    """The transform as it was when every law built the sign array."""
    from scipy.special import ndtri

    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    sign = np.where((words & np.uint64(1)).astype(bool), 1.0, -1.0)
    return {"rademacher": lambda: sign,
            "gaussian": lambda: ndtri(u),
            "bernoulli": lambda: (u < law.p).astype(np.float64),
            "exp_tail": lambda: sign * (-np.log(u) / law.b) ** (1.0 / law.gamma),
            "heavy_tail": lambda: sign * u ** (-1.0 / law.exponent),
            "bounded_uniform": lambda: law.bound * (2.0 * u - 1.0)}[law.tag]()


@pytest.mark.parametrize("tag", LAW_TAGS)
def test_sign_only_for_symmetric_laws_keeps_draw_bits(tag):
    # Extreme and middle mantissas with both low bits, then a stream block.
    ms = np.array([0, 1, 2**52 - 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    edges = np.concatenate([ms << np.uint64(11), (ms << np.uint64(11)) | np.uint64(2**11 - 1)])
    _, stream = next(_word_blocks(3, "coef", 12, 0, 4096))
    for words in (edges, stream):
        want = sign_for_every_law(STREAM_LAWS[tag], words)
        got = _from_words(STREAM_LAWS[tag], words)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gaussian_top_mantissas_stay_monotone():
    ms = np.arange(2**53 - 4, 2**53, dtype=np.uint64)
    chi = _from_words(gaussian(), ms << np.uint64(11))
    assert np.all(np.diff(chi) >= 0.0) and 8.2 < chi[-1] < 8.3
    assert _cut(gaussian(), 1e6, 2**52, 2**53, True) == 2**53  # no mantissa reaches it


@pytest.mark.parametrize("tag", LAW_TAGS)
@pytest.mark.parametrize("seed", EXTREME_SEEDS)
def test_abs_max_equals_dense_max(tag, seed):
    law = STREAM_LAWS[tag]
    for j, start, stop in ((0, 0, 1), (4, 0, 16), (11, 7, 2**11), (19, 0, 2**19),
                           (20, 3 * 2**20, 4 * 2**20 - 1)):
        dense = float(np.max(np.abs(draw_array(law, seed, "coef", j, np.arange(start, stop)))))
        assert abs_max(law, seed, "coef", j, start, stop) == dense
    assert abs_max(law, seed, "coef", 5, 9, 9) == 0.0


def test_rademacher_abs_max_generates_no_words(monkeypatch):
    def no_words(*args):
        raise AssertionError("words generated for a constant |chi|")

    monkeypatch.setattr("rwslab.laws._word_blocks", no_words)
    assert abs_max(rademacher(), 0, "coef", 20, 0, 2**20) == 1.0
    assert abs_max(rademacher(), 0, "coef", 5, 9, 9) == 0.0


# A second law for the tags whose parameters move the tail: heavier and lighter.
MORE_STREAM_LAWS = {"heavy_tail": heavy_tail(0.3), "exp_tail": exp_tail(2.0, 2.0)}


@pytest.mark.parametrize("tag", LAW_TAGS)
@pytest.mark.parametrize("seed", EXTREME_SEEDS)
def test_exceedances_equal_dense_count(tag, seed):
    laws = [STREAM_LAWS[tag]] + ([MORE_STREAM_LAWS[tag]] if tag in MORE_STREAM_LAWS else [])
    for law in laws:
        bounds = [law.bound or 1.0] if law.is_bounded else []
        for j, start, stop in ((19, BLOCK - 5, 2 * BLOCK + 7), (0, 0, 1), (5, 0, 32),
                               (17, 0, 2**17)):
            chi = np.abs(draw_array(law, seed, "coef", j, np.arange(start, stop)))
            for x in [0.0, 1.0, math.nextafter(1.0, 2.0), *bounds, *(2 * b for b in bounds),
                      8.0, 27.0, 1e6, float(chi.max()), float(chi.min())]:
                hits = np.flatnonzero(chi >= x)
                dense = (hits.size, start + int(hits[0]) if hits.size else None)
                assert exceedances(law, seed, "coef", j, start, stop, x) == dense, (j, x)
        assert exceedances(law, seed, "coef", 5, 9, 9, 0.0) == (0, None)


# ------------------------------------------------------------- max check

@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_gaussian_max_check_matches_dense_trials(seed):
    expected = gaussian_max_oracle([10, 11], 40, seed)
    assert gaussian_max_check([10, 11], 40, seed) == expected
    assert sum(expected.values()) > 0.0  # exceedances to agree on


def test_gaussian_max_check_smoke():
    rates = gaussian_max_check([10, 12], 20, seed=123)
    assert set(rates) == {10, 12}
    # union bound at j=10 is e^{10 (ln 2 - 1)} = 0.046; allow sampling noise
    assert rates[10] <= 0.3
    assert rates[12] <= 0.25


def test_gaussian_max_check_validation():
    with pytest.raises(InvalidParameterError):
        gaussian_max_check([9], 20, 0)
    with pytest.raises(InvalidParameterError):
        gaussian_max_check([25], 20, 0)
    with pytest.raises(InvalidParameterError):
        gaussian_max_check([10], 19, 0)


def test_rademacher_max_below_gaussian_bound():
    # bounded law: max is 1, below sqrt(2 j) for every j >= 1
    vals = draw_array(rademacher(), 0, "m", 10, np.arange(1024))
    assert float(np.max(np.abs(vals))) == 1.0 < math.sqrt(20.0)
