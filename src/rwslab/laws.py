"""Deterministic index-addressed I.I.D. draws and closed-form tail machinery.

Draws are counter-based: a value is a pure function of (law, seed, stream
tag, j, k), so any slice of any stream can be generated independently, in
any order, on any number of workers, with identical bits.  The generator is
the SplitMix64 output function applied to a keyed counter; uniforms take 53
bits plus a half-ulp offset so they land strictly inside (0, 1), and the
low bit of the same word supplies an independent sign where a law needs
one.

Reductions stream: ``draw_blocks`` yields any k-range of a stream in fixed
blocks of ``BLOCK`` draws, which are the very draws ``draw_array`` returns
at those k, so a max or a count never materializes a whole level.
``abs_max`` goes further.  For every law in ``LAW_TAGS``, |chi| is a
monotone function of the uniform u (non-increasing for bernoulli, exp_tail
and heavy_tail, constant for rademacher) or V-shaped about u = 1/2
(gaussian, bounded_uniform), and u increases with the word's top 53 bits.
So the largest |chi| over a range is attained at the word with the
smallest or the largest mantissa, and only those two words are
transformed.

Tail probabilities are exact closed forms, with a log-space variant for the
deep-tail regime where the probability itself underflows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, log_ndtr, ndtri

from .errors import InvalidParameterError, NoDivergenceSequenceError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_LN2 = math.log(2.0)

LAW_TAGS = ("rademacher", "gaussian", "bernoulli", "exp_tail", "heavy_tail", "bounded_uniform")
BOUNDED_TAGS = ("rademacher", "bernoulli", "bounded_uniform")

# Stream tag shared by randomized synthesis and every diagnostic that wants
# to inspect the same multiplier draws.
COEFFICIENT_STREAM = "coef"


@dataclass(frozen=True)
class RandomLaw:
    """Tagged symmetric-or-simple law with validated parameters."""

    tag: str
    p: float | None = None
    b: float | None = None
    gamma: float | None = None
    exponent: float | None = None
    bound: float | None = None

    def __post_init__(self):
        t = self.tag
        if t not in LAW_TAGS:
            raise InvalidParameterError(f"unknown law tag {t!r}; expected one of {LAW_TAGS}")
        if t == "bernoulli" and not (self.p is not None and 0.0 < self.p < 1.0):
            raise InvalidParameterError("bernoulli needs p in (0, 1)")
        if t == "exp_tail":
            if not (self.b is not None and self.b > 0.0):
                raise InvalidParameterError("exp_tail needs b > 0")
            if not (self.gamma is not None and 0.0 < self.gamma <= 2.0):
                raise InvalidParameterError("exp_tail needs gamma in (0, 2]")
        if t == "heavy_tail" and not (self.exponent is not None and self.exponent > 0.0):
            raise InvalidParameterError("heavy_tail needs a positive exponent")
        if t == "bounded_uniform" and not (self.bound is not None and self.bound > 0.0):
            raise InvalidParameterError("bounded_uniform needs a positive bound")

    @property
    def is_bounded(self) -> bool:
        return self.tag in BOUNDED_TAGS


def rademacher() -> RandomLaw:
    return RandomLaw("rademacher")


def gaussian() -> RandomLaw:
    return RandomLaw("gaussian")


def bernoulli(p: float) -> RandomLaw:
    return RandomLaw("bernoulli", p=p)


def exp_tail(b: float, gamma: float) -> RandomLaw:
    return RandomLaw("exp_tail", b=b, gamma=gamma)


def heavy_tail(exponent: float) -> RandomLaw:
    return RandomLaw("heavy_tail", exponent=exponent)


def bounded_uniform(bound: float) -> RandomLaw:
    return RandomLaw("bounded_uniform", bound=bound)


def parse_law(text: str) -> RandomLaw:
    """Parse the config-file form: tag or tag:param[:param]."""
    parts = text.strip().split(":")
    tag, args = parts[0], parts[1:]
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise InvalidParameterError(f"non-numeric law parameter in {text!r}")
    arity = {"rademacher": 0, "gaussian": 0, "bernoulli": 1, "exp_tail": 2,
             "heavy_tail": 1, "bounded_uniform": 1}
    if tag not in arity:
        raise InvalidParameterError(f"unknown law {tag!r} in {text!r}")
    if len(values) != arity[tag]:
        raise InvalidParameterError(f"law {tag!r} takes {arity[tag]} parameter(s), got {len(values)}")
    if tag == "bernoulli":
        return bernoulli(values[0])
    if tag == "exp_tail":
        return exp_tail(values[0], values[1])
    if tag == "heavy_tail":
        return heavy_tail(values[0])
    if tag == "bounded_uniform":
        return bounded_uniform(values[0])
    return RandomLaw(tag)


def law_string(law: RandomLaw) -> str:
    if law.tag == "bernoulli":
        return f"bernoulli:{law.p:g}"
    if law.tag == "exp_tail":
        return f"exp_tail:{law.b:g}:{law.gamma:g}"
    if law.tag == "heavy_tail":
        return f"heavy_tail:{law.exponent:g}"
    if law.tag == "bounded_uniform":
        return f"bounded_uniform:{law.bound:g}"
    return law.tag


# ------------------------------------------------------------------ draws

def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _stream_key(seed: int, stream_tag: str, j: int) -> int:
    tag_hash = int.from_bytes(
        hashlib.blake2b(stream_tag.encode("utf-8"), digest_size=8).digest(), "little"
    )
    key = _mix(((seed & _MASK) + _GAMMA) & _MASK)
    key = _mix(((key ^ tag_hash) + _GAMMA) & _MASK)
    return _mix(((key ^ (j & _MASK)) + _GAMMA) & _MASK)


def _words(key: int, k) -> np.ndarray:
    z = np.asarray(k, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z


def _from_words(law: RandomLaw, words: np.ndarray) -> np.ndarray:
    """The law's transform: draws from SplitMix64 output words."""
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    sign = np.where((words & np.uint64(1)).astype(bool), 1.0, -1.0)
    t = law.tag
    if t == "rademacher":
        return sign
    if t == "gaussian":
        return ndtri(u)
    if t == "bernoulli":
        return (u < law.p).astype(np.float64)
    if t == "exp_tail":
        return sign * (-np.log(u) / law.b) ** (1.0 / law.gamma)
    if t == "heavy_tail":
        return sign * u ** (-1.0 / law.exponent)
    return law.bound * (2.0 * u - 1.0)


def draw_array(law: RandomLaw, seed: int, stream_tag: str, j: int, k) -> np.ndarray:
    """Vector of draws at positions k of stream (seed, stream_tag, j)."""
    return _from_words(law, _words(_stream_key(seed, stream_tag, j), k))


# Draws per block of a streamed reduction.  512 KiB of words and their
# temporaries stay in a 2 MiB L2 cache; 2^16 scanned 1.5x faster than 2^18.
BLOCK = 1 << 16


def _word_blocks(seed: int, stream_tag: str, j: int, start: int, stop: int):
    key = _stream_key(seed, stream_tag, j)
    for lo in range(start, stop, BLOCK):
        yield lo, _words(key, np.arange(lo, min(lo + BLOCK, stop), dtype=np.uint64))


def draw_blocks(law: RandomLaw, seed: int, stream_tag: str, j: int,
                start: int, stop: int):
    """Yield (offset, draws) over k in [start, stop) in blocks of BLOCK.

    ``draws`` equals ``draw_array`` at k = offset, offset + 1, ...
    """
    for lo, words in _word_blocks(seed, stream_tag, j, start, stop):
        yield lo, _from_words(law, words)


def abs_max(law: RandomLaw, seed: int, stream_tag: str, j: int,
            start: int, stop: int) -> float:
    """max |chi_{j,k}| over k in [start, stop), 0.0 for an empty range.

    Equal to the max over ``draw_array``: only the words with the smallest
    and the largest mantissa are transformed (see the module docstring).
    """
    lo = hi = None
    for _, words in _word_blocks(seed, stream_tag, j, start, stop):
        w_lo, w_hi = words.min(), words.max()
        lo = w_lo if lo is None else min(lo, w_lo)
        hi = w_hi if hi is None else max(hi, w_hi)
    if lo is None:
        return 0.0
    return float(np.max(np.abs(_from_words(law, np.array([lo, hi], dtype=np.uint64)))))


def draw(law: RandomLaw, seed: int, index: tuple[str, int, int]) -> float:
    """Single indexed draw; pure function of all arguments."""
    stream_tag, j, k = index
    return float(draw_array(law, seed, stream_tag, j, np.asarray([k]))[0])


# ------------------------------------------------------------------ tails

def tail_probability(law: RandomLaw, x: float) -> float:
    """Exact P(|chi| >= x) for x >= 0."""
    if x < 0:
        raise InvalidParameterError(f"tail threshold must be nonnegative, got {x}")
    t = law.tag
    if t == "rademacher":
        return 1.0 if x <= 1.0 else 0.0
    if t == "gaussian":
        return float(erfc(x / math.sqrt(2.0)))
    if t == "bernoulli":
        if x == 0.0:
            return 1.0
        return law.p if x <= 1.0 else 0.0
    if t == "exp_tail":
        return math.exp(-law.b * x**law.gamma)
    if t == "heavy_tail":
        return 1.0 if x <= 1.0 else x**-law.exponent
    return max(0.0, 1.0 - x / law.bound)


def log_tail_probability(law: RandomLaw, x: float) -> float:
    """ln P(|chi| >= x) for unbounded laws; stays finite when P underflows."""
    if x < 0:
        raise InvalidParameterError(f"tail threshold must be nonnegative, got {x}")
    t = law.tag
    if t == "gaussian":
        # P = 2 Phi(-x)
        return _LN2 + float(log_ndtr(-x))
    if t == "exp_tail":
        return -law.b * x**law.gamma
    if t == "heavy_tail":
        return 0.0 if x <= 1.0 else -law.exponent * math.log(x)
    raise InvalidParameterError(f"log tail undefined for bounded law {law.tag!r}")


def half_tail_threshold(law: RandomLaw) -> float | None:
    """The point a with P(|chi| >= a) = 1/2, or None when no such point exists."""
    t = law.tag
    if t == "gaussian":
        return float(ndtri(0.75))
    if t == "exp_tail":
        return (_LN2 / law.b) ** (1.0 / law.gamma)
    if t == "heavy_tail":
        return 2.0 ** (1.0 / law.exponent)
    if t == "bounded_uniform":
        return law.bound / 2.0
    if t == "bernoulli" and law.p == 0.5:
        return 1.0
    return None


# ---------------------------------------------------- divergence sequences

def _minimal_plain(log_p: float) -> int:
    """Smallest j >= 0 with 2^-j <= P, from ln P."""
    v = -log_p / _LN2
    return max(0, math.ceil(v - 1e-9 * max(1.0, abs(v))))


def _minimal_strengthened(log_p: float) -> int:
    """Smallest j >= 1 with j 2^-j <= P, past the hump of j 2^-j."""
    j = max(1, _minimal_plain(log_p))
    tol = 1e-9 * max(1.0, abs(log_p))
    while math.log(j) - j * _LN2 > log_p + tol:
        j += 1
    return j


def divergence_sequence(law: RandomLaw, variant: str, n_max: int) -> list[int]:
    """Strictly increasing scales j_n with P(|chi| >= n^3) >= 2^-j_n
    (plain) or >= j_n 2^-j_n (strengthened), each minimal before the
    strict-increase fixup."""
    if variant not in ("plain", "strengthened"):
        raise InvalidParameterError(f"variant must be plain or strengthened, got {variant!r}")
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {n_max}")
    if law.is_bounded:
        raise NoDivergenceSequenceError(
            f"law {law_string(law)!r} is bounded: every tail beyond the bound is zero, "
            "so no scale sequence satisfies the tail inequality"
        )
    out: list[int] = []
    prev = None
    for n in range(1, n_max + 1):
        log_p = log_tail_probability(law, float(n) ** 3)
        j = _minimal_plain(log_p) if variant == "plain" else _minimal_strengthened(log_p)
        if prev is not None and j <= prev:
            j = prev + 1
        out.append(j)
        prev = j
    return out


# ------------------------------------------------------------- max check

def gaussian_max_check(j_range, trials: int, seed: int) -> dict[int, float]:
    """Per-j fraction of trials where max over 2^j Gaussian draws
    exceeds sqrt(2 j)."""
    js = list(j_range)
    if any(j < 10 or j > 24 for j in js):
        raise InvalidParameterError("scales must lie in [10, 24]")
    if trials < 20:
        raise InvalidParameterError(f"need at least 20 trials, got {trials}")
    law = gaussian()
    rates: dict[int, float] = {}
    for j in js:
        threshold = math.sqrt(2.0 * j)
        n = 2**j
        count = sum(abs_max(law, seed, "gaussian-max", j, t * n, (t + 1) * n) > threshold
                    for t in range(trials))
        rates[j] = count / trials
    return rates
