"""Deterministic index-addressed I.I.D. draws and closed-form log tails.

Draws are counter-based: a value is a pure function of (law, seed, stream
tag, j, k), so any slice of any stream can be generated independently, in
any order, on any number of workers, with identical bits.  The generator is
the SplitMix64 output function applied to a keyed counter; uniforms take 53
bits plus a half-ulp offset, and the low bit of the same word supplies an
independent sign where a law needs one.  From m = 2^52 up, m + 0.5 is not
representable and rounds to even, so adjacent mantissas share one u and the
top mantissa m = 2^53 - 1 would give u = 1.0 and a Gaussian draw of +inf.
Clamping u to 1 - 2^-53 keeps it strictly inside (0, 1), so every draw is
finite, and keeps u non-decreasing in m.

Reductions stream: ``_word_blocks`` yields any k-range of a stream in
fixed blocks of ``BLOCK`` head words, so a max or a count never
materializes a whole level.  A head word is the word behind the draw
``draw_array`` returns at that k before SplitMix64's final xorshift
z ^ (z >> 31), which leaves the top 31 bits of z unchanged: a word and
its head share one bucket of 2^33 consecutive words.  So a min, a max or
a range test decided on head words, with each bound widened to a whole
bucket, holds for the finished words, and only the few heads in the
bound's own bucket need ``_mix_tail``.  The blocks share one reused
buffer.  The reductions decide in word space.  For every law in
``LAW_TAGS``, |chi| is a monotone function of the uniform u
(non-increasing for bernoulli, exp_tail and heavy_tail, constant for
rademacher) or V-shaped about u = 1/2 (``V_SHAPED_TAGS``), and u never
decreases as the word's top 53 bits, the mantissa m, increase.  So the
largest |chi| over a range is attained at the word with the smallest or
the largest mantissa: ``abs_max`` transforms only those two words, and for
rademacher, where |chi| = 1, none at all.  Likewise |chi| >= x holds on a
prefix m < a of the mantissas, or on m < a and m >= b for the V-shaped
laws.  ``exceedances`` finds a and b once per (law, threshold), searching
the transform itself at a threshold lowered by a relative 1e-9, then
compares each head word against the cut widened to whole buckets, and
finishes and transforms only the few candidates, which it checks against
x exactly; so its count equals a dense scan even where |chi| is monotone
only to rounding.

Divergence sequences read the tails of the unbounded laws in log space,
ln P(|chi| >= x) in closed form, so they stay finite where P underflows.

The Gaussian quantile is Cephes ``ndtri`` (Moshier, *Methods and Programs
for Mathematical Functions*, 1989), the algorithm ``scipy.special.ndtri``
runs.  Up to ``_SCALAR_WORDS`` words, the pair ``abs_max`` finishes and a
single ``draw``, it runs as ``_ndtri``, a Python-float transcription that
gives scipy's bits; every larger array goes to scipy.  So scipy, whose
import costs more time and memory than a small run's draws, is imported
lazily, on the first dense Gaussian draw, the Gaussian log tail or a
Gaussian ``exceedances`` with more candidates than that (its cut searches
run ``_ndtri``), and never by ``hmin``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, NoDivergenceSequenceError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_LN2 = math.log(2.0)

# Each law's parameters in config-string order, as (field, upper bound,
# whether the bound is attained).  Every parameter is finite and positive.
LAW_PARAMS = {
    "rademacher": (),
    "gaussian": (),
    "bernoulli": (("p", 1.0, False),),
    "exp_tail": (("b", math.inf, False), ("gamma", 2.0, True)),
    "heavy_tail": (("exponent", math.inf, False),),
    "bounded_uniform": (("bound", math.inf, False),),
}
LAW_TAGS = tuple(LAW_PARAMS)
BOUNDED_TAGS = ("rademacher", "bernoulli", "bounded_uniform")
# Laws whose |chi| falls with the mantissa m up to m = 2^52 - 1 and rises
# from m = 2^52 on; for every other law it never rises.
V_SHAPED_TAGS = ("gaussian", "bounded_uniform")

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
        if self.tag not in LAW_PARAMS:
            raise InvalidParameterError(f"unknown law tag {self.tag!r}; expected one of {LAW_TAGS}")
        names = [name for name, _, _ in LAW_PARAMS[self.tag]]
        if any(getattr(self, f.name) is not None for f in fields(self)[1:] if f.name not in names):
            raise InvalidParameterError(f"{self.tag} takes only the parameters {names}")
        for name, hi, closed in LAW_PARAMS[self.tag]:
            v = getattr(self, name)
            if v is None or not (math.isfinite(v) and 0.0 < v and (v <= hi if closed else v < hi)):
                raise InvalidParameterError(
                    f"{self.tag} needs a finite {name} in (0, {hi:g}{']' if closed else ')'}, got {v}")

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
    tag, *args = text.strip().split(":")
    if tag not in LAW_PARAMS:
        raise InvalidParameterError(f"unknown law {tag!r} in {text!r}; expected one of {LAW_TAGS}")
    names = [name for name, _, _ in LAW_PARAMS[tag]]
    if len(args) != len(names):
        raise InvalidParameterError(f"law {tag!r} takes {len(names)} parameter(s), got {len(args)}")
    try:
        values = [float(a) for a in args]
    except ValueError:
        raise InvalidParameterError(f"non-numeric law parameter in {text!r}") from None
    return RandomLaw(tag, **dict(zip(names, values)))


def law_string(law: RandomLaw) -> str:
    """Inverse of ``parse_law``: each parameter as its shortest round-trip
    repr, less a trailing ".0"."""
    values = [repr(float(getattr(law, name))) for name, _, _ in LAW_PARAMS[law.tag]]
    return ":".join([law.tag] + [v.removesuffix(".0") for v in values])


# ------------------------------------------------------------------ draws

def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=64)  # a run reads a handful of stream tags
def _tag_hash(stream_tag: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(stream_tag.encode("utf-8"), digest_size=8).digest(), "little"
    )


def _stream_key(seed: int, stream_tag: str, j: int) -> int:
    tag_hash = _tag_hash(stream_tag)
    key = _mix(((seed & _MASK) + _GAMMA) & _MASK)
    key = _mix(((key ^ tag_hash) + _GAMMA) & _MASK)
    return _mix(((key ^ (j & _MASK)) + _GAMMA) & _MASK)


def _mix_head(z: np.ndarray) -> np.ndarray:
    """``_mix`` less its final xorshift, over an array of words, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    return z


def _mix_tail(z: np.ndarray) -> np.ndarray:
    """The final xorshift of ``_mix``, in place: the top 31 bits pass through."""
    z ^= z >> np.uint64(31)
    return z


def _mix_words(z: np.ndarray) -> np.ndarray:
    """``_mix`` over an array of words, in place."""
    return _mix_tail(_mix_head(z))


def _words(key: int, k) -> np.ndarray:
    z = np.array(k, dtype=np.uint64)  # the one copy, updated in place
    z += np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    return _mix_words(z)


# Cephes ndtri's rational approximations, highest power first: P0/Q0 for
# |u - 1/2| <= 3/8, then in z = 1/sqrt(-2 ln u) P1/Q1 for sqrt(-2 ln u) < 8
# and P2/Q2 beyond.  Each Q has an implied leading coefficient 1.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # e^-2
_SQRT_2PI = 2.50662827463100050242


def _ratio(x: float, p: tuple, q: tuple) -> float:
    """x p(x) / q(x), q monic, by Horner's rule in Cephes' order of
    operations: (x p(x)) / q(x) rounds differently from x (p(x) / q(x))."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri(u: float) -> float:
    """Cephes ndtri of u in (0, 1) in Python floats.  Bit for bit
    ``scipy.special.ndtri``: ``math.log`` rounds as the C library's log,
    which numpy's vectorised ``np.log`` does not always do."""
    lower = u <= 1.0 - _EXP_M2
    y = u if lower else 1.0 - u
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * _ratio(y2, _P0, _Q0)) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - _ratio(1.0 / x, p, q)
    return -x if lower else x


# Gaussian transforms of at most this many words run through ``_ndtri``:
# the pair ``abs_max`` finishes and a single ``draw``, for which importing
# scipy would cost far more than the transform.  Per word ``_ndtri`` is
# about fifty times slower than scipy's ndtri, so larger arrays go there.
_SCALAR_WORDS = 2


def _from_words(law: RandomLaw, words: np.ndarray, scalar: bool = False) -> np.ndarray:
    """The law's transform: draws from SplitMix64 output words.  ``scalar``
    sends Gaussian words through ``_ndtri`` however many there are."""
    t = law.tag
    if t == "rademacher":
        return np.where((words & np.uint64(1)).astype(bool), 1.0, -1.0)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)  # the top mantissa rounds to u = 1.0
    if t == "gaussian":
        if scalar or u.size <= _SCALAR_WORDS:
            return np.array([_ndtri(v) for v in u.ravel().tolist()]).reshape(u.shape)
        from scipy.special import ndtri  # scipy loads on the first dense Gaussian draw

        return ndtri(u)
    if t == "bernoulli":
        return (u < law.p).astype(np.float64)
    if t == "bounded_uniform":
        return law.bound * (2.0 * u - 1.0)
    sign = np.where((words & np.uint64(1)).astype(bool), 1.0, -1.0)  # the symmetric laws
    if t == "exp_tail":
        return sign * (-np.log(u) / law.b) ** (1.0 / law.gamma)
    return sign * u ** (-1.0 / law.exponent)  # heavy_tail


def draw_array(law: RandomLaw, seed: int, stream_tag: str, j: int, k) -> np.ndarray:
    """Vector of draws at positions k of stream (seed, stream_tag, j)."""
    return _from_words(law, _words(_stream_key(seed, stream_tag, j), k))


# Draws per block of a streamed reduction.  512 KiB of words and their
# temporaries stay in a 2 MiB L2 cache; 2^16 scanned 1.5x faster than 2^18.
BLOCK = 1 << 16


@functools.cache  # 512 KiB, built on the first streamed reduction, not at import
def _steps() -> np.ndarray:
    """Counter terms (i + 1) gamma of one block: the counter of k = lo + i is
    (lo + i + 1) gamma + key = (i + 1) gamma + (lo gamma + key) mod 2^64."""
    steps = np.arange(1, BLOCK + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)  # in place: a product adds 512 KiB to the peak
    return steps


def _word_blocks(seed: int, stream_tag: str, j: int, start: int, stop: int):
    """Yield (offset, head words) blocks, all written into one reused buffer:
    each block must be consumed before the next is requested.  A head word
    is a word before the final xorshift: ``_mix_tail`` makes it the output."""
    key = _stream_key(seed, stream_tag, j)
    buf = np.empty(BLOCK, dtype=np.uint64)
    for lo in range(start, stop, BLOCK):
        z = buf[: min(BLOCK, stop - lo)]
        np.add(_steps()[: z.size], np.uint64((lo * _GAMMA + key) & _MASK), out=z)
        yield lo, _mix_head(z)


# The low 33 bits, the only ones the final xorshift changes: a head word
# and its output share the 31 above them, their bucket.
_LOW = (1 << 33) - 1


def abs_max(law: RandomLaw, seed: int, stream_tag: str, j: int,
            start: int, stop: int) -> float:
    """max |chi_{j,k}| over k in [start, stop), 0.0 for an empty range.

    Equal to the max over ``draw_array``: only the words with the smallest
    and the largest mantissa are transformed (see the module docstring),
    and none for rademacher.
    """
    if law.tag == "rademacher":
        return 1.0 if stop > start else 0.0
    lo = hi = None
    for _, z in _word_blocks(seed, stream_tag, j, start, stop):
        z_lo, z_hi = int(z.min()), int(z.max())
        # The block's smallest output shares its top bits with z_lo, so it
        # can tie or beat lo only if z_lo does not pass lo | _LOW; likewise
        # for the largest.  Only the words sharing those bits are finished.
        if lo is None or z_lo <= lo | _LOW:
            w = int(_mix_tail(z[z <= np.uint64(z_lo | _LOW)]).min())
            lo = w if lo is None else min(lo, w)
        if hi is None or z_hi >= hi & ~_LOW:
            w = int(_mix_tail(z[z >= np.uint64(z_hi & ~_LOW)]).max())
            hi = w if hi is None else max(hi, w)
    if lo is None:
        return 0.0
    return float(np.max(np.abs(_from_words(law, np.array([lo, hi], dtype=np.uint64)))))


_HALF = 1 << 52                 # mantissas m < _HALF have u < 1/2
_PROBES = 64                    # mantissas evaluated per round of a cut search


@functools.lru_cache(maxsize=256)  # every seed and range shares a (law, x) cut
def _cut(law: RandomLaw, x: float, lo: int, hi: int, rising: bool) -> int:
    """First mantissa m in [lo, hi) with (|chi| >= x) == rising, or hi.

    A multi-way search: it assumes |chi| is monotone on [lo, hi) and returns
    an m whose predecessor fails the test and which passes it (or is hi).
    Gaussian probes go through ``_ndtri``, so a search imports no scipy.
    """
    while lo < hi:
        ms = range(lo, hi, -(-(hi - lo) // _PROBES))
        words = np.array(ms, dtype=np.uint64) << np.uint64(11)
        passed = (np.abs(_from_words(law, words, scalar=True)) >= x) == rising
        i = int(np.argmax(passed)) if passed.any() else len(ms)
        # the probes before i fail the test and probe i passes it
        if i:
            lo = ms[i - 1] + 1
        if i < len(ms):
            hi = ms[i]
    return hi


def exceedances(law: RandomLaw, seed: int, stream_tag: str, j: int,
                start: int, stop: int, threshold: float) -> tuple[int, int | None]:
    """(count, first_k) of |chi_{j,k}| >= threshold over k in [start, stop).

    Equal to a scan of ``draw_array`` over the range; ``first_k`` is None
    when nothing exceeds.  Head words are compared against a mantissa cut
    found at ``threshold`` lowered by a relative 1e-9 and widened to whole
    top-31-bit buckets, and only the words inside it are finished,
    transformed and checked exactly (see the module docstring).
    """
    x = threshold * (1.0 - 1e-9)
    top = 2 * _HALF
    v_shaped = law.tag in V_SHAPED_TAGS
    a = _cut(law, x, 0, _HALF if v_shaped else top, rising=False)
    b = _cut(law, x, _HALF, top, rising=True) if v_shaped else top
    # Candidate outputs, with m >= b or m < a, wrap around 2^64: less
    # off = b 2^11 (mod 2^64) they are exactly the words <= last.  Their
    # head words share the top bits, so less base (mod 2^64) they are
    # among the words <= width, the cut widened to whole buckets.
    off = (b << 11) & _MASK
    last = ((a + top - b) << 11) - 1
    count, first_k = 0, None
    if last < 0:
        return count, first_k
    base = off & ~_LOW
    width = np.uint64(min(((off + last) | _LOW) - base, _MASK))
    blocks = _word_blocks(seed, stream_tag, j, start, stop)
    for ks, heads in _candidate_batches(blocks, np.uint64(base), width):
        ks = ks[np.abs(_from_words(law, _mix_tail(heads))) >= threshold]
        if first_k is None and ks.size:
            first_k = int(ks[0])
        count += ks.size
    return count, first_k


def _candidate_batches(blocks, base: np.uint64, width: np.uint64):
    """Yield (k, head word) arrays of the words in ``blocks`` with
    head - base <= width (mod 2^64), in order, gathered over blocks until a
    batch holds ``BLOCK`` words: the finish and transform then run a few
    times per stream, not once per block, in O(``BLOCK``) memory."""
    ks, heads, held = [], [], 0
    for lo, words in blocks:
        if base:
            words -= base
        idx = np.flatnonzero(words <= width)
        if idx.size:
            ks.append(idx.astype(np.uint64) + np.uint64(lo))
            heads.append(words[idx] + base)
            held += idx.size
        if held >= BLOCK:
            yield np.concatenate(ks), np.concatenate(heads)
            ks, heads, held = [], [], 0
    if held:
        yield np.concatenate(ks), np.concatenate(heads)


def draw(law: RandomLaw, seed: int, index: tuple[str, int, int]) -> float:
    """Single indexed draw; pure function of all arguments."""
    stream_tag, j, k = index
    return float(draw_array(law, seed, stream_tag, j, np.asarray([k]))[0])


# ------------------------------------------------------------------ tails

def log_tail_probability(law: RandomLaw, x: float) -> float:
    """ln P(|chi| >= x) for unbounded laws; stays finite when P underflows."""
    if x < 0:
        raise InvalidParameterError(f"tail threshold must be nonnegative, got {x}")
    t = law.tag
    if t == "gaussian":
        from scipy.special import log_ndtr

        # P = 2 Phi(-x)
        return _LN2 + float(log_ndtr(-x))
    if t == "exp_tail":
        return -law.b * x**law.gamma
    if t == "heavy_tail":
        return 0.0 if x <= 1.0 else -law.exponent * math.log(x)
    raise InvalidParameterError(f"log tail undefined for bounded law {law.tag!r}")


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
