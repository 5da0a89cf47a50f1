"""Coefficient fields on the torus, scale envelopes, and envelope criteria.

A field stores dense per-scale wavelet coefficients c_{j,k} (2^j of them at
scale j) plus the coarse constant term.  The envelope omega_j = max_k
|c_{j,k}| is the central statistic.  The criteria (bounded, vanishing,
summable, sqrt(j)-weighted, gamma-weighted, log-log-weighted) are
conditions on the decay rate of omega_j and are decided exactly from a
symbolic ``PowerLogRate``: convergence of a series is not finitely
observable, so a tabulated envelope never gets a holds/fails verdict.
A rate owns its support: ``PowerLogRate.value`` is zero off it, so an
envelope is the rate's values at j = 0..j_max.

Step-function coefficients are computed by quadrature in the rescaled
variable u = 2^j x - k on the wavelet's own grid of step 2^-r_psi, which
makes the quadrature error uniform in j (the integrand never sharpens as j
grows).  Both step functions reduce to suffix sums of psi's grid samples
at the integers, the sawtooth also to their first moment: one term per
jump or wrap point instead of a pass over the grid per coefficient.  These
reductions come straight from the filter taps, by a two-scale recursion on
per-cell sums of phi started from phi at the integers, so no psi table
and no phi level finer than the integers is built for them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .util import sup_abs
from .wavelets import MotherWaveletTable, _two_scale, _two_scale_matrices

CRITERION_KINDS = ("linfty", "c0", "l1", "sqrtj", "gamma", "loglog")

# extra (power, log-power, loglog-power) the weight multiplies onto a rate
_WEIGHT_SHIFT = {
    "l1": (0.0, 0.0, 0.0),
    "sqrtj": (0.5, 0.0, 0.0),
    "loglog": (0.5, 0.0, -1.0),
}


@dataclass(eq=False)
class CoefficientField:
    """Dense coefficients c_{j,k}, j = 0..j_max, 2^j reals per scale."""

    j_max: int
    coarse: float
    levels: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.j_max < 0:
            raise InvalidParameterError(f"j_max must be nonnegative, got {self.j_max}")
        if len(self.levels) != self.j_max + 1:
            raise InvalidParameterError(
                f"expected {self.j_max + 1} levels, got {len(self.levels)}"
            )
        self.levels = [np.asarray(lv, dtype=float) for lv in self.levels]
        for j, lv in enumerate(self.levels):
            if lv.shape != (2**j,):
                raise InvalidParameterError(f"level {j} must have {2**j} entries, has {lv.shape}")
            if not np.all(np.isfinite(lv)):
                raise InvalidParameterError(f"level {j} contains non-finite entries")
        if not math.isfinite(self.coarse):
            raise InvalidParameterError("coarse term must be finite")


def zero_field(j_max: int, coarse: float = 0.0) -> CoefficientField:
    return CoefficientField(j_max, coarse, [np.zeros(2**j) for j in range(j_max + 1)])


def uniform_decay_field(alpha: float, j_max: int) -> CoefficientField:
    """c_{j,k} = 2^{-alpha j} at every position: the constant-envelope
    regularity model, whose envelope is ``uniform_decay_envelope``."""
    omegas = uniform_decay_envelope(alpha, j_max).values
    return CoefficientField(j_max, 0.0, [np.full(2**j, w) for j, w in enumerate(omegas)])


@dataclass(frozen=True)
class PowerLogRate:
    """omega_j = 2^{-s j} * j^a * (log j)^b * (log log j)^c.

    support: "all" scales (where the factors are defined) or "geometric"
    (only j_n = ratio^n for n >= 1, zero elsewhere); ``value`` applies it.
    """

    s: float
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    support: str = "all"
    ratio: int | None = None

    def __post_init__(self):
        if self.support not in ("all", "geometric"):
            raise InvalidParameterError(f"unknown rate support {self.support!r}")
        if self.support == "geometric" and (self.ratio is None or self.ratio < 2):
            raise InvalidParameterError("geometric support needs an integer ratio >= 2")

    @property
    def first_scale(self) -> int:
        """Smallest j where every factor is defined and positive."""
        if self.c != 0.0:
            return 3  # log log j > 0 needs j >= 3
        if self.b != 0.0:
            return 2
        return 1

    def value(self, j: int) -> float:
        """omega_j: zero below ``first_scale`` and, for geometric support,
        at every j that is not ratio^n with n >= 1."""
        if j < self.first_scale:
            return 0.0
        if self.support == "geometric":
            jn = self.ratio
            while jn < j:
                jn *= self.ratio
            if jn != j:
                return 0.0
        out = 2.0 ** (-self.s * j) * float(j) ** self.a
        if self.b != 0.0:
            out *= math.log(j) ** self.b
        if self.c != 0.0:
            out *= math.log(math.log(j)) ** self.c
        return out


@dataclass(frozen=True, eq=False)
class ScaleEnvelope:
    """omega_0..omega_{j_max}."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise InvalidParameterError("envelope needs a one-dimensional value array")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise InvalidParameterError("envelope values must be finite and nonnegative")

    @property
    def j_max(self) -> int:
        return self.values.size - 1


def envelope_from_rate(rate: PowerLogRate, j_max: int) -> ScaleEnvelope:
    """omega_j = rate.value(j) for j = 0..j_max."""
    return ScaleEnvelope(values=np.array([rate.value(j) for j in range(j_max + 1)]))


def uniform_decay_envelope(alpha: float, j_max: int) -> ScaleEnvelope:
    """omega_j = 2^{-alpha j} for j = 0..j_max, without building the field."""
    try:
        return ScaleEnvelope(values=np.array([2.0 ** (-alpha * j) for j in range(j_max + 1)]))
    except OverflowError:
        raise InvalidParameterError(
            f"2^(-alpha j) overflows a float for alpha {alpha} and j_max {j_max}") from None


def scale_envelope(field_: CoefficientField) -> ScaleEnvelope:
    return ScaleEnvelope(values=np.array([sup_abs(lv) for lv in field_.levels]))


# ---------------------------------------------------------------- criteria

def check_criterion(rate: PowerLogRate, kind: str, gamma: float | None = None) -> str:
    """Verdict of criterion ``kind`` on envelopes decaying at ``rate``:
    "holds" or "fails"."""
    if kind not in CRITERION_KINDS:
        raise InvalidParameterError(f"unknown criterion {kind!r}; expected one of {CRITERION_KINDS}")
    if kind == "gamma":
        if gamma is None or not 0.0 < gamma <= 2.0:
            raise InvalidParameterError("gamma criterion needs gamma in (0, 2]")
    elif gamma is not None:
        raise InvalidParameterError(f"criterion {kind!r} takes no gamma")

    if rate.s != 0.0:
        return "holds" if rate.s > 0.0 else "fails"
    # Each rule compares the powers (a, b, c) of j^a (log j)^b (log log j)^c
    # lexicographically, as Python compares tuples (NaN included).
    powers = (rate.a, rate.b, rate.c)
    if kind == "linfty":
        holds = powers <= (0.0, 0.0, 0.0)
    elif kind == "c0":
        holds = powers < (0.0, 0.0, 0.0)  # the product tends to 0
    else:  # the weighted series over all j, or over j_n = q^n: terms ~ q^{a n} n^b (log n)^c
        shift = _WEIGHT_SHIFT[kind] if kind != "gamma" else (1.0 / gamma, 0.0, 0.0)
        powers = tuple(p + d for p, d in zip(powers, shift))
        holds = powers < ((-1.0, -1.0, -1.0) if rate.support == "all" else (0.0, -1.0, -1.0))
    return "holds" if holds else "fails"


# ------------------------------------------------------- step functions

def step_function_coefficients(
    table: MotherWaveletTable, kind: str, j_max: int
) -> CoefficientField:
    """Wavelet coefficients of the Heaviside step or the centered sawtooth.

    heaviside: H(x) = sign(x) on the real line; only translates whose
    support crosses 0 have nonzero coefficients, and those are independent
    of j exactly (substitute u = 2^j x - k).  The real-line cone is stored
    at torus positions k mod 2^j.

    sawtooth: the centered fractional part x - floor(x) - 1/2 with the
    midpoint value 0 exactly at the jump (the value its Fourier series
    converges to there).
    """
    if kind not in ("heaviside", "sawtooth"):
        raise InvalidParameterError(f"kind must be heaviside or sawtooth, got {kind!r}")
    return _step_closed_form(kind, j_max, table.support_length, table.grid_step,
                             *_psi_reductions(table))


def _psi_reductions(table: MotherWaveletTable) -> tuple[np.ndarray, np.ndarray, float]:
    """psi's per-unit sums U(c) = sum_{i < 2^r} psi(c + i 2^-r), its values psi(c)
    at the integers c = 0..L-1, and its first moment sum_i i psi(i 2^-r), r = r_psi.

    The psi table's own level-r quadrature, taken from the taps with no
    table: the cell sums S(m) = sum_i phi(m + i 2^-l) and T(m) = sum_i i phi(m + i 2^-l),
    i < 2^l, start from phi at the integers (l = 0, T = 0) and go one level finer by
        S'(m) = sum_k c_k [S(2m - k) + S(2m - k + 1)],
        T'(m) = sum_k c_k [T(2m - k) + T(2m - k + 1) + 2^l S(2m - k + 1)]
    with the two-scale weights c_k.  The step from level r - 1 with the
    weights d_k gives U and the in-cell moments V, and the first moment is
    sum_c (c 2^r U(c) + V(c)).  psi(c) is read off the table's psi at level 1.
    """
    length, r = table.support_length, table.r_psi
    cells = np.arange(length)

    def finer(lo, hi, s, t, level):  # rows summed by numpy: BLAS rounding varies by core
        return ((lo + hi) * s).sum(axis=1), ((lo + hi) * t + 2.0**level * hi * s).sum(axis=1)

    lowpass, highpass = map(_two_scale_matrices, _two_scale(table.filter))
    s, t = table.phi_level(0)[:length], np.zeros(length)
    for level in range(r - 1):
        s, t = finer(*lowpass, s, t, level)
    unit_sums, moments = finer(*highpass, s, t, r - 1)
    psi_int = table.psi_level(1)[: 2 * length : 2]
    return unit_sums, psi_int, math.fsum(cells * 2.0**r * unit_sums + moments)


def _step_closed_form(kind: str, j_max: int, length: int, step: float,
                      unit_sums: np.ndarray, psi_int: np.ndarray, moment: float
                      ) -> CoefficientField:
    """Heaviside or sawtooth coefficients from psi's reductions on its grid of
    step 2^-r: the per-unit sums, the values at the integers 0..L-1 and the
    first moment sum_i i psi_i."""
    out = zero_field(j_max)
    # Jumps and wraps sit at integers u = c, where the left-endpoint grid
    # point takes the midpoint value 0 (sign(0) = 0): both step functions
    # need the suffix sums S_p = sum_{i >= p} psi_i only at p = c 2^r, the
    # reverse cumulative sums of the per-unit sums, with the mass at c = 0.
    suffix = np.cumsum(unit_sums[::-1])[::-1]
    mass = float(suffix[0])

    if kind == "heaviside":
        # T(k) = integral of sign(u + k) Psi(u) du, independent of j: the
        # psi past the jump c = -k less the psi before it
        for c in range(length - 1, 0, -1):
            value = step * (2.0 * float(suffix[c]) - float(psi_int[c]) - mass)
            for j in range(j_max + 1):
                out.levels[j][-c % 2**j] += value
        return out

    # sawtooth: x - 1/2 is linear wherever the support does not cross the
    # wrap, so those coefficients reduce to 2^-j times the first moment of
    # psi.  A wrap-crossing translate is that line less a unit step at each
    # wrap point inside the support.
    moment = step * moment
    for j in range(j_max + 1):
        size = 2**j
        scale = 2.0**-j
        lv = out.levels[j]
        lv[:] = scale * (moment * step)
        ks = np.arange(max(0, size - length + 1), size)
        jumps = np.zeros(ks.size)
        if ks.size and ks[0] == 0:
            jumps[0] = 0.5 * psi_int[0]  # k = 0 starts on the wrap: midpoint only
        for w in range(1, (length + size - 1) // size + 1):
            cells = w * size - ks  # wrap point w, in units past each translate's start
            inside = cells < length
            jumps[inside] += 0.5 * psi_int[cells[inside]] - suffix[cells[inside]]
        lv[ks] = step * (scale * (moment + ks * mass) - 0.5 * mass + jumps)
    return out


# ------------------------------------------------------------------- digest

def field_digest(field_: CoefficientField) -> str:
    """12-hex-digit content id, sensitive to every coefficient.

    Hashes the raw float bytes rather than a JSON rendering so deep fields
    stay cheap to identify; level sizes make the byte stream self-delimiting.
    """
    digest = hashlib.sha256()
    digest.update(np.float64(field_.coarse).tobytes())
    for lv in field_.levels:
        digest.update(lv.tobytes())
    return digest.hexdigest()[:12]
