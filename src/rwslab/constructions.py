"""Coefficient fields that concentrate envelope mass for divergence.

Every builder here places wavelet translates so that some series (the
deterministic one, or a randomization of it) escapes the bounded functions
while each scale stays inside its prescribed envelope value.  Placement
geometry is resolved in exact dyadic arithmetic (fractions, never floats),
so the nesting invariants hold by construction rather than up to rounding.
Nested placement is one greedy pass over the candidate scales: a scale
with no translate whose window fits the current target is skipped, not
failed, so callers get the feasible subsequence and its placement at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, InvalidPreconditionError
from .fields import (
    CoefficientField,
    PowerLogRate,
    ScaleEnvelope,
    check_criterion,
    envelope_from_rate,
    zero_field,
)
from .laws import (
    COEFFICIENT_STREAM,
    RandomLaw,
    divergence_sequence,
    draw_array,
    exceedances,
    rademacher,
)
from .wavelets import MotherWaveletTable

# The first positivity window is anchored well inside the torus so that
# no placement ever straddles the wrap point.
ROOT_WINDOW = (Fraction(1, 8), Fraction(3, 8))

# Independent sign stream used by the block-witness process.
WITNESS_SIGN_STREAM = "witness-sign"


@dataclass(frozen=True)
class NestedPlacement:
    """Translate positions whose positivity windows shrink concentrically.

    ``intervals[n]`` is the window of ``positions[n]`` at ``scales[n]`` as
    an exact half-open fraction pair; each one sits inside the concentric
    half of its predecessor, and the first inside [1/8, 3/8).
    """

    scales: tuple[int, ...]
    positions: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]


def _interval_fractions(interval) -> tuple[Fraction, Fraction]:
    step = Fraction(2) ** -interval.level
    return (interval.index * step, (interval.index + 1) * step)


def _scaled(base: tuple[Fraction, Fraction], j: int, k: int) -> tuple[Fraction, Fraction]:
    a, b = base
    return ((k + a) / 2**j, (k + b) / 2**j)


def _half(window: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    lo, hi = window
    quarter = (hi - lo) / 4
    return (lo + quarter, hi - quarter)


def _leftmost_inside(base: tuple[Fraction, Fraction], j: int,
                     lo: Fraction, hi: Fraction) -> int | None:
    """Smallest k with {x : 2^j x - k in base} inside [lo, hi), or None."""
    a, b = base
    k_min = math.ceil(lo * 2**j - a)
    k_max = math.floor(hi * 2**j - b)
    return k_min if k_min <= k_max else None


def _check_scales(scales) -> list[int]:
    out = [int(j) for j in scales]
    if not out or any(j != v for j, v in zip(out, scales)):
        raise InvalidParameterError("scales must be a non-empty integer sequence")
    if out[0] < 0 or any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidParameterError("scales must be non-negative and strictly increasing")
    return out


def divergent_subsequence(rate: PowerLogRate, j_max: int) -> list[int]:
    """Scales up to ``j_max`` whose rate values sum past every bound, with
    growing gaps.

    Works in blocks of constant gap: among the gap-g arithmetic
    progressions compatible with non-decreasing gaps, take the one with
    the largest remaining envelope sum, walk it until the block has
    accumulated one unit of mass, then widen the gap.  Up to ``j_max``
    the selected sum grows by at least 1 per completed block.
    """
    if check_criterion(rate, "l1") != "fails":
        raise InvalidPreconditionError(
            "envelope sum converges; every subsequence sum is finite")
    weights = envelope_from_rate(rate, j_max).values
    out: list[int] = []
    gap = 2
    while True:
        if not out:
            starts = []
            for r in range(gap):
                nonzero = np.flatnonzero(weights[r::gap])
                if nonzero.size:
                    starts.append(r + gap * int(nonzero[0]))
        else:
            # gap-1 was the previous block's spacing, so either start
            # keeps the realized gaps non-decreasing
            starts = [out[-1] + gap - 1, out[-1] + gap]
        starts = [s for s in starts if s <= j_max]
        if not starts:
            return out
        start = max(starts, key=lambda s: (float(np.sum(weights[s::gap])), -s))
        total = 0.0
        while start <= j_max:
            out.append(start)
            total += float(weights[start])
            if total >= 1.0:
                break
            start += gap
        if total < 1.0:
            return out
        gap += 1


def nested_placement(table: MotherWaveletTable, scales) -> NestedPlacement:
    """Greedy nesting: at each scale in turn, the leftmost translate whose
    window fits inside half of the previous window; the first window sits
    inside [1/8, 3/8).  A scale with no fitting translate is skipped, so
    the placed scales are a subsequence of ``scales``, possibly empty."""
    scales = _check_scales(scales)
    base = _interval_fractions(table.positivity_interval)
    kept: list[int] = []
    positions: list[int] = []
    intervals: list[tuple[Fraction, Fraction]] = []
    target = ROOT_WINDOW
    for j in scales:
        k = _leftmost_inside(base, j, *target)
        if k is None:
            continue
        window = _scaled(base, j, k)
        kept.append(j)
        positions.append(k % 2**j)
        intervals.append(window)
        target = _half(window)
    return NestedPlacement(tuple(kept), tuple(positions), tuple(intervals))


def unbounded_series_field(env: ScaleEnvelope, placement: NestedPlacement) -> CoefficientField:
    """One coefficient per scale at the full envelope value.

    Scales in the placement carry their nested position; every other scale
    parks its coefficient at the translate covering 3/4, far from the
    concentration window.  The per-scale sup is therefore exactly the
    envelope.
    """
    if not placement.scales:
        raise InvalidParameterError("placement holds no scale")
    if placement.scales[-1] > env.j_max:
        raise InvalidParameterError(
            f"placement reaches scale {placement.scales[-1]} but the "
            f"envelope stops at {env.j_max}")
    out = zero_field(env.j_max)
    nested = dict(zip(placement.scales, placement.positions))
    for j in range(env.j_max + 1):
        k = nested.get(j, 3 * 2**j // 4)
        out.levels[j][k] = env.values[j]
    return out


def divergence_scales(law: RandomLaw, j_max: int,
                      variant: str = "plain") -> list[tuple[int, int]]:
    """(n, j_n) pairs of the law's divergence sequence with j_n <= j_max.

    The sequence rises strictly from j_1 >= 0, so j_n >= n - 1 and the
    first j_max + 1 terms hold every j_n <= j_max.  A fresh list each call,
    from one computation per (law, j_max, variant).
    """
    return list(_divergence_scales(law, j_max, variant))


@functools.lru_cache(maxsize=64)  # every seed of a run shares its scales
def _divergence_scales(law: RandomLaw, j_max: int, variant: str) -> tuple[tuple[int, int], ...]:
    seq = divergence_sequence(law, variant, max(1, j_max + 1))
    return tuple((n, j) for n, j in enumerate(seq, start=1) if j <= j_max)


def divergence_scale_field(law: RandomLaw, j_max: int,
                           variant: str = "plain") -> CoefficientField:
    """Value 1/n^2 at every position of the law's n-th divergence scale.

    The envelope is summable, so the deterministic series converges
    normally; an unbounded multiplier law meets tail mass 2^{-j_n} per
    coefficient at scale j_n, which is exactly what the divergence
    sequence was chosen to exploit.
    """
    out = zero_field(j_max)
    for n, j in divergence_scales(law, j_max, variant):
        out.levels[j][:] = 1.0 / n**2
    return out


def coefficient_exceedances(law: RandomLaw, j_max: int, seed: int,
                            stop_after: int | None = 1) -> list[dict]:
    """Scan the synthesis multiplier streams for draws past n^3 at the
    law's plain divergence scales.

    Uses the same stream tag as randomized synthesis, so a logged event
    describes the path that synthesis would actually build from ``seed``.
    ``stop_after`` bounds how many scales get logged (None scans all).
    """
    events: list[dict] = []
    for n, j in divergence_scales(law, j_max):
        count, first_k = exceedances(law, seed, COEFFICIENT_STREAM, j, 0, 2**j,
                                     float(n) ** 3)
        if count:
            events.append({"n": n, "j": j, "count": count, "first_k": first_k})
            if stop_after is not None and len(events) >= stop_after:
                break
    return events


def block_witness_process(field: CoefficientField, law: RandomLaw, seed: int) -> dict:
    """Sign-perturb the field at the law's divergence scales and record,
    block by block, witnesses that survive the perturbation.

    At scale j_n the positions split into blocks of length 2 j_n.  A
    witness is the leftmost k in a block with |eps_k / n^2 + c_{j_n,k}|
    >= 1/n^2; the perturbed coefficient there is then tested against the
    multiplier draw for a product of size n (which a draw |chi| >= n^3
    guarantees).  Headline: number of scales with at least one product
    exceedance.  Finite data supports rates, not the limit statement, so
    only counts are reported.
    """
    per_scale: list[dict] = []
    exceeded = 0
    sign_law = rademacher()
    for n, j in divergence_scales(law, field.j_max, "strengthened"):
        size = 2**j
        block = 2 * j
        nblocks = size // block
        if nblocks == 0:
            continue
        ks = np.arange(size)
        n_sq = float(n) ** 2
        signs = draw_array(sign_law, seed, WITNESS_SIGN_STREAM, j, ks)
        perturbed = signs / n_sq + field.levels[j]
        witness = np.abs(perturbed) >= 1.0 / n_sq
        grid = witness[: nblocks * block].reshape(nblocks, block)
        found = grid.any(axis=1)
        witness_ks = np.arange(nblocks) * block + np.argmax(grid, axis=1)
        witness_ks = witness_ks[found]
        chi = draw_array(law, seed, COEFFICIENT_STREAM, j, witness_ks)
        products = np.abs(perturbed[witness_ks] * chi) >= float(n)
        chi_large = np.abs(chi) >= float(n) ** 3
        per_scale.append({
            "n": n,
            "j": j,
            "blocks": int(nblocks),
            "witness_blocks": int(found.sum()),
            "chi_exceedances": int(chi_large.sum()),
            "product_exceedances": int(products.sum()),
        })
        exceeded += bool(products.any())
    return {"per_scale": per_scale, "scales_with_product_exceedance": exceeded}


def geometric_scale_ratio() -> int:
    """Smallest integer ratio making geometric scale growth beat the
    per-scale failure bounds: the exceedance mass e^{-j/4} per translate
    against 2^j windows needs j_{n+1}/j_n > 2 / (log 2 - 1/4)."""
    return math.floor(2.0 / (math.log(2.0) - 0.25)) + 1


def sparse_loglog_rate() -> PowerLogRate:
    """Envelope rate on the geometric scales: summable against the
    iterated-log weight but not against sqrt(j)."""
    return PowerLogRate(0.0, a=-0.5, b=-1.0, c=-1.0,
                        support="geometric", ratio=geometric_scale_ratio())
