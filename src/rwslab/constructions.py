"""Coefficient fields that concentrate envelope mass for divergence.

Every builder here places wavelet translates so that some series (the
deterministic one, or a randomization of it) escapes the bounded functions
while each scale stays inside its prescribed envelope value.  Placement
geometry is resolved in exact dyadic arithmetic (fractions, never floats),
so the nesting invariants hold by construction rather than up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidPreconditionError,
    PlacementInfeasibleError,
)
from .fields import (
    CoefficientField,
    PowerLogRate,
    ScaleEnvelope,
    check_criterion,
    zero_field,
)
from .laws import (
    COEFFICIENT_STREAM,
    RandomLaw,
    divergence_sequence,
    draw_array,
    draw_blocks,
    law_string,
    rademacher,
)
from .wavelets import MotherWaveletTable

# The first positivity window is anchored well inside the torus so that
# no placement ever straddles the wrap point.
ROOT_WINDOW = (Fraction(1, 8), Fraction(3, 8))

# Independent sign stream used by the block-witness process.
WITNESS_SIGN_STREAM = "witness-sign"

# Levels are stored densely; 2^j entries past this are not materializable.
_LEVEL_CAP = 25


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

    def point(self) -> float:
        """A point common to every window (midpoint of the deepest one)."""
        lo, hi = self.intervals[-1]
        return float((lo + hi) / 2)


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


def divergent_subsequence(env: ScaleEnvelope) -> list[int]:
    """Scales whose envelope values sum past every bound, with growing gaps.

    Works in blocks of constant gap: among the gap-g arithmetic
    progressions compatible with non-decreasing gaps, take the one with
    the largest remaining envelope sum, walk it until the block has
    accumulated one unit of mass, then widen the gap.  On the finite
    horizon the selected sum grows by at least 1 per completed block.
    """
    if env.rate is None:
        raise InvalidPreconditionError(
            "subsequence selection needs a symbolic rate; raw envelopes "
            "cannot certify a divergent sum")
    if check_criterion(env, "l1").verdict != "fails":
        raise InvalidPreconditionError(
            "envelope sum converges; every subsequence sum is finite")
    weights = env.values
    horizon = env.j_max
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
        starts = [s for s in starts if s <= horizon]
        if not starts:
            return out
        start = max(starts, key=lambda s: (float(np.sum(weights[s::gap])), -s))
        total = 0.0
        while start <= horizon:
            out.append(start)
            total += float(weights[start])
            if total >= 1.0:
                break
            start += gap
        if total < 1.0:
            return out
        gap += 1


def nested_placement(table: MotherWaveletTable, scales) -> NestedPlacement:
    """Leftmost translate at each scale whose window nests into half of
    the previous one; the first window sits inside [1/8, 3/8)."""
    scales = _check_scales(scales)
    base = _interval_fractions(table.positivity_interval)
    positions: list[int] = []
    intervals: list[tuple[Fraction, Fraction]] = []
    target = ROOT_WINDOW
    for n, j in enumerate(scales, start=1):
        k = _leftmost_inside(base, j, *target)
        if k is None:
            raise PlacementInfeasibleError(
                f"no translate at scale {j} has its window inside "
                f"[{target[0]}, {target[1]})", n=n)
        window = _scaled(base, j, k)
        positions.append(k % 2**j)
        intervals.append(window)
        target = _half(window)
    return NestedPlacement(tuple(scales), tuple(positions), tuple(intervals))


def thin_to_feasible(table: MotherWaveletTable, scales) -> list[int]:
    """Greedy subsequence of ``scales`` on which nested_placement succeeds.

    Keeps a scale whenever some translate window fits the current target;
    scales whose gap is too small are dropped rather than failed.
    """
    scales = _check_scales(scales)
    base = _interval_fractions(table.positivity_interval)
    kept: list[int] = []
    target = ROOT_WINDOW
    for j in scales:
        k = _leftmost_inside(base, j, *target)
        if k is None:
            continue
        kept.append(j)
        target = _half(_scaled(base, j, k))
    return kept


def unbounded_series_field(env: ScaleEnvelope, placement: NestedPlacement,
                           off_scale: Fraction = Fraction(3, 4)) -> CoefficientField:
    """One coefficient per scale at the full envelope value.

    Scales in the placement carry their nested position; every other scale
    parks its coefficient at the translate covering the fixed off point
    (3/4 by default), far from the concentration window.  The per-scale
    sup is therefore exactly the envelope.
    """
    if not 0 <= off_scale < 1:
        raise InvalidParameterError("off-scale anchor must lie in [0, 1)")
    if placement.scales[-1] > env.j_max:
        raise InvalidParameterError(
            f"placement reaches scale {placement.scales[-1]} but the "
            f"envelope stops at {env.j_max}")
    out = zero_field(env.j_max)
    nested = dict(zip(placement.scales, placement.positions))
    for j in range(env.j_max + 1):
        k = nested.get(j, math.floor(off_scale * 2**j))
        out.levels[j][k] = env.values[j]
    return out


def dense_unbounded_field(env: ScaleEnvelope, placement: NestedPlacement) -> CoefficientField:
    """Translated copies of the concentration tails at every dyadic center.

    The tail past placement index l is re-anchored from its own window to
    each center k 2^-l with k odd, turning the single divergence point
    into one inside every dyadic interval.  In coefficient space the copy
    shifts scale j_n translates by k 2^{j_n - l} - k_l 2^{j_n - j_l};
    colliding copies add.
    """
    if placement.scales[-1] > env.j_max:
        raise InvalidParameterError(
            f"placement reaches scale {placement.scales[-1]} but the "
            f"envelope stops at {env.j_max}")
    out = zero_field(env.j_max)
    scales, anchors = placement.scales, placement.positions
    for l in range(len(scales)):
        centers = np.arange(1, max(2**l, 2), 2, dtype=np.int64)
        for n in range(l + 1, len(scales)):
            j, k, value = scales[n], anchors[n], env.values[scales[n]]
            if value == 0.0:
                continue
            size = 2**j
            shift = (k - anchors[l] * 2 ** (j - scales[l])
                     + centers * 2 ** (j - l)) % size
            np.add.at(out.levels[j], shift, value)
    return out


def divergence_scales(law: RandomLaw, j_max: int,
                      variant: str = "plain") -> list[tuple[int, int]]:
    """(n, j_n) pairs of the law's divergence sequence with j_n <= j_max."""
    n_max = 8
    seq = divergence_sequence(law, variant, n_max)
    while seq[-1] <= j_max:
        n_max *= 2
        seq = divergence_sequence(law, variant, n_max)
    return [(n, j) for n, j in enumerate(seq, start=1) if j <= j_max]


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
                            variant: str = "plain",
                            stop_after: int | None = 1) -> list[dict]:
    """Scan the synthesis multiplier streams for draws past n^3.

    Uses the same stream tag as randomized synthesis, so a logged event
    describes the path that synthesis would actually build from ``seed``.
    ``stop_after`` bounds how many scales get logged (None scans all).
    """
    events: list[dict] = []
    for n, j in divergence_scales(law, j_max, variant):
        threshold, count, first_k = float(n) ** 3, 0, None
        for lo, chi in draw_blocks(law, seed, COEFFICIENT_STREAM, j, 0, 2**j):
            hits = np.abs(chi) >= threshold
            if first_k is None and hits.any():
                first_k = lo + int(np.argmax(hits))
            count += int(np.count_nonzero(hits))
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
    exceeded: list[int] = []
    for n, j in divergence_scales(law, field.j_max, "strengthened"):
        size = 2**j
        block = 2 * j
        nblocks = size // block
        if nblocks == 0:
            continue
        ks = np.arange(size)
        n_sq = float(n) ** 2
        signs = draw_array(rademacher(), seed, WITNESS_SIGN_STREAM, j, ks)
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
        if products.any():
            exceeded.append(n)
    return {
        "law": law_string(law),
        "seed": int(seed),
        "scales": [row["j"] for row in per_scale],
        "per_scale": per_scale,
        "scales_with_product_exceedance": len(exceeded),
        "exceedance_ns": exceeded,
    }


def two_sign_tree_field(env: ScaleEnvelope, table: MotherWaveletTable) -> CoefficientField:
    """Binary tree of envelope-valued coefficients alternating into the
    positive and negative windows of each parent.

    Candidate scales come from the divergent subsequence of the envelope;
    a scale is kept only if every current leaf admits children in both of
    its half-windows, so each kept scale doubles the leaf count.  Any
    sign pattern then leaves half the leaves reinforcing, which is what
    makes symmetric randomizations of this field blow up.
    """
    if table.positivity_floor <= 0.0 or table.negativity_ceiling >= 0.0:
        raise InvalidPreconditionError(
            "table lacks a signed window pair; cannot alternate placements")
    candidates = divergent_subsequence(env)
    pos_base = _interval_fractions(table.positivity_interval)
    neg_base = _interval_fractions(table.negativity_interval)
    out = zero_field(env.j_max)
    leaves: list[tuple[int, int]] = []
    for j in candidates:
        if j > env.j_max:
            break
        if not leaves:
            k = _leftmost_inside(pos_base, j, *ROOT_WINDOW)
            if k is None:
                continue
            leaves = [(j, k)]
            out.levels[j][k % 2**j] = env.values[j]
            continue
        children: list[tuple[int, int]] = []
        for parent_j, parent_k in leaves:
            for base in (pos_base, neg_base):
                lo, hi = _half(_scaled(base, parent_j, parent_k))
                k = _leftmost_inside(pos_base, j, lo, hi)
                if k is None:
                    children = []
                    break
                children.append((j, k))
            if not children:
                break
        if not children:
            continue
        for _, k in children:
            out.levels[j][k % 2**j] = env.values[j]
        leaves = children
    if not leaves:
        raise PlacementInfeasibleError(
            "no candidate scale admits a root window inside "
            f"[{ROOT_WINDOW[0]}, {ROOT_WINDOW[1]})", n=1)
    return out


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


def support_spacing(table: MotherWaveletTable) -> int:
    """Minimal translate spacing with disjoint (half-open) supports."""
    return table.support_length


def sparse_loglog_field(table: MotherWaveletTable, n_max: int) -> CoefficientField:
    """Envelope-valued coefficients at every support-disjoint position of
    the geometric scales q, q^2, ..., q^{n_max}."""
    if not isinstance(n_max, int) or n_max < 1:
        raise InvalidParameterError("n_max must be a positive integer")
    ratio = geometric_scale_ratio()
    top = ratio**n_max
    if top > _LEVEL_CAP:
        raise InvalidParameterError(
            f"scale {top} needs 2^{top} dense entries; the cap is 2^{_LEVEL_CAP}")
    rate = sparse_loglog_rate()
    spacing = support_spacing(table)
    out = zero_field(top)
    for n in range(1, n_max + 1):
        j = ratio**n
        out.levels[j][::spacing] = rate.value(j)
    return out
