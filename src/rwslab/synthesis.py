"""Partial-sum evaluation on dyadic grids, plus the Fourier-side comparisons.

Wavelet synthesis runs the inverse periodized filter bank (the Mallat
pyramid) from scale 0 up to J+1 and evaluates the resulting scaling
coefficients against the tabulated phi in one matrix product; R <= r_psi
keeps every table lookup on a grid point.  The summation order is fixed, so
the floating-point result is a pure function of the field and the grid.

The Fourier side (sawtooth partial sums, the sine expansion of Brownian
motion) folds mode m onto m mod 2^R, which is exact on the grid, and
evaluates the folded sum with one real FFT: O(M + R 2^R), not O(M 2^R).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .fields import CoefficientField, ScaleEnvelope, field_digest
from .laws import (
    COEFFICIENT_STREAM,
    RandomLaw,
    abs_max,
    draw_array,
    draw_blocks,
    gaussian,
    law_string,
)
from .util import canonical_json, write_csv
from .wavelets import MotherWaveletTable, pyramid_synthesis

# Stream tag for the Gaussian mode draws of the Brownian sine expansion.
FOURIER_MODE_STREAM = "fourier-mode"

_PROVENANCE_KEYS = ("field", "law", "seed", "truncation")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Grid samples values[m] ~ f(m 2^-resolution) with their provenance.

    Provenance names the generating field (content digest or series name),
    the law actually applied ("deterministic" when none), the seed, and the
    truncation index: enough to regenerate the path bit for bit.
    """

    resolution: int
    values: np.ndarray = field(repr=False)
    provenance: dict

    def __post_init__(self):
        if self.resolution < 0:
            raise InvalidParameterError(f"resolution must be nonnegative, got {self.resolution}")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (2**self.resolution,):
            raise InvalidParameterError(
                f"expected 2^{self.resolution} samples, got array of shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("sample path contains non-finite values")
        missing = [key for key in _PROVENANCE_KEYS if key not in self.provenance]
        if missing:
            raise InvalidParameterError(f"provenance is missing {missing}")

    def grid_x(self) -> np.ndarray:
        return np.arange(self.values.size) * 2.0**-self.resolution


def _check_resolutions(field_: CoefficientField, table: MotherWaveletTable,
                       j_trunc: int, resolution: int) -> None:
    if not 0 <= j_trunc <= field_.j_max:
        raise InvalidParameterError(
            f"truncation scale {j_trunc} outside 0..{field_.j_max}"
        )
    if j_trunc > resolution - 4:
        raise InvalidParameterError(
            f"resolution {resolution} too coarse for truncation {j_trunc} "
            f"(needs at least {j_trunc + 4})"
        )
    if resolution > table.r_psi:
        raise InvalidParameterError(
            f"resolution {resolution} exceeds the table depth {table.r_psi}"
        )


def synthesize(field_: CoefficientField, table: MotherWaveletTable,
               j_trunc: int, resolution: int) -> SamplePath:
    """Evaluate coarse + sum_{j <= j_trunc} sum_k c_{j,k} psi_{j,k} on the grid."""
    _check_resolutions(field_, table, j_trunc, resolution)
    values = pyramid_synthesis(field_.coarse, field_.levels[: j_trunc + 1], table, resolution)
    provenance = {
        "field": field_digest(field_),
        "law": "deterministic",
        "seed": None,
        "truncation": int(j_trunc),
    }
    return SamplePath(resolution, values, provenance)


def randomized_field(field_: CoefficientField, law: RandomLaw, seed: int) -> CoefficientField:
    """Every coefficient multiplied by its matching coef-stream draw."""
    levels = [
        lv * draw_array(law, seed, COEFFICIENT_STREAM, j, np.arange(lv.size))
        for j, lv in enumerate(field_.levels)
    ]
    return CoefficientField(field_.j_max, field_.coarse, levels)


def randomized_envelope(field_: CoefficientField, law: RandomLaw, seed: int) -> ScaleEnvelope:
    """``scale_envelope(randomized_field(field_, law, seed))``, bit for bit,
    without materializing a randomized level.

    A constant level c gives |c| * max_k |chi_{j,k}|: rounding |c| |chi| is
    monotone in |chi|, so the max commutes with the product.  Other levels
    are multiplied and reduced block by block.  Non-finite products are
    rejected by ``ScaleEnvelope``, as ``randomized_field`` rejects them.
    """
    values = []
    for j, lv in enumerate(field_.levels):
        lo, hi = lv.min(), lv.max()
        if lo == hi:
            m = abs(float(lo)) * abs_max(law, seed, COEFFICIENT_STREAM, j, 0, lv.size)
        else:
            m = float(np.max([
                np.max(np.abs(lv[k : k + chi.size] * chi))
                for k, chi in draw_blocks(law, seed, COEFFICIENT_STREAM, j, 0, lv.size)]))
        values.append(m)
    return ScaleEnvelope(values=np.array(values), rate=None)


def randomized_synthesize(field_: CoefficientField, table: MotherWaveletTable,
                          law: RandomLaw, seed: int,
                          j_trunc: int, resolution: int) -> SamplePath:
    """Synthesis of the field with coefficients multiplied by law draws.

    The provenance records the digest of the deterministic input field, so
    (field, law, seed, truncation) identifies the output exactly.
    """
    _check_resolutions(field_, table, j_trunc, resolution)
    base_id = field_digest(field_)
    kept = CoefficientField(j_trunc, field_.coarse, field_.levels[: j_trunc + 1])
    path = synthesize(randomized_field(kept, law, seed), table, j_trunc, resolution)
    provenance = {
        "field": base_id,
        "law": law_string(law),
        "seed": int(seed),
        "truncation": int(j_trunc),
    }
    return SamplePath(resolution, path.values, provenance)


# -------------------------------------------------------------- Fourier side

def _sine_grid(amps, resolution: int) -> np.ndarray:
    """sum_{m >= 1} amps[m-1] sin(2 pi m i/N) at i = 0..N-1, N = 2^resolution.

    -Im of the real FFT gives i <= N/2, odd symmetry the rest; the samples
    at i = 0 and N/2, zeros of every mode, stay exactly +0.0.
    """
    n = 2**resolution
    out = np.zeros(n)
    modes = np.arange(1, len(amps) + 1) % n
    half = -np.fft.rfft(np.bincount(modes, weights=amps, minlength=n)).imag
    out[1 : n // 2] = half[1 : n // 2]
    out[n // 2 + 1 :] = -half[n // 2 - 1 : 0 : -1]
    return out


def fourier_sawtooth(m_terms: int, resolution: int) -> SamplePath:
    """Partial sum -sum_{m <= M} sin(2 pi m x)/(pi m) of the sawtooth."""
    if m_terms < 1:
        raise InvalidParameterError(f"need at least one mode, got {m_terms}")
    if resolution < 0:
        raise InvalidParameterError(f"resolution must be nonnegative, got {resolution}")
    values = _sine_grid(-1.0 / (math.pi * np.arange(1, m_terms + 1)), resolution)
    provenance = {
        "field": "fourier-sawtooth",
        "law": "deterministic",
        "seed": None,
        "truncation": int(m_terms),
    }
    return SamplePath(resolution, values, provenance)


def wiener_brownian(m_terms: int, resolution: int, seed: int) -> SamplePath:
    """Truncated sine expansion of Brownian motion.

    sqrt(2) chi_0 x plus M sine modes chi_m sin(2 pi m x)/(pi m) with
    standard Gaussian draws from the fourier-mode stream; zero modes leave
    just the random linear term.  The path starts at 0 by construction.
    """
    if m_terms < 0:
        raise InvalidParameterError(f"mode count must be nonnegative, got {m_terms}")
    if resolution < 0:
        raise InvalidParameterError(f"resolution must be nonnegative, got {resolution}")
    xs = np.arange(2**resolution) * 2.0**-resolution
    chi = draw_array(gaussian(), seed, FOURIER_MODE_STREAM, 0, np.arange(m_terms + 1))
    modes = chi[1:] / (math.pi * np.arange(1, m_terms + 1))
    values = (math.sqrt(2.0) * chi[0]) * xs + _sine_grid(modes, resolution)
    provenance = {
        "field": "wiener-brownian",
        "law": "gaussian",
        "seed": int(seed),
        "truncation": int(m_terms),
    }
    return SamplePath(resolution, values, provenance)


@dataclass(frozen=True, eq=False)
class BlockEnergySummary:
    """Dyadic-block l2 norms with the smoothing-condition bookkeeping."""

    values: np.ndarray
    decreasing: bool
    l1_partial_sum: float


def dyadic_block_energies(coeffs) -> BlockEnergySummary:
    """Block norms s_j over the modes 2^j <= |n| < 2^{j+1}.

    ``coeffs`` is a centered Fourier coefficient array of odd length 2N+1
    (mode n at index N+n, complex entries welcome).  Blocks the array only
    partially covers are summed over what is present, so the l1 figure is a
    partial sum by construction.
    """
    a = np.asarray(coeffs)
    if a.ndim != 1 or a.size % 2 == 0:
        raise InvalidParameterError(
            f"need an odd-length centered coefficient array, got shape {a.shape}"
        )
    n_top = a.size // 2
    energy = np.abs(a).astype(float) ** 2
    folded = energy[n_top + 1 :] + energy[n_top - 1 :: -1]
    out = []
    j = 0
    while 2**j <= n_top:
        block = folded[2**j - 1 : min(2 ** (j + 1) - 1, n_top)]
        out.append(math.sqrt(float(np.sum(block))))
        j += 1
    values = np.asarray(out)
    decreasing = bool(np.all(np.diff(values) <= 0.0)) if values.size else True
    return BlockEnergySummary(
        values=values,
        decreasing=decreasing,
        l1_partial_sum=float(np.sum(values)),
    )


# ------------------------------------------------------------------ export

def export_path_csv(path_: SamplePath, destination, comment: str | None = None) -> None:
    """Write (x, value) rows at 12 digits plus a provenance sidecar JSON."""
    write_csv(destination, [("x", path_.grid_x()), ("value", path_.values)],
              digits=12, comment=comment)
    base, _ = os.path.splitext(str(destination))
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(canonical_json({"resolution": path_.resolution,
                                 "provenance": path_.provenance}))
        fh.write("\n")
