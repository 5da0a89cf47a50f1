"""Partial-sum evaluation on dyadic grids, plus the Fourier-side comparisons.

Wavelet synthesis runs the inverse periodized filter bank (the Mallat
pyramid) from scale 0 up to J+1, one polyphase slice-add per tap (for Haar
a sum and a difference), and evaluates the resulting scaling coefficients
against the tabulated phi in matrix products over row blocks; for Haar,
whose phi is 1 on its cell, the evaluation is a repeat of each coefficient
plus the coarse value.  ``estimators.sup_growth`` takes the sups of a
synthesized field, for Haar from those coefficients alone.  A window of the
grid evaluates only the cells that cover it.  R <= r_psi keeps every table
lookup on a grid point.  The summation order is fixed, so the
floating-point result is a pure function of the field and the grid.

The Fourier side (sawtooth partial sums, the sine expansion of Brownian
motion) folds mode m onto m mod 2^R, which is exact on the grid, and
evaluates the folded sum with one real FFT: O(M + R 2^R), not O(M 2^R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .fields import CoefficientField, ScaleEnvelope
from .laws import (
    COEFFICIENT_STREAM,
    RandomLaw,
    abs_max,
    draw_array,
    gaussian,
)
from .util import write_csv
from .wavelets import (MotherWaveletTable, check_grid, is_box, pyramid_evaluate,
                       pyramid_lifts, pyramid_synthesis)

# Stream tag for the Gaussian mode draws of the Brownian sine expansion.
FOURIER_MODE_STREAM = "fourier-mode"


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Grid samples values[m] ~ f((lo + m) 2^-resolution): the whole grid
    (lo = 0), or with ``window`` = (lo, hi) its points lo..hi-1 only."""

    resolution: int
    values: np.ndarray = field(repr=False)
    window: tuple[int, int] | None = None

    def __post_init__(self):
        if self.resolution < 0:
            raise InvalidParameterError(f"resolution must be nonnegative, got {self.resolution}")
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        lo, hi = _window_bounds(self.window, self.resolution)
        if v.shape != (hi - lo,):
            want = f"2^{self.resolution}" if self.window is None else hi - lo
            raise InvalidParameterError(f"expected {want} samples, got array of shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("sample path contains non-finite values")

    def grid_x(self) -> np.ndarray:
        lo, _ = _window_bounds(self.window, self.resolution)
        return np.arange(lo, lo + self.values.size) * 2.0**-self.resolution


def _window_bounds(window, resolution: int) -> tuple[int, int]:
    """(lo, hi) of a window of the 2^resolution-point grid; the whole grid for None."""
    if window is None:
        return 0, 2**resolution
    lo, hi = window
    if not 0 <= lo < hi <= 2**resolution:
        raise InvalidParameterError(
            f"window [{lo}, {hi}) needs 0 <= lo < hi <= 2^{resolution}")
    return lo, hi


def _kept_levels(field_: CoefficientField, table: MotherWaveletTable,
                 j_trunc: int, resolution: int) -> list[np.ndarray]:
    """Levels 0..j_trunc of the field, once the truncation and the grid pass their checks."""
    if not 0 <= j_trunc <= field_.j_max:
        raise InvalidParameterError(f"truncation scale {j_trunc} outside 0..{field_.j_max}")
    check_grid(table, j_trunc, resolution)
    return field_.levels[: j_trunc + 1]


def synthesize(field_: CoefficientField, table: MotherWaveletTable,
               j_trunc: int, resolution: int, window=None) -> SamplePath:
    """Evaluate coarse + sum_{j <= j_trunc} sum_k c_{j,k} psi_{j,k} on the grid,
    or with ``window`` = (lo, hi) at its points lo..hi-1 only.

    A window evaluates just the level-(J+1) cells that cover it, each value
    bit for bit that of the whole grid, and is returned only when the whole
    path is finite, as the whole grid would be.
    """
    levels = _kept_levels(field_, table, j_trunc, resolution)
    if window is None:
        return SamplePath(resolution, pyramid_synthesis(field_.coarse, levels, table, resolution))
    lo, hi = _window_bounds(window, resolution)
    for a in pyramid_lifts(levels, table):
        pass
    if not _path_finite(field_.coarse, a, table, resolution):
        raise InvalidParameterError("sample path contains non-finite values")
    return SamplePath(resolution, pyramid_evaluate(field_.coarse, a, table, resolution, lo, hi),
                      (lo, hi))


def _path_finite(coarse: float, a: np.ndarray, table: MotherWaveletTable,
                 resolution: int) -> bool:
    """Whether coarse + sum_k a[k] phi_{J+1,k} is finite on the whole grid.

    The box path's extremes are coarse + max a and coarse + min a, as
    rounding is monotone.  Otherwise a non-finite coefficient leaves
    non-finite entries in a, and finite ones can overflow the path only when
    |coarse| + max |a| max |phi| times the support length nears the float
    range, the one case where the whole grid is evaluated to check.
    """
    if is_box(table.filter):
        return math.isfinite(coarse + a.max()) and math.isfinite(coarse + a.min())
    if not (math.isfinite(coarse) and np.all(np.isfinite(a))):
        return False
    phi = table.phi_level(resolution + 1 - a.size.bit_length())  # at the grid step
    bound = abs(coarse) + float(np.abs(a).max()) * float(np.abs(phi).max()) * table.support_length
    return bound < 2.0**1000 or bool(
        np.all(np.isfinite(pyramid_evaluate(coarse, a, table, resolution))))


def randomized_field(field_: CoefficientField, law: RandomLaw, seed: int) -> CoefficientField:
    """Every coefficient multiplied by its matching coef-stream draw."""
    levels = [
        lv * draw_array(law, seed, COEFFICIENT_STREAM, j, np.arange(lv.size))
        for j, lv in enumerate(field_.levels)
    ]
    return CoefficientField(field_.j_max, field_.coarse, levels)


def randomized_envelope(env: ScaleEnvelope, law: RandomLaw, seed: int) -> ScaleEnvelope:
    """omega_j * max_k |chi_{j,k}|: the envelope of the randomized field with
    |c_{j,k}| = omega_j, from the coef-stream draws alone.

    For a field f of constant magnitude per level this is
    ``scale_envelope(randomized_field(f, law, seed))`` with env =
    ``scale_envelope(f)``, bit for bit: rounding omega |chi| is monotone in
    |chi| and a sign flip is exact.  Non-finite products are rejected by
    ``ScaleEnvelope``, as ``randomized_field`` rejects them.
    """
    values = [float(w) * abs_max(law, seed, COEFFICIENT_STREAM, j, 0, 2**j)
              for j, w in enumerate(env.values)]
    return ScaleEnvelope(values=np.array(values))


def randomized_synthesize(field_: CoefficientField, table: MotherWaveletTable,
                          law: RandomLaw, seed: int,
                          j_trunc: int, resolution: int) -> SamplePath:
    """Synthesis of the field with coefficients multiplied by law draws."""
    kept = CoefficientField(j_trunc, field_.coarse,
                            _kept_levels(field_, table, j_trunc, resolution))
    return synthesize(randomized_field(kept, law, seed), table, j_trunc, resolution)


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
    return SamplePath(resolution, values)


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
    return SamplePath(resolution, values)


# ------------------------------------------------------------------ export

def export_path_csv(path_: SamplePath, destination, comment: str | None = None) -> None:
    """Write (x, value) rows at 12 digits."""
    write_csv(destination, [("x", path_.grid_x()), ("value", path_.values)],
              digits=12, comment=comment)
