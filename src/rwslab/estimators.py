"""Sample-path diagnostics: analysis, sup profiles, slope and modulus fits.

The analysis side is the exact inverse of synthesis: it reads the path at
the points k 2^-(J+1) of the finest analysed level and returns the field
whose synthesis takes those values.  A round trip is therefore exact to
rounding for every filter, and any other path is interpolated at those
points.

Sup profiles are the one route from a field to its sups: one pass of the
synthesis filter bank is evaluated at each truncation, so every recorded
sup matches a separately synthesized path bit for bit, and a non-finite
path is rejected as a synthesized one is.  Haar profiles build no path:
the box repeats each level-(J+1) value over its cell, so a cell's sup
comes from the extremes of those values over it.

Almost-sure divergence or boundedness is never decided here: the profiles
and fits report observed statistics against the rates that the symbolic
criteria predict, and the caller reads them side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .fields import CoefficientField, ScaleEnvelope
from .synthesis import SamplePath
from .util import slope, sup_abs, write_csv
from .wavelets import (MotherWaveletTable, check_grid, is_box, pyramid_analysis,
                       pyramid_evaluate, pyramid_lifts)

# ---------------------------------------------------------------- analysis

def analysis_field(path_: SamplePath, table: MotherWaveletTable,
                   j_hi: int) -> CoefficientField:
    """The field of scales 0..j_hi whose synthesis takes the path's values
    at the points k 2^-(j_hi + 1): the field itself for a synthesized path,
    an interpolation of any other."""
    _check_whole(path_)
    check_grid(table, j_hi, path_.resolution)
    return CoefficientField(j_hi, *pyramid_analysis(path_.values, table, j_hi))


def _check_whole(path_: SamplePath) -> None:
    if path_.window is not None:
        raise InvalidParameterError(f"needs a path on the whole grid, got window {path_.window}")


# ------------------------------------------------------------- sup profile

@dataclass(frozen=True, eq=False)
class SupGrowthProfile:
    """Observed partial-sum sups at each truncation, globally and per cell.

    ``local_sups[i][q]`` is the sup of |path| over the q-th dyadic cell at
    the profile depth when the series is cut at ``truncations[i]``.  Sups
    are recorded as observed; nothing forces them to grow with the
    truncation, signed series do drop back down.
    """

    truncations: tuple[int, ...]
    global_sups: np.ndarray
    local_sups: np.ndarray


def sup_growth(field_: CoefficientField, table: MotherWaveletTable,
               truncations, depth: int) -> SupGrowthProfile:
    """Sup profile of the series on the table grid; a randomized series is
    profiled by passing ``randomized_field(...)``.

    Truncations are deduplicated and sorted.  One pass of ``pyramid_lifts``
    runs up to the highest truncation, and each truncation's lift is
    evaluated as it passes, by the same operations in the same order as
    synthesize(..., J, R), so the two agree exactly.  For the box,
    coarse + a[k] repeats over each level-(J+1) cell, so the cell sups come
    from a with no path built.  A non-finite path is rejected as
    ``SamplePath`` rejects it.
    """
    cuts = sorted({int(t) for t in truncations})
    if not cuts:
        raise InvalidParameterError("at least one truncation scale is required")
    if cuts[0] < 0 or cuts[-1] > field_.j_max:
        raise InvalidParameterError(
            f"truncations must lie in 0..{field_.j_max}, got {cuts}")
    check_grid(table, cuts[-1], table.r_psi)
    if not 0 <= depth <= table.r_psi:
        raise InvalidParameterError(f"cell depth must lie in 0..{table.r_psi}")

    box = is_box(table.filter)
    local_sups = np.vstack([
        _cell_sups(a, 2**depth, field_.coarse) if box else
        _cell_sups(pyramid_evaluate(field_.coarse, a, table, table.r_psi), 2**depth)
        for j, a in enumerate(pyramid_lifts(field_.levels[: cuts[-1] + 1], table)) if j in cuts])
    global_sups = local_sups.max(axis=1)
    if not np.all(np.isfinite(global_sups)):
        raise InvalidParameterError("sample path contains non-finite values")
    return SupGrowthProfile(truncations=tuple(cuts), global_sups=global_sups,
                            local_sups=local_sups)


def _cell_sups(values: np.ndarray, cells: int, shift: float = 0.0) -> np.ndarray:
    """max |shift + values| over each of ``cells`` equal cells, repeated where
    cells are finer than values, from the extremes over each: rounding is
    monotone, so fl(shift + max) is the max of fl(shift + v), inf and nan
    included, and no |values| or shifted array is made."""
    rows = values.reshape(min(cells, values.size), -1)
    sups = np.abs(np.maximum(shift + rows.max(axis=1), -(shift + rows.min(axis=1))))
    return np.repeat(sups, cells // sups.size)


# -------------------------------------------------------------- slope fits

def hmin_estimate(env: ScaleEnvelope, j_lo: int, j_hi: int) -> float:
    """Lower uniform regularity exponent read off the envelope decay.

    Minus the closed-form least-squares slope of log2 omega_j against j
    over [j_lo, j_hi]; the span must cover at least four scale steps for
    the slope to mean anything, and every omega_j in it must be positive.
    """
    if j_lo < 0 or j_hi > env.j_max:
        raise InvalidParameterError(f"bad fit range [{j_lo}, {j_hi}] for j_max {env.j_max}")
    if j_hi - j_lo < 4:
        raise InsufficientDataError("slope fit needs a scale span of at least 4")
    omegas = env.values[j_lo : j_hi + 1]
    if not np.all(omegas > 0.0):
        raise InsufficientDataError(f"the envelope vanishes at some scale in [{j_lo}, {j_hi}]")
    return -slope(np.arange(j_lo, j_hi + 1, dtype=float), np.log2(omegas))


# ------------------------------------------------------------ modulus fits

@dataclass(frozen=True)
class PowerLogModulus:
    """theta(h) = h^alpha * |log h|^(1/gamma); gamma None drops the log."""

    alpha: float
    gamma: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise InvalidParameterError("modulus exponent must be finite and nonnegative")
        if self.gamma is not None and (self.gamma == 0.0 or not math.isfinite(self.gamma)):
            raise InvalidParameterError("log power 1/gamma needs nonzero finite gamma")

    def value(self, h: float) -> float:
        if not 0.0 < h < 1.0:
            raise InvalidParameterError("modulus arguments live in (0, 1)")
        out = h**self.alpha
        if self.gamma is not None:
            try:
                out *= abs(math.log(h)) ** (1.0 / self.gamma)
            except OverflowError:
                raise InvalidParameterError(
                    f"|log h|^(1/gamma) overflows a float for h {h} and gamma {self.gamma}"
                ) from None
        return out


@dataclass(frozen=True, eq=False)
class ModulusFit:
    """Sup increments at dyadic lags against a trial modulus."""

    lags_m: tuple[int, ...]
    lags: np.ndarray
    sup_increments: np.ndarray
    theta_values: np.ndarray
    ratios: np.ndarray


def modulus_ratio(path_: SamplePath, theta: PowerLogModulus,
                  m_lo: int, m_hi: int) -> ModulusFit:
    """Sup_x |path(x + h) - path(x)| / theta(h) at lags h = 2^-m.

    The sup runs over every grid point with the lag wrapped around the
    torus, which makes the increments invariant under circular shifts of
    the path.  Lags coarser than 1/4 or at the last grid step carry no
    information, hence the 2 <= m_lo < m_hi <= R - 1 window.
    """
    if not isinstance(theta, PowerLogModulus):
        raise InvalidParameterError("trial modulus must be a PowerLogModulus")
    _check_whole(path_)
    if not 2 <= m_lo < m_hi <= path_.resolution - 1:
        raise InvalidParameterError(
            f"lag exponents must satisfy 2 <= m_lo < m_hi <= "
            f"{path_.resolution - 1}, got ({m_lo}, {m_hi})")
    ms = tuple(range(m_lo, m_hi + 1))
    v = path_.values
    sups = np.asarray([_wrapped_increment_sup(v, 2 ** (path_.resolution - m)) for m in ms])
    lags = 2.0 ** -np.asarray(ms, dtype=float)
    thetas = np.asarray([theta.value(h) for h in lags])
    return ModulusFit(lags_m=ms, lags=lags, sup_increments=sups,
                      theta_values=thetas, ratios=sups / thetas)


def _wrapped_increment_sup(v: np.ndarray, s: int) -> float:
    """max_i |v[(i + s) mod n] - v[i]|, from the two unwrapped slice differences."""
    return max(sup_abs(v[s:] - v[:-s]), sup_abs(v[:s] - v[-s:]))


# ------------------------------------------------------------------ export

def export_profile_csv(profile: SupGrowthProfile, destination,
                       comment: str | None = None) -> None:
    """Long-format rows (J, global_sup, interval_id, local_sup)."""
    cells = profile.local_sups.shape[1]
    write_csv(destination, [
        ("J", np.repeat(np.asarray(profile.truncations), cells)),
        ("global_sup", np.repeat(profile.global_sups, cells)),
        ("interval_id", np.tile(np.arange(cells), len(profile.truncations))),
        ("local_sup", profile.local_sups.ravel()),
    ], digits=12, comment=comment)
