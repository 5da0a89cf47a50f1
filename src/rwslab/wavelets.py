"""Periodized orthonormal wavelet machinery on the unit torus.

The basis here is deliberately not L^2-normalized.  With

    psi_{j,k}(x) = sum_l Psi(2^j (x - l) - k),

every dilate keeps the same height, so coefficient magnitudes compare
directly with function values; the matching analysis integral carries the
2^j weight instead: c_{j,k} = 2^j * integral_0^1 f psi_{j,k} dx.

Mother scaling functions and wavelets are tabulated on dyadic grids up to
2^{-r_psi} by exact two-scale refinement: values at the integers come from
the unit eigenvector of the downsampled filter matrix, and each refinement
level fills in the odd dyadics from the previous level's odd dyadics alone
(past the first level every shift k 2^r is even), in cache-sized blocks
that keep the rounding of one whole-array pass per tap.  Refinement keeps
the coarse values exactly, so phi at level l is the every-2^(r_psi - l)-th
sample of the full table, and a table refines phi only as deep as
something reads it: the pyramid reads the level of its grid cell, psi is
refined from level r_psi - 1 on first read, and ``sup_norm`` and the
positivity interval come from psi on first read.  The unit box (Haar) has
closed forms instead, and its sup and positivity interval come from psi at
level ``INTERVAL_GRANULARITY``, one sample per search bin, so reading
them builds no table-sized psi.  For a valid orthonormal filter the
refinement reproduces the coarse values identically, which is monitored
(not assumed) by an eager full-depth probe: corrupted taps make
the reproduction error grow with depth and raise a numerical failure
instead of returning a quietly wrong table.  The probe holds at most one
and a half levels at a time: it diffs each level in place of the level
before, and its last level, read only at the even points, is streamed in
blocks from the even points of the level before and never stored.

Grid synthesis and analysis share one periodized filter-bank pair (the
Mallat pyramid) over the tabulated phi; ``periodized_grid`` samples one
periodized wavelet straight from the psi table, an independent check on
the filter bank.  The pair reads each circular window as a strided view of
a cyclically extended level and runs its matrix products in row blocks
small enough that BLAS keeps them on the calling thread.  BLAS threads a
whole-level product, and after each threaded call its idle thread spins on
the other core for about 0.1 s; some threaded shapes also stall for
milliseconds where row blocks take a fraction of one.  Haar synthesis makes
no product at all: phi is 1 on the whole cell, so each scaling coefficient
plus the coarse value is repeated over its cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .daubechies import DAUBECHIES_TAPS
from .errors import InvalidParameterError, NumericalFailureError
from .util import sup_abs

SQRT2 = math.sqrt(2.0)

# Finest granularity (as a dyadic level) for the positivity interval
# search, and the widest dyadic width considered.
INTERVAL_GRANULARITY = 6
_WIDEST_LEVEL = -4

# Refinement reproduction error below this floor counts as converged.
_CONVERGENCE_FLOOR = 1e-12

_BLOCK = 2**15  # output block of the two-scale sum: 256 KiB stay in L2
# Blocks of the pyramid's products, measured under OpenBLAS's threading cutoffs:
_GEMM_CELLS = 2**18  # multiply-adds m*n*k of one matrix-matrix block
_GEMV_ROWS = 256  # rows of one matrix-vector block


@dataclass(frozen=True)
class ScalingFilter:
    """Orthonormal low-pass filter with its vanishing-moment count."""

    family: str
    vanishing_moments: int
    taps: tuple[float, ...]

    @property
    def support_length(self) -> int:
        """Length of the scaling-function support [0, 2N-1]."""
        return 2 * self.vanishing_moments - 1

    def highpass_taps(self) -> tuple[float, ...]:
        """Quadrature-mirror high-pass taps g_i = (-1)^i h_{2N-1-i}."""
        n = len(self.taps)
        return tuple((-1.0) ** i * self.taps[n - 1 - i] for i in range(n))


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval [index * 2^-level, (index+1) * 2^-level)."""

    index: int
    level: int


@dataclass(frozen=True, eq=False)
class MotherWaveletTable:
    """Scaling function and mother wavelet tabulated at step 2^-r_psi.

    ``cascade_evaluate`` fills in ``refinement_diffs`` and phi at the
    integers; finer phi levels, psi, ``sup_norm`` and the positivity
    interval are computed on first read and kept.  For the box, ``sup_norm``
    and the positivity interval are read off psi at level ``INTERVAL_GRANULARITY``,
    so they leave psi itself unbuilt.
    """

    filter: ScalingFilter
    r_psi: int
    refinement_diffs: tuple[float, ...] = field(repr=False)
    _deepest: np.ndarray = field(repr=False)  # phi at the deepest level refined so far

    @property
    def support_length(self) -> int:
        return self.filter.support_length

    @property
    def grid_step(self) -> float:
        return 2.0 ** -self.r_psi

    def phi_level(self, level: int) -> np.ndarray:
        """phi at every point of step 2^-level over [0, support], 0 <= level <= r_psi.

        A strided view of the deepest level refined so far, refined deeper
        first if that level is coarser.
        """
        if not 0 <= level <= self.r_psi:
            raise InvalidParameterError(f"phi levels run from 0 to r_psi = {self.r_psi}, got {level}")
        depth = ((self._deepest.size - 1) // self.support_length).bit_length() - 1
        if level > depth:
            if _is_box(self.filter):
                deeper = _box_phi(self.support_length * 2**level)
            else:
                deeper = _refine_phi(self._deepest, np.asarray(self.filter.taps), depth, level)
            object.__setattr__(self, "_deepest", deeper)
            depth = level
        return self._deepest[:: 2 ** (depth - level)]

    @property
    def phi(self) -> np.ndarray:
        return self.phi_level(self.r_psi)

    @cached_property
    def psi(self) -> np.ndarray:
        if _is_box(self.filter):
            return _box_psi(2**self.r_psi)
        # psi(x) = sum_k sqrt(2) g_k phi(2x - k): one more two-scale sum
        r = self.r_psi - 1
        return _refine(self.phi_level(r), np.asarray(self.filter.highpass_taps()), r)

    @property
    def _search_psi(self) -> tuple[np.ndarray, int]:
        """psi and its level for ``sup_norm`` and the positivity interval.

        The box is constant on every search bin, so its level
        ``INTERVAL_GRANULARITY`` (one sample a bin) gives what the full
        table gives; other filters search the full table.
        """
        if _is_box(self.filter):
            return _box_psi(2**INTERVAL_GRANULARITY), INTERVAL_GRANULARITY
        return self.psi, self.r_psi

    @cached_property
    def sup_norm(self) -> float:
        return sup_abs(self._search_psi[0])

    @cached_property
    def _positivity(self) -> tuple[DyadicInterval, float]:
        interval, floor = _positivity_search(*self._search_psi, self.support_length)
        if interval is None:
            raise NumericalFailureError(
                "no dyadic interval at the search granularity has a positive wavelet"
            )
        return interval, floor

    # psi's best positive dyadic interval and its floor, one search on first read
    positivity_interval = property(lambda self: self._positivity[0])
    positivity_floor = property(lambda self: self._positivity[1])


def build_filter(family: str, vanishing_moments: int) -> ScalingFilter:
    """Return the orthonormal filter for the requested family.

    ``haar`` is the one-vanishing-moment filter; requesting ``haar`` with any
    other moment count is rejected rather than silently reinterpreted.
    """
    if family not in ("haar", "daubechies"):
        raise InvalidParameterError(
            f"unknown filter family {family!r}; expected 'haar' or 'daubechies'"
        )
    n = vanishing_moments
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 20:
        raise InvalidParameterError(
            f"vanishing moments must be an integer in 1..20, got {n!r}"
        )
    if family == "haar" and n != 1:
        raise InvalidParameterError("the haar filter has exactly 1 vanishing moment")
    return ScalingFilter(family=family, vanishing_moments=int(n), taps=DAUBECHIES_TAPS[n])


def cascade_evaluate(filt: ScalingFilter, r_psi: int) -> MotherWaveletTable:
    """A table of phi and psi on the grid of step 2^-r_psi over [0, 2N-1].

    Eager: the argument checks, phi at the integers (a numerical failure
    if the refinement matrix has no usable unit eigenvector) and the
    full-depth convergence probe behind ``refinement_diffs``, which raises
    a numerical failure if the refinement reproduction error grows over
    the last three levels instead of staying at rounding level.  The probe
    holds at most level r_psi - 1 and the level before it: the last level
    is read only at its even points, which it streams in blocks.  Refined
    on first read: phi at each level, psi, ``sup_norm`` and the positivity
    interval; the first read of ``positivity_interval`` or
    ``positivity_floor`` raises a numerical failure if psi is positive on
    no dyadic interval.
    """
    if not isinstance(r_psi, (int, np.integer)) or r_psi < INTERVAL_GRANULARITY:
        raise InvalidParameterError(
            f"refinement depth must be an integer >= {INTERVAL_GRANULARITY}, got {r_psi!r}")
    r_psi = int(r_psi)
    taps = np.asarray(filt.taps)
    length = filt.support_length

    if _is_box(filt):
        # Unit box: closed forms, exact on every grid point (the generic
        # refinement would smear sqrt(2)*h rounding across levels).
        diffs = [0.0] * r_psi
    else:
        # Convergence diagnostic: iterate the two-scale operator from a box
        # start and watch the common-grid sup-differences between successive
        # levels.  The table's phi starts from the exact integer eigenvector
        # instead, which is self-consistent by construction and therefore
        # blind to bad taps; the box iteration is not.
        diffs = []
        probe = np.zeros(length + 1)
        probe[0] = 1.0
        for r in range(r_psi - 1):
            nxt = _refine(probe, taps, r)
            np.subtract(nxt[::2], probe, out=probe)  # the old level is dropped next
            diffs.append(float(np.max(np.abs(probe, out=probe))))
            probe = nxt
        diffs.append(_even_diff_max(probe, taps, r_psi - 1))
        if diffs[-1] > _CONVERGENCE_FLOOR and diffs[-1] >= diffs[-2] >= diffs[-3]:
            raise NumericalFailureError(
                "two-scale refinement is not converging: common-grid differences were "
                f"{diffs[-3]:.3e}, {diffs[-2]:.3e}, {diffs[-1]:.3e} over the last three levels"
            )
    return MotherWaveletTable(filter=filt, r_psi=r_psi, refinement_diffs=tuple(diffs),
                              _deepest=_integer_values(taps, length))


def periodized_grid(table: MotherWaveletTable, j: int, resolution: int) -> np.ndarray:
    """psi_{j,0} periodized, sampled at every grid point m 2^-resolution.

    Lookups are exact slices of the table when resolution <= r_psi + j and
    rounded to the nearest table point otherwise.
    """
    if j < 0 or resolution < 0:
        raise InvalidParameterError("scale and resolution must be nonnegative")
    size = 2**resolution
    length = table.support_length
    out = np.zeros(size)
    shift = table.r_psi + j - resolution
    wraps = range(0, length // 2**j + 1)
    for w in wraps:
        # Sample Psi(m 2^{j-resolution} + w 2^j) over the live index range.
        base = w * 2 ** (table.r_psi + j)
        if shift >= 0:
            step = 2**shift
            last = length * 2**table.r_psi - base
            if last < 0:
                continue
            m_hi = min(size - 1, last // step)
            out[: m_hi + 1] += table.psi[base : base + m_hi * step + 1 : step]
        else:
            idx = np.rint(np.arange(size) * 2.0**shift).astype(np.int64) + base
            mask = idx <= length * 2**table.r_psi
            out[mask] += table.psi[idx[mask]]
    return out


def check_grid(table: MotherWaveletTable, j: int, resolution: int) -> None:
    """Reject scales 0..j on the grid of step 2^-resolution unless
    0 <= j and j + 4 <= resolution <= r_psi.

    The four spare levels keep the quadrature leakage of analysis at the
    percent scale, and resolution <= r_psi keeps every phi lookup on a table
    point.  Synthesis uses the same rule, so what it writes analysis can read.
    """
    if not 0 <= j <= resolution - 4 or resolution > table.r_psi:
        raise InvalidParameterError(
            f"scales 0..{j} on a grid of 2^{resolution} points need "
            f"0 <= J and J + 4 <= R <= r_psi = {table.r_psi}")


def pyramid_synthesis(coarse: float, levels, table: MotherWaveletTable,
                      resolution: int) -> np.ndarray:
    """coarse + sum_j sum_k levels[j][k] psi_{j,k} at every grid point m 2^-resolution.

    The inverse periodized filter bank lifts the scales to scaling
    coefficients at level J+1 = len(levels), which are then evaluated
    against the tabulated phi: row k of the window holds a[k-d mod 2^(J+1)]
    for d over the support.  The evaluation runs in row blocks that BLAS
    keeps on the calling thread, and the coarse value is added in place
    (the sum commutes bit for bit).  The box needs no product: phi is 1 on
    the cell, so coarse + a[k] is repeated over cell k.  Needs
    J + 1 <= resolution <= r_psi.
    """
    p, q = _bank_filters(table.filter)
    a = np.zeros(1)
    for c in levels:
        nxt = np.zeros(2 * a.size)
        evens = 2 * np.arange(a.size)
        for n in range(p.size):
            nxt[(evens + n) % nxt.size] += p[n] * a + q[n] * c
        a = nxt
    cell = 2**resolution // a.size
    if _is_box(table.filter):
        return np.repeat(float(coarse) + a, cell)  # phi is 1 on the whole cell
    phi = _phi_rows(table, cell)
    support = phi.shape[0]
    ext = np.resize(np.roll(a, support - 1), a.size + support - 1)
    window = sliding_window_view(ext, support)[:, ::-1]
    values = _blocked_matmul(window, phi).ravel()
    values += float(coarse)
    return values


def pyramid_analysis(values: np.ndarray, table: MotherWaveletTable,
                     j_hi: int) -> list[np.ndarray]:
    """Grid quadratures 2^(j-R) sum_m values[m] psi_{j,k}(m 2^-R) for j = 0..j_hi.

    The transpose of ``pyramid_synthesis``: one phi-quadrature at level
    j_hi + 1, then the forward filter bank with weights p/2 and q/2 over
    the windows a[2k + n mod 2^(j+1)].  Every product runs in row blocks
    that BLAS keeps on the calling thread.  Needs j_hi + 1 <= R <= r_psi
    for the 2^R samples.
    """
    p, q = _bank_filters(table.filter)
    size = 2 ** (j_hi + 1)
    phi = _phi_rows(table, values.size // size)
    g = _blocked_matmul(values.reshape(size, -1), phi.T) * (size / values.size)
    a = sum(np.roll(g[:, d], -d) for d in range(phi.shape[0]))
    levels = []
    while size > 1:
        size //= 2
        window = sliding_window_view(np.resize(a, a.size + p.size - 1), p.size)[::2]
        levels.append(_blocked_matmul(window, 0.5 * q))
        a = _blocked_matmul(window, 0.5 * p)
    return levels[::-1]


def _blocked_matmul(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat in blocks that BLAS runs on the calling thread.

    A block is a contiguous copy of a power of two rows, at least 4 or all
    of them: pyramid levels are powers of two, so blocks divide them, and
    BLAS takes 1-3 rows down other kernels.  It holds at most
    ``_GEMV_ROWS`` rows when mat is one column, else at most ``_GEMM_CELLS``
    multiply-adds, splitting the columns in powers of two where 4 rows hold
    more.  Every output entry is then the whole-level product's dot product
    wherever the kernel BLAS picks for a block agrees with the one it picks
    for the whole level.  On OpenBLAS 0.3.31 they differ in the last bit
    for analysis cells of 256 samples and more, and for synthesis cells of
    2 or 4 samples at 2^13 rows and more: shapes no experiment or benchmark
    runs.
    """
    m, k = rows.shape
    out = np.empty((m,) + mat.shape[1:])
    mat2, out2 = mat.reshape(k, -1), out.reshape(m, -1)  # a vector as one column
    cols = mat2.shape[1]
    if cols == 1:
        step, width = _GEMV_ROWS, 1
    else:
        step = min(m, max(4, _floor_pow2(_GEMM_CELLS // mat.size)))
        width = cols if step * mat.size <= _GEMM_CELLS else _floor_pow2(_GEMM_CELLS // (step * k))
    for lo in range(0, m, step):
        block = np.ascontiguousarray(rows[lo : lo + step])
        for c in range(0, cols, width):
            np.matmul(block, mat2[:, c : c + width], out=out2[lo : lo + step, c : c + width])
    return out


def _floor_pow2(n: int) -> int:
    """Largest power of two <= n, and 1 for n < 1."""
    return 1 << max(0, n.bit_length() - 1)


def _bank_filters(filt: ScalingFilter) -> tuple[np.ndarray, np.ndarray]:
    """Two-scale weights of the height-normalized basis.

    phi_{j,k} = sum_n p_n phi_{j+1,2k+n} and psi_{j,k} = sum_n q_n phi_{j+1,2k+n}
    with p = 2h / sum(h) (that is sqrt(2) h, but exactly 1 for Haar) and
    q = 2g / sum(h) for the high-pass taps g, so q_n = (-1)^n p_{N-1-n}.
    """
    h = np.asarray(filt.taps)
    return 2.0 * h / h.sum(), 2.0 * np.asarray(filt.highpass_taps()) / h.sum()


def _phi_rows(table: MotherWaveletTable, cell: int) -> np.ndarray:
    """phi(d + r / cell) for d in 0..support-1 (rows) and r in 0..cell-1.

    Reads phi at level log2(cell).  A contiguous copy, made once here
    instead of by matmul for every block.
    """
    rows = table.phi_level(cell.bit_length() - 1)[:-1].reshape(table.support_length, cell)
    return np.ascontiguousarray(rows)


def _is_box(filt: ScalingFilter) -> bool:
    return filt.taps == DAUBECHIES_TAPS[1]


def _box_phi(size: int) -> np.ndarray:
    """The unit box at size + 1 points of [0, 1], right-continuous at both jumps."""
    phi = np.ones(size + 1)
    phi[-1] = 0.0
    return phi


def _box_psi(size: int) -> np.ndarray:
    """The Haar wavelet at size + 1 points of [0, 1]: 1, then -1 from 1/2, 0 at 1."""
    psi = _box_phi(size)
    psi[size // 2 : -1] = -1.0
    return psi


def _integer_values(taps: np.ndarray, length: int) -> np.ndarray:
    """Exact phi values at the integers 0..support, unit-sum normalized."""
    vals = np.zeros(length + 1)
    if length == 1:
        # Unit box: right-continuous convention at the jump.
        vals[0] = 1.0
        return vals
    interior = np.arange(1, length)
    mat = np.zeros((length - 1, length - 1))
    for a, i in enumerate(interior):
        for b, m in enumerate(interior):
            idx = 2 * i - m
            if 0 <= idx < taps.size:
                mat[a, b] = SQRT2 * taps[idx]
    eigvals, eigvecs = np.linalg.eig(mat)
    pick = int(np.argmin(np.abs(eigvals - 1.0)))
    if abs(eigvals[pick] - 1.0) > 1e-8:
        raise NumericalFailureError(
            f"no unit eigenvalue in the refinement matrix (closest {eigvals[pick]:.6g})"
        )
    vec = np.real(eigvecs[:, pick])
    total = vec.sum()
    if abs(total) < 1e-12:
        raise NumericalFailureError("degenerate integer-point eigenvector")
    vals[1:length] = vec / total
    return vals


def _refine(values: np.ndarray, taps: np.ndarray, r: int) -> np.ndarray:
    """out[i] = sum_k sqrt(2) h_k values[i - k 2^r]: level-r grid values to level r+1.

    One ``_BLOCK`` of out at a time, taps in ascending k: the rounding of a pass per tap.
    """
    out = np.zeros(values.size + (taps.size - 1) * 2**r)
    tmp = np.empty(min(_BLOCK, out.size))
    for start in range(0, out.size, _BLOCK):
        _refine_block(values, taps, r, start, out[start : start + _BLOCK], tmp)
    return out


def _refine_block(values: np.ndarray, taps: np.ndarray, r: int, start: int,
                  out: np.ndarray, tmp: np.ndarray) -> None:
    """Add the two-scale sum at the points start .. start + out.size - 1 into out.

    Taps in ascending k, each product formed in tmp (at least out.size long).
    """
    for k, c in enumerate(SQRT2 * taps):
        off = k * 2**r - start
        lo, hi = max(0, off), min(out.size, off + values.size)
        if lo < hi:
            out[lo:hi] += np.multiply(values[lo - off : hi - off], c, out=tmp[: hi - lo])


def _even_diff_max(values: np.ndarray, taps: np.ndarray, r: int) -> float:
    """max |_refine(values, taps, r)[::2] - values| for r >= 1, without the refined level.

    Every shift k 2^r is even, so the even points come from values[::2]
    alone, one ``_BLOCK`` at a time with the rounding of ``_refine``.
    """
    evens = values[::2]
    out = np.empty(min(_BLOCK, values.size))
    tmp = np.empty_like(out)
    maxima = []
    for start in range(0, values.size, _BLOCK):
        block = out[: min(_BLOCK, values.size - start)]
        block.fill(0.0)
        _refine_block(evens, taps, r - 1, start, block, tmp)
        np.subtract(block, values[start : start + block.size], out=block)
        maxima.append(np.max(np.abs(block, out=block)))
    return float(np.max(maxima))  # a NaN in any block propagates


def _refine_phi(phi: np.ndarray, taps: np.ndarray, level: int, target: int) -> np.ndarray:
    """phi at level ``target`` from phi at ``level``, one level at a time.

    Each level keeps the coarse values exactly and fills in the odd points.
    Past r = 0 every shift k 2^r is even, so the odd points of level r+1
    come from the odd points of level r alone; they carry into the next
    level as one contiguous array.
    """
    odd = phi[1::2]
    for r in range(level, target):
        odd = _refine(odd, taps, r - 1) if r else _refine(phi, taps, 0)[1::2]
        nxt = np.empty(2 * phi.size - 1)
        nxt[1::2] = odd
        nxt[::2] = phi  # keep the exact coarse values
        phi = nxt
    return phi


def _positivity_search(psi: np.ndarray, sample_level: int, length: int):
    """``(interval, floor)``: the widest dyadic interval maximizing min psi over it.

    psi is sampled at step 2^-sample_level over [0, length].  The search starts
    from per-bin minima at the search granularity; candidates are
    half-open dyadic intervals no finer than that, and selection is
    lexicographic (largest floor, then widest, then leftmost) so the
    result is reproducible for a given table.  ``(None, 0.0)`` when psi is
    positive on no candidate.
    """
    per_bin = 2 ** (sample_level - INTERVAL_GRANULARITY)
    n_bins = length * 2**INTERVAL_GRANULARITY
    mins = psi[: n_bins * per_bin].reshape(n_bins, per_bin).min(axis=1)
    best = None  # (floor, -level, -index)
    best_iv = None
    level = INTERVAL_GRANULARITY
    while True:
        for idx in np.flatnonzero(mins > 0.0):
            key = (mins[idx], -level, -int(idx))
            if best is None or key > best:
                best = key
                best_iv = DyadicInterval(index=int(idx), level=level)
        if mins.size < 2 or level <= _WIDEST_LEVEL:
            break
        pairs = mins.size // 2
        mins = np.minimum(mins[0 : 2 * pairs : 2], mins[1 : 2 * pairs : 2])
        level -= 1
    if best is None:
        return None, 0.0
    return best_iv, float(best[0])
