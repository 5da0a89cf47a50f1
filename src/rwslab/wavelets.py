"""Periodized orthonormal wavelet machinery on the unit torus.

The basis here is deliberately not L^2-normalized.  With

    psi_{j,k}(x) = sum_l Psi(2^j (x - l) - k),

every dilate keeps the same height, so coefficient magnitudes compare
directly with function values; the matching analysis integral carries the
2^j weight instead: c_{j,k} = 2^j * integral_0^1 f psi_{j,k} dx.

Every two-scale computation reads one set of weights, c = sqrt(2) h for
phi and d = sqrt(2) g for psi (Daubechies, *Ten Lectures*, 1992, ch. 6),
exactly 1 and +-1 for the unit box, Haar, so that every box value is
exact.

Mother scaling functions are tabulated on dyadic grids up to 2^{-r_psi}
by exact two-scale refinement: values at the integers come from the unit
eigenvector of the downsampled weight matrix, and each refinement level is
one ``_refine`` over the whole previous level, with the coarse values
written back exactly.  ``_refine`` forms every grid two-scale sum, in
cache-sized blocks that keep the rounding of one whole-array pass per
weight.  So phi at level l is the every-2^(r_psi - l)-th
sample of the full table, and a table refines phi only as deep as
something reads it.  The table keeps phi only: psi at level l is one more
two-scale sum over phi at level l - 1, built on each call, for the box
as for any filter.  ``sup_norm`` and the positivity interval come from one
psi at level min(r_psi, ``SEARCH_DEPTH``), built on their first read and
dropped with the phi it needed, so deeper tables cost no more; past that
depth the sup is a sampled maximum a little below the full table's, as any
sampled maximum lies below the true sup.  The box is constant on every
search bin, so its values are exact.  For a valid orthonormal filter the
refinement reproduces the coarse values identically.  A box-start probe
of the first min(r_psi, ``PROBE_DEPTH``) levels checks this eagerly (the
standard cascade check, Daubechies, *Ten Lectures*, 1992, ch. 6):
corrupted taps make the reproduction error grow with depth and raise a
numerical failure instead of returning a quietly wrong table.  The taps
are frozen constants, and their convergence at full depth is checked once
by the test suite rather than on every table.

Grid synthesis and analysis share one periodized filter-bank pair (the
Mallat pyramid): synthesis evaluates the finest scaling coefficients on
the tabulated phi, and analysis inverts it from the samples at their
points by one circulant solve against phi at the integers (Daubechies,
*Ten Lectures*, 1992, ch. 5-6).  ``periodized_grid`` samples one
periodized wavelet straight from psi at level r_psi, an independent check
on the filter bank.  The pair reads each circular window as a strided view
of a cyclically extended level and runs its matrix products in row blocks
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
# Level of the psi that ``sup_norm`` and the positivity search read.
SEARCH_DEPTH = 16

# Refinement reproduction error below this floor counts as converged.
_CONVERGENCE_FLOOR = 1e-12
# Deepest level of the convergence probe: 39 * 2^12 floats at most (db20).
PROBE_DEPTH = 12

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
    """Scaling function tabulated at step 2^-r_psi, mother wavelet on request.

    ``cascade_evaluate`` fills in ``refinement_diffs``, one per probe level
    up to min(r_psi, ``PROBE_DEPTH``), and phi at the integers; finer phi
    levels are refined on first read, a ``_refine`` each, and kept; psi at
    a level is built on each call.  ``sup_norm`` and the positivity interval
    are read off psi at level min(r_psi, ``SEARCH_DEPTH``) on first read;
    the table keeps them, not that psi nor the phi it needed.
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

        A strided view of the deepest level refined so far, first refined
        deeper, a ``_refine`` per level, if that level is coarser.
        """
        if not 0 <= level <= self.r_psi:
            raise InvalidParameterError(f"phi levels run from 0 to r_psi = {self.r_psi}, got {level}")
        depth = ((self._deepest.size - 1) // self.support_length).bit_length() - 1
        for r in range(depth, level):
            phi = _refine(self._deepest, _two_scale(self.filter)[0], r)
            phi[::2] = self._deepest  # keep the exact coarse values
            object.__setattr__(self, "_deepest", phi)
        return self._deepest[:: 2 ** (max(depth, level) - level)]

    def psi_level(self, level: int) -> np.ndarray:
        """psi at every point of step 2^-level over [0, support], 1 <= level <= r_psi.

        A new array on each call, which the table does not keep:
        psi(x) = sum_k d_k phi(2x - k) over phi at level - 1.
        """
        if not 1 <= level <= self.r_psi:
            raise InvalidParameterError(f"psi levels run from 1 to r_psi = {self.r_psi}, got {level}")
        return _refine(self.phi_level(level - 1), _two_scale(self.filter)[1], level - 1)

    @cached_property
    def _search(self) -> tuple[float, DyadicInterval | None, float]:
        """sup |psi|, then psi's best positive dyadic interval and its floor,
        from one psi at level min(r_psi, ``SEARCH_DEPTH``); the phi level it
        refines is dropped with it."""
        level, kept = min(self.r_psi, SEARCH_DEPTH), self._deepest
        psi = self.psi_level(level)
        object.__setattr__(self, "_deepest", kept)
        return (sup_abs(psi), *_positivity_search(psi, level, self.support_length))

    sup_norm = property(lambda self: self._search[0])

    def _positivity(self) -> tuple[DyadicInterval, float]:
        _, interval, floor = self._search
        if interval is None:
            raise NumericalFailureError(
                "no dyadic interval at the search granularity has a positive wavelet"
            )
        return interval, floor

    positivity_interval = property(lambda self: self._positivity()[0])
    positivity_floor = property(lambda self: self._positivity()[1])


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
    """A table of phi on the grid of step 2^-r_psi over [0, 2N-1].

    Eager: the argument checks, phi at the integers (a numerical failure
    if the refinement matrix has no usable unit eigenvector) and the
    convergence probe behind ``refinement_diffs``, run to level
    min(r_psi, ``PROBE_DEPTH``), which raises a numerical failure if the
    refinement reproduction error grows over its last three levels instead
    of staying at rounding level.  Lazy: phi at each finer level, and
    ``sup_norm`` with the positivity interval from psi at level
    min(r_psi, ``SEARCH_DEPTH``); the first read of ``positivity_interval``
    or ``positivity_floor`` raises a numerical failure if psi is positive
    on no dyadic interval.  The box takes the same route: its exact
    weights make every diff 0.
    """
    if not isinstance(r_psi, (int, np.integer)) or r_psi < INTERVAL_GRANULARITY:
        raise InvalidParameterError(
            f"refinement depth must be an integer >= {INTERVAL_GRANULARITY}, got {r_psi!r}")
    r_psi = int(r_psi)
    weights, length = _two_scale(filt)[0], filt.support_length
    diffs = _probe_diffs(weights, length, min(r_psi, PROBE_DEPTH))
    return MotherWaveletTable(filter=filt, r_psi=r_psi, refinement_diffs=tuple(diffs),
                              _deepest=_integer_values(weights, length))


def _probe_diffs(weights: np.ndarray, length: int, depth: int) -> list[float]:
    """Sup-differences of levels r and r+1 on level r's grid, r < depth, of the
    two-scale operator iterated from a box start; a numerical failure if they
    are above rounding level and did not fall over the last three levels.

    The table's phi starts from the exact integer eigenvector instead, which
    is self-consistent by construction and so blind to bad taps.
    """
    diffs = []
    probe = np.zeros(length + 1)
    probe[0] = 1.0
    for r in range(depth):
        nxt = _refine(probe, weights, r)
        np.subtract(nxt[::2], probe, out=probe)  # the old level is dropped next
        diffs.append(float(np.max(np.abs(probe, out=probe))))
        probe = nxt
    if diffs[-1] > _CONVERGENCE_FLOOR and diffs[-1] >= diffs[-2] >= diffs[-3]:
        raise NumericalFailureError(
            "two-scale refinement is not converging: common-grid differences were "
            f"{diffs[-3]:.3e}, {diffs[-2]:.3e}, {diffs[-1]:.3e} over the last three levels"
        )
    return diffs


def periodized_grid(table: MotherWaveletTable, j: int, resolution: int) -> np.ndarray:
    """psi_{j,0} periodized, sampled at every grid point m 2^-resolution.

    Every lookup is an exact strided slice of psi at level r_psi, so the
    grid may be no finer than 2^-(r_psi + j).
    """
    if j < 0 or resolution < 0:
        raise InvalidParameterError("scale and resolution must be nonnegative")
    if resolution > table.r_psi + j:
        raise InvalidParameterError(
            f"psi_(j,0) on 2^{resolution} points needs resolution <= r_psi + j = {table.r_psi + j}")
    psi = table.psi_level(table.r_psi)
    size = 2**resolution
    out = np.zeros(size)
    step = 2 ** (table.r_psi + j - resolution)
    for w in range(0, table.support_length // 2**j + 1):
        # Sample Psi(m 2^{j-resolution} + w 2^j) over the live index range.
        base = w * 2 ** (table.r_psi + j)
        last = psi.size - 1 - base
        if last < 0:
            continue
        m_hi = min(size - 1, last // step)
        out[: m_hi + 1] += psi[base : base + m_hi * step + 1 : step]
    return out


def check_grid(table: MotherWaveletTable, j: int, resolution: int) -> None:
    """Reject scales 0..j on the grid of step 2^-resolution unless
    0 <= j and j + 4 <= resolution <= r_psi.

    resolution <= r_psi keeps every phi lookup on a table point.  Analysis,
    an exact inverse, would need only j + 1 <= resolution; the four spare
    levels stay so that every config keeps its exit code.  Synthesis uses
    the same rule, so what it writes analysis can read.
    """
    if not 0 <= j <= resolution - 4 or resolution > table.r_psi:
        raise InvalidParameterError(
            f"scales 0..{j} on a grid of 2^{resolution} points need "
            f"0 <= J and J + 4 <= R <= r_psi = {table.r_psi}")


def pyramid_synthesis(coarse: float, levels, table: MotherWaveletTable,
                      resolution: int) -> np.ndarray:
    """coarse + sum_j sum_k levels[j][k] psi_{j,k} at every grid point m 2^-resolution:
    ``pyramid_evaluate`` of the last ``pyramid_lifts``.  Needs J + 1 <= resolution <= r_psi."""
    a = np.zeros(1)
    for a in pyramid_lifts(levels, table):
        pass
    return pyramid_evaluate(coarse, a, table, resolution)


def pyramid_lifts(levels, table: MotherWaveletTable):
    """Yield the scaling coefficients a at level j + 1 of levels[0..j], for each j.

    The inverse periodized filter bank: its weights p, q are the
    two-scale weights of ``_two_scale``, because the height-normalized
    basis has phi_{j,k} = sum_n p_n phi_{j+1,2k+n} and psi_{j,k} =
    sum_n q_n phi_{j+1,2k+n}: weight n adds p_n a + q_n c to the entries
    2k + n mod 2^(j+1), that is to polyphase column n mod 2 shifted by
    n // 2 rows, as two slice-adds.  Each lift starts from the last one.
    """
    p, q = _two_scale(table.filter)
    a = np.zeros(1)
    for c in levels:
        size = a.size
        nxt = np.zeros((size, 2))
        for n in range(p.size):
            t = p[n] * a + q[n] * c
            s = (n // 2) % size
            nxt[s:, n % 2] += t[: size - s]
            nxt[:s, n % 2] += t[size - s :]
        a = nxt.ravel()
        yield a


def pyramid_evaluate(coarse: float, a: np.ndarray, table: MotherWaveletTable,
                     resolution: int) -> np.ndarray:
    """coarse + sum_k a[k] phi_{J+1,k} at every grid point m 2^-resolution.

    Row k of the window holds a[k-d mod 2^(J+1)] for d over the support.
    The product with the tabulated phi runs in row blocks that BLAS keeps on
    the calling thread, and the coarse value is added in place (the sum
    commutes bit for bit).  The box needs no product: phi is 1 on the cell,
    so coarse + a[k] is repeated over cell k.
    """
    cell = 2**resolution // a.size
    if is_box(table.filter):
        return np.repeat(float(coarse) + a, cell)  # phi is 1 on the whole cell
    phi = _phi_rows(table, cell)
    support = phi.shape[0]
    ext = np.resize(np.roll(a, support - 1), a.size + support - 1)
    window = sliding_window_view(ext, support)[:, ::-1]
    values = _blocked_matmul(window, phi).ravel()
    values += float(coarse)
    return values


def pyramid_analysis(values: np.ndarray, table: MotherWaveletTable,
                     j_hi: int) -> tuple[float, list[np.ndarray]]:
    """``(coarse, levels)`` of scales 0..j_hi whose synthesis takes the values
    at the points k 2^-(j_hi + 1): the inverse of ``pyramid_synthesis``.

    Synthesis takes sum_d a[k - d] phi(d) there, the coarse value carried in
    a as a constant, so a is one FFT circulant solve against phi at the
    integers folded onto those points.  The forward bank, weights p/2 and
    q/2 over the windows a[2k + n mod 2^(j+1)] in row blocks that BLAS keeps
    on the calling thread, gives every level, and its last scaling
    coefficient the coarse value, as the bank lifts a constant to itself.
    """
    p, q = _two_scale(table.filter)
    size, length = 2 ** (j_hi + 1), table.support_length
    symbol = np.bincount(np.arange(length) % size, table.phi_level(0)[:length], size)
    a = np.fft.irfft(np.fft.rfft(values[:: values.size // size]) / np.fft.rfft(symbol), n=size)
    levels = []
    while size > 1:
        size //= 2
        window = sliding_window_view(np.resize(a, a.size + p.size - 1), p.size)[::2]
        levels.append(_blocked_matmul(window, 0.5 * q))
        a = _blocked_matmul(window, 0.5 * p)
    return float(a[0]), levels[::-1]


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
    for synthesis cells of 2 or 4 samples at 2^13 rows and more: shapes no
    experiment or benchmark runs.
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


def _phi_rows(table: MotherWaveletTable, cell: int) -> np.ndarray:
    """phi(d + r / cell) for d in 0..support-1 (rows) and r in 0..cell-1.

    Reads phi at level log2(cell).  A contiguous copy, made once here
    instead of by matmul for every block.
    """
    rows = table.phi_level(cell.bit_length() - 1)[:-1].reshape(table.support_length, cell)
    return np.ascontiguousarray(rows)


def is_box(filt: ScalingFilter) -> bool:
    """Whether the filter is the unit box (Haar), whose phi is 1 on [0, 1)."""
    return filt.taps == DAUBECHIES_TAPS[1]


def _two_scale(filt: ScalingFilter) -> tuple[np.ndarray, np.ndarray]:
    """Two-scale weights (c, d) = (sqrt(2) h, sqrt(2) g) of the filter's taps h
    and high-pass taps g: phi(x) = sum_k c_k phi(2x - k) and
    psi(x) = sum_k d_k phi(2x - k).

    Exactly (1, 1) and (1, -1) for the box, where sqrt(2) h rounds to
    1 + 2^-52: refinement would carry that rounding into every phi level
    and the filter bank into every Haar coefficient.
    """
    if is_box(filt):
        return np.ones(2), np.array([1.0, -1.0])
    return SQRT2 * np.asarray(filt.taps), SQRT2 * np.asarray(filt.highpass_taps())


def _two_scale_matrices(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L x L matrices [w_{2m-n}] and [w_{2m-n+1}], m, n = 0..L-1, of L + 1 weights."""
    length = weights.size - 1
    cells = np.arange(length)
    pad = np.zeros(3 * length + 2)
    pad[length : 2 * length + 1] = weights
    shift = 2 * cells[:, None] - cells + length  # w_{2m-n}, offset into the padded row
    return pad[shift], pad[shift + 1]


def _integer_values(weights: np.ndarray, length: int) -> np.ndarray:
    """Exact phi values at the integers 0..support, unit-sum normalized: the
    unit eigenvector of the interior block [c_{2i-m}], 0 < i, m < L."""
    vals = np.zeros(length + 1)
    if length == 1:
        # Unit box: right-continuous convention at the jump.
        vals[0] = 1.0
        return vals
    eigvals, eigvecs = np.linalg.eig(_two_scale_matrices(weights)[0][1:, 1:])
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


def _refine(values: np.ndarray, weights: np.ndarray, r: int) -> np.ndarray:
    """out[i] = sum_k w_k values[i - k 2^r]: level-r grid values to level r+1.

    One ``_BLOCK`` of out at a time, weights in ascending k, each product
    formed in one reused buffer: the rounding of a pass per weight.
    """
    out = np.zeros(values.size + (weights.size - 1) * 2**r)
    tmp = np.empty(min(_BLOCK, out.size))
    for start in range(0, out.size, _BLOCK):
        block = out[start : start + _BLOCK]
        for k, c in enumerate(weights):
            off = k * 2**r - start
            lo, hi = max(0, off), min(block.size, off + values.size)
            if lo < hi:
                block[lo:hi] += np.multiply(values[lo - off : hi - off], c, out=tmp[: hi - lo])
    return out


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
    best, best_iv = (0.0,), None  # key (floor, -level, -index) of best_iv
    level = INTERVAL_GRANULARITY
    while True:
        floors = np.where(mins > 0.0, mins, 0.0)  # NaN bins fail the test too
        idx = int(np.argmax(floors))  # the leftmost of the level's largest
        key = (float(floors[idx]), -level, -idx)
        if key[0] > 0.0 and key > best:
            best, best_iv = key, DyadicInterval(index=idx, level=level)
        if mins.size < 2 or level <= _WIDEST_LEVEL:
            break
        pairs = mins.size // 2
        mins = np.minimum(mins[0 : 2 * pairs : 2], mins[1 : 2 * pairs : 2])
        level -= 1
    return best_iv, best[0]
