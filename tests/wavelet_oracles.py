"""Reference routes to the values that the filter bank produces.

Pointwise evaluation of periodized wavelets straight from psi at level
r_psi, built once per table: every live translate of the wrap sum is a
nearest-grid-point lookup, with no two-scale recursion in between.  Beside
it, the filter-bank pair in its gather form: every circular window is a
%-indexed fancy gather and every product one whole-level matrix product,
the arithmetic that the blocked pair must reproduce bit for bit.  Analysis
starts from the module's own circulant solve, which has a dense oracle in
the estimator tests.  Test modules import them as references.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from rwslab.errors import InvalidParameterError
from rwslab.wavelets import _phi_rows, _two_scale


_FULL_PSI = weakref.WeakKeyDictionary()


def full_psi(table) -> np.ndarray:
    """psi at level r_psi, built on the first call for a table and kept
    while the table lives."""
    if table not in _FULL_PSI:
        _FULL_PSI[table] = table.psi_level(table.r_psi)
    return _FULL_PSI[table]


def psi_at(table, t) -> np.ndarray:
    """Nearest-grid-point value of the mother wavelet at t (vectorized);
    zero off the table."""
    psi = full_psi(table)
    t_arr = np.asarray(t, dtype=float)
    idx = np.rint(t_arr * 2.0**table.r_psi).astype(np.int64)
    valid = (idx >= 0) & (idx < psi.size)
    out = np.zeros_like(t_arr)
    out[valid] = psi[idx[valid]]
    return out


def eval_periodized(table, j: int, k: int, x) -> np.ndarray | float:
    """Evaluate the periodized wavelet psi_{j,k} at torus points x.

    The wrap sum has at most ceil(support / 2^j) + 1 live translates; each is
    a nearest-grid-point table lookup (exact whenever the evaluation points
    lie on a dyadic grid no finer than 2^-(r_psi + j)).
    """
    if j < 0:
        raise InvalidParameterError(f"scale must be nonnegative, got {j}")
    if not 0 <= k < 2**j:
        raise InvalidParameterError(f"position {k} outside [0, 2^{j})")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr >= 1.0):
        raise InvalidParameterError("evaluation points must lie in [0, 1)")
    t = 2.0**j * x_arr - k
    length = table.support_length
    total = np.zeros_like(t)
    # Translates t + w 2^j that can land in [0, support]:
    w_lo = math.ceil(-float(np.max(t)) / 2**j) if t.size else 0
    w_hi = math.floor((length - float(np.min(t))) / 2**j) if t.size else -1
    for w in range(w_lo, w_hi + 1):
        total += psi_at(table, t + w * 2.0**j)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(total)
    return total


def gather_synthesis(coarse, levels, table, resolution) -> np.ndarray:
    """``pyramid_synthesis`` with a gathered window and one whole-level product."""
    p, q = _two_scale(table.filter)
    a = np.zeros(1)
    for c in levels:
        nxt = np.zeros(2 * a.size)
        evens = 2 * np.arange(a.size)
        for n in range(p.size):
            nxt[(evens + n) % nxt.size] += p[n] * a + q[n] * c
        a = nxt
    phi = _phi_rows(table, 2**resolution // a.size)
    shifted = a[(np.arange(a.size)[:, None] - np.arange(phi.shape[0])) % a.size]
    return float(coarse) + (shifted @ phi).ravel()


def gather_analysis(values, table, j_hi) -> tuple[float, list[np.ndarray]]:
    """``pyramid_analysis``: the same circulant solve, then gathered windows
    and whole-level products."""
    p, q = _two_scale(table.filter)
    size = 2 ** (j_hi + 1)
    length = table.support_length
    symbol = np.bincount(np.arange(length) % size, table.phi_level(0)[:length], size)
    a = np.fft.irfft(np.fft.rfft(values[:: values.size // size]) / np.fft.rfft(symbol), n=size)
    levels = []
    while size > 1:
        size //= 2
        window = a[(2 * np.arange(size)[:, None] + np.arange(p.size)) % a.size]
        levels.append(window @ (0.5 * q))
        a = window @ (0.5 * p)
    return float(a[0]), levels[::-1]
