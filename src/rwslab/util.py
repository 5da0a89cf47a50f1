"""Small shared helpers: CSV and canonical JSON output, SHA-256 digests, sup norms, slopes."""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

from .errors import InvalidParameterError

# Rows formatted and written per ``write`` call: bounds the float kernel's
# arrays to about 130 bytes a cell.
_CHUNK_ROWS = 4096
# Exact doubles 10^0..10^22.
_POW10 = 10.0 ** np.arange(23)


@functools.cache  # built on the first float-only CSV, not at import
def _quads() -> np.ndarray:
    """The ASCII digits of 0000..9999 in a uint32 each."""
    digits = np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij")
    return np.stack(digits, -1).view(np.uint32).ravel()


def write_csv(path, columns, digits: int = 15, comment: str | None = None) -> None:
    """Write named columns of equal length; floats at ``digits`` significant digits.

    Every cell reads as ``%.{digits}g`` of a float column's value and as
    ``%s`` of any other column's, an object column's cell by cell.  Chunks of
    ``_CHUNK_ROWS`` rows of float columns alone go through ``_float_rows``.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise InvalidParameterError("csv columns must have equal length")
    float_cell = f"%.{digits}g"
    template = ",".join(float_cell if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
    floats_only = all(a.dtype.kind == "f" for a in arrays)
    with open(path, "wb") as fh:
        fh.write(("" if comment is None else f"# {comment}\n").encode())
        fh.write((",".join(names) + "\n").encode())
        for lo in range(0, n, _CHUNK_ROWS):
            part = [a[lo : lo + _CHUNK_ROWS] for a in arrays]
            if floats_only:
                fh.write(_float_rows(part, digits))
                continue
            cells = [a.tolist() if a.dtype.kind in "fiubU" else
                     [float_cell % v if isinstance(v, (np.floating, float)) else str(v) for v in a]
                     for a in part]
            fh.write("".join([template % row for row in zip(*cells)]).encode())


def _float_rows(columns, digits: int) -> bytes:
    """CSV rows of equal-length float columns, each value as ``%.{digits}g``:
    NUL-padded cells in a character-major block, so that every array op runs
    along the cells, with the padding deleted from the row-major bytes.
    Cells that ``_fixed_cells`` does not place keep the per-cell ``%``."""
    values = np.asarray(columns, dtype=np.float64)
    k, m = values.shape
    v = values.ravel()
    width = digits + 8  # sign, digits, point and "e-308" at most, then the separator
    out = np.empty((width, v.size), np.uint8)
    out.reshape(width, k, m)[-1] = np.frombuffer(b"," * (k - 1) + b"\n", np.uint8)[:, None]
    placed = _fixed_cells(v, digits, out[:-1]) if 1 <= digits <= 15 else np.zeros(v.size, bool)
    rest = np.flatnonzero(~placed)
    text = np.array([f"%.{digits}g" % x for x in v[rest].tolist()], dtype=f"S{width - 1}")
    out[:-1, rest] = text.view(np.uint8).reshape(rest.size, width - 1).T
    rows = out.reshape(width, k, m).transpose(2, 1, 0)  # a view: cells in row order
    return np.ascontiguousarray(rows).tobytes().translate(None, b"\0")


def _fixed_cells(v: np.ndarray, digits: int, out: np.ndarray) -> np.ndarray:
    """Lay out v in fixed notation at 1..15 digits, a cell per column of
    ``out``: the sign, "0." and -e - 1 zeros for decimal exponent e < 0,
    then the digits of M = round(|v| 10^(digits-1-e)) < 10^15, an exact
    double rounded half-even as the exact product (Dekker, *Numer. Math.*
    18, 1971), with the point after digit e >= 0 and no trailing zeros after
    it; returns the cells placed.  Masks vary cell to cell, so they are
    products, not masked copies."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    live = (e >= -4) & (e < digits)
    a, e = np.where(live, a, 2.0), np.where(live, e, 0).astype(np.int8)
    scale = _POW10[digits - 1 - e]
    prod = a * scale
    mant = np.rint(prod)
    tie = np.flatnonzero(np.abs(prod - mant) == 0.5)
    if tie.size:  # p is a half-integer: the sign of its exact error picks the side
        x, y, p = a[tie], scale[tie], prod[tie]
        xh = 134217729.0 * x - (134217729.0 * x - x)  # Veltkamp's split: the high half
        yh = 134217729.0 * y - (134217729.0 * y - y)
        err = ((xh * yh - p) + xh * (y - yh) + (x - xh) * yh) + (x - xh) * (y - yh)
        mant[tie] = np.rint(p + 0.25 * np.sign(err))  # exact: p < 2^50
    # log10 may be one off near a power of ten, and M may round up to one:
    # M strictly between 10^(digits-1) and 10^digits pins e, else keep "%"
    placed = live & (mant > _POW10[digits - 1]) & (mant < _POW10[digits])
    mant[~placed] = 0.0

    quads = -(-digits // 4)
    digs = np.zeros((4 * quads + 2, v.size), np.uint8)  # NUL, digits of M, NUL
    for q in range(quads, 0, -1):
        # exact: M < 2^53, and a quotient below an integer is 1e-4 or more below it
        upper = np.floor(mant / 1e4)
        quad = _quads()[(mant - 1e4 * upper).astype(np.intp)]
        digs[4 * q - 3 : 4 * q + 1] = quad.view(np.uint8).reshape(-1, 4).T
        mant = upper
    digs = digs[4 * quads - digits :]
    digs[0] = 0
    nonzero = (digs[1:-1] != 48) * np.arange(1, digits + 1, dtype=np.int8)[:, None]
    last = np.maximum(e, nonzero.max(axis=0) - 1)  # the last digit written

    slot = np.arange(digits + 1, dtype=np.int8)[:, None]
    body = out[6:]
    np.multiply(digs[1:], slot <= e, out=body)  # slot s <= e: digit s
    body += digs[:-1] * ((slot > e + 1) & (slot <= last + 1))  # then digit s - 1
    point = np.flatnonzero((last > e) & (e >= 0))
    body.flat[point + (e[point] + 1).astype(np.intp) * v.size] = 46
    zeros = np.arange(5, dtype=np.int8)[:, None] < (1 - e) * (e < 0)
    np.multiply(np.frombuffer(b"0.000", np.uint8)[:, None], zeros, out=out[1:6])
    np.multiply(v < 0, np.uint8(45), out=out[0])
    return placed


def sup_abs(values: np.ndarray) -> float:
    """max |values| without an |values| temporary."""
    return float(abs(max(values.max(), -values.min())))


def slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, sum (x - mean x) y / sum (x - mean x)^2."""
    dx = x - x.mean()
    return float((dx * y).sum() / (dx * dx).sum())


def canonical_json(obj) -> str:
    """Stable JSON rendering: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
