"""Small shared helpers: CSV and canonical JSON output, SHA-256 digests, sup norms."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import InvalidParameterError

# Rows converted to Python objects and written per ``write`` call.
_CHUNK_ROWS = 4096


def write_csv(path, columns, digits: int = 15, comment: str | None = None) -> None:
    """Write named columns of equal length; floats at ``digits`` significant digits.

    One ``%`` row template per file: ``%.{digits}g`` for float columns, ``%s``
    for the rest; object columns are formatted cell by cell by the same rule.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise InvalidParameterError("csv columns must have equal length")
    float_cell = f"%.{digits}g"
    plain = [a.dtype.kind in "fiubU" for a in arrays]
    template = ",".join(float_cell if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, _CHUNK_ROWS):
            cells = [a[lo : lo + _CHUNK_ROWS].tolist() if p else
                     [float_cell % v if isinstance(v, (np.floating, float)) else str(v)
                      for v in a[lo : lo + _CHUNK_ROWS]]
                     for p, a in zip(plain, arrays)]
            fh.write("".join([template % row for row in zip(*cells)]))


def sup_abs(values: np.ndarray) -> float:
    """max |values| without an |values| temporary."""
    return float(abs(max(values.max(), -values.min())))


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
