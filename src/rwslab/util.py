"""Small shared helpers: CSV and canonical JSON output, SHA-256 digests."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import InvalidParameterError


def write_csv(path, columns, digits: int = 15, comment: str | None = None) -> None:
    """Write named columns of equal length; floats at ``digits`` significant digits."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise InvalidParameterError("csv columns must have equal length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for i in range(n):
            cells = []
            for a in arrays:
                v = a[i]
                if isinstance(v, (np.floating, float)):
                    cells.append(f"{float(v):.{digits}g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


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
