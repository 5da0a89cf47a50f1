"""CSV writer: the row-template writer against the per-cell writer it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwslab.errors import InvalidParameterError
from rwslab.util import _CHUNK_ROWS, write_csv


# ---------------------------------------------------------------- oracles

def per_cell_csv(path, columns, digits=15, comment=None):
    """The former writer: one f-string per float cell, str() for the rest."""
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for i in range(arrays[0].shape[0]):
            cells = []
            for a in arrays:
                v = a[i]
                if isinstance(v, (np.floating, float)):
                    cells.append(f"{float(v):.{digits}g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


def assert_same_bytes(tmp_path, columns, **kwargs):
    write_csv(tmp_path / "new.csv", columns, **kwargs)
    per_cell_csv(tmp_path / "old.csv", columns, **kwargs)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def row_columns(names, rows):
    """Columns as experiments build them from row tuples."""
    return [(name, [r[i] for r in rows]) for i, name in enumerate(names)]


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, -5e-324,
           1.7976931348623157e308, 0.1, 1 / 3, 2.0, 1e15, 1e16, 123456789012345678.0]


# ---------------------------------------------------------------- golden bytes

def test_typed_columns_match_per_cell_writer(tmp_path):
    n = len(SPECIAL)
    rng = np.random.default_rng(5)
    with np.errstate(over="ignore"):  # the largest double is inf in float32
        f32 = np.array(SPECIAL, dtype=np.float32)
    assert_same_bytes(tmp_path, [
        ("f64", np.array(SPECIAL)),
        ("f32", f32),
        ("i64", np.arange(n, dtype=np.int64) * -(2**61)),
        ("u64", np.full(n, 2**64 - 1, dtype=np.uint64)),
        ("flag", np.arange(n) % 3 == 0),
        ("name", np.array([f"s{i}" for i in range(n)])),
        ("noise", rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)),
    ], comment="manifest_digest=abc")


def test_row_built_and_mixed_columns_match_per_cell_writer(tmp_path):
    # verdicts' gamma column mixes floats and "" (a str column after
    # np.asarray), None forces an object column, Python ints past int64
    # another, and mixed ints and floats become float64.
    rows = [("linfty", "holds", "", None, 2**70, 1, 7),
            ("gamma", "fails", 2.0, 0.5, 3, 2.5, -0.0),
            ("sqrtj", "undecidable-numeric", "", np.float64(1e-300), -1, 3, np.nan)]
    names = ("kind", "verdict", "gamma", "maybe", "big", "mixed", "cell")
    assert_same_bytes(tmp_path, row_columns(names, rows), comment="c")
    # an object column with numpy and Python floats, ints, bools and strings
    obj = np.array([np.float32(0.1), 0.2, np.int64(3), True, "x", -np.inf], dtype=object)
    assert_same_bytes(tmp_path, [("obj", obj), ("seq", np.arange(obj.size))])


def test_header_only_file_matches_per_cell_writer(tmp_path):
    columns = row_columns(("seed", "n", "j", "count", "first_k"), [])
    assert_same_bytes(tmp_path, columns, comment="manifest_digest=0")
    assert (tmp_path / "new.csv").read_text() == "# manifest_digest=0\nseed,n,j,count,first_k\n"
    assert_same_bytes(tmp_path, [("x", np.zeros(0)), ("y", np.zeros(0, dtype=int))])


@pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
def test_rows_across_chunks_match_per_cell_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    assert_same_bytes(tmp_path, [("x", np.arange(n) / n), ("v", rng.standard_normal(n)),
                                 ("k", np.arange(n))], comment="chunks")


@pytest.mark.parametrize("digits", [1, 6, 12, 17])
def test_digits_match_per_cell_writer(tmp_path, digits):
    assert_same_bytes(tmp_path, [("v", np.array(SPECIAL)),
                                 ("o", np.array(SPECIAL, dtype=object))], digits=digits)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
       st.sampled_from([np.float64, np.float32]))
def test_any_floats_match_per_cell_writer(tmp_path_factory, values, dtype):
    tmp_path = tmp_path_factory.mktemp("csv")
    with np.errstate(over="ignore"):
        column = np.array(values, dtype=np.float64).astype(dtype)
    assert_same_bytes(tmp_path, [("v", column), ("i", np.arange(column.size))])


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(InvalidParameterError, match="equal length"):
        write_csv(tmp_path / "x.csv", [("a", [1, 2]), ("b", [1])])
