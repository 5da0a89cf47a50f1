"""CSV writer: the row template and the float-column kernel against the
per-cell writer they replaced."""

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
    x, v = np.arange(n) / n, rng.standard_normal(n)
    assert_same_bytes(tmp_path, [("x", x), ("v", v), ("k", np.arange(n))], comment="chunks")
    assert_same_bytes(tmp_path, [("x", x), ("v", v)], digits=12, comment="chunks")


@pytest.mark.parametrize("digits", [1, 6, 12, 15, 17])
def test_digits_match_per_cell_writer(tmp_path, digits):
    assert_same_bytes(tmp_path, [("v", np.array(SPECIAL)),
                                 ("o", np.array(SPECIAL, dtype=object))], digits=digits)
    assert_same_bytes(tmp_path, [("v", np.array(SPECIAL)), ("w", -np.array(SPECIAL))],
                      digits=digits)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
       st.sampled_from([np.float64, np.float32]))
def test_any_floats_match_per_cell_writer(tmp_path_factory, values, dtype):
    tmp_path = tmp_path_factory.mktemp("csv")
    with np.errstate(over="ignore"):
        column = np.array(values, dtype=np.float64).astype(dtype)
    assert_same_bytes(tmp_path, [("v", column), ("i", np.arange(column.size))])
    assert_same_bytes(tmp_path, [("v", column)])


# ------------------------------------------------------------ float kernel
# Files of float columns alone are formatted by array ops; every value below
# must still read as the per-cell writer's "%.{digits}g".

# Bit patterns of 2^-17 .. 2^53: fixed notation at 12 and 15 digits, and
# exponent notation at its edges.
FIXED_RANGE = st.integers(0x3EE0000000000000, 0x4340000000000000)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), FIXED_RANGE), min_size=1, max_size=300),
       st.sampled_from([12, 15]))
def test_float_bit_patterns_match_per_cell_writer(tmp_path_factory, words, digits):
    column = np.array(words, dtype=np.int64).view(np.float64)
    assert_same_bytes(tmp_path_factory.mktemp("csv"), [("v", column), ("neg", -column)],
                      digits=digits)


@pytest.mark.parametrize("r", [13, 17])
def test_dyadic_grids_match_per_cell_writer(tmp_path, r):
    # i / 2^R has up to R decimals, so some cells are exact decimal ties at
    # 12 digits: they round half-even, as Python rounds them
    x = np.arange(2**r) / 2**r
    assert_same_bytes(tmp_path, [("x", x), ("neg", -x)], digits=12)


@pytest.mark.parametrize("digits", [1, 6, 12, 15])
def test_powers_of_ten_match_per_cell_writer(tmp_path, digits):
    # one ulp either side of a power of ten, where log10 may be one off, and
    # values that round up to the next power at 12..15 digits
    tens = 10.0 ** np.arange(-6, 17)
    near = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                           9.9999999999995 * tens, 9.99999999999995 * tens,
                           9.999999999999995 * tens])
    assert_same_bytes(tmp_path, [("v", near), ("neg", -near)], digits=digits)


def test_float32_columns_match_per_cell_writer(tmp_path):
    rng = np.random.default_rng(32)
    f32 = (rng.standard_normal(5000) * 10.0 ** rng.integers(-6, 8, 5000)).astype(np.float32)
    assert_same_bytes(tmp_path, [("f32", f32), ("f64", f32 / np.float64(3))], digits=12)
    assert_same_bytes(tmp_path, [("f32", f32)])


def test_text_cells_keep_their_bytes(tmp_path):
    # non-ASCII text and an embedded NUL next to float columns, in a file
    # longer than a chunk
    n = _CHUNK_ROWS + 5
    names = np.array(["é", "naïve", "Ω≈√", "日本", "a\0b"] * (n // 5))
    objs = np.array(["x\0", 0.1, "ü"] * (n // 3 + 1), dtype=object)[:n - n % 5]
    x = np.arange(names.size) / names.size
    assert_same_bytes(tmp_path, [("x", x), ("name", names), ("obj", objs)], comment="ü")
    text = (tmp_path / "new.csv").read_text(encoding="utf-8")
    assert text.count("a\0b") == n // 5 and text.count("x\0") == (n - n % 5 + 2) // 3


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(InvalidParameterError, match="equal length"):
        write_csv(tmp_path / "x.csv", [("a", [1, 2]), ("b", [1])])
