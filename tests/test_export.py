"""The four matrix exports against the per-entry rendering of earlier releases.

The golden CLI digests only reach B and A of small spaces: non-negative
int8 entries in a narrow range.  These cases reach the other paths of the
token renderer (negative entries, every storage dtype, Python-int
entries, a value range wider than the matrix, 1x1 and empty shapes) and
compare every byte with an oracle that formats each entry on its own,
for the whole export and for the row blocks it is streamed in.
"""

import csv
import io
import json

import numpy as np
import pytest

from zmspec import matrices
from zmspec.matrices import (
    ExactMatrix,
    build_A,
    build_B_product,
    export_blocks,
    to_csv,
    to_json,
    to_matrix_market,
    to_table,
)
from zmspec.errors import DomainError
from zmspec.projective import enumerate_space, point_label

# -------------------- oracle: one str per entry --------------------


def oracle_matrix_market(m):
    lines = ["%%MatrixMarket matrix array integer general", f"{m.rows} {m.cols}"]
    for col in m.array.T:
        lines.extend(map(str, col.tolist()))
    return "\n".join(lines) + "\n"


def oracle_csv(m):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if m.col_labels is not None:
        header = [""] + [point_label(pt) for pt in m.col_labels]
    else:
        header = [""] + [str(j) for j in range(m.cols)]
    writer.writerow(header)
    for i, row in enumerate(m.array):
        label = point_label(m.row_labels.points[i]) if m.row_labels else str(i)
        writer.writerow([label] + row.tolist())
    return buf.getvalue()


def oracle_json(m):
    obj = {
        "rows": m.rows,
        "cols": m.cols,
        "row_labels": [point_label(pt) for pt in m.row_labels] if m.row_labels else None,
        "col_labels": [point_label(pt) for pt in m.col_labels] if m.col_labels else None,
        "entries": [list(map(str, row.tolist())) for row in m.array],
    }
    return json.dumps(obj, indent=2)


def oracle_table(m):
    # each line is the padded label followed by " " + entry per entry, so a
    # matrix without columns gives bare labels and one without rows gives ""
    width = max((len(str(x)) for x in m.array.flat), default=0)
    if m.row_labels is not None:
        labels = [f"({point_label(pt)})" for pt in m.row_labels]
    else:
        labels = [str(i) for i in range(m.rows)]
    lw = max(map(len, labels), default=0)
    return "".join(
        label.ljust(lw) + "".join(" " + str(x).rjust(width) for x in row.tolist()) + "\n"
        for label, row in zip(labels, m.array)
    )


FORMATS = {
    "matrixmarket": (to_matrix_market, oracle_matrix_market),
    "csv": (to_csv, oracle_csv),
    "json": (to_json, oracle_json),
    "table": (to_table, oracle_table),
}


# -------------------- cases --------------------


def _labelled_b(n, m, shift=0):
    """B_{n,m} - shift * I, keeping the point labels."""
    b = build_B_product(build_A(enumerate_space(n, m)))
    return b - shift * ExactMatrix.identity(b.rows) if shift else b


P_2_2 = enumerate_space(2, 2)  # 3 points
P_2_11 = enumerate_space(2, 11)  # 12 points with comma-joined labels

# 12 x 12 Python ints beyond 2^62 of either sign, and 7 * j on the diagonal
BIG_12 = [[(i - j) * 2 ** (55 + i + j) + 7 * j for j in range(12)] for i in range(12)]

WIDE = np.array([[0, 10**12, -7], [5, -3, 2**61]], dtype=np.int64)


def _mixed_widths():
    """6 x 70 entries of 1 to 20 characters in every row: one digit or 18
    and 19 digits, of both signs, in int64 storage (all below 2^62)."""
    rng = np.random.default_rng(5)
    small = rng.integers(-9, 10, size=(6, 70))
    large = rng.integers(10**17, 4 * 10**18, size=(6, 70))
    sign = rng.choice([-1, 1], size=(6, 70))
    return np.where(rng.random((6, 70)) < 0.5, small, sign * large)


CASES = {
    "negative": ExactMatrix([[-5, 3, 0], [12, -100, 7], [0, 0, -1]]),
    "negative-labelled": _labelled_b(2, 12, shift=9),
    "object-dtype": ExactMatrix([[10**30, -(2**70), 1], [0, 10**30, -1]]),
    "object-dtype-labelled": ExactMatrix(BIG_12, P_2_11, P_2_11),
    "int64-wide-span": ExactMatrix(WIDE),
    # many columns of tokens padded to 20 bytes, most of them far shorter
    "int64-mixed-widths": ExactMatrix(_mixed_widths()),
    # every int8 value but -128, as many values as entries: the offset
    # route, whose index entry - min does not fit int8
    "int8-full-span": ExactMatrix(np.arange(-127, 128).reshape(15, 17)),
    "int16": ExactMatrix([[-(2**15 - 1), 300, 0], [2**14, -1, 2**15 - 1]]),
    "int32": ExactMatrix([[2**31 - 1, -(2**20)], [0, -(2**31 - 1)], [7, 2**15]]),
    "1x1": ExactMatrix([[7]]),
    "1x1-negative": ExactMatrix([[-42]]),
    "row-vector": ExactMatrix([[1, -2, 3, -4]]),
    "column-vector": ExactMatrix([[1], [-2], [30]]),
    "constant": ExactMatrix(np.full((3, 4), 5, dtype=np.int64)),
    "B_{3,4}-unlabelled": ExactMatrix(_labelled_b(3, 4).array),  # the CLI always labels
    # row labels of 5 to 7 characters, quoted by csv: prefixes of unequal width
    "B_{3,12}-labelled": _labelled_b(3, 12),
    "0x0": ExactMatrix(np.zeros((0, 0), dtype=np.int64)),
    "3x0": ExactMatrix(np.zeros((3, 0), dtype=np.int64)),
    "0x3": ExactMatrix(np.zeros((0, 3), dtype=np.int64)),
    "3x0-labelled": ExactMatrix(np.zeros((3, 0), dtype=np.int64), P_2_2, None),
    "0x3-labelled": ExactMatrix(np.zeros((0, 3), dtype=np.int64), None, P_2_2),
    "12x0-labelled": ExactMatrix(np.zeros((12, 0), dtype=np.int64), P_2_11, None),
    "0x12-labelled": ExactMatrix(np.zeros((0, 12), dtype=np.int64), None, P_2_11),
}


def test_cases_reach_every_gather_route():
    # the wide int64 case spans more values than it has entries, so it
    # misses the offset route and takes np.unique, as object arrays do
    wide = CASES["int64-wide-span"].array
    assert wide.dtype == np.int64 and int(wide.max()) - int(wide.min()) > wide.size
    mixed = CASES["int64-mixed-widths"].array
    assert mixed.dtype == np.int64 and int(mixed.max()) - int(mixed.min()) > mixed.size
    lengths = np.vectorize(lambda v: len(str(v)))(mixed)
    assert all({1, 2, 18, 19, 20} <= set(row) for row in lengths.tolist())
    labels = [point_label(pt) for pt in CASES["B_{3,12}-labelled"].row_labels]
    assert all("," in label for label in labels)
    assert {len(label) for label in labels} == {5, 6, 7}
    assert CASES["object-dtype"].array.dtype == object
    assert CASES["object-dtype-labelled"].array.dtype == object
    assert CASES["negative"].array.dtype == np.int8
    full = CASES["int8-full-span"].array
    assert full.dtype == np.int8 and int(full.max()) - int(full.min()) == full.size - 1
    # every rung of the storage ladder is rendered
    assert {m.array.dtype for m in CASES.values()} == {
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64, object)
    }


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_export_equals_per_entry_oracle(case, fmt):
    export, oracle = FORMATS[fmt]
    m = CASES[case]
    assert export(m) == oracle(m)


def _block_budgets(m, fmt):
    """Entry budgets giving blocks of one row, and two blocks that split
    the rendered rows in the middle (Matrix Market renders the columns)."""
    rows, cols = (m.cols, m.rows) if fmt == "matrixmarket" else (m.rows, m.cols)
    return [1, max(cols, 1) * -(-rows // 2)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_streamed_blocks_join_to_the_oracle(case, fmt, monkeypatch):
    _, oracle = FORMATS[fmt]
    m = CASES[case]
    for budget in _block_budgets(m, fmt):
        monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", budget)
        blocks = list(export_blocks(m, fmt))
        assert "".join(blocks) == oracle(m)
        assert FORMATS[fmt][0](m) == oracle(m)


def test_blocks_hold_whole_rows_of_at_most_the_budget(monkeypatch):
    b = CASES["B_{3,4}-unlabelled"]  # 28 x 28
    monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", 28 * 10)
    # the header, then rows 0-9, 10-19 and 20-27
    blocks = list(export_blocks(b, "csv"))
    assert [block.count("\n") for block in blocks] == [1, 10, 10, 8]
    monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", 1)
    assert len(list(export_blocks(b, "json"))) == 1 + 28 + 1
    with pytest.raises(DomainError):
        export_blocks(b, "xml")


def test_exports_of_empty_matrices():
    empty_cols = CASES["3x0"]
    assert to_table(empty_cols) == "0\n1\n2\n"
    assert to_table(CASES["0x3"]) == to_table(CASES["0x0"]) == ""
    assert to_csv(empty_cols) == '""\n0\n1\n2\n'
    assert to_matrix_market(empty_cols) == (
        "%%MatrixMarket matrix array integer general\n3 0\n"
    )
    assert '  "entries": [\n    [],\n    [],\n    []\n  ]\n}' in to_json(empty_cols)
    assert to_json(CASES["0x3"]).endswith('  "entries": []\n}')
