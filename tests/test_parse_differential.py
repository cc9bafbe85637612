"""parse_matrix_csv against a per-cell float() reference, on tricky fields.

The parser converts all cells in one bulk pass; the reference below keeps
the plain row-major loop.  Both must agree bit for bit (sign of zero
included) or fail with the same message naming the same first cell.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citeweight import CitationDataError, CitationMatrix, JournalSet, parse_matrix_csv

EXAMPLES = settings(max_examples=150, deadline=None)

# float() accepts these, with finite non-negative results (or -0.0)
GOOD_FIELDS = ("0", "7", "2.5", "1e3", "1_0", " 3 ", "\t4\t", " 6\t", "-0", ".5", "5.", "１２")
# float() accepts these, but CitationMatrix rejects the value
REJECTED_VALUES = ("nan", "-inf", "Infinity", "1e400", "-2")
# float() rejects these
NON_NUMERIC = ("1__0", "", "x", "0x10", "1 0", "1,5")
FIELDS = GOOD_FIELDS + REJECTED_VALUES + NON_NUMERIC

LABELS = ("Nature", "Acta, Series A", 'The "Review"', "J. Biol. Chem.", "A,B,C", " padded ")


def reference_parse(labels, grid):
    """Counts of a well-shaped grid by a per-cell float() loop, or the
    error message the parser must give."""
    n = len(grid)
    values = np.empty((n, n))
    for i, row in enumerate(grid):
        for j, field in enumerate(row):
            try:
                values[i, j] = float(field)
            except ValueError:
                return f"non-numeric cell at row {i + 1}, column {j + 1}: {field!r}"
    try:
        return CitationMatrix(JournalSet(labels), values).counts
    except CitationDataError as exc:
        return str(exc)


def write_csv(rows, lineterminator):
    out = io.StringIO()
    csv.writer(out, lineterminator=lineterminator).writerows(rows)
    return out.getvalue()


@st.composite
def grids(draw):
    n = draw(st.integers(2, 4))
    # half the grids use only accepted fields, so successes are common too
    pool = GOOD_FIELDS if draw(st.booleans()) else FIELDS
    cell = st.sampled_from(pool)
    grid = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return grid, draw(st.sampled_from(("\n", "\r\n")))


def assert_same_outcome(text, labeled, labels, grid):
    expected = reference_parse(labels, grid)
    try:
        got = parse_matrix_csv(text, labeled=labeled).counts
    except CitationDataError as exc:
        assert str(exc) == expected
        return
    assert isinstance(expected, np.ndarray), f"parser accepted, reference says {expected}"
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@EXAMPLES
@given(grids())
def test_headerless_grid_matches_reference(drawn):
    grid, eol = drawn
    labels = tuple(f"J{i}" for i in range(1, len(grid) + 1))
    assert_same_outcome(write_csv(grid, eol), False, labels, grid)


@EXAMPLES
@given(grids(), st.data())
def test_labeled_grid_matches_reference(drawn, data):
    grid, eol = drawn
    n = len(grid)
    label_lists = st.lists(st.sampled_from(LABELS), min_size=n, max_size=n, unique=True)
    labels = tuple(data.draw(label_lists))
    rows = [["journal", *labels], *([label, *row] for label, row in zip(labels, grid))]
    assert_same_outcome(write_csv(rows, eol), True, labels, grid)
