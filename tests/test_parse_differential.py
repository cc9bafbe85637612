"""parse_matrix_csv against a per-cell float() reference, on tricky fields.

The parser converts all cells in one bulk pass; the reference below keeps
the plain row-major loop.  Both must agree bit for bit (sign of zero
included) or fail with the same message naming the same first cell.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citeweight import CitationDataError, CitationMatrix, JournalSet, parse_matrix_csv

EXAMPLES = settings(max_examples=150, deadline=None)

# Characters that str.splitlines treats as line breaks but the csv reader
# and io.StringIO(newline="") read as field text.  float() strips the
# first four as whitespace and rejects the last three.
SPLITLINES_ONLY = ("\x0c", "\x85", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e")

# float() accepts these, with finite non-negative results (or -0.0)
GOOD_FIELDS = (
    ("0", "7", "2.5", "1e3", "1_0", " 3 ", "\t4\t", " 6\t", "-0", ".5", "5.", "１２")
    + tuple(f"{i}{c}" for i, c in enumerate(SPLITLINES_ONLY[:4], start=2))
)
# float() accepts these, but CitationMatrix rejects the value
REJECTED_VALUES = ("nan", "-inf", "Infinity", "1e400", "-2")
# float() rejects these
NON_NUMERIC = ("1__0", "", "x", "0x10", "1 0", "1,5") + tuple(f"1{c}" for c in SPLITLINES_ONLY[4:])
FIELDS = GOOD_FIELDS + REJECTED_VALUES + NON_NUMERIC

LABELS = (
    ("Nature", "Acta, Series A", 'The "Review"', "J. Biol. Chem.", "A,B,C", " padded ")
    + ("Two\nlines", "Bare\rreturn", "Both\r\nends")
    + tuple(f"Acta{c}B" for c in SPLITLINES_ONLY)
)


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
    """Minimally quoted CSV.  A field with a line break is quoted whatever
    the terminator; csv.writer before Python 3.12 quotes only the
    terminator's own characters."""

    def field(text):
        if any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    return "".join(",".join(map(field, row)) + lineterminator for row in rows)


@st.composite
def grids(draw):
    n = draw(st.integers(2, 4))
    # half the grids use only accepted fields, so successes are common too
    pool = GOOD_FIELDS if draw(st.booleans()) else FIELDS
    cell = st.sampled_from(pool)
    grid = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return grid, draw(st.sampled_from(("\n", "\r\n", "\r")))


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


def test_form_feed_after_a_number_is_not_a_line_break():
    # str.splitlines would end the first row after its first field
    text = "1\x0c,2\x0c\n3,4\n"
    assert parse_matrix_csv(text).counts.tolist() == [[1.0, 2.0], [3.0, 4.0]]
