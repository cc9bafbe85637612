"""parse_matrix_csv against a per-cell float() reference, on tricky fields.

The parser converts all cells in one bulk pass, and reads headerless
unsigned integer text with numpy's C integer reader; every other text,
decimals and signs included, goes through csv.reader.  The reference below keeps csv.reader and the plain row-major
loop.  Both must agree bit for bit (sign of zero included) or fail with
the same message naming the same first cell.
"""

import csv
import io

import numpy as np
import pytest
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


def assert_same_outcome(expected, text, **kwargs):
    """``parse_matrix_csv(text, **kwargs)`` gives the ``expected`` counts,
    bit for bit, or fails with the ``expected`` message."""
    try:
        got = parse_matrix_csv(text, **kwargs).counts
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
    assert_same_outcome(reference_parse(labels, grid), write_csv(grid, eol))


@EXAMPLES
@given(grids(), st.data())
def test_labeled_grid_matches_reference(drawn, data):
    grid, eol = drawn
    n = len(grid)
    label_lists = st.lists(st.sampled_from(LABELS), min_size=n, max_size=n, unique=True)
    labels = tuple(data.draw(label_lists))
    rows = [["journal", *labels], *([label, *row] for label, row in zip(labels, grid))]
    assert_same_outcome(reference_parse(labels, grid), write_csv(rows, eol), labeled=True)


# Text over digits, ".+-eE", commas, spaces, tabs and line breaks: the
# integer text that numpy's C reader reads, and the decimal and signed
# text, next to it, that goes to the csv reader.
PLAIN_FIELDS = (
    ("0", "7", "2.5", "1e3", "1E-2", "+4", "-0", ".5", "5.", " 3 ", "\t6")
    + ("1e400", "-2")  # float() reads these, and CitationMatrix rejects the value
)
PLAIN_EOLS = ("\n", "\r\n", "\r")


def reference_plain(text, max_size):
    """Counts of headerless text by csv.reader rows and per-cell float(), or
    the error message the parser must give."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if len(rows) > max_size:
        return (
            f"matrix has more than {max_size} rows, above the max_size limit "
            "(raise max_size to allow it)"
        )
    if not rows:
        return "input contains no data rows"
    n, width = len(rows), len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            return f"ragged row: line {lineno} has {len(row)} fields, expected {width}"
    if width != n:
        return f"matrix must be square, got {n} rows x {width} columns"
    if n < 2:
        return f"matrix must be at least 2x2, got {n}x{n}"
    return reference_parse(tuple(f"J{i}" for i in range(1, n + 1)), rows)


# Integer text, which numpy's C reader reads: the fields its integer reader
# takes, and fields past int64 that it refuses, for the csv reader to take.
INTEGER_FIELDS = (
    ("0", "7", "007", " 12\t", "\t500 ", "123456", "9007199254740993")
    + ("9223372036854775807", "9223372036854775808", "99999999999999999999")
)


@st.composite
def plain_texts(draw, good=st.sampled_from(PLAIN_FIELDS), alphabet="0123456789.+-eE \t"):
    max_size = draw(st.integers(2, 5))
    n = draw(st.integers(1, max_size + 1))
    # half the grids use only well-formed numbers, and half are square
    junk = st.text(alphabet=alphabet, max_size=4)
    field = good if draw(st.booleans()) else st.one_of(good, junk)
    widths = st.just(n) if draw(st.booleans()) else st.integers(1, 6)
    row = widths.flatmap(lambda w: st.lists(field, min_size=w, max_size=w))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    lines = []
    for row in rows:
        lines.extend([""] * draw(st.sampled_from((0, 0, 0, 1, 2))))  # blank lines
        lines.append(",".join(row))
    eols = st.sampled_from(PLAIN_EOLS)
    text = "".join(line + draw(eols) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, max_size


@settings(max_examples=600, deadline=None)
@given(plain_texts())
def test_plain_headerless_text_matches_reference(drawn):
    text, max_size = drawn
    assert_same_outcome(reference_plain(text, max_size), text, max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(
    plain_texts(
        st.one_of(st.sampled_from(INTEGER_FIELDS), st.integers(0, 2**64).map(str)),
        alphabet="0123456789 \t",
    )
)
def test_integer_text_matches_reference(drawn):
    text, max_size = drawn
    assert_same_outcome(reference_plain(text, max_size), text, max_size=max_size)


@pytest.mark.parametrize(
    "field",
    [
        "9007199254740993",  # 2**53 + 1, which rounds to 2**53
        "9223372036854775807",
        "9223372036854775808",  # past int64
        "99999999999999999999",
        "007",
        " 12\t",
        "-0",  # the integer reader would drop the sign
    ],
)
def test_field_in_integer_grid_keeps_its_float_value(field):
    text = f"1,2,3\n4,{field},6\n7,8,9\n"
    expected = reference_plain(text, 3)
    assert expected[1, 1].tobytes() == np.float64(float(field)).tobytes()
    assert_same_outcome(expected, text, max_size=3)


def test_integer_grid_is_cast_in_every_row():
    # more rows than the parser casts at a time, and counts past 2**53
    rng = np.random.default_rng(37)
    counts = rng.integers(0, 2**63, size=(37, 37), dtype=np.int64) >> rng.integers(0, 63, (37, 37))
    text = "".join(",".join(map(str, row)) + "\n" for row in counts.tolist())
    assert_same_outcome(reference_plain(text, 64), text, max_size=64)


@pytest.mark.parametrize(
    "text, max_size, counts",
    [
        ('"1",2\n3,4\n', 2, [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n\n3,4\n", 2, [[1.0, 2.0], [3.0, 4.0]]),
    ],
    ids=["quoted-field", "blank-line-under-cap"],
)
def test_plain_text_edge_cases_read(text, max_size, counts):
    assert parse_matrix_csv(text, max_size=max_size).counts.tolist() == counts


@pytest.mark.parametrize(
    "text, message",
    [
        # numpy's reader strips the separator as whitespace, float() does not
        ("1\x1c,1\n1,1\n", "non-numeric cell at row 1, column 1: '1\\x1c'"),
        ("1" * 200_000 + ",1\n1,1\n", "malformed CSV at line 1: "),
    ],
    ids=["file-separator", "field-over-size-limit"],
)
def test_plain_text_edge_cases_refused(text, message):
    with pytest.raises(CitationDataError) as exc:
        parse_matrix_csv(text)
    assert str(exc.value).startswith(message)


def test_form_feed_after_a_number_is_not_a_line_break():
    # str.splitlines would end the first row after its first field
    text = "1\x0c,2\x0c\n3,4\n"
    assert parse_matrix_csv(text).counts.tolist() == [[1.0, 2.0], [3.0, 4.0]]
