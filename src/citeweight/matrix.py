"""Square citation matrices: parsing, validation, margins, and raw powers.

A citation matrix is an n-by-n grid of non-negative counts whose cell
(i, j) holds the citations journal i received from journal j: rows count
the cited side, columns the citing side.  Two CSV input formats are
read:

* headerless -- n lines of n comma-separated numeric fields, no heading
  line; journals get synthetic labels J1..Jn;
* labeled    -- the first row carries column labels, the first column row
  labels, and both label axes must agree exactly.

CRLF, LF and bare CR line endings and a leading byte-order mark are
accepted.  All counts are stored as binary64 reals so that pre-normalized
matrices go through the same code path as raw integer counts.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import CitationDataError, NumericalError

#: Default cap on matrix size accepted by the parser; raise per call via
#: ``max_size`` when a larger matrix is intended.
DEFAULT_MAX_SIZE = 1024

# A line and its ending, split where io.StringIO(newline="") splits: at
# "\r\n", "\r" or "\n" only.  str.splitlines would also split at "\x0c",
# "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029", which float() and the csv
# reader read as field text.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")

# The characters of unsigned integer text, the one text numpy's C reader
# reads; any other text, ".+-eE" included, goes to the csv reader.
_INTEGER_BYTES = b"0123456789, \t\r\n"

# Rows cast from int64 to float64 at a time; numpy buffers each block.
_CAST_ROWS = 16


@dataclass(frozen=True)
class JournalSet:
    """Ordered, unique journal labels shared by matrix rows and columns."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise CitationDataError("journal set is empty")
        for label in self.labels:
            if not isinstance(label, str) or label == "":
                raise CitationDataError("journal labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            seen, dupes = set(), []
            for label in self.labels:
                if label in seen and label not in dupes:
                    dupes.append(label)
                seen.add(label)
            raise CitationDataError(
                "duplicate journal labels: " + ", ".join(repr(d) for d in dupes)
            )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True, eq=False)
class CitationMatrix:
    """Immutable non-negative square count matrix with journal labels.

    ``counts[i, j]`` is the number of citations journal i received from
    journal j.
    """

    journals: JournalSet
    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.counts, dtype=float)
        if arr.shape == (1, 1):
            raise CitationDataError("matrix must be at least 2x2, got 1x1")
        object.__setattr__(self, "counts", _checked(self.journals, arr, 2))

    @property
    def n(self) -> int:
        return self.counts.shape[0]


def _checked(journals: JournalSet, arr: np.ndarray, ndim: int) -> np.ndarray:
    """``arr``, made read-only, once it has ``ndim`` axes of one entry per
    journal and every cell is finite and non-negative.  The first bad cell
    in row-major order is named."""
    n = len(journals)
    if arr.shape != (n,) * ndim:
        want = f"a square {n}x{n} matrix" if ndim == 2 else f"a vector of {n} values"
        raise CitationDataError(f"{n} journal labels need {want}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise CitationDataError(f"cell {_first_cell(~np.isfinite(arr))} is not finite")
    negative = arr < 0
    if negative.any():
        # boolean indexing is row-major too, so this is the named cell
        value = arr[negative][0]
        raise CitationDataError(f"cell {_first_cell(negative)} is negative: {value:g}")
    arr.setflags(write=False)
    return arr


def _first_cell(mask: np.ndarray) -> str:
    return "(" + ", ".join(map(str, np.argwhere(mask)[0])) + ")"


def _adopt(cls, journals: JournalSet, values: np.ndarray):
    """A ``cls`` matrix or vector wrapping ``values``, a float array no
    caller holds (a new array, or a view of read-only package counts), made
    read-only but neither copied nor scanned: its cells were checked, or
    derived from checked cells in a way that cannot make one negative or
    non-finite (a zeroed diagonal, a transpose, a guarded division, a
    product renormalized by its finite positive mass)."""
    values.setflags(write=False)
    m = object.__new__(cls)
    for field, value in zip(fields(cls), (journals, values)):
        object.__setattr__(m, field.name, value)
    return m


@dataclass(frozen=True, eq=False)
class MarginTotals:
    """Row and column totals of a citation matrix.

    ``cited_totals[i]`` sums row i (citations received by journal i);
    ``citing_totals[j]`` sums column j (references made by journal j).
    """

    cited_totals: np.ndarray
    citing_totals: np.ndarray


def _is_int(value) -> bool:
    """Whether ``value`` is an integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_positive_count(value) -> bool:
    return _is_int(value) and value >= 1


def _check_max_size(max_size: int, rows: int = 0) -> None:
    """Refuse a max_size that is not an integer of at least 2, and a matrix
    of more rows than it."""
    if not _is_int(max_size):
        raise CitationDataError(f"max_size must be an integer, got {max_size!r}")
    if max_size < 2:
        raise CitationDataError(f"max_size must be at least 2, got {max_size!r}")
    if rows > max_size:
        raise CitationDataError(
            f"matrix has more than {max_size} rows, above the max_size limit "
            "(raise max_size to allow it)"
        )


def parse_matrix_csv(
    data: str | bytes,
    labeled: bool = False,
    max_size: int = DEFAULT_MAX_SIZE,
) -> CitationMatrix:
    """Parse a comma-separated citation matrix.

    Parameters
    ----------
    data : str or bytes
        CSV content; bytes are decoded as UTF-8.  CRLF, LF and CR line
        endings are accepted, as are a trailing newline and one leading
        byte-order mark (U+FEFF).
    labeled : bool
        When True, the first row holds column labels (after a corner cell)
        and the first column holds row labels; the two axes must list the
        same journals in the same order.  When False, every field is a
        count and journals are labeled J1..Jn.
    max_size : int
        Reject matrices larger than this many rows/columns; at least 2.

    Raises
    ------
    CitationDataError
        For text the csv module cannot read, ragged or non-square grids,
        non-numeric or negative cells, duplicate or mismatched labels, sizes
        outside [2, max_size], and a ``max_size`` that is not an integer of
        at least 2.

    Notes
    -----
    The accepted grammar is ``csv.reader`` rows with ``float()`` cells.
    Headerless unsigned integer text, made only of digits, commas,
    spaces, tabs and line breaks, is read by numpy's C reader instead,
    as int64, and held as float64, which gives the counts ``float()``
    gives.  Any other text, and any such text the C reader refuses, goes
    through the csv reader, which words the errors; a grid the C reader
    reads is refused for its shape alone, with the csv reader's message.
    """
    _check_max_size(max_size)
    if isinstance(data, bytes):
        try:
            # rebound, so the bytes are freed unless the caller holds them too
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CitationDataError(f"input is not valid UTF-8 text: {exc}") from exc
    text = data
    values = None if labeled else _plain_grid(text, max_size)
    if values is not None:
        journals = _numbered_journals(len(values))
        return _adopt(CitationMatrix, journals, _checked(journals, values, 2))
    rows = []
    # The reader gets one line at a time, with its ending, so no second copy
    # of the text is held; a leading byte-order mark is skipped.
    lines = _LINE.finditer(text, 1 if text.startswith("\ufeff") else 0)
    reader = csv.reader(map(re.Match.group, lines))
    try:
        for row in reader:
            if not row:
                continue
            # Stop at the first row past the cap, so an oversized input is
            # never materialised; the header row of a labeled matrix does
            # not count.
            _check_max_size(max_size, len(rows) + 1 - labeled)
            rows.append(row)
    except csv.Error as exc:
        # such as a field longer than csv.field_size_limit()
        raise CitationDataError(f"malformed CSV at line {reader.line_num}: {exc}") from exc
    if not rows:
        raise CitationDataError("input contains no data rows")

    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CitationDataError(
                f"ragged row: line {lineno} has {len(row)} fields, expected {width}"
            )
    if labeled:
        column_labels = tuple(rows[0][1:])
        row_labels = tuple(row[0] for row in rows[1:])
        if row_labels != column_labels:
            raise CitationDataError(
                "row labels do not match column labels "
                f"({list(row_labels)} vs {list(column_labels)})"
            )
        label_set = JournalSet(column_labels)
        cells = [row[1:] for row in rows[1:]]
    else:
        label_set, cells = _numbered_journals(len(rows)), rows
    n = len(cells)
    # Matching labels make the labeled grid n x n as well; its size is
    # checked before any cell, as the headerless one's is.
    _check_square(n, width - labeled)

    # Only the conversion sits in the try: CitationDataError is a
    # ValueError, and the finite and sign checks must not be caught here.
    try:
        values = np.fromiter(
            map(float, itertools.chain.from_iterable(cells)), dtype=float, count=n * n
        ).reshape(n, n)
    except ValueError:
        _raise_first_non_numeric(cells)
        raise
    return _adopt(CitationMatrix, label_set, _checked(label_set, values, 2))


def _check_square(rows: int, width: int) -> None:
    if width != rows:
        raise CitationDataError(f"matrix must be square, got {rows} rows x {width} columns")
    if rows < 2:
        raise CitationDataError(f"matrix must be at least 2x2, got {rows}x{rows}")


def _numbered_journals(n: int) -> JournalSet:
    return JournalSet(tuple(f"J{i}" for i in range(1, n + 1)))


def _plain_grid(text: str, max_size: int) -> np.ndarray | None:
    """The counts of headerless unsigned integer ``text`` read by numpy's
    C reader, or None for any other text, and for text the reader refuses,
    such as a field past int64: the csv reader path reads those.  The
    reader's counts equal those ``float()`` gives.  A grid it reads but
    that is not square, or below 2x2, raises the csv path's error without
    being read again: the lines it takes split into the csv path's rows,
    so both see one shape."""
    # An allowlist, as on other characters the two paths differ: loadtxt
    # strips "\x1c"-"\x1e" around a number, which float() rejects, and
    # str.splitlines breaks lines where the csv path does not (see _LINE).
    # With no quote character, each csv row is its line split at commas.
    if not text.isascii() or text.encode("ascii").translate(None, _INTEGER_BYTES):
        return None
    # Up to max_size lines with no blank ones hold at most 2 * max_size
    # break characters.  More breaks mean too many rows or many blank lines,
    # and the csv path, which stops at the cap, reads those without
    # splitting the whole text at once.
    if text.count("\n") + text.count("\r") > 2 * max_size:
        return None
    lines = [line for line in text.splitlines() if line]
    if not lines or len(lines) > max_size:
        return None
    # a longer field is a csv.Error on the reader path
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        # every line is a row, so max_rows lets numpy size the counts once
        # instead of growing them
        values = np.loadtxt(
            lines,
            dtype=np.int64,
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=2,
            max_rows=len(lines),
        )
    except (ValueError, OverflowError):
        return None
    # Cast in place, so the counts are never held twice: numpy copies
    # each overlapping block of rows before it converts it.
    counts = values.view(np.float64)
    for i in range(0, len(values), _CAST_ROWS):
        counts[i : i + _CAST_ROWS] = values[i : i + _CAST_ROWS]
    _check_square(*counts.shape)
    return counts


def _raise_first_non_numeric(cells: list[list[str]]) -> None:
    """Name the first cell, in row-major order, that ``float`` rejects."""
    for i, row in enumerate(cells):
        for j, field in enumerate(row):
            try:
                float(field)
            except ValueError as exc:
                raise CitationDataError(
                    f"non-numeric cell at row {i + 1}, column {j + 1}: {field!r}"
                ) from exc


def _kept(m: CitationMatrix, key: tuple, build):
    """The result ``build()`` gives for ``m`` and ``key``, built on the
    first call and kept in ``m.__dict__`` (as ``functools.cached_property``
    keeps its value on a frozen dataclass), so later calls return that very
    object.  Keep only O(n)-sized results here.  Two threads that both
    miss build the same bytes, and both return the one kept first; an
    exception keeps nothing."""
    kept = m.__dict__.setdefault("_kept", {})
    try:
        return kept[key]
    except KeyError:
        return kept.setdefault(key, build())


def margins(m: CitationMatrix) -> MarginTotals:
    """Row sums and column sums of a matrix.

    Sums are exact for integer-valued inputs.  The totals are computed once
    per matrix and kept on it, so later calls return that very object;
    changing ``counts`` after making them writable again is outside the
    contract.

    Raises
    ------
    NumericalError
        If a total overflows, naming the first journal whose total is not
        finite.
    """
    return _margins(m, stripped=False)


def _margins(m: CitationMatrix, stripped: bool) -> MarginTotals:
    """``margins(m)``, or with ``stripped`` the totals and errors of
    ``margins(strip_self_citations(m))``, each kept on ``m``: a stripped
    copy is summed and dropped."""
    return _kept(
        m,
        ("margins", stripped),
        lambda: _margin_totals(strip_self_citations(m) if stripped else m),
    )


def _margin_totals(m: CitationMatrix) -> MarginTotals:
    with np.errstate(over="ignore"):
        cited = m.counts.sum(axis=1)
        citing = m.counts.sum(axis=0)
    for side, totals in (("cited", cited), ("citing", citing)):
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            raise NumericalError(
                f"{side} total of journal {m.journals.labels[bad[0]]!r} overflowed"
            )
    cited.setflags(write=False)
    citing.setflags(write=False)
    return MarginTotals(cited, citing)


def transpose(m: CitationMatrix) -> CitationMatrix:
    """Swap the cited and citing axes.  The result's counts are a read-only
    view of ``m.counts``, not a copy."""
    return _adopt(CitationMatrix, m.journals, m.counts.T)


def strip_self_citations(m: CitationMatrix) -> CitationMatrix:
    """Return a copy with every diagonal (within-journal) count zeroed."""
    values = m.counts.copy()
    np.fill_diagonal(values, 0.0)
    return _adopt(CitationMatrix, m.journals, values)


def matrix_power(m: CitationMatrix, k: int) -> np.ndarray:
    """Compute the k-th power of the count matrix by repeated squaring.

    Returns a read-only real-valued array; ``k=1`` returns a copy of the
    counts.  Binary exponentiation needs O(log k) products, so k below
    2**64 takes at most 126, and the results are exact for integer counts
    below 2**53.  Entries grow geometrically with k, so the computation
    runs in binary64 and stops with an error the moment a product cell
    stops being finite.

    Raises
    ------
    CitationDataError
        If k is not an integer of at least 1 (the identity matrix is not a
        citation matrix, and a bool is not a count), or is 2**64 or more.
    NumericalError
        On overflow, naming the first offending cell and the power being
        formed.
    """
    if not _is_positive_count(k):
        raise CitationDataError(f"matrix power requires an integer k >= 1, got {k!r}")
    if int(k) >= 2**64:  # a product takes ~21 ms at n=1024 on 2 vCPUs
        raise CitationDataError(
            f"matrix power requires k below 2**64, got a {int(k).bit_length()}-bit k"
        )
    result, power = m.counts.copy(), 1
    # Each further bit of k squares the result, and a set bit multiplies
    # it by the matrix once more: k=3 forms (A @ A) @ A.
    for bit in bin(int(k))[3:]:
        power *= 2
        result = _power_product(m, result, result, power)
        if bit == "1":
            power += 1
            result = _power_product(m, result, m.counts, power)
    result.setflags(write=False)
    return result


def _power_product(
    m: CitationMatrix, a: np.ndarray, b: np.ndarray, power: int
) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        product = a @ b
    bad = ~np.isfinite(product)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        labels = m.journals.labels
        raise NumericalError(
            f"matrix power overflowed at cell ({labels[i]!r}, {labels[j]!r}) "
            f"while computing power {power}"
        )
    return product
