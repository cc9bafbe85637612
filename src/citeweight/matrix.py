"""Square citation matrices: parsing, validation, margins, and raw powers.

A citation matrix is an n-by-n grid of non-negative counts whose cell
(i, j) holds the citations journal i received from journal j: rows count
the cited side, columns the citing side.  Two interchange formats are
supported:

* headerless -- n lines of n comma-separated numeric fields, no heading
  line; journals get synthetic labels J1..Jn;
* labeled    -- the first row carries column labels, the first column row
  labels, and both label axes must agree exactly.

Both CRLF and LF line endings are accepted on input; output always uses
LF.  All counts are stored as binary64 reals so that pre-normalized
matrices round-trip through the same code path as raw integer counts.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CitationDataError, NumericalError

#: Default cap on matrix size accepted by the parser; raise per call via
#: ``max_size`` when a larger matrix is intended.
DEFAULT_MAX_SIZE = 1024


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
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise CitationDataError(f"matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise CitationDataError(f"matrix must be at least 2x2, got {n}x{n}")
        if len(self.journals) != n:
            raise CitationDataError(
                f"{len(self.journals)} journal labels for a {n}x{n} matrix"
            )
        bad = ~np.isfinite(arr)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise CitationDataError(f"cell ({i}, {j}) is not finite")
        neg = arr < 0
        if neg.any():
            i, j = map(int, np.argwhere(neg)[0])
            raise CitationDataError(f"cell ({i}, {j}) is negative: {arr[i, j]:g}")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def n(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True, eq=False)
class MarginTotals:
    """Row, column, and grand totals of a citation matrix.

    ``cited_totals[i]`` sums row i (citations received by journal i);
    ``citing_totals[j]`` sums column j (references made by journal j).
    """

    cited_totals: np.ndarray
    citing_totals: np.ndarray
    grand_total: float


def _decode(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CitationDataError(f"input is not valid UTF-8 text: {exc}") from exc
    return data


def parse_matrix_csv(
    data: str | bytes,
    labeled: bool = False,
    max_size: int = DEFAULT_MAX_SIZE,
) -> CitationMatrix:
    """Parse a comma-separated citation matrix.

    Parameters
    ----------
    data : str or bytes
        CSV content; bytes are decoded as UTF-8.  CRLF and LF line endings
        are both accepted, and a trailing newline is tolerated.
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
        For ragged or non-square grids, non-numeric or negative cells,
        duplicate or mismatched labels, sizes outside [2, max_size], and a
        ``max_size`` below 2.
    """
    if max_size < 2:
        raise CitationDataError(f"max_size must be at least 2, got {max_size!r}")
    text = _decode(data)
    # Stop at the first row past the cap, so an oversized input is never
    # materialised; the header row of a labeled matrix does not count.
    row_cap = max_size + 1 if labeled else max_size
    rows = []
    # newline='' hands CRLF through to the csv reader, which understands it.
    # The reader is not kept in a local: its StringIO holds a copy of the
    # text at four bytes a character, which must be freed before conversion.
    for row in csv.reader(io.StringIO(text, newline="")):
        if not row:
            continue
        if len(rows) == row_cap:
            raise CitationDataError(
                f"matrix has more than {max_size} rows, above the max_size limit "
                "(raise max_size to allow it)"
            )
        rows.append(row)
    if not rows:
        raise CitationDataError("input contains no data rows")

    if labeled:
        header = rows[0]
        width = len(header)
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != width:
                raise CitationDataError(
                    f"ragged row: line {lineno} has {len(row)} fields, expected {width}"
                )
        column_labels = tuple(header[1:])
        row_labels = tuple(row[0] for row in rows[1:])
        if row_labels != column_labels:
            raise CitationDataError(
                "row labels do not match column labels "
                f"({list(row_labels)} vs {list(column_labels)})"
            )
        label_set = JournalSet(column_labels)
        cells = [row[1:] for row in rows[1:]]
        n = len(cells)
    else:
        width = len(rows[0])
        for lineno, row in enumerate(rows, start=1):
            if len(row) != width:
                raise CitationDataError(
                    f"ragged row: line {lineno} has {len(row)} fields, expected {width}"
                )
        n = len(rows)
        if width != n:
            raise CitationDataError(f"matrix must be square, got {n} rows x {width} columns")
        if n < 2:
            raise CitationDataError(f"matrix must be at least 2x2, got {n}x{n}")
        label_set = JournalSet(tuple(f"J{i}" for i in range(1, n + 1)))
        cells = rows

    # Matching labels make the labeled grid n x n as well.  Only the
    # conversion sits in the try: CitationDataError is a ValueError, and the
    # finite and sign checks of CitationMatrix must not be caught here.
    try:
        values = np.fromiter(
            map(float, itertools.chain.from_iterable(cells)), dtype=float, count=n * n
        ).reshape(n, n)
    except ValueError:
        _raise_first_non_numeric(cells)
        raise
    return CitationMatrix(label_set, values)


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


def serialize_matrix_csv(m: CitationMatrix, labeled: bool = False) -> str:
    """Render a matrix as CSV text that parses back to an equal matrix.

    Integer-valued counts are written without a decimal point; other
    values use the shortest round-tripping decimal form.  Lines end with
    LF and the text ends with a trailing newline.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if labeled:
        writer.writerow(["journal", *m.journals])
    for i, label in enumerate(m.journals):
        fields = [_format_count(v) for v in m.counts[i]]
        writer.writerow([label, *fields] if labeled else fields)
    return out.getvalue()


def _format_count(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def margins(m: CitationMatrix) -> MarginTotals:
    """Row sums, column sums, and the grand total of a matrix.

    Sums are exact for integer-valued inputs.

    Raises
    ------
    NumericalError
        If a total overflows, naming the first journal whose total is not
        finite.
    """
    with np.errstate(over="ignore"):
        cited = m.counts.sum(axis=1)
        citing = m.counts.sum(axis=0)
        grand = float(m.counts.sum())
    for side, totals in (("cited", cited), ("citing", citing)):
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            raise NumericalError(
                f"{side} total of journal {m.journals.labels[bad[0]]!r} overflowed"
            )
    if not np.isfinite(grand):
        raise NumericalError("grand total of the citation matrix overflowed")
    return MarginTotals(cited, citing, grand)


def transpose(m: CitationMatrix) -> CitationMatrix:
    """Swap the cited and citing axes."""
    return CitationMatrix(m.journals, m.counts.T)


def strip_self_citations(m: CitationMatrix) -> CitationMatrix:
    """Return a copy with every diagonal (within-journal) count zeroed."""
    values = m.counts.copy()
    np.fill_diagonal(values, 0.0)
    return CitationMatrix(m.journals, values)


def matrix_power(m: CitationMatrix, k: int) -> np.ndarray:
    """Compute the k-th power of the count matrix by repeated squaring.

    Returns a plain real-valued array; ``k=1`` returns the counts
    unchanged.  Binary exponentiation needs O(log k) products, and the
    results are exact for integer counts below 2**53.  Entries grow
    geometrically with k, so the computation runs in binary64 and stops
    with an error the moment a product cell stops being finite.

    Raises
    ------
    CitationDataError
        If k < 1 (the identity matrix is not a citation matrix).
    NumericalError
        On overflow, naming the first offending cell and the power being
        formed.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise CitationDataError(f"matrix power requires an integer k >= 1, got {k!r}")
    result, power = m.counts.copy(), 1
    # Each further bit of k squares the result, and a set bit multiplies
    # it by the matrix once more: k=3 forms (A @ A) @ A.
    for bit in bin(int(k))[3:]:
        power *= 2
        result = _power_product(m, result, result, power)
        if bit == "1":
            power += 1
            result = _power_product(m, result, m.counts, power)
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
