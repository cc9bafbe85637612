"""Rendering of analysis results as aligned text tables, CSV, or JSON.

Every result is first turned into one or more sections (row labels, a
header and one 2-D array) by the one layout of its type, or, for a matrix
power and a fit, which no result type holds, by a layout given their
parts.  Then the chosen writer yields the report text piece by piece
(title, header, row, footer), and the CLI writes each piece as it comes.
Each writer builds one ``%`` template per section, from its column count
(and, for a table, its column widths), and formats a whole row with it.
A table pads labels and column names by display width, so a wide
character takes two columns.
Floats are written with 12 significant digits in every format; a JSON
number is the shortest repr of the 12-digit value, and an int cell keeps
all its digits, so the three formats carry identical values.  The JSON
writer produces the indented text of ``json.dumps(..., indent=2)``
itself, without building the dict.  Undefined (NaN) entries appear as
"n/a" in tables, empty cells in CSV, and null in JSON; an infinite entry
is an overflow, and no section holds one.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import unicodedata
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import CitationDataError, NumericalError
from .matrix import JournalSet, _is_int
from .metrics import (
    IterationTrace,
    NormalizedMatrix,
    PowerWeaknessResult,
    SelfCitationDiagnostics,
)
from .sensitivity import LinearFit, SensitivityReport

FORMATS = ("table", "csv", "json")


@dataclass(frozen=True, eq=False)
class Section:
    """One titled grid: a header row, one row of ``values`` per label, and
    optional table-only footer lines.  ``values`` is a 2-D array: every
    writer formats a float64 array's cells with 12 significant digits, and
    in any other array a Python int keeps all its digits.

    A section is well formed: ``values`` is a 2-D numpy array of bools,
    integers or floats, or an object array of real numbers, with one row
    per label and one column per name in ``header[1:]``; the header holds
    at least the label column's name; labels and column names are unique;
    and no cell is infinite (NaN marks an undefined value, but an infinite
    one is an overflow).  The key, title, footer lines, labels and header
    are strings.
    """

    key: str
    title: str
    header: tuple[str, ...]
    labels: tuple[str, ...]
    values: np.ndarray
    footer: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.values, np.ndarray):
            raise CitationDataError(
                f"section {self.key!r} has values of type {type(self.values).__name__}, "
                "not a numpy array"
            )
        if not self.header:
            raise CitationDataError(f"section {self.key!r} has an empty header")
        columns = self.header[1:]
        shape = (len(self.labels), len(columns))
        if self.values.shape != shape:
            raise CitationDataError(
                f"section {self.key!r} has values of shape {self.values.shape} "
                f"for {shape[0]} labels and {shape[1]} columns"
            )
        named = (
            ("key", (self.key,)),
            ("title", (self.title,)),
            ("footer line", self.footer),
            ("label", self.labels),
            ("column name", self.header),
        )
        for kind, names in named:
            for name in names:
                if not isinstance(name, str):
                    raise CitationDataError(
                        f"section {self.key!r} has a {kind} that is not a string: {name!r}"
                    )
        if self.values.dtype.kind not in "biufO":
            raise CitationDataError(
                f"section {self.key!r} has values of dtype {self.values.dtype}, "
                "not bools, integers or floats"
            )
        # the dtype vouches for every cell of any other array
        if self.values.dtype.kind == "O":
            for cell in self.values.flat:
                if not isinstance(cell, numbers.Real):
                    raise CitationDataError(
                        f"section {self.key!r} has a cell that is not a real number: {cell!r}"
                    )
        for kind, names in (("label", self.labels), ("column name", columns)):
            if len(set(names)) != len(names):
                raise CitationDataError(f"section {self.key!r} repeats a {kind}")
        # compared, not isinf: the ufunc does not take object arrays
        infinite = (self.values == np.inf) | (self.values == -np.inf)
        if infinite.any():
            i, j = map(int, np.argwhere(infinite)[0])
            raise NumericalError(
                f"{self.key} value overflowed at row {self.labels[i]!r}, "
                f"column {columns[j]!r}"
            )


def _row_cells(sec: Section):
    """The ``%`` conversion of ``sec``'s cells, and its rows as tuples of
    cells, converted one row at a time.  A float64 section's cells take
    ``.12g``; any other section's cells are rendered to text first (``s``),
    so that an int keeps all its digits."""
    rows = (tuple(row.tolist()) for row in sec.values)
    # a float64 array holds no int
    if sec.values.dtype == np.float64:
        return ".12g", rows
    texts = (tuple(str(int(v)) if _is_int(v) else "%.12g" % v for v in row) for row in rows)
    return "s", texts


def json_cell(value: float) -> float | None:
    """The JSON value of a reported number: NaN becomes null, and any other
    float is re-parsed from its 12-digit rendering."""
    return None if math.isnan(value) else float("%.12g" % value)


def _grid(
    key: str,
    title: str,
    columns: tuple[str, ...],
    journals: JournalSet,
    values: np.ndarray,
    footer: tuple[str, ...] = (),
) -> Section:
    """Section with one row per journal and one column of ``values`` per
    name in ``columns``."""
    return Section(key, title, ("journal", *columns), journals.labels, values, footer)


def _iw_layout(trace: IterationTrace) -> tuple[Section, ...]:
    title = f"Influence weights ({trace.iterations_used} cycles)"
    values = trace.final.values[:, None]
    return (_grid("iw", title, ("weight",), trace.final.journals, values),)


def _normalized_layout(result: NormalizedMatrix) -> tuple[Section, ...]:
    title = "Normalized citation matrix (citations received per reference given)"
    journals = result.journals
    return (_grid("normalized", title, journals.labels, journals, result.values),)


def _power_layout(journals: JournalSet, values: np.ndarray, k: int) -> tuple[Section, ...]:
    title = f"Citation matrix power {k}"
    return (_grid("power", title, journals.labels, journals, values),)


def _pwr_layout(result: PowerWeaknessResult) -> tuple[Section, ...]:
    title = f"Power-weakness ratios after {result.cycles} cycles"
    values = np.column_stack(
        (result.power.values, result.weakness.values, result.ratio.values)
    )
    columns = ("power", "weakness", "ratio")
    return (_grid("pwr", title, columns, result.power.journals, values),)


def _diagnostics_layout(result: SelfCitationDiagnostics) -> tuple[Section, ...]:
    # one column per field after ``journals``, in declaration order
    columns = tuple(field.name for field in fields(result)[1:])
    values = np.column_stack([getattr(result, name) for name in columns])
    title = "Self-citation diagnostics"
    return (_grid("diagnostics", title, columns, result.journals, values),)


def _sensitivity_layout(result: SensitivityReport) -> tuple[Section, ...]:
    title = f"Self-citation sensitivity of {result.indicator}"
    values = np.column_stack(
        (result.with_values, result.without_values, result.pct_change)
    )
    footer = (
        f"max |pct_change|:  {result.max_abs_pct_change:.12g}".replace("nan", "n/a"),
        f"mean |pct_change|: {result.mean_abs_pct_change:.12g}".replace("nan", "n/a"),
    )
    columns = ("with", "without", "pct_change")
    return (_grid("sensitivity", title, columns, result.journals, values, footer),)


def _fit_layout(pairs: SensitivityReport, fit: LinearFit) -> tuple[Section, ...]:
    """The report of the with/without ``pairs`` and the line ``fit``
    through the without values against the with values."""
    title = "Fitted pairs (without against with)"
    values = np.column_stack((pairs.with_values, pairs.without_values))
    names = ("slope", "intercept", "pearson_r", "n_points")
    # an object column, so that n_points stays an int
    stats = np.array([[getattr(fit, name)] for name in names], dtype=object)
    return (
        _grid("points", title, ("with", "without"), pairs.journals, values),
        Section(
            "statistics", "Least-squares line", ("statistic", "value"), names, stats
        ),
    )


#: The one report layout of each result type a library function returns.
_LAYOUTS = {
    IterationTrace: _iw_layout,
    NormalizedMatrix: _normalized_layout,
    PowerWeaknessResult: _pwr_layout,
    SelfCitationDiagnostics: _diagnostics_layout,
    SensitivityReport: _sensitivity_layout,
}


def build_sections(result) -> tuple[Section, ...]:
    """Map a result object to its report sections, by its type."""
    layout = _LAYOUTS.get(type(result))
    if layout is None:
        raise CitationDataError(f"no report layout for {type(result).__name__}")
    return layout(result)


def _width(text: str) -> int:
    """Terminal columns of ``text``: an East Asian wide or fullwidth
    character takes 2, a combining mark 0, any other character 1."""
    return sum(
        0
        if unicodedata.combining(c)
        else 2 if unicodedata.east_asian_width(c) in ("W", "F") else 1
        for c in text
    )


def _gap(text: str, width: int) -> str:
    """The spaces that pad ``text`` to ``width`` display columns."""
    return " " * (width - _width(text))


def _table_pieces(sections: Sequence[Section]):
    for index, sec in enumerate(sections):
        if index:
            yield "\n"
        spec, rows = _row_cells(sec)
        # size, then write, in two passes: a section's texts are never all held
        widths = list(map(_width, sec.header))
        probe = ",".join([f"%{spec}"] * (len(widths) - 1))
        for label, cells in zip(sec.labels, rows):
            widths[0] = max(widths[0], _width(label))
            widths[1:] = map(max, widths[1:], map(len, (probe % cells).split(",")))
        yield f"{sec.title}\n{'-' * len(sec.title)}\n"
        first, *names = sec.header
        header = "".join(f"  {_gap(name, w)}{name}" for name, w in zip(names, widths[1:]))
        yield (first + _gap(first, widths[0]) + header).rstrip() + "\n"
        template = "".join(f"  %{w}{spec}" for w in widths[1:])
        for label, cells in zip(sec.labels, _row_cells(sec)[1]):
            # "nan" and "n/a" have one width; a label may hold "nan"
            line = label + _gap(label, widths[0]) + (template % cells).replace("nan", "n/a")
            yield line.rstrip() + "\n"
        yield from (line + "\n" for line in sec.footer)


def _csv_line(row) -> str:
    # writerow returns what its file's write returns: here, the row's line
    return csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow(row)


def _csv_label(label: str, lone: bool) -> str:
    """The text csv.writer gives ``label`` as the first field of a row, or
    as its only field (``lone``), where an empty field is quoted."""
    return _csv_line((label,) if lone else (label, ""))[: -1 if lone else -2]


def _csv_pieces(sections: Sequence[Section]):
    for index, sec in enumerate(sections):
        if len(sections) > 1:
            yield f"\n# {sec.key}\n" if index else f"# {sec.key}\n"
        yield _csv_line(sec.header)
        spec, rows = _row_cells(sec)
        lone = len(sec.header) == 1
        # every cell follows a comma, and only NaN's text starts with "nan"
        template = f",%{spec}" * (len(sec.header) - 1) + "\n"
        for label, cells in zip(sec.labels, rows):
            yield _csv_label(label, lone) + (template % cells).replace(",nan", ",")


def _json_section(sec: Section, indent: str):
    """Yield ``sec`` as (label, JSON text) members of an object indented by
    ``indent``, formatting one row at a time.  With one column a row is its
    cell, otherwise an object keyed by column name."""
    names = sec.header[1:]
    probe = ",".join(["%.12g"] * len(names))
    keys = (f"\n{indent}    {json.dumps(name)}: ".replace("%", "%%") for name in names)
    template = ",".join(key + "%s" for key in keys)
    template = "%s" if len(names) == 1 else f"{{{template}\n{indent}  }}" if names else "{}"
    # as in _row_cells, only an array other than float64 can hold an int
    ints = sec.values.dtype != np.float64
    for label, row in zip(sec.labels, sec.values):
        cells = tuple(row.tolist())
        # An int keeps its digits, an exponent form (.12g from 1e12 on,
        # repr only from 1e16) is read back, a text with a point is already
        # its float's repr, nan is null and an integral text (below 1e12)
        # gains ".0".  With no column, the one empty text pairs with no cell.
        texts = [
            str(int(v)) if ints and _is_int(v)
            else repr(float(t)) if "e" in t
            else t if "." in t
            else "null" if t == "nan"
            else t + ".0"
            for v, t in zip(cells, (probe % cells).split(","))
        ]
        yield label, template % tuple(texts)


def _json_object(members, indent: str):
    """Yield, piece by piece, the indented JSON text of an object whose
    ``members`` are (key, value text or iterable of pieces) pairs."""
    separator = "{"
    for key, value in members:
        yield f"{separator}\n{indent}  {json.dumps(key)}: "
        if isinstance(value, str):
            yield value
        else:
            yield from value
        separator = ","
    yield "{}" if separator == "{" else f"\n{indent}}}"


def _json_pieces(sections: Sequence[Section], meta: dict | None):
    # the text json.dumps(indent=2) writes for the dict of the rows (one section)
    # or of the sections by key, with "meta" last; it refuses before the first piece
    if len(sections) == 1:
        keys = sections[0].labels
        members = _json_section(sections[0], "")
    else:
        keys = [sec.key for sec in sections]
        if len(set(keys)) != len(keys):
            raise CitationDataError("two sections of the JSON report share a key")
        members = (
            (sec.key, _json_object(_json_section(sec, "  "), "  ")) for sec in sections
        )
    if meta is not None:
        if "meta" in keys:
            raise CitationDataError(
                "a row named 'meta' clashes with the meta block of the JSON report"
            )
        meta_text = json.dumps(meta, indent=2, allow_nan=False).replace("\n", "\n  ")
        members = itertools.chain(members, [("meta", meta_text)])
    return itertools.chain(_json_object(members, ""), ("\n",))


def report_pieces(sections: Sequence[Section], fmt: str, meta: dict | None = None):
    """The report of prepared sections in the requested format, as an
    iterator of text pieces.  Every refusal is raised here, before the
    first piece is made."""
    if fmt == "table":
        return _table_pieces(sections)
    if fmt == "csv":
        return _csv_pieces(sections)
    if fmt == "json":
        return _json_pieces(sections, meta)
    raise CitationDataError(f"unknown format {fmt!r}; choose one of {', '.join(FORMATS)}")


def render_sections(sections: Sequence[Section], fmt: str, meta: dict | None = None) -> str:
    """Serialize prepared sections in the requested format."""
    return "".join(report_pieces(sections, fmt, meta))

