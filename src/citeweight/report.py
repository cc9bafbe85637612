"""Rendering of analysis results as aligned text tables, CSV, or JSON.

Every result is first turned into one or more sections (a titled grid of
labelled rows) by the one layout of its type, then the chosen writer
serializes the sections.  Numbers are written with 12 significant digits
in every format, and the JSON writer re-parses that rendering so the
three formats carry identical values.  Undefined (NaN) entries appear as
"n/a" in tables, empty cells in CSV, and null in JSON; an infinite entry
is an overflow, and no layout lets one through.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CitationDataError, NumericalError
from .matrix import JournalSet
from .metrics import (
    IterationTrace,
    NormalizedMatrix,
    PowerWeaknessResult,
    SelfCitationDiagnostics,
)
from .sensitivity import LinearFit, SensitivityReport

FORMATS = ("table", "csv", "json")

Cell = str | int | float


@dataclass(frozen=True, eq=False)
class MatrixPower:
    """The k-th power of a citation matrix, with its journal labels."""

    journals: JournalSet
    values: np.ndarray
    k: int


@dataclass(frozen=True, eq=False)
class FitReport:
    """Influence weights with and without self-citations, and the line
    fitted through the without values against the with values."""

    sensitivity: SensitivityReport
    fit: LinearFit


@dataclass(frozen=True)
class Section:
    """One titled grid: a header row, labelled data rows, and optional
    table-only footer lines.  The first column holds the row key."""

    key: str
    title: str
    header: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    footer: tuple[str, ...] = ()


def format_number(value: float) -> str:
    """Canonical 12-significant-digit rendering shared by all writers."""
    return f"{value:.12g}"


def _cell_text(value: Cell, undefined: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if math.isnan(value):
        return undefined
    return format_number(float(value))


def json_cell(value: Cell):
    """The JSON value of one cell: NaN becomes null, and a float is
    re-parsed from its 12-digit rendering."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if math.isnan(value):
        return None
    return float(format_number(float(value)))


def _grid(
    key: str,
    title: str,
    columns: tuple[str, ...],
    journals: JournalSet,
    values: np.ndarray,
    footer: tuple[str, ...] = (),
) -> Section:
    """Section with one row per journal and one column of ``values`` per
    name in ``columns``.

    NaN marks an undefined value, but an infinite one is an overflow and
    is refused, naming the section, row and column.
    """
    infinite = np.isinf(values)
    if infinite.any():
        i, j = map(int, np.argwhere(infinite)[0])
        raise NumericalError(
            f"{key} value overflowed at row {journals.labels[i]!r}, "
            f"column {columns[j]!r}"
        )
    rows = tuple(
        (label, *cells) for label, cells in zip(journals.labels, values.tolist())
    )
    return Section(key, title, ("journal", *columns), rows, footer)


def _iw_layout(trace: IterationTrace) -> tuple[Section, ...]:
    title = f"Influence weights ({trace.iterations_used} cycles)"
    values = trace.final.values[:, None]
    return (_grid("iw", title, ("weight",), trace.journals, values),)


def _normalized_layout(result: NormalizedMatrix) -> tuple[Section, ...]:
    title = "Normalized citation matrix (citations received per reference given)"
    journals = result.journals
    return (_grid("normalized", title, journals.labels, journals, result.values),)


def _power_layout(result: MatrixPower) -> tuple[Section, ...]:
    title = f"Citation matrix power {result.k}"
    journals = result.journals
    return (_grid("power", title, journals.labels, journals, result.values),)


def _pwr_layout(result: PowerWeaknessResult) -> tuple[Section, ...]:
    title = f"Power-weakness ratios after {result.cycles} cycles"
    values = np.column_stack(
        (result.power.values, result.weakness.values, result.ratio.values)
    )
    columns = ("power", "weakness", "ratio")
    return (_grid("pwr", title, columns, result.power.journals, values),)


_DIAGNOSTIC_COLUMNS = (
    "self_citations",
    "cited_by_others",
    "citing_others",
    "self_cited_rate",
    "self_citing_rate",
    "cited_citing_ratio_with",
    "cited_citing_ratio_without",
)


def _diagnostics_layout(result: SelfCitationDiagnostics) -> tuple[Section, ...]:
    values = np.column_stack([getattr(result, name) for name in _DIAGNOSTIC_COLUMNS])
    title = "Self-citation diagnostics"
    return (_grid("diagnostics", title, _DIAGNOSTIC_COLUMNS, result.journals, values),)


def _sensitivity_layout(result: SensitivityReport) -> tuple[Section, ...]:
    title = f"Self-citation sensitivity of {result.indicator}"
    values = np.column_stack(
        (result.with_values, result.without_values, result.pct_change)
    )
    footer = (
        f"max |pct_change|:  {_cell_text(result.max_abs_pct_change, 'n/a')}",
        f"mean |pct_change|: {_cell_text(result.mean_abs_pct_change, 'n/a')}",
    )
    columns = ("with", "without", "pct_change")
    return (_grid("sensitivity", title, columns, result.journals, values, footer),)


def _fit_layout(result: FitReport) -> tuple[Section, ...]:
    pairs, fit = result.sensitivity, result.fit
    title = "Fitted pairs (without against with)"
    values = np.column_stack((pairs.with_values, pairs.without_values))
    stats: tuple[tuple[Cell, ...], ...] = (
        ("slope", fit.slope),
        ("intercept", fit.intercept),
        ("pearson_r", fit.pearson_r),
        ("n_points", fit.n_points),
    )
    return (
        _grid("points", title, ("with", "without"), pairs.journals, values),
        Section("statistics", "Least-squares line", ("statistic", "value"), stats),
    )


#: The one report layout of each result type the CLI renders.
_LAYOUTS = {
    IterationTrace: _iw_layout,
    NormalizedMatrix: _normalized_layout,
    MatrixPower: _power_layout,
    PowerWeaknessResult: _pwr_layout,
    SelfCitationDiagnostics: _diagnostics_layout,
    SensitivityReport: _sensitivity_layout,
    FitReport: _fit_layout,
}


def build_sections(result) -> tuple[Section, ...]:
    """Map a result object to its report sections, by its type."""
    layout = _LAYOUTS.get(type(result))
    if layout is None:
        raise CitationDataError(f"no report layout for {type(result).__name__}")
    return layout(result)


def _render_table(sections: Sequence[Section]) -> str:
    blocks: list[str] = []
    for sec in sections:
        grid = [list(sec.header)] + [
            [_cell_text(cell, "n/a") for cell in row] for row in sec.rows
        ]
        widths = [max(len(r[c]) for r in grid) for c in range(len(sec.header))]
        lines = [sec.title, "-" * len(sec.title)]
        for r, row in enumerate(grid):
            padded = [
                row[0].ljust(widths[0]),
                *(cell.rjust(widths[c + 1]) for c, cell in enumerate(row[1:])),
            ]
            lines.append("  ".join(padded).rstrip())
        lines.extend(sec.footer)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _render_csv(sections: Sequence[Section]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, sec in enumerate(sections):
        if len(sections) > 1:
            if index:
                out.write("\n")
            out.write(f"# {sec.key}\n")
        writer.writerow(sec.header)
        for row in sec.rows:
            writer.writerow([_cell_text(cell, "") for cell in row])
    return out.getvalue()


def _section_json(sec: Section):
    mapping = {}
    for row in sec.rows:
        row_key = str(row[0])
        if len(sec.header) == 2:
            mapping[row_key] = json_cell(row[1])
        else:
            mapping[row_key] = {
                name: json_cell(cell) for name, cell in zip(sec.header[1:], row[1:])
            }
    return mapping


def _render_json(sections: Sequence[Section], meta: dict | None) -> str:
    if len(sections) == 1:
        payload = _section_json(sections[0])
    else:
        payload = {sec.key: _section_json(sec) for sec in sections}
    if meta is not None:
        payload = {**payload, "meta": meta}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_sections(sections: Sequence[Section], fmt: str, meta: dict | None = None) -> str:
    """Serialize prepared sections in the requested format."""
    if fmt == "table":
        return _render_table(sections)
    if fmt == "csv":
        return _render_csv(sections)
    if fmt == "json":
        return _render_json(sections, meta)
    raise CitationDataError(f"unknown format {fmt!r}; choose one of {', '.join(FORMATS)}")

