"""render_sections against the per-cell writers it replaced, on tricky sections.

The writers format one whole row of a section's array per step; the
reference below keeps the tuple-of-cells rows and formats each cell
through an isinstance ladder.  Both must give the same bytes in every
format, or, where a single-section JSON report has a row named "meta",
the writer must refuse instead of dropping that row.  Labels and column
names are drawn unique within a section, as ``Section`` requires.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeweight import (
    CitationDataError,
    CitationMatrix,
    JournalSet,
    Section,
    build_sections,
    matrix_power,
    pinski_narin_normalize,
    render_sections,
)
from citeweight.report import MatrixPower

EXAMPLES = settings(max_examples=150, deadline=None)

NAN = float("nan")
# NaN of both signs, zeros of both signs, the smallest subnormal and normal
# numbers, integral values, and values whose 12-digit form is exponential.
# Then the edges where a 12-digit text and a float repr switch between
# fixed and exponent form: 1e-4 for both, 1e12 for the text (999999999999.5
# rounds up to it) and 1e16 for the repr.
SPECIAL = (
    *(NAN, -NAN, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 9384.0),
    *(1e-05, 9.99999999999e-05, 0.0001, 123456789012.0, 999999999999.5, 1e12),
    *(-1e15, 9999999999999998.0, 1e16, 1.2345678901234e16),
)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=False),
    st.floats(min_value=1e11, max_value=1e17),
    st.integers(-(10**6), 10**6).map(float),
    st.integers(10**11, 10**17).map(float),
    st.floats(min_value=0.0, max_value=1.0),
)
# an object column holds ints beside floats, as the fit statistics do.  An
# int keeps all its digits in every format, also from 10**12 on, where its
# 12-digit text would turn exponential.  A bool is not a count: it is
# written as the float it equals.
CELLS = st.one_of(FLOATS, st.integers(-(10**20), 10**20), st.booleans())
LABELS = ("meta", "nan", "Acta, Series A", 'The "Review"', "a\nb", "Ünï", "日本", "")
TEXT = st.one_of(
    st.sampled_from(LABELS),
    st.text(alphabet=st.sampled_from('ab, "\n\r\t-é日'), max_size=6),
)


@st.composite
def sections(draw, key):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    labels = tuple(draw(st.lists(TEXT, min_size=n, max_size=n, unique=True)))
    header = ("journal", *draw(st.lists(TEXT, min_size=k, max_size=k, unique=True)))
    if draw(st.booleans()):
        cells = [draw(st.lists(CELLS, min_size=k, max_size=k)) for _ in range(n)]
        values = np.array(cells, dtype=object)
    else:
        cells = [draw(st.lists(FLOATS, min_size=k, max_size=k)) for _ in range(n)]
        values = np.array(cells)
    footer = tuple(draw(st.lists(TEXT, max_size=2)))
    return Section(key, draw(TEXT), header, labels, values, footer)


@st.composite
def reports(draw):
    key = st.sampled_from(("iw", "points", "statistics", "s,1"))
    keys = draw(st.lists(key, min_size=1, max_size=3, unique=True))
    meta = {"source": "x", "tolerance": 1e-9, "converged": True, "k": None}
    meta = draw(st.sampled_from((None, meta)))
    return tuple(draw(sections(key)) for key in keys), meta


# The per-cell writers, as they were before sections held one array.


def reference_cell_text(value, undefined):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if math.isnan(value):
        return undefined
    return f"{float(value):.12g}"


def reference_json_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if math.isnan(value):
        return None
    return float(f"{float(value):.12g}")


def reference_rows(sec):
    return tuple(
        (label, *cells) for label, cells in zip(sec.labels, sec.values.tolist())
    )


def reference_table(sections):
    blocks = []
    for sec in sections:
        grid = [list(sec.header)] + [
            [reference_cell_text(cell, "n/a") for cell in row]
            for row in reference_rows(sec)
        ]
        widths = [max(len(r[c]) for r in grid) for c in range(len(sec.header))]
        lines = [sec.title, "-" * len(sec.title)]
        for row in grid:
            padded = [
                row[0].ljust(widths[0]),
                *(cell.rjust(widths[c + 1]) for c, cell in enumerate(row[1:])),
            ]
            lines.append("  ".join(padded).rstrip())
        lines.extend(sec.footer)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def reference_csv(sections):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, sec in enumerate(sections):
        if len(sections) > 1:
            if index:
                out.write("\n")
            out.write(f"# {sec.key}\n")
        writer.writerow(sec.header)
        for row in reference_rows(sec):
            writer.writerow([reference_cell_text(cell, "") for cell in row])
    return out.getvalue()


def reference_section_json(sec):
    mapping = {}
    for row in reference_rows(sec):
        row_key = str(row[0])
        if len(sec.header) == 2:
            mapping[row_key] = reference_json_cell(row[1])
        else:
            mapping[row_key] = {
                name: reference_json_cell(cell)
                for name, cell in zip(sec.header[1:], row[1:])
            }
    return mapping


def reference_json_payload(sections):
    if len(sections) == 1:
        return reference_section_json(sections[0])
    return {sec.key: reference_section_json(sec) for sec in sections}


def reference_json(payload, meta):
    if meta is not None:
        payload = {**payload, "meta": meta}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


@EXAMPLES
@given(reports())
def test_writers_match_per_cell_reference(report):
    secs, meta = report
    assert render_sections(secs, "table", meta) == reference_table(secs)
    assert render_sections(secs, "csv", meta) == reference_csv(secs)
    payload = reference_json_payload(secs)
    if meta is not None and "meta" in payload:
        with pytest.raises(CitationDataError, match="'meta' clashes"):
            render_sections(secs, "json", meta)
    else:
        assert render_sections(secs, "json", meta) == reference_json(payload, meta)


def test_normalized_matrix_and_its_cube_match_the_json_reference():
    # one in ten counts is zero, so the normalized matrix has integral
    # cells; the cube's cells lie on both sides of 1e16, where the float
    # repr turns exponential, and all are above 1e12, where the 12-digit
    # text already is
    rng = np.random.default_rng(48)
    counts = rng.integers(1, 37_000, size=(48, 48)).astype(float)
    counts[rng.random((48, 48)) < 0.1] = 0.0
    m = CitationMatrix(JournalSet(tuple(f"J{i}" for i in range(48))), counts)
    cube = matrix_power(m, 3)
    assert (cube >= 1e12).all()
    assert (cube < 1e16).any() and (cube >= 1e16).any()
    meta = {"source": "seeded", "k": 3}
    for result in (pinski_narin_normalize(m), MatrixPower(m.journals, cube, 3)):
        secs = build_sections(result)
        expected = reference_json(reference_json_payload(secs), meta)
        assert render_sections(secs, "json", meta) == expected
