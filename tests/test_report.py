import json
import re
import tracemalloc

import numpy as np
import pytest

from citeweight import (
    CitationDataError,
    CitationMatrix,
    JournalSet,
    NumericalError,
    build_sections,
    linear_fit,
    matrix_power,
    pinski_narin_normalize,
    power_iterate,
    render_sections,
    self_citation_diagnostics,
    self_citation_sensitivity,
)
from citeweight.report import Section, json_cell


@pytest.fixture
def weights(price):
    return build_sections(power_iterate(pinski_narin_normalize(price), cycles=7))


def test_table_layout(weights):
    out = render_sections(weights, "table")
    lines = out.split("\n")
    assert lines[0] == "Influence weights (7 cycles)"
    assert set(lines[1]) == {"-"}
    assert lines[2].split() == ["journal", "weight"]
    assert out.endswith("\n")


def test_csv_and_json_carry_identical_numbers(weights):
    csv_out = render_sections(weights, "csv")
    payload = json.loads(render_sections(weights, "json"))
    for line in csv_out.strip().split("\n")[1:]:
        label, cell = line.rsplit(",", 1)
        assert payload[label] == float(cell)


def test_twelve_significant_digits():
    assert json_cell(1 / 3) == 0.333333333333
    assert json_cell(9384.0) == 9384.0
    assert json_cell(0.425848611363112) == 0.425848611363


def test_json_without_meta(weights):
    payload = json.loads(render_sections(weights, "json"))
    assert "meta" not in payload


def test_json_meta_appended(weights):
    payload = json.loads(render_sections(weights, "json", meta={"source": "x"}))
    assert payload["meta"] == {"source": "x"}


def test_unknown_format_rejected(weights):
    with pytest.raises(CitationDataError, match="format"):
        render_sections(weights, "yaml")


#: Values that no report layout takes, by type name: the CLI renders a matrix
#: power and a fit from their parts, not by their type.
UNRENDERED = {
    "object": lambda m: object(),
    "ndarray": lambda m: matrix_power(m, 2),
    "LinearFit": lambda m: linear_fit([1.0, 2.0, 3.0], [2.0, 4.0, 7.0]),
}


@pytest.mark.parametrize("name", UNRENDERED)
def test_unknown_result_type_rejected(price, name):
    with pytest.raises(CitationDataError, match=f"^no report layout for {name}$"):
        build_sections(UNRENDERED[name](price))


def test_label_with_comma_is_quoted_in_csv():
    m = CitationMatrix(JournalSet(("Ann. Phys., Lpz.", "B")), np.array([[1, 2], [3, 4]]))
    out = render_sections(build_sections(self_citation_diagnostics(m)), "csv")
    assert '"Ann. Phys., Lpz."' in out


def test_multi_section_csv_marks_blocks(price):
    report = self_citation_sensitivity(price, "iw", cycles=7)
    trace = power_iterate(pinski_narin_normalize(price), cycles=7)
    sections = (*build_sections(trace), *build_sections(report))
    out = render_sections(sections, "csv")
    assert "# iw" in out
    assert "# sensitivity" in out


def test_single_section_csv_has_no_marker(price):
    report = self_citation_sensitivity(price, "iw", cycles=7)
    out = render_sections(build_sections(report), "csv")
    assert not out.startswith("#")
    assert out.startswith("journal,with,without,pct_change\n")


def test_nan_rendering_differs_by_format():
    sec = Section("s", "S", ("journal", "value"), ("A",), np.array([[np.nan]]))
    assert "n/a" in render_sections([sec], "table")
    assert render_sections([sec], "csv") == "journal,value\nA,\n"
    assert json.loads(render_sections([sec], "json"))["A"] is None


def test_infinite_cell_is_refused_naming_section_row_and_column():
    m = CitationMatrix(JournalSet(("A", "B")), np.array([[0.0, 1e308], [1e-300, 1.0]]))
    diagnostics = self_citation_diagnostics(m)
    with pytest.raises(
        NumericalError,
        match="diagnostics value overflowed at row 'A', column 'cited_citing_ratio_with'",
    ):
        build_sections(diagnostics)


def test_section_refuses_values_of_another_shape():
    with pytest.raises(
        CitationDataError,
        match=r"section 's' has values of shape \(2, 2\) for 3 labels and 2 columns",
    ):
        Section("s", "S", ("journal", "a", "b"), ("A", "B", "C"), np.ones((2, 2)))


def test_section_refuses_a_repeated_label():
    with pytest.raises(CitationDataError, match="section 's' repeats a label"):
        Section("s", "S", ("journal", "a"), ("A", "B", "A"), np.ones((3, 1)))


@pytest.mark.parametrize(
    "key, header, labels, message",
    [
        (1, ("journal", "a"), ("A",), "section 1 has a key that is not a string: 1"),
        ("s", ("journal", "a"), (1,), "section 's' has a label that is not a string: 1"),
        ("s", ("journal", "a"), (None,), "section 's' has a label that is not a string: None"),
        ("s", ("journal", 2), ("A",), "section 's' has a column name that is not a string: 2"),
        ("s", (None, "a"), ("A",), "section 's' has a column name that is not a string: None"),
    ],
    ids=["key", "int-label", "none-label", "int-column", "none-corner"],
)
def test_section_refuses_a_name_that_is_not_a_string(key, header, labels, message):
    with pytest.raises(CitationDataError, match=re.escape(message)):
        Section(key, "S", header, labels, np.ones((1, 1)))


@pytest.mark.parametrize(
    "changed, message",
    [
        ({"values": [[1.0]]}, "section 's' has values of type list, not a numpy array"),
        ({"header": (), "values": np.empty((1, 0))}, "section 's' has an empty header"),
        ({"title": 1}, "section 's' has a title that is not a string: 1"),
        ({"footer": ("max", 2)}, "section 's' has a footer line that is not a string: 2"),
        ({"values": np.ones((1, 1), dtype=complex)}, "section 's' has values of dtype complex128"),
        ({"values": np.array([["x"]])}, "section 's' has values of dtype <U1"),
        *(
            (
                {"values": np.array([[cell]], dtype=object)},
                f"section 's' has a cell that is not a real number: {cell!r}",
            )
            for cell in ("abc", None, 1j)
        ),
    ],
    ids=["list", "empty-header", "int-title", "int-footer", "complex", "str"]
    + ["object-str", "object-none", "object-complex"],
)
def test_section_refuses_what_its_writers_cannot_write(changed, message):
    fields = dict(key="s", title="S", header=("journal", "a"), labels=("A",))
    with pytest.raises(CitationDataError, match=re.escape(message)):
        Section(**{**fields, "values": np.ones((1, 1)), **changed})


def test_section_refuses_a_repeated_column():
    with pytest.raises(CitationDataError, match="section 's' repeats a column name"):
        Section("s", "S", ("journal", "a", "b", "a"), ("A", "B"), np.ones((2, 3)))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, object])
def test_section_refuses_an_infinite_cell(value, dtype):
    values = np.array([[1.0, 2.0], [3, value]], dtype=dtype)
    with pytest.raises(NumericalError, match="s value overflowed at row 'B', column 'b'"):
        Section("s", "S", ("journal", "a", "b"), ("A", "B"), values)


def test_multi_section_json_refuses_a_repeated_key(weights):
    sections = (*weights, *weights)
    with pytest.raises(CitationDataError, match="two sections of the JSON report share a key"):
        render_sections(sections, "json")
    # a CSV report marks each block, so it still shows both
    assert render_sections(sections, "csv").count("# iw\n") == 2


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_render_streams_one_row_at_a_time(fmt):
    # The join holds the pieces, then the report, so the peak is about twice
    # the report's length.  Converting the whole array at once adds about 32
    # bytes a cell, which lifts a table report past three times.
    rng = np.random.default_rng(256)
    labels = JournalSet(tuple(f"J{i}" for i in range(1, 257)))
    m = CitationMatrix(labels, rng.integers(0, 500, size=(256, 256)))
    sections = build_sections(pinski_narin_normalize(m))
    tracemalloc.start()
    try:
        text = render_sections(sections, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)
