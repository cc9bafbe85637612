import json

import numpy as np
import pytest

from citeweight import (
    CitationDataError,
    CitationMatrix,
    JournalSet,
    NumericalError,
    build_sections,
    render_sections,
    self_citation_diagnostics,
    self_citation_sensitivity,
)
from citeweight.metrics import influence_trace
from citeweight.report import Section, format_number


@pytest.fixture
def weights(price):
    return build_sections(influence_trace(price, cycles=7))


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
    assert format_number(1 / 3) == "0.333333333333"
    assert format_number(9384.0) == "9384"
    assert format_number(0.425848611363112) == "0.425848611363"


def test_json_without_meta(weights):
    payload = json.loads(render_sections(weights, "json"))
    assert "meta" not in payload


def test_json_meta_appended(weights):
    payload = json.loads(render_sections(weights, "json", meta={"source": "x"}))
    assert payload["meta"] == {"source": "x"}


def test_unknown_format_rejected(weights):
    with pytest.raises(CitationDataError, match="format"):
        render_sections(weights, "yaml")


def test_unknown_result_type_rejected():
    with pytest.raises(CitationDataError, match="layout"):
        build_sections(object())


def test_label_with_comma_is_quoted_in_csv():
    m = CitationMatrix(JournalSet(("Ann. Phys., Lpz.", "B")), np.array([[1, 2], [3, 4]]))
    out = render_sections(build_sections(self_citation_diagnostics(m)), "csv")
    assert '"Ann. Phys., Lpz."' in out


def test_multi_section_csv_marks_blocks(price):
    report = self_citation_sensitivity(price, "iw", cycles=7)
    trace = influence_trace(price, cycles=7)
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
    sec = Section("s", "S", ("journal", "value"), (("A", float("nan")),))
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
