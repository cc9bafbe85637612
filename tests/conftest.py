import csv
import io

import numpy as np
import pytest

from citeweight import CitationMatrix, JournalSet, price_matrix


@pytest.fixture
def price():
    return price_matrix()


@pytest.fixture
def small():
    """3x3 all-positive matrix with unequal margins."""
    counts = np.array([[5, 2, 1], [3, 7, 2], [1, 1, 4]])
    return CitationMatrix(JournalSet(("A", "B", "C")), counts)


def matrix_csv(m, labeled=False):
    """CSV text of a matrix that parses back to an equal matrix: integral
    counts without a decimal point, other values as their repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if labeled:
        writer.writerow(["journal", *m.journals])
    for label, row in zip(m.journals, m.counts.tolist()):
        fields = [str(int(v)) if v.is_integer() else repr(v) for v in row]
        writer.writerow([label, *fields] if labeled else fields)
    return out.getvalue()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status, tag in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                lines.append((nodeid.split("::")[-1], tag))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance checks:")
        for name, tag in sorted(lines):
            terminalreporter.write_line(f"  {tag}: {name}")
