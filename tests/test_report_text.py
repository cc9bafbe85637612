"""Byte checks of the committed report text of the bundled `price` fixture.

Each file under ``tests/reports`` is the stdout of one subcommand run on
``--fixture price`` in one format.  These reports do not depend on the BLAS
kernel: each has one text under every OpenBLAS core type tried.  README's
Tests section gives the shell loop that rewrites them when an output change
is intended.
"""

import difflib
from pathlib import Path

import pytest

from citeweight.cli import main
from citeweight.report import FORMATS

REPORTS = Path(__file__).parent / "reports"

#: File stem and subcommand arguments of each committed report.
COMMANDS = {
    "iw": ("iw",),
    "iw-iterations-7": ("iw", "--iterations", "7"),
    "pwr": ("pwr",),
    "normalize": ("normalize",),
    "power-k3": ("power", "-k", "3"),
    "diagnose": ("diagnose",),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_committed_report(capsysbinary, name, fmt):
    path = REPORTS / f"{name}.{fmt}"
    code = main([*COMMANDS[name], "--fixture", "price", "--format", fmt])
    out, err = capsysbinary.readouterr()
    assert (code, err) == (0, b"")
    expected = path.read_bytes()
    if out != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            out.decode().splitlines(keepends=True),
            fromfile=str(path.relative_to(REPORTS.parent)),
            tofile="stdout",
        )
        pytest.fail("report text changed:\n" + "".join(diff), pytrace=False)
