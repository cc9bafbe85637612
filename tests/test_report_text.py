"""Byte checks of the committed report text of the bundled `price` fixture.

Each file under ``tests/reports`` is the stdout of one subcommand run on
``--fixture price`` in one format.  These reports do not depend on the BLAS
kernel: each has one text under every OpenBLAS core type tried.
``tests/reports/regenerate.sh`` rewrites them when an output change is
intended, from the same list of commands, ``tests/reports/commands``.
"""

import difflib
from pathlib import Path

import pytest

from citeweight.cli import main
from citeweight.report import FORMATS

REPORTS = Path(__file__).parent / "reports"

#: File stem and subcommand arguments of each committed report, one
#: ``name args...`` line each.
COMMANDS = {
    name: args
    for name, *args in map(str.split, (REPORTS / "commands").read_text("utf-8").splitlines())
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
