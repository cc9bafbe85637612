"""Report text under every BLAS kernel setting this host can run, compared
setting with setting.

The outputs are those ``test_report_text`` checks against the committed
files: one child process per kernel setting runs every row once a session.
Each row must print one text in every format under all settings.  The rows
that pass are those of ``tests/reports/commands``, the committed report
text.  The rows marked xfail print digits that are rounding of BLAS sums
(ROADMAP item 14); a row that starts to pass fails the run, so that its mark
is removed.  Every row skips where only the default setting runs, and the
xfail rows skip where ``Haswell`` does not: ``Haswell`` and ``Sandybridge``
print different digits on each of them, but ``Prescott`` and ``Sandybridge``
print the same on three of them, so on a host whose settings are those two
the three rows would pass.
"""

import pytest

from citeweight.report import FORMATS
from test_report_text import COMMANDS, KERNEL_DEPENDENT

KERNEL_DEPENDENT_MARK = pytest.mark.xfail(strict=True, reason="ROADMAP item 14")


@pytest.mark.parametrize(
    "name",
    [
        *(pytest.param(name, id=" ".join(args)) for name, args in COMMANDS.items()),
        *(
            pytest.param(name, id=" ".join(args), marks=KERNEL_DEPENDENT_MARK)
            for name, args in KERNEL_DEPENDENT.items()
        ),
    ],
)
def test_report_bytes_do_not_depend_on_the_blas_kernel(outputs, name):
    if len(outputs) == 1:
        pytest.skip("only the default kernel setting runs on this host")
    if name in KERNEL_DEPENDENT and "Haswell" not in outputs:
        pytest.skip("the Haswell kernel setting does not run on this host")
    for fmt in FORMATS:
        assert len({tuple(rows[f"{name}.{fmt}"]) for rows in outputs.values()}) == 1, fmt
