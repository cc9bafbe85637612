"""Report bytes under two OpenBLAS kernels.

Each command runs in two child processes that differ only in
``OPENBLAS_CORETYPE``: ``Haswell`` (AVX2) and ``Sandybridge`` (AVX).  The
two are compared with each other, not with the kernel this CPU selects, so
the verdict is the same on every x86-64 CPU that can run both.  The rows
that pass are those of ``tests/reports/commands``, the committed report
text, each on ``--fixture price``.  The rows marked xfail print digits
that are rounding of BLAS sums (ROADMAP item 14); a row that starts to
pass fails the run, so that its mark is removed.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from test_report_text import COMMANDS

KERNELS = ("Haswell", "Sandybridge")


def _skip_reason() -> str | None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return "the OpenBLAS kernels compared are x86-64 ones"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as file:
            flags = {
                flag
                for line in file
                if line.startswith("flags")
                for flag in line.split(":", 1)[1].split()
            }
    except OSError:
        return "no /proc/cpuinfo to read the CPU flags from"
    if "avx2" not in flags:
        return "the CPU has no AVX2, which the Haswell kernel needs"
    return None


@pytest.fixture(scope="module")
def two_kernels():
    reason = _skip_reason()
    if reason is not None:
        pytest.skip(reason)


KERNEL_DEPENDENT = pytest.mark.xfail(strict=True, reason="ROADMAP item 14")


def _stdout(kernel: str, args: list[str]) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "citeweight", *args],
        capture_output=True,
        env={**os.environ, "OPENBLAS_CORETYPE": kernel},
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, b""), (kernel, result.stderr)
    return result.stdout


@pytest.mark.parametrize(
    "args",
    [
        # every committed report row, which must not depend on the kernel
        *([command, "--fixture", "price", *rest] for command, *rest in COMMANDS.values()),
        pytest.param(["fit", "--fixture", "price"], marks=KERNEL_DEPENDENT),
        pytest.param(["sensitivity", "--fixture", "price"], marks=KERNEL_DEPENDENT),
        pytest.param(
            ["sensitivity", "--fixture", "price", "--iterations", "7"], marks=KERNEL_DEPENDENT
        ),
        pytest.param(["reproduce-paper"], marks=KERNEL_DEPENDENT),
    ],
    ids=" ".join,
)
def test_report_bytes_do_not_depend_on_the_blas_kernel(two_kernels, args):
    first, second = (_stdout(kernel, args) for kernel in KERNELS)
    assert first == second
