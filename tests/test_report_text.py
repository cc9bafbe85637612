"""The committed report text of the bundled `price` fixture, under every
BLAS kernel setting this host can run.

Each ``name args...`` line of ``tests/reports/commands`` is a subcommand whose
stdout on ``--fixture price`` is committed as ``name.table``, ``.csv`` and
``.json``, as ``tests/reports/regenerate.sh`` writes them.  One child process
per kernel setting runs every row through ``cli.main``, and each committed
row must print its file under every setting.  ``test_blas_kernels`` compares
the settings with each other on the same outputs, including the rows that
print rounding of BLAS sums (ROADMAP item 14).
"""

import difflib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from citeweight.report import FORMATS

REPORTS = Path(__file__).parent / "reports"

#: Arguments of each committed report, by file stem.
COMMANDS = {
    name: [command, "--fixture", "price", *rest]
    for name, command, *rest in map(
        str.split, (REPORTS / "commands").read_text("utf-8").splitlines()
    )
}

#: Arguments of each row whose text depends on the BLAS kernel today.
KERNEL_DEPENDENT = {
    "fit": ["fit", "--fixture", "price"],
    "sensitivity": ["sensitivity", "--fixture", "price"],
    "sensitivity-iterations-7": ["sensitivity", "--fixture", "price", "--iterations", "7"],
    "reproduce-paper": ["reproduce-paper"],
}

ROWS = {
    f"{name}.{fmt}": [*args, "--format", fmt]
    for name, args in {**COMMANDS, **KERNEL_DEPENDENT}.items() for fmt in FORMATS
}

# each row's exit code, stdout (through a byte buffer, as to a pipe) and
# stderr; a row that raises, as a warning does under -W error, has no exit
# code and its traceback as stderr
CHILD = """
import contextlib, io, json, sys, traceback
from citeweight.cli import main
results = {}
for key, args in json.loads(sys.argv[1]).items():
    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception:
            code = None
            traceback.print_exc()
    results[key] = [code, out.getvalue().decode(), err.getvalue()]
print(json.dumps(results))
"""


def _kernels() -> list[str]:
    """The default setting, with no ``OPENBLAS_CORETYPE``, then each core type
    in ``needs`` that numpy's x86-64 ``DYNAMIC_ARCH`` OpenBLAS and the CPU run."""
    blas = str(np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}))
    if "DYNAMIC_ARCH" not in blas or platform.machine().lower() not in ("x86_64", "amd64"):
        return ["default"]
    try:
        lines = Path("/proc/cpuinfo").read_text("utf-8").splitlines()
    except OSError:
        lines = []
    flags = {f for line in lines if line.startswith("flags") for f in line.split(":")[1].split()}
    # pni is the flag Linux shows for SSE3
    needs = {"Prescott": "pni", "Sandybridge": "avx", "Haswell": "avx2", "SkylakeX": "avx512f"}
    return ["default", *(kernel for kernel, flag in needs.items() if flag in flags)]


def run_rows() -> dict[str, dict[str, list]]:
    """{kernel setting: {row: [code, stdout, stderr]}}, the children run side by
    side.  ``conftest.outputs`` calls it once a session, for this module and
    ``test_blas_kernels``.  Each child runs in dev mode with every warning an
    error, as pytest's ``filterwarnings`` does in-process: a warning that a
    row raises fails that row, and one raised outside a row fails them all."""
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-X", "dev", "-W", "error", "-c", CHILD, json.dumps(ROWS)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=base if kernel == "default" else {**base, "OPENBLAS_CORETYPE": kernel},
        )
        for kernel in _kernels()
    }
    results = {}
    try:
        for kernel, child in children.items():
            out, err = child.communicate(timeout=60)
            assert (child.returncode, err) == (0, b""), (kernel, err)
            results[kernel] = json.loads(out)
    finally:
        for child in children.values():
            child.kill()  # a no-op for a child that has exited
            child.communicate()  # waits for it and closes its pipes
    return results


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_committed_report(outputs, name, fmt):
    path = REPORTS / f"{name}.{fmt}"
    expected = path.read_bytes().decode()
    for kernel, rows in outputs.items():
        code, out, err = rows[path.name]
        assert (code, err) == (0, ""), f"under {kernel}:\n{err}"
        if out != expected:
            lines = (text.splitlines(keepends=True) for text in (expected, out))
            diff = difflib.unified_diff(*lines, f"reports/{path.name}", kernel)
            pytest.fail("report text changed:\n" + "".join(diff), pytrace=False)


def test_reports_holds_what_commands_names():
    named = {f"{name}.{fmt}" for name in COMMANDS for fmt in FORMATS}
    assert {path.name for path in REPORTS.iterdir()} == {"commands", "regenerate.sh", *named}
