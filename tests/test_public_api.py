"""The documented surface: the exact set of exported names, each of which
exists, importing the package loads none of the CLI, and the README's
library example runs as written."""

import re
import subprocess
import sys
from pathlib import Path

import citeweight

README = Path(__file__).resolve().parent.parent / "README.md"


# A change to the public API is a change to this set.
PUBLIC_NAMES = {
    "CitationDataError",
    "NumericalError",
    "DEFAULT_MAX_SIZE",
    "CitationMatrix",
    "JournalSet",
    "MarginTotals",
    "margins",
    "matrix_power",
    "parse_matrix_csv",
    "strip_self_citations",
    "transpose",
    "price_matrix",
    "IterationTrace",
    "NormalizedMatrix",
    "PowerWeaknessResult",
    "SelfCitationDiagnostics",
    "WeightVector",
    "influence_weights",
    "pinski_narin_normalize",
    "power_iterate",
    "power_weakness_ratio",
    "self_citation_diagnostics",
    "INDICATORS",
    "LinearFit",
    "SensitivityReport",
    "linear_fit",
    "self_citation_sensitivity",
    "Section",
    "build_sections",
    "render_sections",
    "__version__",
}


def test_exported_names_are_pinned():
    assert len(PUBLIC_NAMES) == 31
    assert set(citeweight.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    assert len(set(citeweight.__all__)) == len(citeweight.__all__)
    missing = [name for name in citeweight.__all__ if not hasattr(citeweight, name)]
    assert missing == []


def test_import_leaves_the_cli_unloaded():
    check = (
        "import sys, citeweight; "
        "print(sorted({'citeweight.cli', 'argparse'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md (Library)", "exec"), namespace)
    assert namespace["fit"].n_points == 8
    assert 0 < namespace["rate"] < 1
