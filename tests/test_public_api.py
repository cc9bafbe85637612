"""The documented surface: every exported name exists, and the README's
library example runs as written."""

import re
from pathlib import Path

import citeweight

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(citeweight.__all__)) == len(citeweight.__all__)
    missing = [name for name in citeweight.__all__ if not hasattr(citeweight, name)]
    assert missing == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md (Library)", "exec"), namespace)
    assert namespace["fit"].n_points == 8
    assert namespace["profile"].geometric
