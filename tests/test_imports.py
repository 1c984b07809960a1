"""The package depends on nothing beyond the standard library, numpy and scipy:
every import in `src/dmpfem` is relative or names one of those."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dmpfem").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def foreign_imports(source: str) -> list:
    """Top-level modules of the absolute imports in `source` outside `ALLOWED`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_sources_found():
    assert "solver.py" in [path.name for path in SOURCES]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_relative_stdlib_numpy_or_scipy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_third_party_import():
    source = "import os\nimport numpy.linalg\nfrom scipy import sparse\nfrom . import mesh\n" \
             "import hypothesis\nfrom pandas.core import frame\n"
    assert foreign_imports(source) == ["hypothesis", "pandas.core"]
