"""Every name a library module imports is used there, or says why not.

A name bound by an import in ``src/topoverlap/*.py`` (the package's
``__init__`` re-exports and is left out) must be read somewhere in its
module, or its line must carry ``# noqa: F401`` followed by the reason it
stays.  Uses only ``ast``, so no linter is needed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topoverlap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads and
    whose line gives no ``noqa: F401`` reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                _, _, reason = lines[alias.lineno - 1].partition("# noqa: F401")
                if name not in read and not reason.strip():
                    unused.append((alias.lineno, name))
    return unused


def test_unused_import_is_caught():
    source = "import itertools\nimport math\nfrom os import path  # noqa: F401\nmath.pi\n"
    assert unused_imports(source) == [(1, "itertools"), (3, "path")]
    assert unused_imports("from os import path  # noqa: F401  read by a plugin\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_library_imports_are_used(module):
    assert unused_imports(module.read_text()) == []
