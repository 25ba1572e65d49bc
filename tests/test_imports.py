"""Every name a flatlink module imports is used in that module.

A static check with the standard library's ``ast``: an import left behind
when the code that used it goes shows here, not as dead code later.  The
package's ``__init__.py`` re-exports names, ``from __future__`` imports
compiler features, and an import marked ``# noqa: F401`` is kept on
purpose (the comment beside it says why).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatlink"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_unused_import_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from typing import Callable, Iterator\n"
        "from .x import kept  # noqa: F401\n"
        "def f(it: Iterator[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(4, "Callable")]
