"""Every imported name is used: an import left behind by a deletion fails
here.  The package ``__init__`` re-exports names and is not checked."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*(ROOT / "src" / "modalsyn").glob("*.py"),
                           *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that nothing references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    assert unused_imports("import json\nimport numpy as np\nnp.eye(2)\n") \
        == [(1, "json")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
