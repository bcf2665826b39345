"""Every module-level private function or class of the package is referenced
somewhere in the package: a helper left behind by a deletion fails here.
Tests do not count as users; a reference inside the definition itself (a
recursive call) does not either."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modalsyn").glob("*.py"))


def unreferenced_private(sources):
    """``(module, line, name)`` of the module-level ``_private`` functions and
    classes in ``sources`` (module name -> source) that no name or attribute
    outside their own definition refers to."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    defined = [(module, node) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    found = []
    for module, node in defined:
        used = any(
            getattr(ref, "id", None) == node.name
            or getattr(ref, "attr", None) == node.name
            for tree in trees.values() for top in tree.body if top is not node
            for ref in ast.walk(top))
        if not used:
            found.append((module, node.lineno, node.name))
    return sorted(found)


def test_checker_finds_an_unreferenced_helper():
    sources = {"a": "def _used():\n    pass\n"
                    "def _recursive(n):\n    return _recursive(n - 1)\n"
                    "class _Orphan:\n    pass\n"
                    "def __getattr__(name):\n    pass\n",
               "b": "from a import _used\n_used()\n"}
    assert unreferenced_private(sources) == [("a", 3, "_recursive"),
                                             ("a", 5, "_Orphan")]


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_private(sources) == []
