"""A problem kind is declared once: outside ``synthesis._interconnections``
no comparison in the package involves the name ``kind``, so the 6-block and
4-block problems differ only in the data that declaration returns."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "modalsyn").glob("*.py"))
# the one place that may tell the kinds apart, per file
DECLARATION = {"synthesis.py": "_interconnections"}


def kind_comparisons(source, allowed=None):
    """Lines of the comparisons in ``source`` that involve the name or
    attribute ``kind``, outside the function named ``allowed``."""
    lines, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            continue
        if isinstance(node, ast.Compare) and any(
                getattr(n, "id", None) == "kind" or getattr(n, "attr", None) == "kind"
                for n in ast.walk(node)):
            lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_checker_finds_a_kind_comparison():
    source = ("def f(kind, cl):\n"
              "    a = 1 if kind == '6block' else 2\n"
              "    return cl.kind in ('4block',)\n"
              "def g(kind):\n"
              "    return kind == '4block'\n")
    assert kind_comparisons(source) == [2, 3, 5]
    assert kind_comparisons(source, allowed="g") == [2, 3]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_kind_compared_only_in_its_declaration(path):
    assert kind_comparisons(path.read_text(), DECLARATION.get(path.name)) == []
