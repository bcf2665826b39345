"""Every name the package defines is referenced somewhere in the package: a
helper left behind by a deletion, or a public function, method or property
that only tests call, fails here.

Two rules share one walker.  The private rule covers module-level
``_private`` functions and classes; the public rule covers public
module-level functions and classes and the public methods and properties of
the package's classes.  A name counts as referenced when a name or attribute
outside its own definition spells it, so a recursive call does not count
and tests do not count as users.  The independent oracles of the package's
fast paths live in ``tests/reference.py``: every function there must be used
by the tests, and none may share its name with a function, class or method
of the package, so no oracle lives in both places.

The name rules see spellings only, so a method that shares its name with a
used one passes them.  ``test_every_function_runs`` closes that gap: it runs
the commands of ``test_threads.py`` and ``decouple`` on a model file under a
profiler and requires every function and method the package defines to be
entered, apart from ``UNREACHED``."""

import ast
import importlib
import inspect
import json
import sys
import threading
from pathlib import Path

from modalsyn.benchplant import make_two_mass
from modalsyn.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modalsyn").glob("*.py"))

# functions and methods that no command enters
UNREACHED = {
    "MechanicalModel.to_dict",        # the model-file writer
    "PositionMap.to_dict",            # and its position maps
}


def _covered(name, public):
    """Whether ``name`` falls under the public or the private rule."""
    if public:
        return not name.startswith("_")
    return name.startswith("_") and not name.startswith("__")


def unreferenced(sources, public=False):
    """``(module, line, name)`` of the definitions in ``sources`` (module name
    -> source) that the private rule, or with ``public`` the public rule,
    covers and that no name or attribute outside their own definition refers
    to; a method or property is named ``Class.name``."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _covered(node.name, public):
                defined.append((module, node, node.name))
            if public and isinstance(node, ast.ClassDef):
                defined += [(module, sub, f"{node.name}.{sub.name}")
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and _covered(sub.name, public)]
    refs = {}
    for tree in trees.values():
        for ref in ast.walk(tree):
            name = getattr(ref, "id", None) or getattr(ref, "attr", None)
            if isinstance(name, str):
                refs.setdefault(name, []).append(ref)
    found = []
    for module, node, label in defined:
        own = {id(n) for n in ast.walk(node)}
        if all(id(ref) in own for ref in refs.get(node.name, ())):
            found.append((module, node.lineno, label))
    return sorted(found)


def test_checker_finds_an_unreferenced_helper():
    sources = {"a": "def _used():\n    pass\n"
                    "def _recursive(n):\n    return _recursive(n - 1)\n"
                    "class _Orphan:\n    pass\n"
                    "def __getattr__(name):\n    pass\n",
               "b": "from a import _used\n_used()\n"}
    assert unreferenced(sources) == [("a", 3, "_recursive"),
                                     ("a", 5, "_Orphan")]


def test_checker_finds_an_unreferenced_public_name():
    sources = {"a": "def used():\n    pass\n"
                    "def orphan(n):\n    return orphan(n - 1)\n"
                    "class Box:\n"
                    "    def __init__(self):\n        self.size\n"
                    "    @property\n    def size(self):\n        return 1\n"
                    "    def unused(self):\n        return self._hidden()\n"
                    "    def _hidden(self):\n        pass\n",
               "b": "from a import Box, used\nused()\nBox()\n"}
    assert unreferenced(sources, public=True) == [("a", 3, "orphan"),
                                                  ("a", 11, "Box.unused")]
    assert unreferenced(sources) == []


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced(sources) == []


def test_every_public_name_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced(sources, public=True) == []


def test_every_oracle_is_used():
    sources = {path.stem: path.read_text() for path in (ROOT / "tests").glob("*.py")}
    orphans = unreferenced(sources) + unreferenced(sources, public=True)
    assert [o for o in orphans if o[0] == "reference"] == []


def test_no_oracle_is_also_in_the_package():
    def names(path):
        return {node.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    oracles = names(ROOT / "tests" / "reference.py")
    assert oracles and oracles.isdisjoint(set().union(*map(names, PACKAGE)))


def defined_functions():
    """``{code: label}`` of every function, method and property getter whose
    code is in the package, a member labelled ``Class.name``."""
    found = {}
    for path in PACKAGE:
        module = importlib.import_module(f"modalsyn.{path.stem}")
        members = list(vars(module).items())
        members += [(f"{name}.{attr}", member)
                    for name, obj in vars(module).items() if inspect.isclass(obj)
                    for attr, member in vars(obj).items()]
        for label, obj in members:
            fn = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
            if (inspect.isfunction(fn)
                    and fn.__code__.co_filename == module.__file__):
                found.setdefault(fn.__code__, label)
    return found


def test_every_function_runs(tmp_path, monkeypatch):
    from test_threads import COMMANDS
    model = tmp_path / "model.json"
    model.write_text(json.dumps(make_two_mass().to_dict()))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    monkeypatch.setattr(sys, "argv", ["-c", str(ROOT / "perfbench"),
                                      str(tmp_path / "out")])
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        exec(COMMANDS, {"__name__": "commands"})
        assert main(["decouple", "--model", str(model), "--p-star", "0.3",
                     "--out", str(tmp_path / "decouple")]) == 0
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    defined = defined_functions()
    missed = sorted(label for code, label in defined.items()
                    if code not in entered)
    assert [m for m in missed if m not in UNREACHED] == []
    # an exemption whose function is gone or now runs is stale
    assert sorted(UNREACHED) == missed
