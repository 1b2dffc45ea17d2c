"""Package-wide design rules.

Every memo is functools.cache on a private helper: a module-level dict,
list or set that code writes to, or a `global` statement, would be a
second memo idiom.  Every public module-level callable of a layer module
is a plain function, so a tracer that rebinds the public names from
outside (as perfbench/layers.py does, wrapping only FunctionType) still
sees each call.  Every public module-level function and class of the
library modules, and every public method of those classes, is used
somewhere in the package, so no helper that nothing calls grows back.
"""

import ast
import importlib
from pathlib import Path
from types import FunctionType

import pytest

import posetops

LAYERS = ("posets", "flags", "ncpoly", "operators", "complexes", "verify", "cli")
LIBRARY = ("posets", "flags", "ncpoly", "operators", "complexes")
# The paper's type B theorem, still to be made executable (see ROADMAP.md),
# is a statement about a suspension.
UNUSED_ALLOWED = {"complexes.suspension"}
PACKAGE_FILES = sorted(Path(posetops.__file__).parent.glob("*.py"))
MUTATORS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _module_containers(tree: ast.Module) -> set:
    """Names that module-level statements bind to a dict, list or set."""
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        is_container = isinstance(value, containers) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        )
        if is_container:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _memo_writes(source: str) -> list:
    """Lines that write to a module-level container or declare a global."""
    tree = ast.parse(source)
    names = _module_containers(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, "global " + ", ".join(node.names)))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and isinstance(node.value, ast.Name)
            and node.value.id in names
        ):
            found.append((node.lineno, f"{node.value.id}[...] written"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in MUTATORS
            and isinstance(node.value, ast.Name)
            and node.value.id in names
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda path: path.name)
def test_no_module_level_memo(path):
    assert _memo_writes(path.read_text(encoding="utf-8")) == []


def test_the_memo_check_sees_the_old_idioms():
    table = '_CACHE: dict = {}\n\ndef f(k):\n    _CACHE[k] = 1\n'
    listed = '_ROWS = [1]\n\ndef f():\n    _ROWS.append(2)\n'
    declared = '_SEEN = None\n\ndef f():\n    global _SEEN\n    _SEEN = 1\n'
    for source in (table, listed, declared):
        assert _memo_writes(source) != [], source
    assert _memo_writes('_FIXED = {"a": 1}\n\ndef f():\n    return _FIXED["a"]\n') == []


@pytest.mark.parametrize("layer", LAYERS)
def test_public_callables_are_plain_functions(layer):
    module = importlib.import_module(f"posetops.{layer}")
    wrapped = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and type(value).__module__ != module.__name__  # instances, such as X
        and getattr(value, "__module__", None) == module.__name__
        and not isinstance(value, FunctionType)
    ]
    assert wrapped == []


def _unreferenced(sources: dict) -> list:
    """The public module-level functions and classes of the LIBRARY modules
    among `sources` (module name -> text), and the public methods of those
    classes, that no name or attribute in any of the sources reads, outside
    the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    readers: dict[str, list] = {}
    for tree in trees.values():
        renamed = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers.setdefault(renamed.get(node.id, node.id), []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.attr, []).append(node)
    found = []
    for module, tree in trees.items():
        if module not in LIBRARY:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defined = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and method.name[0] != "_"
                ]
            for name, definition in defined:
                inside = set(map(id, ast.walk(definition)))
                if all(id(r) in inside for r in readers.get(definition.name, [])):
                    found.append(f"{module}.{name}")
    return found


def test_every_public_function_and_class_is_used_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE_FILES}
    assert set(_unreferenced(sources)) == UNUSED_ALLOWED


def test_the_reference_check_sees_an_unused_helper():
    helper = "def used():\n    return 1\n\n\ndef unused(n):\n    return unused(n - 1)\n"
    caller = "from .flags import used as first\n\nVALUE = first()\n"
    assert _unreferenced({"flags": helper, "cli": caller}) == ["flags.unused"]


def test_the_reference_check_sees_an_unused_method():
    shape = (
        "class Shape:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.unused()\n"
    )
    caller = "from .posets import Shape\n\nVALUE = Shape().used()\n"
    assert _unreferenced({"posets": shape, "cli": caller}) == ["posets.Shape.unused"]
