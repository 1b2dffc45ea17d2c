"""Package-wide design rules.

Every memo is functools.cache on a private helper: a module-level dict,
list or set that code writes to, or a `global` statement, would be a
second memo idiom.  The memos of the word layers (ncpoly, operators and
flags) hold plain values, term dicts among them, and declare so in their
return annotation; none holds an NCPoly.  Every public module-level callable of a layer module
is a plain function, so a tracer that rebinds the public names from
outside (as perfbench/layers.py does, wrapping only FunctionType) still
sees each call.  Every module-level function and class of the library
modules, private ones included, and every non-dunder method of those
classes, is used somewhere in the package, so no helper that nothing calls
grows back.  No library method is named like a method of a builtin type,
because a read of such a name cannot be told from the builtin one.  The
checks of outside posets and complexes run in their doors only, and the
values the package derives from checked ones do not pass those doors.
The command line reuses one parser for every call, so no default in its
tree is a list, dict or set that one call could fill for the next.
"""

import argparse
import ast
import importlib
from pathlib import Path
from types import FunctionType

import pytest

import posetops
from posetops.cli import build_parser
from posetops.complexes import SimplicialComplex
from posetops.posets import Poset
from posetops.verify import SUITES, corpus

LAYERS = ("posets", "flags", "ncpoly", "operators", "complexes", "verify", "cli")
LIBRARY = ("posets", "flags", "ncpoly", "operators", "complexes")
WORD_LAYERS = ("ncpoly", "operators", "flags")
UNUSED_ALLOWED = set()
PACKAGE_FILES = sorted(Path(posetops.__file__).parent.glob("*.py"))
# A call such as `word.count("a")` reads the attribute `count`, so the
# reference check cannot tell a library method of that name from the
# builtin one; library methods keep clear of these names.
BUILTIN_METHODS = {
    name
    for kind in (str, bytes, int, list, tuple, dict, set, frozenset)
    for name in dir(kind)
    if not name.startswith("_") and callable(getattr(kind, name))
}
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


def _is_memo(decorator) -> bool:
    """functools.cache or lru_cache, bare, dotted or called."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "id", getattr(decorator, "attr", None))
    return name in ("cache", "lru_cache")


def _memos_of_polynomials(sources: dict) -> list:
    """The memoized functions of the WORD_LAYERS among `sources` whose
    return annotation is missing or names NCPoly."""
    return [
        f"{module}.{node.name}"
        for module, text in sources.items()
        if module in WORD_LAYERS
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
        and any(map(_is_memo, node.decorator_list))
        and (node.returns is None or "NCPoly" in ast.unparse(node.returns))
    ]


def test_word_layer_memos_hold_no_polynomials():
    assert _memos_of_polynomials(_package_sources()) == []


def test_the_polynomial_memo_check_sees_a_planted_one():
    planted = (
        "from functools import cache\n\n\n"
        "@cache\ndef _word(w: str) -> NCPoly:\n    return monomial(AB, w)\n\n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def _quoted(w: str) -> 'NCPoly':\n    return monomial(AB, w)\n\n\n"
        "@cache\ndef _bare(w):\n    return {w: 1}\n\n\n"
        "@cache\ndef _terms(w: str) -> dict:\n    return {w: 1}\n\n\n"
        "def _unmemoized(w: str) -> NCPoly:\n    return monomial(AB, w)\n"
    )
    assert _memos_of_polynomials({"operators": planted, "complexes": planted}) == [
        "operators._word",
        "operators._quoted",
        "operators._bare",
    ]


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


def _mutable_defaults(parser: argparse.ArgumentParser) -> list:
    """The (prog, dest) of every action default and `set_defaults` value in
    the tree under `parser` that is a list, dict or set."""
    found = [
        (parser.prog, dest)
        for dest, value in parser._defaults.items()
        if isinstance(value, (list, dict, set))
    ]
    for action in parser._actions:
        if isinstance(action.default, (list, dict, set)):
            found.append((parser.prog, action.dest))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found += _mutable_defaults(sub)
    return found


def test_the_cli_parser_has_no_mutable_defaults():
    assert _mutable_defaults(build_parser()) == []


def test_the_mutable_default_check_sees_a_planted_one():
    parser = argparse.ArgumentParser(prog="p")
    parser.add_argument("--seed", type=int, default=0, choices=[0, 1])
    op = parser.add_subparsers(dest="command").add_parser("op")
    op.set_defaults(handler=print, seen={})
    mixing = op.add_subparsers(dest="which").add_parser("M")
    mixing.add_argument("--in", dest="in_paths", action="append", default=[])
    assert _mutable_defaults(parser) == [("p op", "seen"), ("p op M", "in_paths")]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced(sources: dict) -> list:
    """The module-level functions and classes of the LIBRARY modules among
    `sources` (module name -> text), private ones included, and the
    non-dunder methods of those classes, that no name or attribute in any of
    the sources reads, outside the definition itself."""
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
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not _dunder(method.name)
                ]
            for name, definition in defined:
                inside = set(map(id, ast.walk(definition)))
                if all(id(r) in inside for r in readers.get(definition.name, [])):
                    found.append(f"{module}.{name}")
    return found


def _builtin_named_methods(sources: dict) -> list:
    """The methods of the LIBRARY classes among `sources` that are named
    like a method of a builtin type; slots and other attributes are not
    methods."""
    return [
        f"{module}.{node.name}.{method.name}"
        for module, text in sources.items()
        if module in LIBRARY
        for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name in BUILTIN_METHODS
    ]


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE_FILES}


def test_every_public_function_and_class_is_used_in_the_package():
    assert set(_unreferenced(_package_sources())) == UNUSED_ALLOWED


def test_no_library_method_is_named_like_a_builtin_method():
    assert _builtin_named_methods(_package_sources()) == []


def test_the_builtin_name_check_sees_a_count_method():
    vector = (
        "class FlagFVector:\n"
        "    __slots__ = ('index',)\n\n"
        "    def count(self, S):\n        return 0\n\n"
        "    def sorted_items(self):\n        return []\n"
    )
    assert _builtin_named_methods({"flags": vector, "cli": vector}) == [
        "flags.FlagFVector.count"
    ]


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


def test_the_reference_check_sees_unused_private_helpers():
    helper = (
        "def _used():\n    return 1\n\n\n"
        "def _unused(word):\n    return _unused(word[1:])\n\n\n"
        "class Shape:\n"
        "    def __len__(self):\n        return _used()\n\n"
        "    def _unused_method(self):\n        return 2\n"
    )
    caller = "from .operators import Shape\n\nVALUE = len(Shape())\n"
    assert _unreferenced({"operators": helper, "cli": caller}) == [
        "operators._unused",
        "operators.Shape._unused_method",
    ]


def _functions_saying(sources: dict, fragment: str) -> list:
    """The functions and methods among `sources` with a string that holds
    `fragment`, such as the message of a check."""
    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            inner = node.body if isinstance(node, ast.ClassDef) else [node]
            for f in inner:
                if isinstance(f, ast.FunctionDef) and any(
                    isinstance(c, ast.Constant) and fragment in str(c.value)
                    for c in ast.walk(f)
                ):
                    name = f.name if f is node else f"{node.name}.{f.name}"
                    found.append(f"{module}.{name}")
    return found


def test_derived_posets_and_complexes_skip_the_input_checks(monkeypatch):
    sources = _package_sources()
    assert _functions_saying(sources, "by a longer path") == ["posets.Poset.__init__"]
    assert _functions_saying(sources, "without its subset") == [
        "complexes.SimplicialComplex.__init__"
    ]
    corpus(0)  # the members come from the generators, through the label door
    entered = []
    for cls in (Poset, SimplicialComplex):

        def counting(self, *args, door=cls.__init__):
            entered.append(type(self).__name__)
            door(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    for suite in ("ii", "tcheb-triangulation"):
        assert all(entry["pass"] for entry in SUITES[suite](0)), suite
    assert entered == []
