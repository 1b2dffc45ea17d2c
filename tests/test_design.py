"""Package-wide design rules.

Every memo is functools.cache on a private helper: a module-level dict,
list or set that code writes to, or a `global` statement, would be a
second memo idiom.  The memos of the word layers (ncpoly, operators and
flags) hold plain values, term dicts among them, and declare so in their
return annotation; none holds an NCPoly.  Every public module-level callable of a layer module
is a plain function, so a tracer that rebinds the public names from
outside (as perfbench/layers.py does, wrapping only FunctionType) still
sees each call.  The command line loads a layer only when a command runs
it: `cli` imports operators and verify inside the handlers that call them
and reads their functions off the module at call time, so such a rebinding
reaches those calls too.  Every module-level function and class of the library
modules, private ones included, and every non-dunder method of those
classes, is used somewhere in the package, so no helper that nothing calls
grows back.  None of them is named like a method of a builtin type,
because a read of such a name cannot be told from the builtin one.  No
function nested in another reads its own name or carries a memo: the
recursions are module-level helpers that take their state as arguments,
so no call leaves a reference cycle behind.  The
checks of outside posets and complexes run in their doors only, and the
values the package derives from checked ones do not pass those doors.
The command line reuses one parser for every call, so no default in its
tree is a list, dict or set that one call could fill for the next.  Its
handlers return their JSON values and `main` alone writes them, so there is
one write path and one place where a failed verify report becomes exit 1.
"""

import argparse
import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import posetops
from posetops import cli, operators, verify
from posetops.cli import build_parser
from posetops.complexes import SimplicialComplex, order_complex
from posetops.flags import ab_index
from posetops.ncpoly import rewrite_ab_to_cd
from posetops.posets import Poset, boolean_lattice, graded_interval_poset
from posetops.verify import SUITES, corpus, edge_order_f_vectors

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _nested_cycles(sources: dict) -> list:
    """The functions nested in another function among `sources` that read
    their own name or carry cache or lru_cache, as module.outer.inner.  Each
    call of the outer function makes such a function anew, and one that
    reads itself through its closure cell is a reference cycle."""
    found = []
    for module, text in sources.items():
        stack = [(ast.parse(text), module, False)]
        while stack:
            node, path, nested = stack.pop()
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                path = f"{path}.{node.name}"
                if nested and isinstance(node, FUNCTIONS) and (
                    any(map(_is_memo, node.decorator_list))
                    or any(
                        isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)
                        and n.id == node.name
                        for n in ast.walk(node)
                    )
                ):
                    found.append(path)
                nested = nested or isinstance(node, FUNCTIONS)
            stack += [(child, path, nested) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_no_nested_function_recurses_or_memoizes():
    assert _nested_cycles(_package_sources()) == []


def test_the_nested_function_check_sees_planted_ones():
    planted = (
        "def order_complex(P):\n"
        "    def visit(i):\n"
        "        for j in P.up[i]:\n            visit(j)\n"
        "    visit(0)\n\n\n"
        "class Walker:\n"
        "    def walk(self, K):\n"
        "        def step(rest):\n"
        "            return [step(rest[1:])] if rest else []\n"
        "        return step(K)\n\n\n"
        "def _count(m):\n"
        "    @cache\n    def extend(i):\n        return i\n\n"
        "    @functools.lru_cache(maxsize=None)\n    def inner(i):\n        return i\n\n"
        "    def plain(i):\n        return _count(i - 1) if i else 0\n\n"
        "    return extend(m) + inner(m) + plain(m)\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
    )
    assert _nested_cycles({"verify": planted}) == [
        "verify.Walker.walk.step",
        "verify._count.extend",
        "verify._count.inner",
        "verify.order_complex.visit",
    ]


@pytest.mark.parametrize(
    "recursion, arguments",
    [
        (order_complex, lambda: (graded_interval_poset(boolean_lattice(4)), True)),
        (rewrite_ab_to_cd, lambda: (ab_index(boolean_lattice(4)),)),
        (edge_order_f_vectors, lambda: (SimplicialComplex.from_facets(["abc"]),)),
        (verify._support_chain_count, lambda: (7,)),
    ],
    ids=["order_complex", "rewrite_ab_to_cd", "edge_order_f_vectors", "support_chains"],
)
def test_recursions_leave_no_reference_cycles(recursion, arguments):
    # with the collector off, what a call leaves in cycles is still there to count
    args = arguments()
    gc.collect()
    gc.disable()
    try:
        recursion(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _emit_readers(text: str) -> list:
    """Where the source `text` reads the name `_emit`: the dotted path of
    the innermost enclosing function or class, or "" at module level."""
    found = []
    stack = [(ast.parse(text), "")]
    while stack:
        node, path = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            path = f"{path}.{node.name}".lstrip(".")
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == "_emit":
            found.append(path)
        stack += [(child, path) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_main_is_the_only_caller_of_emit():
    assert _emit_readers(_package_sources()["cli"]) == ["main"]


def test_the_emit_check_sees_handlers_that_write():
    planted = (
        "def _cmd_verify(args):\n"
        "    report = run_suite(args.suite, seed=args.seed)\n"
        "    _emit(report, args.out)\n"
        "    return 0 if report['summary']['failed'] == 0 else 1\n\n\n"
        "_ACTIONS = {'dual': lambda args: _emit(args.poset.dual(), args.out)}\n\n\n"
        "class Handlers:\n"
        "    write = staticmethod(_emit)\n\n\n"
        "def main(argv=None):\n"
        "    args = _parser().parse_args(argv)\n"
        "    _emit(args.handler(args), args.out)\n"
    )
    assert _emit_readers(planted) == ["", "Handlers", "_cmd_verify", "main"]


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
        for name, definition in _definitions(tree):
            inside = set(map(id, ast.walk(definition)))
            if all(id(r) in inside for r in readers.get(definition.name, [])):
                found.append(f"{module}.{name}")
    return found


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function and class of the tree, and
    of each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not _dunder(method.name):
                    yield f"{node.name}.{method.name}", method


def _builtin_named_methods(sources: dict) -> list:
    """The module-level functions and classes of the LIBRARY modules among
    `sources`, and the methods of those classes, that are named like a
    method of a builtin type; slots and other attributes are not methods."""
    return [
        f"{module}.{name}"
        for module, text in sources.items()
        if module in LIBRARY
        for name, definition in _definitions(ast.parse(text))
        if definition.name in BUILTIN_METHODS
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
        "    def sorted_items(self):\n        return []\n\n\n"
        "def join(K, L):\n    return K\n\n\n"
        "def link(K, face):\n    return K\n"
    )
    assert _builtin_named_methods({"flags": vector, "cli": vector}) == [
        "flags.FlagFVector.count",
        "flags.join",
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


# Run in a fresh interpreter: the posetops modules loaded after importing
# the CLI, then after each call of the argv lists in sys.argv[1], in turn.
_FOOTPRINT = """
import io, json, sys
from contextlib import redirect_stdout
import posetops.cli

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "posetops")

steps = [(None, loaded())]
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = posetops.cli.main(argv)
    steps.append((code, loaded()))
print(json.dumps(steps))
"""


def test_each_command_loads_only_the_layers_it_runs():
    calls = [
        ["index", "cd", "--kind", "boolean", "--n", "3"],
        ["op", "delannoy", "--i", "2", "--j", "2"],
        ["verify", "--suite", "ladder"],
    ]
    source_root = str(Path(posetops.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert [code for code, _ in steps] == [None, 0, 0, 0]
    modules = [{name.removeprefix("posetops.") for name in names} for _, names in steps]
    assert modules[0] == {"posetops", "cli", "errors", "posets", "ncpoly", "flags"}
    added = [after - before for before, after in zip(modules, modules[1:])]
    assert added == [set(), {"operators"}, {"verify", "complexes"}]


def test_the_cli_reads_operators_and_verify_at_call_time(monkeypatch, capsys):
    calls = []
    delannoy_mixing, run_suite = operators.delannoy_mixing, verify.run_suite

    def patched_delannoy(i, j):
        calls.append(("delannoy_mixing", i, j))
        return delannoy_mixing(i, j)

    def patched_run_suite(suite, seed=0):
        calls.append(("run_suite", suite, seed))
        return run_suite(suite, seed=seed)

    monkeypatch.setattr(operators, "delannoy_mixing", patched_delannoy)
    monkeypatch.setattr(verify, "run_suite", patched_run_suite)
    assert cli.main(["op", "delannoy", "--i", "2", "--j", "3"]) == 0
    assert cli.main(["verify", "--suite", "ladder", "--seed", "1"]) == 0
    capsys.readouterr()
    assert calls == [("delannoy_mixing", 2, 3), ("run_suite", "ladder", 1)]


def test_the_cli_suite_names_are_those_of_verify_in_order():
    # `verify --help` and the --suite choices list them in this order
    assert cli._SUITES == tuple(verify.SUITES)
