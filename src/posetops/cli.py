"""Command line entry points for the poset interval machinery.

Output is JSON on stdout (or --out): sorted keys, UTF-8, two-space
indentation, one trailing newline, so repeated runs are byte-identical.
Exit codes: 0 success, 1 verification failure, 2 domain error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import cache

from .errors import PosetOpsError
from .flags import (
    ab_index,
    cd_index,
    ce_index,
    flag_f_vector,
    flag_to_dict,
    upsilon,
)
from .ncpoly import AB, CD, NCPoly, from_dict as poly_from_dict, to_dict as poly_to_dict
from .operators import (
    ab_interval_transform,
    cd_interval_transform,
    delannoy_mixing,
    lift,
    mixing_ab,
    mixing_cd,
    pyramid,
    second_kind_ab_transform,
    upsilon_interval_transform,
)
from .posets import (
    GradedPoset,
    Poset,
    count_chains_with_support,
    diamond_product,
    direct_product,
    generate,
    graded_interval_poset,
    interval_poset,
    is_eulerian,
    poset_from_dict,
    poset_to_dict,
    second_kind_transform,
)
from .verify import SUITES, run_suite

USAGE_EXIT = 64


def _emit(data, out_path) -> None:
    """Write the JSON chunk by chunk: the text of a large report is never
    held whole, nor as a list of its pieces.  A failed write is refused and
    its target kept, as it may be a device; a failed stdout is pointed at
    the null device, or the interpreter's flush at exit fails on it again."""
    try:
        target = open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout)
        with target as handle:
            json.dump(data, handle, ensure_ascii=False, sort_keys=True, indent=2)
            handle.write("\n")
            handle.flush()
    except OSError as error:
        if not out_path:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise PosetOpsError(f"cannot write {out_path or 'stdout'}: {error}") from error


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise PosetOpsError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise PosetOpsError(f"{path} is not valid JSON: {error}") from error
    except ValueError as error:  # not UTF-8, or an integer too long for CPython
        raise PosetOpsError(f"{path} cannot be read as JSON: {error}") from error
    except RecursionError as error:
        raise PosetOpsError(f"{path} nests too deeply to read") from error


def _load_poset(path: str) -> Poset:
    data = _load_json(path)
    try:
        return poset_from_dict(data)
    except (PosetOpsError, KeyError, TypeError, ValueError) as error:
        raise PosetOpsError(f"{path} does not hold a poset: {error}") from error


def _load_graded_poset(path: str) -> GradedPoset:
    P = _load_poset(path)
    if not isinstance(P, GradedPoset):
        raise PosetOpsError(f"{path} holds a poset without rank data")
    return P


def _load_poly(path: str) -> NCPoly:
    data = _load_json(path)
    try:
        return poly_from_dict(data)
    except (PosetOpsError, KeyError, TypeError, ValueError) as error:
        raise PosetOpsError(f"{path} does not hold a polynomial: {error}") from error


def _split_support(text: str) -> list:
    """Split a comma-separated label list, honoring bracket nesting.

    Labels such as "{1,2}", "[u,v]" and "(p,q)" keep their inner commas.
    """
    openers = "([{"
    closers = ")]}"
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in openers:
            depth += 1
        elif ch in closers:
            depth -= 1
            if depth < 0:
                raise PosetOpsError(f"unbalanced brackets in support {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise PosetOpsError(f"unbalanced brackets in support {text!r}")
    parts.append("".join(current))
    parts = [part.strip() for part in parts]
    if any(not part for part in parts):
        raise PosetOpsError(f"empty label in support {text!r}")
    return parts


def _poset_argument(args) -> GradedPoset:
    """A graded poset from --in, or from --kind and --n."""
    if args.in_path:
        return _load_graded_poset(args.in_path)
    if args.kind is None or args.n is None:
        raise PosetOpsError("provide either --in or both --kind and --n")
    return generate(args.kind, args.n)


# -- poset subcommands -----------------------------------------------------------


def _cmd_poset_gen(args):
    return poset_to_dict(generate(args.kind, args.n))


# The dispatch tables below call through this module's names at call time,
# so a tracer that rebinds those names sees every call.

# action -> (help, loader of each input file, result from the loaded posets);
# the actions taking two posets read --in and --in2.
_POSET_FILE_ACTIONS = {
    "intervals": (
        "poset of nonempty intervals",
        _load_poset,
        lambda P: poset_to_dict(interval_poset(P)),
    ),
    "graded-intervals": (
        "interval poset with an empty bottom adjoined",
        _load_graded_poset,
        lambda P: poset_to_dict(graded_interval_poset(P)),
    ),
    "second-kind": (
        "one interval poset member per element",
        _load_graded_poset,
        lambda P: {
            "members": [
                {"generator": x, "poset": poset_to_dict(member)}
                for x, member in second_kind_transform(P)
            ]
        },
    ),
    "product": (
        "direct product",
        _load_poset,
        lambda A, B: poset_to_dict(direct_product(A, B)),
    ),
    "diamond": (
        "product with bottoms fused into a new bottom",
        _load_graded_poset,
        lambda A, B: poset_to_dict(diamond_product(A, B)),
    ),
    "dual": ("reverse the order", _load_poset, lambda P: poset_to_dict(P.dual())),
    "eulerian": (
        "check the even/odd interval balance",
        _load_graded_poset,
        lambda P: {"eulerian": is_eulerian(P)},
    ),
}
_TWO_POSET_ACTIONS = ("product", "diamond")


def _cmd_poset_file(args):
    _, loader, result = _POSET_FILE_ACTIONS[args.action]
    paths = [args.in_path]
    if args.action in _TWO_POSET_ACTIONS:
        paths.append(args.in2_path)
    return result(*[loader(path) for path in paths])


def _cmd_poset_chains(args):
    return count_chains_with_support(_poset_argument(args), _split_support(args.support))


# -- index subcommands -----------------------------------------------------------


# which -> (help, JSON result from the poset)
_INDEX = {
    "flag": (
        "chain counts by visited rank set",
        lambda P: flag_to_dict(flag_f_vector(P)),
    ),
    "upsilon": ("flag-word polynomial", lambda P: poly_to_dict(upsilon(P))),
    "ab": ("ab-index", lambda P: poly_to_dict(ab_index(P))),
    "cd": ("cd-index", lambda P: poly_to_dict(cd_index(P))),
    "ce": ("ce-index", lambda P: poly_to_dict(ce_index(P))),
}


def _cmd_index(args):
    return _INDEX[args.which][1](_poset_argument(args))


# -- op subcommands --------------------------------------------------------------


# which -> (help, operator on one polynomial)
_UNARY_OPS = {
    "iota": (
        "interval transform of flag-word polynomials",
        lambda p: upsilon_interval_transform(p),
    ),
    "Iab": ("interval transform of ab-indices", lambda p: ab_interval_transform(p)),
    "Icd": ("interval transform of cd-indices", lambda p: cd_interval_transform(p)),
    "IIab": (
        "second-kind transform of ab-indices",
        lambda p: second_kind_ab_transform(p),
    ),
    "pyr": ("mix with a single point", lambda p: pyramid(p)),
    "lift": ("multiply by a-b on both sides and add", lambda p: lift(p)),
}


def _cmd_op_unary(args):
    return poly_to_dict(_UNARY_OPS[args.which][1](_load_poly(args.in_path)))


def _cmd_op_mixing(args):
    p, q = _load_poly(args.in_path), _load_poly(args.in2_path)
    if p.alphabet == AB and q.alphabet == AB:
        result = mixing_ab(p, q)
    elif p.alphabet == CD and q.alphabet == CD:
        result = mixing_cd(p, q)
    else:
        raise PosetOpsError("mixing needs two ab- or two cd-polynomials")
    return poly_to_dict(result)


def _cmd_op_delannoy(args):
    return poly_to_dict(delannoy_mixing(args.i, args.j))


# -- verify ------------------------------------------------------------------------


def _cmd_verify(args):
    return run_suite(args.suite, seed=args.seed)


# -- parser ------------------------------------------------------------------------


def _add_out(parser) -> None:
    parser.add_argument("--out", help="write the JSON result to this file")


def _add_in(parser, required=True) -> None:
    parser.add_argument(
        "--in", dest="in_path", required=required, help="input JSON file"
    )


def _add_in2(parser) -> None:
    parser.add_argument(
        "--in2", dest="in2_path", required=True, help="second input JSON file"
    )


def _add_kind_n(parser) -> None:
    parser.add_argument("--kind", help="generator family name")
    parser.add_argument("--n", type=int, help="generator size parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetops",
        description="Interval posets, flag indices, and their transforms.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    poset = commands.add_parser("poset", help="build and transform posets")
    poset_actions = poset.add_subparsers(dest="action", required=True)

    gen = poset_actions.add_parser("gen", help="generate a standard poset")
    gen.add_argument("--kind", required=True)
    gen.add_argument("--n", type=int, required=True)
    _add_out(gen)
    gen.set_defaults(handler=_cmd_poset_gen)

    for action, (text, _, _) in _POSET_FILE_ACTIONS.items():
        sub = poset_actions.add_parser(action, help=text)
        _add_in(sub)
        if action in _TWO_POSET_ACTIONS:
            _add_in2(sub)
        _add_out(sub)
        sub.set_defaults(handler=_cmd_poset_file)

    chains = poset_actions.add_parser(
        "chains", help="count nested-interval chains over a support chain"
    )
    _add_in(chains, required=False)
    _add_kind_n(chains)
    chains.add_argument(
        "--support", required=True, help="comma-separated chain of labels"
    )
    _add_out(chains)
    chains.set_defaults(handler=_cmd_poset_chains)

    index = commands.add_parser("index", help="flag counts and index polynomials")
    index_actions = index.add_subparsers(dest="which", required=True)
    for which, (text, _) in _INDEX.items():
        sub = index_actions.add_parser(which, help=text)
        _add_in(sub, required=False)
        _add_kind_n(sub)
        _add_out(sub)
        sub.set_defaults(handler=_cmd_index, which=which)

    op = commands.add_parser("op", help="transforms on index polynomials")
    op_actions = op.add_subparsers(dest="which", required=True)
    for which, (text, _) in _UNARY_OPS.items():
        sub = op_actions.add_parser(which, help=text)
        _add_in(sub)
        _add_out(sub)
        sub.set_defaults(handler=_cmd_op_unary, which=which)

    mixing = op_actions.add_parser("M", help="mix two index polynomials")
    _add_in(mixing)
    _add_in2(mixing)
    _add_out(mixing)
    mixing.set_defaults(handler=_cmd_op_mixing)

    delannoy = op_actions.add_parser(
        "delannoy", help="mixing of two c-powers via weighted lattice paths"
    )
    delannoy.add_argument("--i", type=int, required=True)
    delannoy.add_argument("--j", type=int, required=True)
    _add_out(delannoy)
    delannoy.set_defaults(handler=_cmd_op_delannoy)

    verify = commands.add_parser("verify", help="run a named verification suite")
    verify.add_argument(
        "--suite",
        default="all",
        choices=list(SUITES) + ["all"],
        help="which suite to run",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="seed for the random corpus members"
    )
    _add_out(verify)
    verify.set_defaults(handler=_cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` reuses: `parse_args` returns a fresh namespace
    per call, and no action has a mutable default to carry between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return USAGE_EXIT if code == 2 else code
    try:
        result = args.handler(args)
        _emit(result, args.out)
    except PosetOpsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1 if args.command == "verify" and result["summary"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
