"""Per-layer spans for posetops, recorded from outside the package.

`install` replaces every public function and every public method of the
package's classes, at every module-level binding in the package, with a
wrapper that records one span per call: function, start, end and the span
that was open when it started.  Dunder methods and properties stay
unwrapped, so polynomial arithmetic (`NCPoly.__add__`, ...) counts toward
its caller.  Spans are kept in flat arrays in memory and summarised by
`layer_metrics` once the traced calls are done.

A layer is the module a function is defined in.  `errors` does no work and
is not a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from types import FunctionType

LAYERS = ("posets", "flags", "ncpoly", "operators", "complexes", "verify", "cli")

# Verify suites that the verify-oracles workload runs, in that order.
SUITES = (
    "iota",
    "jojic-ab",
    "jojic-cd",
    "ii",
    "delannoy",
    "ladder",
    "tcheb-triangulation",
    "typeb",
)

# Inclusive times of named functions; nested calls inside an outer call of
# the same group are not counted twice.
GROUP_TIMES = {
    "ncpoly.linalg_s": ("ncpoly.solve_exact", "ncpoly.matrix_rank"),
    "operators.mixing_ab_s": ("operators.mixing_ab",),
    "operators.second_kind_ab_s": ("operators.second_kind_ab_transform",),
    "operators.delannoy_s": ("operators.delannoy_mixing",),
    "operators.interval_s": (
        "operators.upsilon_interval_transform",
        "operators.ab_interval_transform",
        "operators.cd_interval_transform",
    ),
}

# Every per-layer metric with its unit.  `cli.bytes_out`, `verify.cases` and
# `verify.failed` come from the call outputs, `trace_overhead` from
# run.py; the rest come from the spans.
METRICS = {
    "posets.self_s": "s",
    "posets.calls": "count",
    "posets.elements": "count",
    "flags.self_s": "s",
    "flags.calls": "count",
    "flags.chains": "count",
    "ncpoly.self_s": "s",
    "ncpoly.calls": "count",
    "ncpoly.linalg_s": "s",
    "ncpoly.linalg_cells": "count",
    "operators.self_s": "s",
    "operators.calls": "count",
    "operators.mixing_ab_s": "s",
    "operators.second_kind_ab_s": "s",
    "operators.delannoy_s": "s",
    "operators.interval_s": "s",
    "operators.terms_out": "count",
    "complexes.self_s": "s",
    "complexes.calls": "count",
    "verify.self_s": "s",
    "verify.cases": "count",
    "verify.failed": "count",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace_overhead": "ratio",
}
NOT_FROM_SPANS = ("verify.cases", "verify.failed", "cli.bytes_out", "trace_overhead")


class Tracer:
    """Spans of one process, as parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []        # function id -> "layer.qualname"
        self.layer_of: list[str] = []     # function id -> layer
        self.function = array("i")        # span -> function id
        self.parent = array("i")          # span -> enclosing span, -1 at top
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[int, object] = {}  # span -> what `measure` returned
        self._open = [-1]

    def wrap(self, fn, layer: str, measure=None):
        """`fn` recording a span per call; `measure(args, result)` is kept."""
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__qualname__}")
        self.layer_of.append(layer)
        function, parent, start, end = self.function, self.parent, self.start, self.end
        open_spans, sizes, clock = self._open, self.sizes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(function)
            function.append(fid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                open_spans.pop()
            if measure is not None:
                sizes[span] = measure(args, result)
            return result

        return traced


# -- what a span measures, by layer or by function -------------------------------


def _measures():
    from posetops.ncpoly import NCPoly
    from posetops.posets import Poset

    def elements(args, result):
        return len(result.labels) if isinstance(result, Poset) else 0

    def terms(args, result):
        return len(result.terms) if isinstance(result, NCPoly) else 0

    def chains(args, result):
        return sum(result.counts.values())

    def solve_cells(args, result):
        columns, target = args
        return len(set(target).union(*columns)) * (len(columns) + 1)

    def rank_cells(args, result):
        (columns,) = args
        return len(set().union(*columns)) * len(columns)

    def suite(args, result):
        return args[0]

    by_layer = {"posets": elements, "operators": terms}
    by_name = {
        "flags.flag_f_vector": chains,
        "ncpoly.solve_exact": solve_cells,
        "ncpoly.matrix_rank": rank_cells,
        "verify.run_suite": suite,
    }
    return by_layer, by_name


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables in place, each once."""
    modules = {layer: importlib.import_module(f"posetops.{layer}") for layer in LAYERS}
    bindings = [importlib.import_module("posetops"), *modules.values()]
    layer_names = {f"posetops.{layer}": layer for layer in LAYERS}
    by_layer, by_name = _measures()
    wrapped: dict = {}

    def traced(fn):
        if fn not in wrapped:
            layer = layer_names[fn.__module__]
            measure = by_name.get(f"{layer}.{fn.__qualname__}", by_layer.get(layer))
            wrapped[fn] = tracer.wrap(fn, layer, measure)
        return wrapped[fn]

    for module in bindings:
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if isinstance(value, FunctionType) and value.__module__ in layer_names:
                setattr(module, name, traced(value))
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, FunctionType):
                        setattr(value, attr, traced(member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        setattr(value, attr, type(member)(traced(member.__func__)))


# -- summaries ----------------------------------------------------------------------


def self_times(start, end, parent) -> list:
    """Each span's duration minus the time its direct child spans cover.

    Spans of one thread nest, so children of a span never overlap and the
    covered time is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for span, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[span] - start[span]
    return own


def group_time(tracer: Tracer, names) -> float:
    """Inclusive time of calls to `names` not nested inside another of them."""
    ids = {fid for fid, name in enumerate(tracer.names) if name in names}
    total = 0.0
    for span, fid in enumerate(tracer.function):
        if fid not in ids:
            continue
        up = tracer.parent[span]
        while up >= 0 and tracer.function[up] not in ids:
            up = tracer.parent[up]
        if up < 0:
            total += tracer.end[span] - tracer.start[span]
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """The span-derived entries of METRICS, as plain numbers."""
    out = {name: 0 for name in METRICS if name not in NOT_FROM_SPANS}
    own = self_times(tracer.start, tracer.end, tracer.parent)
    layer_of, function, parent = tracer.layer_of, tracer.function, tracer.parent
    for span, fid in enumerate(function):
        layer = layer_of[fid]
        out[f"{layer}.self_s"] += own[span]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
    for span, size in tracer.sizes.items():
        fid = function[span]
        name, layer = tracer.names[fid], layer_of[fid]
        up = parent[span]
        entered = up < 0 or layer_of[function[up]] != layer
        if name == "verify.run_suite":
            key = f"verify.{size}_s"
            out[key] = out.get(key, 0) + tracer.end[span] - tracer.start[span]
        elif name == "flags.flag_f_vector":
            out["flags.chains"] += size
        elif layer == "ncpoly":
            out["ncpoly.linalg_cells"] += size
        elif layer == "posets" and entered:
            out["posets.elements"] += size
        elif layer == "operators" and entered:
            out["operators.terms_out"] += size
    for key, names in GROUP_TIMES.items():
        out[key] = group_time(tracer, names)
    return {name: value for name, value in out.items() if name in METRICS}
