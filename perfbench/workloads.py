"""The benchmark's workloads: fixed lists of posetops CLI calls.

Each call has an id that is unique within its workload.  A call marked
`seeded` reads a file whose content depends on the seed, so its reference
digest is known only for the default seed.  `checks` pair calls whose
outputs must agree although they are computed by different routes; a call
marked `check` is there only for such a pair and runs outside the timed
span.
WORKLOADS.md says why each workload exists.
"""

from __future__ import annotations

import os

from layers import SUITES

NAMES = ("index-products", "word-operators", "verify-oracles")


class Calls:
    """Builds one workload's call list; --out paths go under `out_dir`."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.calls: list[dict] = []
        self.checks: list[tuple] = []

    def add(self, call_id: str, *argv: str, seeded=False, verify=False, keep=False,
            check=False) -> str:
        out = os.path.join(self.out_dir, f"{len(self.calls):02d}.json")
        self.calls.append(
            {
                "id": call_id,
                "argv": [*argv, "--out", out],
                "out": out,
                "seeded": seeded,
                "verify": verify,
                "keep": keep,
                "check": check,
            }
        )
        return out


def build(name: str, inputs: dict, seed: int, out_dir: str) -> Calls:
    """The calls of workload `name` on the files `gen_inputs` wrote."""
    calls = Calls(out_dir)
    if name == "index-products":
        for product in ("cube3xcube3", "boolean4xcube3"):
            for which in ("ab", "cd"):
                calls.add(f"index-{which}:{product}", "index", which, "--in", inputs[product])
        for which in ("ab", "cd"):
            calls.add(f"index-{which}:boolean8", "index", which, "--kind", "boolean", "--n", "8")
        calls.add("index-cd:cube5", "index", "cd", "--kind", "cube", "--n", "5")
        calls.add("index-cd:crosspolytope4", "index", "cd", "--kind", "crosspolytope", "--n", "4")
        calls.add("index-cd:ladder8", "index", "cd", "--kind", "ladder", "--n", "8")
        calls.add("index-ce:ladder7", "index", "ce", "--kind", "ladder", "--n", "7", keep=True)
        calls.add("index-cd:ladder7", "index", "cd", "--kind", "ladder", "--n", "7", keep=True,
                  check=True)
        calls.checks.append(("ce-to-cd", "index-ce:ladder7", "index-cd:ladder7"))
        k = 0
        while f"random{k}-product" in inputs:
            sides = [
                calls.add(f"index-ab:random{k}-{side}", "index", "ab", "--in",
                          inputs[f"random{k}-{side}"], seeded=True)
                for side in ("left", "right")
            ]
            calls.add(f"op-M:random{k}", "op", "M", "--in", sides[0], "--in2", sides[1],
                      seeded=True, check=True)
            calls.add(f"index-ab:random{k}-product", "index", "ab", "--in",
                      inputs[f"random{k}-product"], seeded=True)
            calls.checks.append(("equal", f"op-M:random{k}", f"index-ab:random{k}-product"))
            k += 1
    elif name == "word-operators":
        boolean4 = calls.add("index-ab:boolean4", "index", "ab", "--kind", "boolean", "--n", "4")
        cube3 = calls.add("index-ab:cube3", "index", "ab", "--kind", "cube", "--n", "3")
        calls.add("op-M:boolean4,cube3", "op", "M", "--in", boolean4, "--in2", cube3)
        calls.checks.append(
            ("equal-reference", "op-M:boolean4,cube3", "index-products/index-ab:boolean4xcube3")
        )
        cube4 = calls.add("index-cd:cube4", "index", "cd", "--kind", "cube", "--n", "4")
        calls.add("op-M:cube4,cube4", "op", "M", "--in", cube4, "--in2", cube4)
        for op in ("Iab", "iota", "lift"):
            calls.add(f"op-{op}:ab8", "op", op, "--in", inputs["poly-ab8"], seeded=True)
        calls.add("op-Icd:cd10", "op", "Icd", "--in", inputs["poly-cd10"], seeded=True)
        calls.add("op-IIab:ab6", "op", "IIab", "--in", inputs["poly-ab6"], seeded=True)
        calls.add("op-pyr:ab7", "op", "pyr", "--in", inputs["poly-ab7"], seeded=True)
        calls.add("op-delannoy:6,6", "op", "delannoy", "--i", "6", "--j", "6")
    elif name == "verify-oracles":
        for suite in SUITES:
            calls.add(f"verify:{suite}", "verify", "--seed", str(seed), "--suite", suite,
                      seeded=True, verify=True)
    else:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
    return calls
