"""Cold-process benchmark of the posetops CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  The script writes the seeded input
files, then starts one child interpreter at a time (perfbench/child.py).
Each child imports posetops from ./src, runs the workload's whole call list
through `posetops.cli.main` and exits, so every child starts with cold memo
tables.  Children start while the next one is expected to end within
--seconds (at least three start without tracing), and each metric is the
median over the children of the run.

With --trace 0 the metrics are end to end: wall_s and cpu_s of the call
list, setup_s (launch until the first call starts; extra launches that run
no call add samples) and peak_rss_mb.  With --trace 1 untraced and traced
children alternate; the traced ones give the per-layer metrics of
layers.METRICS, and trace_overhead is the ratio of their median wall times.

Every call is checked: its exit code, its --out digest against
reference.json, its digest against the run's first child, the verify report
it wrote, and the cross-route checks of its workload.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

`--record` rewrites reference.json from one child per workload at the
default seed.  Use it only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import gen_inputs
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_PROBES = 10       # launches per run that run no call, for setup_s
MIN_CHILDREN = 3        # untraced children per run even when --seconds is short...
RUN_LIMIT_S = 150.0     # ...unless the next would end past this point
KILL_AFTER_S = 170.0    # a child still running this long into the run is killed
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# -- correctness ---------------------------------------------------------------------


def ce_to_cd(poly: dict) -> dict:
    """A ce-polynomial (CLI JSON) rewritten in c and d with e² = c² − 2d."""
    ee = {"cc": Fraction(1), "d": Fraction(-2)}
    out: dict = {}
    for term in poly["terms"]:
        pieces = {"": Fraction(term["num"], term["den"])}
        word = term["word"]
        i = 0
        while i < len(word):
            if word.startswith("ee", i):
                factor, i = ee, i + 2
            elif word[i] == "c":
                factor, i = {"c": Fraction(1)}, i + 1
            else:
                raise ValueError(f"odd run of e's in {word!r}")
            pieces = {w + v: c * d for w, c in pieces.items() for v, d in factor.items()}
        for w, c in pieces.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def cd_terms(poly: dict) -> dict:
    return {t["word"]: Fraction(t["num"], t["den"]) for t in poly["terms"]}


def judge(calls, checks, outcome, reference, first=None) -> list:
    """Per call, whether it failed in one child.

    `outcome` is the child's per-call list (code, digest, ...).  `reference`
    maps "workload/id" or plain ids to expected digests; `first` maps ids to
    the digests the run's first child produced.
    """
    by_id = {call["id"]: result for call, result in zip(calls, outcome)}
    failed = {}
    for call, result in zip(calls, outcome):
        expected = reference.get(call["id"])
        failed[call["id"]] = (
            result["code"] != 0
            or result["digest"] is None
            or (call["verify"] and result.get("failed") != 0)
            or (expected is not None and result["digest"] != expected)
            or (first is not None and result["digest"] != first.get(call["id"]))
        )
    for kind, left, right in checks:
        if kind == "equal":
            agree = by_id[left]["digest"] == by_id[right]["digest"]
        elif kind == "equal-reference":
            agree = right in reference and by_id[left]["digest"] == reference[right]
        elif kind == "ce-to-cd":
            try:
                agree = ce_to_cd(json.loads(by_id[left]["text"])) == cd_terms(
                    json.loads(by_id[right]["text"])
                )
            except (KeyError, TypeError, ValueError):
                agree = False
        else:
            raise ValueError(f"unknown check {kind!r}")
        if not agree:
            failed[left] = True
    return [failed[call["id"]] for call in calls]


def load_reference(workload: str, seed: int) -> dict:
    """Expected digests for this workload's calls at `seed`.

    Keys are call ids of the workload plus "workload/id" keys of every
    workload, which cross-route checks use.  Calls on seeded inputs have a
    reference only at the default seed.
    """
    with open(REFERENCE, encoding="utf-8") as handle:
        recorded = json.load(handle)
    table = {}
    for key, entry in recorded["digests"].items():
        if entry["seeded"] and seed != recorded["seed"]:
            continue
        table[key] = entry["digest"]
        owner, _, call_id = key.partition("/")
        if owner == workload:
            table[call_id] = entry["digest"]
    return table


# -- children ------------------------------------------------------------------------


class Child:
    """Launches child.py on a spec and collects what it reports."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    def run(self, calls: list, trace: bool, deadline: float) -> dict | None:
        """Run `calls` in a fresh interpreter; None when it did not finish.

        A child still running at `deadline` (time.monotonic) is killed, and
        so is one still running when the wait is interrupted.
        """
        self.count += 1
        spec = os.path.join(self.work_dir, f"spec-{self.count}.json")
        result = os.path.join(self.work_dir, f"result-{self.count}.json")
        stderr = os.path.join(self.work_dir, f"stderr-{self.count}.txt")
        with open(spec, "w", encoding="utf-8") as handle:
            json.dump({"trace": trace, "calls": calls}, handle)
        command = [sys.executable, os.path.join(HERE, "child.py"), spec, result]
        with open(stderr, "wb") as err:
            launched = time.monotonic()
            process = subprocess.Popen(
                command, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                usage = _wait(process, deadline)
            finally:
                if process.returncode is None:
                    process.kill()
                    process.wait()
        if usage is None or process.returncode != 0 or not os.path.exists(result):
            with open(stderr, encoding="utf-8", errors="replace") as handle:
                sys.stderr.write(handle.read()[-2000:])
            return None
        with open(result, encoding="utf-8") as handle:
            report = json.load(handle)
        report["setup_s"] = report["ready"] - launched
        report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if not report["posetops"].startswith(os.path.join(ROOT, "src")):
            raise SystemExit(f"child imported posetops from {report['posetops']}")
        for path in (spec, result, stderr):
            os.remove(path)
        return report


def _wait(process, deadline: float):
    """Reap `process` and return its rusage; None if `deadline` comes first."""
    while time.monotonic() < deadline:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(0.02)
    return None


# -- one workload ------------------------------------------------------------------


class Run:
    """Children of one workload, their verdicts and their samples."""

    def __init__(self, workload: str, seed: int, inputs: dict, work_dir: str, reference: dict):
        out_dir = os.path.join(work_dir, "out")
        os.makedirs(out_dir, exist_ok=True)
        built = workloads.build(workload, inputs, seed, out_dir)
        self.calls, self.checks = built.calls, built.checks
        self.child = Child(work_dir)
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.deadline = time.monotonic() + KILL_AFTER_S

    def add(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def child_run(self, trace: bool) -> dict | None:
        report = self.child.run(self.calls, trace, self.deadline)
        self.attempted += len(self.calls)
        if report is None:
            self.failed += len(self.calls)
            return None
        verdicts = judge(self.calls, self.checks, report["calls"], self.reference, self.first)
        self.failed += sum(verdicts)
        if self.first is None:
            self.first = {c["id"]: r["digest"] for c, r in zip(self.calls, report["calls"])}
        return report

    def setup_probes(self) -> None:
        for _ in range(SETUP_PROBES):
            report = self.child.run([], False, self.deadline)
            if report is None:
                raise SystemExit("a child that runs no call did not start")
            self.add("setup_s", report["setup_s"])

    def untraced(self) -> dict | None:
        report = self.child_run(False)
        if report is not None:
            for name in END_TO_END:
                self.add(name, report[name])
        return report

    def traced(self) -> dict | None:
        report = self.child_run(True)
        if report is not None:
            self.add("traced_wall_s", report["wall_s"])
            verify = [r for c, r in zip(self.calls, report["calls"]) if c["verify"]]
            layer_values = dict(report["layers"])
            layer_values["verify.cases"] = sum(r["cases"] for r in verify)
            layer_values["verify.failed"] = sum(r["failed"] or 0 for r in verify)
            layer_values["cli.bytes_out"] = sum(r["bytes"] for r in report["calls"])
            for name, value in layer_values.items():
                self.add(name, value)
        return report


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Start children while the next one should end within `seconds`.

    With `trace`, an untraced and a traced child start as a pair, and one
    pair is enough.  Otherwise at least MIN_CHILDREN start, unless the next
    would end past RUN_LIMIT_S.  Returns the medians.
    """
    started = time.monotonic()
    if not trace:
        run.setup_probes()
    minimum = 1 if trace else MIN_CHILDREN
    last = 0.0
    done = 0
    while True:
        projected = time.monotonic() - started + last
        if done and projected > (seconds if done >= minimum else RUN_LIMIT_S):
            break
        begun = time.monotonic()
        reports = [run.untraced()] + ([run.traced()] if trace else [])
        last = time.monotonic() - begun
        done += 1
        if None in reports:
            break
    samples = run.samples
    if trace and samples.get("traced_wall_s") and samples.get("wall_s"):
        ratio = statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"])
        samples["trace_overhead"] = [ratio]
    units = layers.METRICS if trace else END_TO_END
    return {
        name: {"value": statistics.median(samples[name]), "unit": unit, "n": len(samples[name])}
        for name, unit in units.items()
        if samples.get(name)
    }


# -- entry point -----------------------------------------------------------------------


def _print_rows(workload: str, metrics: dict, attempted: int, failed: int) -> None:
    for name, entry in metrics.items():
        print(f"{workload:16} {name:28} {entry['value']:>14.6g} {entry['unit']:6} n={entry['n']}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{workload:16} {'fail_ratio':28} {ratio:>14.6g} {'ratio':6} n={attempted}")


def record(work_dir: str) -> int:
    """Rewrite reference.json from one child per workload at the default seed."""
    inputs = gen_inputs.generate(DEFAULT_SEED, os.path.join(work_dir, "inputs"))
    digests = {}
    for workload in workloads.NAMES:
        run = Run(workload, DEFAULT_SEED, inputs, work_dir, {})
        report = run.child.run(run.calls, False, run.deadline)
        if report is None:
            print(f"{workload}: the child did not finish", file=sys.stderr)
            return 1
        for call, result in zip(run.calls, report["calls"]):
            if result["code"] != 0 or result["digest"] is None:
                print(f"{workload}: {call['id']} failed", file=sys.stderr)
                return 1
            digests[f"{workload}/{call['id']}"] = {
                "digest": result["digest"],
                "seeded": call["seeded"],
            }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of the posetops CLI.")
    parser.add_argument("--workload", default="all", choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "posetops", "__init__.py")):
        print(f"error: no posetops source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        if args.record:
            return record(work_dir)
        inputs = gen_inputs.generate(args.seed, os.path.join(work_dir, "inputs"))
        names = workloads.NAMES if args.workload == "all" else [args.workload]
        attempted = failed = 0
        results = {}
        for workload in names:
            reference = load_reference(workload, args.seed)
            run = Run(workload, args.seed, inputs, work_dir, reference)
            metrics = measure(run, args.seconds, bool(args.trace))
            _print_rows(workload, metrics, run.attempted, run.failed)
            attempted += run.attempted
            failed += run.failed
            results[workload] = metrics
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{w}/{name}": entry for w, entries in results.items() for name, entry in entries.items()}
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
