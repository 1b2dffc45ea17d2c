"""One cold interpreter: run a list of posetops CLI calls in order, then report.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds {"trace": bool, "calls": [{"argv": [...], "out": path,
"verify": bool, "keep": bool, "check": bool}, ...]}.  Each call goes through
`posetops.cli.main(argv)`, so the package's memo tables start empty in
every child and stay warm from one call to the next.  RESULT gets the
moment the first call started (`time.monotonic`, comparable with the
parent's clock), the wall and CPU time from the first call to the end of the
last, and per call its exit code and the sha256 of its --out bytes.  With
"trace" set, the package is wrapped by `layers.install` before the first
call and RESULT also gets the per-layer sums under "layers".  Calls marked
"check" exist only to cross-check others: they run after the timed span and
outside the layer summary.  Output files are hashed and removed at the end.
"""

import hashlib
import json
import os
import sys
import time
import traceback

import posetops.cli


def _output(call: dict) -> dict:
    path = call["out"]
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return {"digest": None, "bytes": 0}
    os.remove(path)
    out = {"digest": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if call.get("verify"):
        try:
            summary = json.loads(data)["summary"]
            out["cases"], out["failed"] = summary["total"], summary["failed"]
        except (ValueError, KeyError, TypeError):
            out["cases"], out["failed"] = 0, None
    if call.get("keep"):
        out["text"] = data.decode("utf-8", "replace")
    return out


def _run(cli, call: dict):
    try:
        return cli.main(call["argv"])
    except Exception:  # a crash fails this call; the others still run
        traceback.print_exc()
        return None


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    cli = sys.modules["posetops.cli"]
    calls = spec["calls"]
    codes = {}
    ready = time.monotonic()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for k, call in enumerate(calls):
        if not call.get("check"):
            codes[k] = _run(cli, call)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    summary = layers.layer_metrics(tracer) if tracer is not None else None
    for k, call in enumerate(calls):
        if call.get("check"):
            codes[k] = _run(cli, call)
    result = {
        "posetops": posetops.__file__,
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "calls": [dict(code=codes[k], **_output(call)) for k, call in enumerate(calls)],
        "layers": summary,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
