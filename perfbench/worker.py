"""One pass over a plan's op list, in a fresh process.

    python3 worker.py PLAN.json OUTPUT [--trace SPANS.csv]

A fresh process starts with cold module-level caches, as every CLI
invocation does; later ops of the pass share them, as a library caller's
would.  Each op is timed alone with perf_counter.  The worker checks
nothing, so that its peak resident memory is the library's: each CLI op
writes its stdout straight into OUTPUT, as it would into a pipe, and each
kernel solution is written there as one JSON line after its timer stops.
The caller checks the outputs (checks.py).  Before every ref_every-th op
and after the last one the worker times the reference computation,
outside the ops' timers.  The pass prints one JSON object on stdout: per
op the time, the exit code or the exception and the byte range of its
output in OUTPUT; the reference times; the peak resident memory; the
pairing_u cache counters; and with --trace the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from fractions import Fraction


def _solution_line(solution) -> str:
    polys = [[str(c) for c in p.coeffs] for p in solution.polys]
    return json.dumps({"d": solution.d, "e": solution.e,
                       "polys": polys}) + "\n"


def reference() -> float:
    """Time a fixed computation that uses no abelcover code: Fraction sums
    and a dict keyed by tuples, the kind of work the library does.  Its
    time is the machine's speed at that moment, which run.py divides out
    of the op times.  The cyclic collector is off while it runs, so that
    its time does not grow with the objects the library holds."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        table = {}
        for i in range(1, 6000):
            total += Fraction(i % 97, i % 89 + 1)
            table[i % 101, i % 103] = total.numerator % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("output")
    parser.add_argument("--trace", metavar="SPANS_CSV")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    import abelcover
    import abelcover.cli

    kernel_inputs = {}
    if any(op["kind"] == "kernel" for op in plan["ops"]):
        for name, path in plan["covers"].items():
            spec = abelcover.cli.load_cover_document(path)
            kernel_inputs[name] = (spec, abelcover.validate(spec))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = []
    refs = []
    with open(args.output, "w", encoding="utf-8") as out:
        for i, op in enumerate(plan["ops"]):
            if i % plan["ref_every"] == 0:
                refs.append(reference())
            span = tracer.span("op") if tracer else contextlib.nullcontext()
            record = {"start": out.tell()}
            start = time.perf_counter()
            try:
                if op["kind"] == "cli":
                    with span, contextlib.redirect_stdout(out):
                        start = time.perf_counter()
                        record["code"] = abelcover.cli.main(op["argv"])
                        elapsed = time.perf_counter() - start
                else:
                    spec, inv = kernel_inputs[op["cover"]]
                    chi = spec.group.character(op["chi"])
                    with span:
                        start = time.perf_counter()
                        solution = abelcover.build_pchichi(spec, inv, chi)
                        elapsed = time.perf_counter() - start
                    out.write(_solution_line(solution))
                    # not alive while the next op builds its own
                    del solution
            except (Exception, SystemExit) as exc:
                elapsed = time.perf_counter() - start
                record["error"] = repr(exc)
            record["time"] = elapsed
            record["end"] = out.tell()
            ops.append(record)
        refs.append(reference())

    cache = abelcover.group_core.pairing_u.cache_info()
    result = {
        "ops": ops,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pairing_u": {"hits": cache.hits, "misses": cache.misses,
                      "entries": cache.currsize},
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
