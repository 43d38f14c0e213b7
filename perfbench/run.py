"""The abelcover benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/ of that checkout and nothing is installed.  The seed generates the
workload's cover documents and op list (workloads.py) before any clock
starts.  Load is a closed loop with one client: each pass runs the whole
op list in a fresh process (worker.py), one op after the other, through
abelcover.cli.main(argv) in-process or the public library functions,
with the CLI's default single search worker.  Passes repeat until S
seconds are used.  Every op's output is checked here, after its pass and
outside the measured process (checks.py).

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed.
The op times are given in reference units (ref): before every few ops
and after the last a pass times a fixed computation that uses no
abelcover code (worker.py), and each op's time is divided by the mean
of the two reference times around its block of ops.

  wall_ref     time to finish the op list, in ref
  op_p50_ref   median over the op list of each op's time in ref, averaged
               over the passes
  op_p90_ref   90th percentile over the op list of the same times
  setup_s      median over fresh processes of importing abelcover and
               abelcover.cli and parsing and validating the workload's
               cover documents (setup_probe.py)
  peak_rss_mb  median over passes of the worker's peak resident memory,
               which holds the library and the ops but no check
  ok_ratio     ops whose output passed its check, over ops attempted

The machine a run shares changes speed by a fifth or more between runs
a minute apart, and the reference computation slows with it as much as
the library does.  Seconds of op time therefore spread between runs of
the same code by more than the bounds of BENCHMARK.json; their ratio to
the reference does not.  A change to abelcover moves the op times and
leaves the reference alone.  The seconds are printed on every run and
reported with --trace 1 as run.wall_s and run.ref_ms.

With --trace 1, untraced and traced passes alternate and the per-layer
metrics of BENCHMARK.json are printed, each the median over traced
passes of its value for one pass, except run.*, which come from the
untraced passes; trace.overhead_ratio is wall_ref of the traced passes
over wall_ref of the untraced ones.  A per-layer metric that
predictions.json says must be 0 on the workload and is not makes the
run incorrect.  The spans of the first traced pass are written to
perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever that line
is printed, 1 when abelcover does not import and 2 when the checkout has
no abelcover sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import check_cli, check_kernel
from model import CoverModel
from workloads import WORKLOADS, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "setup_probe.py")

MIN_PASSES = 3          # untraced passes with --trace 0
SETUP_PER_PASS = 2      # fresh processes timed for setup_s before a pass
HARD_LIMIT_S = 165.0    # the whole run ends well inside 180 s


def _child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run one child process to completion; on timeout it is killed and
    waited for before TimeoutExpired propagates."""
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=False)


def _setup_samples(plan: dict, count: int, deadline: float) -> list[float]:
    paths = [cover["path"] for cover in plan["covers"].values()]
    samples = []
    for _ in range(count):
        proc = _child([sys.executable, PROBE, SRC] + paths, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _worker_plan(plan: dict) -> dict:
    """What a worker needs to run the ops: no expectations, no models."""
    ops = [{"kind": "cli", "argv": op["argv"]} if op["kind"] == "cli" else
           {"kind": "kernel", "cover": op["cover"], "chi": op["chi"]}
           for op in plan["ops"]]
    return {"src": SRC, "ops": ops, "ref_every": plan["ref_every"],
            "covers": {name: cover["path"]
                       for name, cover in plan["covers"].items()}}


def _run_pass(plan_path: str, output_path: str, spans_path: str | None,
              deadline: float) -> dict:
    cmd = [sys.executable, WORKER, plan_path, output_path]
    if spans_path:
        cmd += ["--trace", spans_path]
    proc = _child(cmd, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check_pass(plan: dict, models: dict, result: dict,
                output_path: str) -> list[str]:
    """Check every op of a pass against its expectation; set the pass's
    op times and CLI stdout bytes on the result; return the failures."""
    failures = []
    result["times"] = [record["time"] for record in result["ops"]]
    result["stdout_bytes"] = 0
    with open(output_path, "rb") as fh:
        output = fh.read()
    for i, (op, record) in enumerate(zip(plan["ops"], result["ops"])):
        what = f"op {i} {op.get('argv', op.get('chi'))}"
        if "error" in record:
            failures.append(f"{what}: raised {record['error']}")
            continue
        text = output[record["start"]:record["end"]].decode()
        model = models.get(op["cover"])
        try:
            if op["kind"] == "cli":
                result["stdout_bytes"] += record["end"] - record["start"]
                problem = check_cli(op["expect"], model, record["code"], text)
            else:
                problem = check_kernel(model, tuple(op["chi"]), text)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem is not None:
            failures.append(f"{what}: {problem}")
    return failures


def _op_refs(passes: list[dict], every: int) -> list[float]:
    """Each op's time in reference units: divided by the mean of the two
    reference times around its block of ops in its pass, then averaged
    over the passes."""
    scaled = [[t / ((r["refs"][i // every] + r["refs"][i // every + 1]) / 2)
               for i, t in enumerate(r["times"])]
              for r in passes]
    return [statistics.fmean(times) for times in zip(*scaled)]


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _layer_value(name: str, result: dict) -> float:
    if name == "run.wall_s":
        return sum(result["times"])
    if name == "run.ref_ms":
        return statistics.fmean(result["refs"]) * 1e3
    cache = result["pairing_u"]
    calls = cache["hits"] + cache["misses"]
    if name == "group_core.pairing_u.calls":
        return calls
    if name == "group_core.pairing_u.hit_ratio":
        return cache["hits"] / calls if calls else 0.0
    if name == "group_core.pairing_u.entries":
        return cache["entries"]
    if name == "cli.stdout_bytes":
        return result["stdout_bytes"]
    return result["layers"][name]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "abelcover", "__init__.py")):
        sys.stderr.write(f"no abelcover sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        plan = make_plan(args.workload, args.seed, workdir)
        models = {name: CoverModel(cover["doc"])
                  for name, cover in plan["covers"].items()}
        plan_path = os.path.join(workdir, "plan.json")
        output_path = os.path.join(workdir, "output")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(_worker_plan(plan), fh)
        ops_per_pass = len(plan["ops"])

        # the first import compiles bytecode; keep it out of setup_s
        try:
            _setup_samples(plan, 1, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"abelcover does not import: {exc}\n")
            return 1

        setup: list[float] = []
        untraced: list[dict] = []
        traced: list[dict] = []
        durations = {False: [], True: []}
        failures: list[str] = []
        attempted = 0
        budget_end = time.monotonic() + args.seconds
        while True:
            with_trace = bool(args.trace) and len(traced) < len(untraced)
            spans = (os.path.join(workdir, f"spans-{len(traced)}.csv")
                     if with_trace else None)
            begin = time.monotonic()
            attempted += ops_per_pass
            try:
                if not args.trace:
                    # spread over the run, so that setup_s sees the same
                    # machine states as the passes
                    setup += _setup_samples(plan, SETUP_PER_PASS, deadline)
                result = _run_pass(plan_path, output_path, spans, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append(f"pass failed: {exc}")
                failures.extend(["op not run"] * (ops_per_pass - 1))
                break
            failures.extend(_check_pass(plan, models, result, output_path))
            durations[with_trace].append(time.monotonic() - begin)
            (traced if with_trace else untraced).append(result)
            done = (len(untraced) >= (1 if args.trace else MIN_PASSES)
                    and len(traced) >= args.trace)
            upcoming = bool(args.trace) and len(traced) < len(untraced)
            estimate = statistics.median(durations[upcoming] or
                                         durations[not upcoming])
            now = time.monotonic()
            if now + estimate > deadline or \
                    (done and now + estimate > budget_end):
                break

        if args.trace and traced:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            shutil.copyfile(os.path.join(workdir, "spans-0.csv"), os.path.join(
                HERE, "out", f"spans-{args.workload}-seed{args.seed}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict[str, dict] = {}
    op_refs = _op_refs(untraced, plan["ref_every"]) if untraced else []
    measured = untraced and (traced or not args.trace)
    for entry in wanted if measured else []:
        name = entry["name"]
        if name == "wall_ref":
            value = sum(op_refs)
        elif name == "op_p50_ref":
            value = statistics.median(op_refs)
        elif name == "op_p90_ref":
            value = _p90(op_refs)
        elif name == "setup_s":
            value = statistics.median(setup)
        elif name == "peak_rss_mb":
            value = statistics.median(r["peak_rss_mb"] for r in untraced)
        elif name == "ok_ratio":
            value = (attempted - len(failures)) / attempted
        elif name == "trace.overhead_ratio":
            value = sum(_op_refs(traced, plan["ref_every"])) / sum(op_refs)
        elif name.startswith("run."):
            value = statistics.median(_layer_value(name, r)
                                      for r in untraced)
        else:
            value = statistics.median(_layer_value(name, r) for r in traced)
        metrics[name] = {"value": value, "unit": entry["unit"]}

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes of "
          f"{ops_per_pass} ops; "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, "
          f"{time.monotonic() - started:.1f} s in all")
    if untraced:
        wall, ref = (statistics.fmean(_layer_value(name, r) for r in untraced)
                     for name in ("run.wall_s", "run.ref_ms"))
        print(f"  untraced passes: op list {wall:.4g} s, reference "
              f"{ref:.4g} ms (means)")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        failures += _check_predictions(args.workload, metrics)
    for problem in failures[:10]:
        print(f"  FAIL {problem}")
    print(json.dumps({"correct": not failures and len(metrics) == len(wanted),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def _check_predictions(workload: str, metrics: dict) -> list[str]:
    """The per-layer metrics whose predicted zero did not hold."""
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    violations = []
    for name, metric in metrics.items():
        for key, prediction in layers.items():
            if (name == key or name.startswith(key + ".")) and \
                    workload in prediction.get("zero_on", []) and \
                    metric["value"] != 0:
                violations.append(f"prediction: {name} should be 0 on "
                                  f"{workload}, is {metric['value']}")
    return violations


if __name__ == "__main__":
    sys.exit(main())
