"""Run the benchmark over several seeds and record a BENCH_*.json.

    python3 perfbench/baseline.py --seeds 1-10 [--traced-seeds 1-2]
        [--out FILE]

Runs perfbench/run.py once per seed on every workload of BENCHMARK.json,
the way the benchmark is driven, with the run length declared there, and
records the commit git names HEAD.  For every metric it
records the runs' median, first and third quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median, next
to the bound BENCHMARK.json fixes.  Traced runs give the per-layer
medians, among them trace.overhead_ratio.  Without --out the summary is
only printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",") if s]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=240, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                 "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / median if median else 0.0)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    report = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": _seeds(args.seeds),
        "traced_seeds": _seeds(args.traced_seeds),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        entry = {}
        for trace, seeds in ((0, report["seeds"]),
                             (1, report["traced_seeds"])):
            if not seeds:
                continue
            runs = [_run(workload, seed, seconds, trace) for seed in seeds]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = _summary(runs, bounds)
            entry[f"{key}_attempted"] = sum(r["attempted"] for r in runs)
            entry[f"{key}_failed"] = sum(r["failed"] for r in runs)
            entry[f"{key}_correct"] = all(r["correct"] for r in runs)
        report["workloads"][workload] = entry
        for name, m in entry.get("end_to_end", {}).items():
            print(f"{workload:12s} {name:14s} median {m['median']:.6g} "
                  f"{m['unit']}, spread {m.get('spread', 0):.3f} "
                  f"(bound {m.get('bound')})", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
