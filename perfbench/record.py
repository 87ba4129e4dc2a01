"""Record the reference numbers the benchmark compares against.

    python3 perfbench/record.py digests
        Run every default-seed job once and write perfbench/digests.json: the
        sha256 of each job's stdout. Do this only at a commit whose output is
        the reference (the seed commit); later commits must reproduce it.

    python3 perfbench/record.py baseline --runs 10 --label <commit>
        Run each workload --runs times with seeds 1..runs (tracing off), plus
        one traced run with the default seed, and write perfbench/baseline.json:
        per metric the median, quartiles and (q3 - q1) / median spread, and the
        per-layer numbers. The spreads are the steadiness check for the bounds
        in BENCHMARK.json.

    python3 perfbench/record.py spread --runs 5 --workloads fastpath_sparse
        The same runs, printed but not written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import DIGESTS, check  # noqa: E402
from run import child_env, spawn  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_pool, describe  # noqa: E402


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} jobs failed")
    return result


def record_digests():
    os.chdir(ROOT)
    env = child_env()
    digests = {}
    for workload in WORKLOADS:
        jobs = build_pool(workload, DEFAULT_SEED, os.path.join(".perfbench", workload, "inputs"))
        digests[workload] = []
        for job in jobs:
            path = os.path.join(".perfbench", "record.out")
            with open(path, "wb") as out:
                code = spawn(["-m", "stabdim.cli", *job.argv], env, out)[0]
            with open(path, "rb") as handle:
                stdout = handle.read()
            reason = check(job, code, stdout)
            if reason:
                raise SystemExit(f"{workload} job {job.index}: {reason}; not recording")
            digests[workload].append(hashlib.sha256(stdout).hexdigest())
        print(f"{workload}: {len(jobs)} digests")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1)
        handle.write("\n")


def spreads(workloads, runs, seconds):
    table = {}
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            result = bench(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        table[workload] = {}
        for name, (unit, series) in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            table[workload][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": series,
            }
            print(f"{workload:16s} {name:14s} median {median:10.6g} {unit:4s} "
                  f"spread {(q3 - q1) / median:6.2%}  min {min(series):.6g} max {max(series):.6g}",
                  flush=True)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("digests", "baseline", "spread"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--label", default="unlabelled")
    args = parser.parse_args()
    if args.action == "digests":
        return record_digests()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]
    table = spreads(args.workloads, args.runs, seconds)
    if args.action == "spread":
        return None
    os.chdir(ROOT)
    baseline = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "seeds": list(range(1, args.runs + 1)),
        "input_mix": {
            w: describe(build_pool(w, DEFAULT_SEED, os.path.join(".perfbench", w, "inputs")))
            for w in args.workloads
        },
        "end_to_end": table,
        "per_layer": {
            w: {name: metric["value"] for name, metric in bench(w, DEFAULT_SEED, seconds, 1)["metrics"].items()}
            for w in args.workloads
        },
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    return None


if __name__ == "__main__":
    sys.exit(main())
