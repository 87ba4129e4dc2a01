"""Benchmark of the stabdim CLI: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload fastpath_sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload all --quick  # every workload in seconds

Run from the repository root or anywhere else; it works in the root of the
checkout that holds it and builds nothing: jobs run from source as
``python -m stabdim.cli ...`` with ``src/`` on PYTHONPATH. Inputs and outputs
go to ``.perfbench/`` in that root.

With ``--trace 0`` each job is a subprocess started with Popen and reaped with
``os.wait4``, which gives its CPU time and peak RSS. The pool of jobs repeats
in rounds until ``--seconds`` have passed (everything in the loop counted) and
every job has run MIN_ROUNDS times. ``setup_s`` is taken from subprocesses
that only import ``stabdim.cli``, run between jobs all through the loop. With
``--trace 1`` the same jobs run in-process through ``trace_run.py`` for
per-layer numbers.

Times are reported in reference seconds. The machine is a share of a busy
host: as other tenants come and go its speed swings by up to 1.8x, in spells
that last from seconds to minutes, so raw times of one run differ from the
next by 10-25% whatever the estimator. After every job the loop
therefore also times ``reference.py``, a fixed pure-Python task that loads
nothing of stabdim, and scales every time of the run by REFERENCE_WALL_S (or
REFERENCE_CPU_S) over the reference's mean time in that run. The reference
runs all through the loop, interleaved with the jobs, so it sees the same
spells they do and the ratio cancels them; a change to the program moves the
jobs and not the reference, so it shows in full. Each run prints its raw
numbers and the scale too.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS, Job, build_pool, describe, quick_subset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench"
MIN_ROUNDS = 3
SETUP_EVERY = 5  # one set-up sample after every fifth job
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
# reference.py's mean wall and CPU time on the 2-vCPU VM of baseline.json; they
# only fix the unit, since every run is scaled by its own reference samples.
REFERENCE_WALL_S = 0.06
REFERENCE_CPU_S = 0.06
MAX_LOOP_SECONDS = 120  # the run must end within 180 s even on a slow machine


def child_env():
    env = dict(os.environ, PYTHONPATH="src")
    # Users' installs keep a bytecode cache; let the warm-up fill it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, env, stdout, stderr=subprocess.DEVNULL):
    """Run one child to completion: (exit code, wall s, user+sys CPU s, max RSS KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=stderr, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def setup_sample(env):
    return spawn(["-c", "import stabdim.cli"], env, subprocess.DEVNULL)[1]


def reference_sample(env):
    """(wall s, CPU s) of one run of reference.py."""
    code, wall, cpu, _ = spawn(["-I", "-S", REFERENCE], env, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"reference.py exited {code}")
    return wall, cpu


def build_pool_forked(workload, seed, input_dir):
    """build_pool in a forked child, whose memory never counts toward this
    process's RSS high-water mark (see closed_loop)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(build_pool(workload, seed, input_dir), pipe)
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"generating the {workload} pool failed")
    return [Job(*row) for row in json.loads(text)]


def closed_loop(jobs, seconds, min_rounds, out_dir):
    """Run rounds of ``jobs``; returns per-job samples, set-up samples,
    reference samples and the loop's wall time.

    Stdout goes to a file, never into this process: a child inherits its
    parent's resident-set high-water mark through fork and exec, so this
    process must stay smaller than the children it measures.
    """
    env = child_env()
    err_path = os.path.join(out_dir, "last.err")
    samples = []  # (job, exit code, wall, cpu, maxrss KiB, same stdout as round one)
    setup_sample(env)  # fills the bytecode cache
    setups = [setup_sample(env)]
    references = [reference_sample(env)]
    start = time.perf_counter()
    rounds = 0
    while True:
        for job in jobs:
            if len(samples) % SETUP_EVERY == SETUP_EVERY - 1:
                setups.append(setup_sample(env))
            ref = os.path.join(out_dir, f"{job.index:02d}.out")
            path = ref if rounds == 0 else os.path.join(out_dir, "repeat.out")
            with open(path, "wb") as out, open(err_path, "wb") as err:
                code, wall, cpu, rss = spawn(["-m", "stabdim.cli", *job.argv], env, out, err)
            references.append(reference_sample(env))
            same = rounds == 0 or filecmp.cmp(ref, path, shallow=False)
            samples.append((job, code, wall, cpu, rss, same))
            if code != job.expect_exit:
                with open(err_path, encoding="utf-8", errors="replace") as err:
                    print(f"job {job.index} ({job.kind}) exit {code}: {err.read()[-500:]}",
                          file=sys.stderr)
            # Past the deadline the loop stops after the job in hand, once every
            # job has min_rounds repeats; a round can take several seconds.
            elapsed = time.perf_counter() - start
            enough = len(samples) >= min_rounds * len(jobs)
            if (elapsed >= seconds and enough) or elapsed >= MAX_LOOP_SECONDS:
                return samples, setups, references, elapsed
        rounds += 1


def evaluate(workload, seed, samples, out_dir):
    """Failure reason per sample, None when it passed."""
    # Imported only after the loop: hashlib loads libcrypto, which would raise
    # this process's RSS high-water mark above a small child's.
    import hashlib

    from checks import check, recorded_digests

    recorded = recorded_digests(workload) if seed == DEFAULT_SEED else None
    reasons = {}
    for job, code, *_ in samples:
        if job.index in reasons:
            continue
        with open(os.path.join(out_dir, f"{job.index:02d}.out"), "rb") as handle:
            stdout = handle.read()
        reason = check(job, code, stdout)
        if reason is None and recorded is not None and (
                recorded[job.index] != hashlib.sha256(stdout).hexdigest()):
            reason = "stdout differs from the digest recorded at the seed commit"
        reasons[job.index] = reason
    failures = []
    for job, code, _, _, _, same in samples:
        reason = reasons[job.index]
        if reason is None and code != job.expect_exit:
            reason = f"exit {code}, expected {job.expect_exit}"
        if reason is None and not same:
            reason = "stdout differs from the same job's first run"
        failures.append(reason)
    return failures


def run_end_to_end(workload, seed, seconds, quick):
    out_dir = os.path.join(WORK, workload, "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = build_pool_forked(workload, seed, os.path.join(WORK, workload, "inputs"))
    if quick:
        jobs = quick_subset(jobs)
    print(f"{workload}: {describe(jobs)}")
    samples, setups, references, elapsed = closed_loop(
        jobs, 0 if quick else seconds, 1 if quick else MIN_ROUNDS, out_dir)
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = evaluate(workload, seed, samples, out_dir)
    for (job, *_), reason in zip(samples, failures):
        if reason:
            print(f"FAIL job {job.index} ({job.kind}, n={job.n}): {reason}", file=sys.stderr)
    failed = sum(1 for reason in failures if reason)
    raw, (wall_scale, cpu_scale), metrics = end_to_end_metrics(samples, setups, references)
    jobs_run = len({job.index for job, *_ in samples})
    print(f"{workload}: a child's max RSS reads at least this process's high-water mark, "
          f"{floor:.1f} MiB")
    print(f"{workload}: {len(samples)} runs of {jobs_run} jobs ({len(samples) / jobs_run:.1f} "
          f"each), {len(references)} reference and {len(setups)} set-up samples in "
          f"{elapsed:.2f} s; failed_ratio {failed}/{len(samples)} = {failed / len(samples)}")
    print(f"{workload}: raw " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
          + f"; scale {wall_scale:.4f} (wall), {cpu_scale:.4f} (CPU)")
    return len(samples), failed, metrics


def end_to_end_metrics(samples, setups, references):
    """The raw numbers, the (wall, CPU) scales and the scaled metrics of one run."""
    import statistics  # only after the loop, like hashlib in evaluate()

    # Means, not medians or minima: a mean weighs every spell of the run as the
    # reference's mean does, so the scale cancels it.
    wall_scale = REFERENCE_WALL_S / statistics.fmean(wall for wall, _ in references)
    cpu_scale = REFERENCE_CPU_S / statistics.fmean(cpu for _, cpu in references)
    repeats = {}
    for job, _, wall, cpu, _, _ in samples:
        repeats.setdefault(job.index, []).append((wall, cpu))
    walls = [statistics.fmean(w for w, _ in runs) for runs in repeats.values()]
    cpus = [statistics.fmean(c for _, c in runs) for runs in repeats.values()]
    raw = {
        "setup_s": statistics.fmean(setups),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_p90_s": statistics.quantiles(walls, n=10)[8] if len(walls) >= 2 else walls[0],
        "job_cpu_p50_s": statistics.median(cpus),
    }
    metrics = {
        "setup_s": (raw["setup_s"] * wall_scale, "s"),
        "jobs_per_s": (raw["jobs_per_s"] / wall_scale, "1/s"),
        "job_p50_s": (raw["job_p50_s"] * wall_scale, "s"),
        "job_p90_s": (raw["job_p90_s"] * wall_scale, "s"),
        "job_cpu_p50_s": (raw["job_cpu_p50_s"] * cpu_scale, "s"),
        "peak_rss_mb": (max(s[4] for s in samples) / 1024, "MiB"),
    }
    return raw, (wall_scale, cpu_scale), metrics


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    rows = []
    attempted = failed = 0
    combined = {}
    for workload in WORKLOADS:
        argv = [sys.executable, "-S", os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
            combined[f"{workload}.{name}"] = (metric["value"], metric["unit"])
        rows.append((workload, "failed_ratio", f"{result['failed']}/{result['attempted']}", ""))
    width = max(len(name) for _, name, _, _ in rows)
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload:16s} {name:{width}s} {shown:>12} {unit}")
    print(result_line(attempted, failed, combined))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass over the smallest job of each kind")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "stabdim", "cli.py")):
        print("perfbench: src/stabdim/cli.py not found; run from a checkout of stabdim",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        from trace_run import run_traced

        attempted, failed, metrics = run_traced(args.workload, args.seed, args.seconds, args.quick)
    else:
        attempted, failed, metrics = run_end_to_end(args.workload, args.seed, args.seconds,
                                                    args.quick)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    if not sys.flags.no_site:
        # Re-exec without site-packages: children inherit this process's RSS
        # high-water mark as a floor for their own, so it must stay small.
        os.execv(sys.executable, [sys.executable, "-S", os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
