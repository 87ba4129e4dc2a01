"""Self-checks of the benchmark: python -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import stabdim.cli as cli
from trace_run import Tracer, _call
from workloads import DEFAULT_SEED, WORKLOADS, build_pool, quick_subset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


@pytest.fixture
def ran_jobs(tmp_path, monkeypatch):
    """Quick default-seed oracle_verify jobs, run in-process, stdout stored as run.py stores it."""
    monkeypatch.chdir(ROOT)  # input paths, printed in text reports, are relative to the root
    jobs = quick_subset(build_pool("oracle_verify", DEFAULT_SEED,
                                   os.path.join(run.WORK, "oracle_verify", "inputs")))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    samples = []
    for job in jobs:
        code, stdout, _ = _call(cli, job.argv)
        (out_dir / f"{job.index:02d}.out").write_bytes(stdout)
        samples.append((job, code, 0.1, 0.1, 1000, True))
    return samples, out_dir


def test_correct_outputs_pass(ran_jobs):
    samples, out_dir = ran_jobs
    failures = run.evaluate("oracle_verify", DEFAULT_SEED, samples, str(out_dir))
    assert failures == [None] * len(samples)


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace(b'"dimension":', b'"dimension":1', 1),  # breaks dimension == g2
    lambda text: text.replace(b"\n", b" \n"),  # still valid JSON: only the digest catches it
])
def test_corrupted_stdout_counts_as_failure(ran_jobs, corrupt):
    samples, out_dir = ran_jobs
    victim = next(job for job, *_ in samples if job.report == "machine")
    path = out_dir / f"{victim.index:02d}.out"
    path.write_bytes(corrupt(path.read_bytes()))
    failures = run.evaluate("oracle_verify", DEFAULT_SEED, samples, str(out_dir))
    failed = [job.index for (job, *_), reason in zip(samples, failures) if reason]
    assert failed == [victim.index]


def test_repeat_with_other_stdout_counts_as_failure(ran_jobs):
    samples, out_dir = ran_jobs
    job, code, *_ = samples[0]
    failures = run.evaluate("oracle_verify", DEFAULT_SEED,
                               samples + [(job, code, 0.1, 0.1, 1000, False)], str(out_dir))
    assert failures[-1] and not any(failures[:-1])


def test_wrong_exit_code_counts_as_failure(ran_jobs):
    samples, out_dir = ran_jobs
    refused = next(s for s in samples if s[0].expect_exit == 3)
    accepted = next(s for s in samples if s[0].expect_exit == 0)
    wrong = [(refused[0], 0, *refused[2:]), (accepted[0], 4, *accepted[2:])]
    failures = run.evaluate("oracle_verify", DEFAULT_SEED, samples + wrong, str(out_dir))
    assert failures[-2] and failures[-1]


def test_reference_scale_cancels_the_machine_but_not_the_program(ran_jobs):
    samples, _ = ran_jobs
    samples = [(job, code, 0.1 + 0.05 * job.index, 0.09 + 0.05 * job.index, 16000, True)
               for job, code, *_ in samples * 3]
    setups, references = [0.08] * 5, [(0.05, 0.048)] * len(samples)

    def metrics(job_factor, machine_factor):
        slowed = [(job, code, wall * job_factor * machine_factor, cpu * job_factor * machine_factor,
                   rss, same) for job, code, wall, cpu, rss, same in samples]
        return {name: value for name, (value, _) in run.end_to_end_metrics(
            slowed, [s * machine_factor for s in setups],
            [(w * machine_factor, c * machine_factor) for w, c in references])[2].items()}

    base = metrics(1, 1)
    assert metrics(1, 1.7) == pytest.approx(base)  # a slow spell on the host
    slower = metrics(1.3, 1.7)  # a slower program on a slow host
    for name in ("job_p50_s", "job_p90_s", "job_cpu_p50_s"):
        assert slower[name] == pytest.approx(1.3 * base[name])
    assert slower["jobs_per_s"] == pytest.approx(base["jobs_per_s"] / 1.3)
    assert slower["setup_s"] == pytest.approx(base["setup_s"])


def test_traced_and_untraced_stdout_are_byte_equal(tmp_path):
    original_run = cli.run
    tracer = Tracer()
    assert not tracer.absent
    for workload in WORKLOADS:
        for job in quick_subset(build_pool(workload, 7, str(tmp_path / workload))):
            plain = _call(cli, job.argv)[:2]
            with tracer:
                traced = _call(cli, job.argv)[:2]
            assert traced == plain, (workload, job.index)
    assert {span[0] for span in tracer.spans} >= {"cli.run", "pauli.brute_enum", "oracle.apply_pauli"}
    assert cli.run is original_run  # the wrappers are removed again


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_mode_runs_every_workload_end_to_end():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", "all", "--quick"],
                          stdout=subprocess.PIPE, text=True, timeout=120, check=False)
    assert proc.returncode == 0
    assert time.perf_counter() - start < 60
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0


def test_traced_quick_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", "oracle_verify", "--quick", "--trace", "1"],
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    result = _last_json(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
