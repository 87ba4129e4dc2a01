"""Traced in-process run: per-layer time and work, from spans around public calls.

Each job runs ``stabdim.cli.run(argv)`` in this process twice, once plain and
once traced, with stdout captured; the two stdouts must be byte-equal and
pass the same checks as the subprocess runs.

Tracing wraps each listed function by identity: every binding of that
function object in the globals of every ``stabdim.*`` module is replaced,
because consumers import names directly (``from .graphs import
is_connected``). A span records (name, start, end, parent span, job id);
spans stay in memory and are written to ``.perfbench/<workload>/spans.jsonl``
at the end. Self time is a span's duration minus its children's. A function
missing at some later commit is reported as absent: its metrics are left out.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from workloads import DEFAULT_SEED, build_pool, describe, quick_subset

LAYERS = ("graphs", "configurations", "pauli", "oracle", "theorem", "cli")


def _lwe_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "brute")
    return "pauli.fast_enum" if mode == "fast" else "pauli.brute_enum"


# (span name or a function of the call's arguments giving it, module,
#  attribute, counter of the call's work or None, argument preparation or None)
TARGETS = (
    ("graphs.parse_edge_list", "graphs", "parse_edge_list", lambda a, k, r: {"edges": r.m}, None),
    ("graphs.parse_graph6", "graphs", "parse_graph6", lambda a, k, r: {"edges": r.m}, None),
    ("graphs.is_connected", "graphs", "is_connected", None, None),
    ("graphs.connected_components", "graphs", "connected_components", None, None),
    ("graphs.induced_subgraph", "graphs", "Graph.induced_subgraph", None, None),
    ("configurations.detect_configurations", "configurations", "detect_configurations",
     lambda a, k, r: {"found": len(r), "slots": r}, None),
    ("configurations.stabilizer_dimension", "configurations", "stabilizer_dimension", None, None),
    ("configurations.components_with_configurations", "configurations",
     "components_with_configurations", None, None),
    (_lwe_name, "pauli", "low_weight_elements", lambda a, k, r: {"elements": len(r)}, None),
    ("pauli.g2_rank", "pauli", "g2_rank", lambda a, k, r: {"rows": len(a[0])},
     lambda a, k: ((list(a[0]), *a[1:]), k)),
    ("oracle.local_algebra_nullity", "oracle", "local_algebra_nullity", None, None),
    ("oracle.build_statevector", "oracle", "build_statevector", None, None),
    ("oracle.apply_pauli", "oracle", "apply_pauli", lambda a, k, r: {"amplitudes": 1 << r.n}, None),
    ("oracle.matrix_rank", "oracle", "matrix_rank", lambda a, k, r: {"gram_entries": len(a[0]) ** 2},
     None),
    ("theorem.check_equivalence", "theorem", "check_equivalence", None, None),
    ("cli.format_report", "cli", "format_report", None, None),
    ("cli.run", "cli", "run", None, None),
)

_SLOT_AXES = {"twin": ("X", "X"), "leaf": ("X", "Z"), "closed_twin": ("Y", "Y")}


def _slots(configs):
    slots = set()
    for c in configs:
        axis_a, axis_b = _SLOT_AXES.get(c.kind, ("?", "?"))
        slots.add((c.a, axis_a))
        slots.add((c.b, axis_b))
    return len(slots)


# (metric, unit, spans it sums, field: "time" = duration, "self", "calls" or a counter)
METRICS = (
    ("graphs.parse_s", "s", ("graphs.parse_edge_list", "graphs.parse_graph6"), "time"),
    ("graphs.edges_parsed", "count", ("graphs.parse_edge_list", "graphs.parse_graph6"), "edges"),
    ("graphs.connectivity_s", "s", ("graphs.is_connected", "graphs.connected_components"), "time"),
    ("graphs.connectivity_calls", "count", ("graphs.is_connected", "graphs.connected_components"),
     "calls"),
    ("graphs.induced_subgraph_s", "s", ("graphs.induced_subgraph",), "time"),
    ("configurations.detect_s", "s", ("configurations.detect_configurations",), "time"),
    ("configurations.detect_calls", "count", ("configurations.detect_configurations",), "calls"),
    ("configurations.found", "count", ("configurations.detect_configurations",), "found"),
    ("configurations.dimension_self_s", "s", ("configurations.stabilizer_dimension",), "self"),
    ("configurations.slots", "count", ("configurations.detect_configurations",), "slots"),
    ("pauli.fast_enum_s", "s", ("pauli.fast_enum",), "time"),
    ("pauli.fast_elements", "count", ("pauli.fast_enum",), "elements"),
    ("pauli.brute_enum_s", "s", ("pauli.brute_enum",), "time"),
    ("pauli.brute_elements", "count", ("pauli.brute_enum",), "elements"),
    ("pauli.g2_rank_s", "s", ("pauli.g2_rank",), "time"),
    ("pauli.g2_rank_rows", "count", ("pauli.g2_rank",), "rows"),
    ("oracle.nullity_s", "s", ("oracle.local_algebra_nullity",), "time"),
    ("oracle.statevector_s", "s", ("oracle.build_statevector",), "time"),
    ("oracle.apply_pauli_s", "s", ("oracle.apply_pauli",), "time"),
    ("oracle.apply_pauli_calls", "count", ("oracle.apply_pauli",), "calls"),
    ("oracle.amplitudes", "count", ("oracle.apply_pauli",), "amplitudes"),
    ("oracle.rank_s", "s", ("oracle.matrix_rank",), "time"),
    ("oracle.gram_entries", "count", ("oracle.matrix_rank",), "gram_entries"),
    ("oracle.gram_self_s", "s", ("oracle.local_algebra_nullity",), "self"),
    ("theorem.check_equivalence_self_s", "s", ("theorem.check_equivalence",), "self"),
    ("cli.run_s", "s", ("cli.run",), "time"),
    ("cli.self_s", "s", ("cli.run",), "self"),
    ("cli.format_report_s", "s", ("cli.format_report",), "time"),
)


class Tracer:
    """Installs and removes span-recording wrappers around the TARGETS."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, counts]
        self.stack = []
        self.job = None
        self.bindings = []  # (owner, attribute, original, wrapper)
        self.present = set()
        self.absent = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "stabdim"]
        for name, module_name, attribute, count, prepare in TARGETS:
            label = f"{module_name}.{attribute}"
            owner = sys.modules.get(f"stabdim.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(leaf)
            if not callable(original):
                self.absent.append(label)
                continue
            self.present.update([name] if isinstance(name, str) else ["pauli.fast_enum", "pauli.brute_enum"])
            wrapper = self._wrap(name, original, count, prepare)
            if path:
                self.bindings.append((owner, leaf, original, wrapper))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.bindings.append((module, key, original, wrapper))

    def _wrap(self, name, func, count, prepare):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = [name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def __enter__(self):
        for owner, key, _, wrapper in self.bindings:
            setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original, _ in self.bindings:
            setattr(owner, key, original)


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run(list(argv))
        wall = time.perf_counter() - start
    return code, out.getvalue().encode("utf-8"), wall


def summarise(tracer):
    """Sum durations, self times, calls and counters per span name."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, job, counts in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    per_name = {}
    per_job = {}
    for i, (name, start, end, parent, job, counts) in enumerate(tracer.spans):
        acc = per_name.setdefault(name, {"time": 0.0, "self": 0.0, "calls": 0})
        acc["time"] += end - start
        acc["self"] += end - start - child[i]
        acc["calls"] += 1
        for key, value in (counts or {}).items():
            acc[key] = acc.get(key, 0) + value
        per_job.setdefault(job, {}).setdefault(name, 0)
        per_job[job][name] += 1
    return per_name, per_job


def run_traced(workload, seed, seconds, quick):
    sys.path.insert(0, os.path.abspath("src"))
    import stabdim.cli as cli  # imports every stabdim module the Tracer wraps

    from checks import check, recorded_digests

    work = os.path.join(".perfbench", workload)
    jobs = build_pool(workload, seed, os.path.join(work, "inputs"))
    recorded = recorded_digests(workload) if seed == DEFAULT_SEED else None
    if quick:
        jobs = quick_subset(jobs)
    print(f"{workload}: {describe(jobs)}")
    tracer = Tracer()
    for label in tracer.absent:
        print(f"{workload}: {label} is absent; its metrics are left out", file=sys.stderr)

    plain_s = traced_s = 0.0
    stdout_bytes = 0
    runs = []  # the job of each traced run, by run id
    failed = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        for job in jobs:
            tracer.job = len(runs)
            first_span = len(tracer.spans)
            if rounds % 2:
                with tracer:
                    t_code, t_out, t_wall = _call(cli, job.argv)
                code, out, wall = _call(cli, job.argv)
            else:
                code, out, wall = _call(cli, job.argv)
                with tracer:
                    t_code, t_out, t_wall = _call(cli, job.argv)
            # Slots are counted once the job is done, off the clock of every span.
            for span in tracer.spans[first_span:]:
                if span[5] and "slots" in span[5]:
                    span[5]["slots"] = _slots(span[5]["slots"])
            plain_s += wall
            traced_s += t_wall
            stdout_bytes += len(t_out)
            runs.append(job)
            reason = check(job, code, out)
            if reason is None and (t_code, t_out) != (code, out):
                reason = "traced stdout or exit code differs from the untraced run"
            if reason is None and recorded is not None and (
                    recorded[job.index] != hashlib.sha256(out).hexdigest()):
                reason = "stdout differs from the digest recorded at the seed commit"
            if reason:
                failed += 1
                print(f"FAIL job {job.index} ({job.kind}, n={job.n}): {reason}", file=sys.stderr)
        rounds += 1
        if quick or time.perf_counter() - start >= seconds:
            break

    with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(span) + "\n" for span in tracer.spans)

    per_name, per_job = summarise(tracer)
    count = len(runs)
    metrics = {}
    for metric, unit, sources, field in METRICS:
        present = [s for s in sources if s in tracer.present]
        if not present:
            continue
        total = sum(per_name.get(s, {}).get(field, 0) for s in present)
        metrics[metric] = (total, unit)
        metrics[f"{metric}.per_job"] = (total / count, f"{unit}/job")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["cli.stdout_bytes.per_job"] = (stdout_bytes / count, "bytes/job")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")

    run_s = per_name.get("cli.run", {}).get("time", 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, acc in per_name.items():
        layer_self[name.split(".")[0]] += acc["self"]
    if run_s:
        for layer in LAYERS:
            metrics[f"share.{layer}"] = (layer_self[layer] / run_s, "ratio")
        detail = sorted(per_name.items(), key=lambda item: -item[1]["self"])
        print(f"{workload}: share of cli.run_s ({run_s:.3f} s over {count} traced jobs) by self time:")
        for name, acc in detail:
            print(f"  {name:48s} {acc['self'] / run_s:7.2%}  calls {acc['calls']}")

    connected_analyze = [
        run_id for run_id, job in enumerate(runs)
        if job.argv[0] == "analyze" and "--components" not in job.argv and job.expect_exit == 0
    ]
    if connected_analyze:
        def calls(run_id, names):
            return sum(per_job.get(run_id, {}).get(n, 0) for n in names)

        detect = {calls(r, ("configurations.detect_configurations",)) for r in connected_analyze}
        connectivity = {calls(r, ("graphs.is_connected", "graphs.connected_components"))
                        for r in connected_analyze}
        print(f"{workload}: per connected analyze job: detect_calls {sorted(detect)}, "
              f"connectivity_calls {sorted(connectivity)}")
    print(f"{workload}: {count} traced jobs, trace overhead {traced_s / plain_s:.4f}, "
          f"failed_ratio {failed}/{count} = {failed / count}")
    return count, failed, metrics
