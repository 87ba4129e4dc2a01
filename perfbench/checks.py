"""Output checks for one job; any reason returned counts toward failed_ratio.

The checks hold at every commit, not just the one that recorded the
digests: the exit code the job must give, the report's own three-route
agreement (``dimension == g2`` for n >= 3, ``oracle_agrees`` with
``oracle_nullity == dimension``), and agreement with the bench's own
configuration count and dimension for the generated graph. For the default
seed the stdout must also hash to the digest recorded from the seed commit,
which keeps the CLI's byte-stable output contract.
"""

from __future__ import annotations

import json
import os
import re

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

_ELEMENT = re.compile(r"[01]+ [+-]i?[IXYZ]+")


def check(job, exit_code, stdout):
    """None if the job's exit code and stdout (bytes) are right, else the reason."""
    if exit_code != job.expect_exit:
        return f"exit {exit_code}, expected {job.expect_exit}"
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if job.report == "none":
        return "refused job wrote to stdout" if text else None
    if job.report == "machine":
        return _check_machine(job, text)
    if job.report == "text":
        return _check_text(job, text)
    return _check_enumerate(job, text)


def _check_machine(job, text):
    if not text.endswith("\n") or text.count("\n") != 1:
        return "machine report is not one line"
    try:
        record = json.loads(text)
    except ValueError:
        return "machine report is not JSON"
    if not isinstance(record, dict):
        return "machine report is not a JSON object"
    return _check_fields(job, {
        "n": record.get("n"),
        "m": record.get("m"),
        "connected": record.get("connected"),
        "dimension": record.get("dimension"),
        "g2": record.get("g2"),
        "theorem_holds": record.get("theorem_holds"),
        "configurations": len(record.get("configurations") or ()),
        "oracle_nullity": record.get("oracle_nullity"),
        "oracle_agrees": record.get("oracle_agrees"),
    })


_TEXT_FIELDS = {
    "n": int,
    "m": int,
    "dimension": int,
    "g2": int,
    "oracle_nullity": int,
    "connected": lambda s: s == "yes",
    "theorem_holds": lambda s: s.split()[0] == "yes",
    "oracle_agrees": lambda s: s == "yes",
}


def _check_text(job, text):
    lines = text.splitlines()
    if not lines or lines[0] != f"source: {job.source}":
        return "text report has the wrong source line"
    fields = {key: None for key in _TEXT_FIELDS}
    fields["configurations"] = sum(1 for line in lines if line.startswith("  "))
    for line in lines[1:]:
        key, sep, value = line.partition(": ")
        if sep and key in _TEXT_FIELDS:
            try:
                fields[key] = _TEXT_FIELDS[key](value)
            except (ValueError, IndexError):
                return f"text report has a malformed {key!r} line"
    return _check_fields(job, fields)


def _check_fields(job, got):
    expected = {
        "n": job.n,
        "m": job.m,
        "connected": job.connected,
        "dimension": job.dimension,
        "configurations": job.configurations,
    }
    for key, want in expected.items():
        if got[key] != want:
            return f"{key} is {got[key]!r}, expected {want!r}"
    if job.n >= 3 and (got["g2"] != got["dimension"] or got["theorem_holds"] is not True):
        return f"g2 {got['g2']!r} disagrees with dimension {got['dimension']!r}"
    if job.oracle and got["oracle_agrees"] is None:
        return "oracle did not run"
    if got["oracle_agrees"] is not None and (
        got["oracle_agrees"] is not True or got["oracle_nullity"] != got["dimension"]
    ):
        return f"oracle nullity {got['oracle_nullity']!r} disagrees with dimension"
    return None


def _check_enumerate(job, text):
    # Exit 0 of `enumerate --mode both` already means brute and fast agree. On a
    # connected graph with n >= 3 each configuration gives one weight-2 element.
    lines = text.splitlines()
    if len(lines) != job.configurations:
        return f"{len(lines)} elements listed, expected {job.configurations}"
    for line in lines:
        if not _ELEMENT.fullmatch(line) or len(line.split()[0]) != job.n:
            return f"malformed element line {line[:60]!r}"
    if lines != sorted(lines, key=lambda line: int(line.split()[0][::-1], 2)):
        return "elements are not sorted by exponent vector"
    return None


def recorded_digests(workload):
    """Stdout sha256 per pool job for the default seed, as recorded at the seed commit."""
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle).get(workload)
    except FileNotFoundError:
        return None
