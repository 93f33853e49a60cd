"""Correctness gate: compare each job's outcome with the recorded reference.

``reference.json`` holds, per job, what the reference commit produced at the
default seed (see ``make_reference.py``):

- ``exit``: the exit code.  A non-zero code marks a known limit, such as an
  algebra the derivation solver rejects; ``stderr`` then holds its message.
- ``stdout_sha256``: digest of the ``hh1`` or ``build`` stdout.
- ``fields``: the seed-independent fields of an ``hh1`` report.
- ``report``: the ``reproduce --json`` report without ``elapsed_ms``.

A job's verdict is one of

- ``ok``: exit 0 and the output matches the reference;
- ``known-limit``: the reference exit code and message, reproduced;
- ``newly-ok``: a known limit that now succeeds with a consistent report;
- ``failed``: anything else.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import DEFAULT_SEED, Job

REFERENCE = Path(__file__).with_name("reference.json")

HH1_REPORT_FIELDS = ("dim_der", "dim_ider", "dim_hh1")
HH1_FINGERPRINT_FIELDS = (
    "derived_dims",
    "lower_central_dims",
    "dim_center",
    "is_simple",
    "nullcone_count",
)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def hh1_fields(stdout: bytes) -> dict:
    doc = json.loads(stdout)
    fields = {k: doc["report"][k] for k in HH1_REPORT_FIELDS}
    fields.update({k: doc["fingerprint"][k] for k in HH1_FINGERPRINT_FIELDS})
    return fields


def reproduce_report(path) -> list:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for entry in report:
        del entry["elapsed_ms"]
    return report


def record(job: Job, code: int, stdout: bytes, stderr: bytes, work) -> dict:
    """The reference entry for one job run at the default seed."""
    entry = {"exit": code}
    if code != 0:
        entry["stderr"] = stderr.decode()
    elif job.command == "reproduce":
        entry["report"] = reproduce_report(job.report_path(work))
    else:
        entry["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        if job.command == "hh1":
            entry["fields"] = hh1_fields(stdout)
    return entry


def _tail(stderr: bytes) -> str:
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[-1][:200] if lines else ""


def _consistent_hh1(stdout: bytes) -> bool:
    try:
        doc = json.loads(stdout)
        rep = doc["report"]
        return (
            rep["dim_hh1"] == rep["dim_der"] - rep["dim_ider"]
            and doc["fingerprint"]["dim"] == rep["dim_hh1"]
            and len(doc["lie"]["labels"]) == rep["dim_hh1"]
        )
    except (ValueError, KeyError, TypeError):
        return False


def verdict(job: Job, ref: dict, seed, code: int, stdout: bytes, stderr: bytes, work):
    """(verdict, reason) for one finished job run with ``--seed seed``."""
    if ref["exit"] != 0:
        if code == ref["exit"] and stderr.decode(errors="replace") == ref["stderr"]:
            return "known-limit", ""
        if code == 0 and _consistent_hh1(stdout):
            return "newly-ok", ""
        return "failed", f"known limit changed: exit {code}: {_tail(stderr)}"
    if code != 0:
        return "failed", f"exit {code}: {_tail(stderr)}"
    if job.command == "reproduce":
        try:
            report = reproduce_report(job.report_path(work))
        except (OSError, ValueError, KeyError) as exc:
            return "failed", f"unreadable report: {exc}"
        failing = [e["check_id"] for e in report if e["status"] != "pass"]
        if failing:
            return "failed", f"checks failed: {', '.join(failing)}"
        if report != ref["report"]:
            return "failed", "report differs from the reference"
        return "ok", ""
    if seed in (None, DEFAULT_SEED):
        if hashlib.sha256(stdout).hexdigest() != ref["stdout_sha256"]:
            return "failed", "stdout differs from the reference"
        return "ok", ""
    try:
        fields = hh1_fields(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return "failed", f"unreadable report: {exc}"
    if fields != ref["fields"]:
        return "failed", "seed-independent fields differ from the reference"
    return "ok", ""
