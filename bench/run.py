"""hh1lie benchmark: run one workload through the CLI and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each job is a fresh ``python -m hh1lie.cli`` child, run one after another
(a closed loop with one client) with single-threaded BLAS and a 4 GiB
address-space cap, so a memory blow-up is a failed job.  Every job's output
goes through the correctness gate (``gate.py``).

``--trace 0`` runs whole passes over the workload's jobs while the next pass
still fits in ``--seconds`` (always at least one) and reports the end-to-end
metrics, medians over passes.  ``--trace 1`` runs one untraced pass and one
traced pass (``traced_cli.py``) and reports the per-layer metrics of the
traced pass and the tracing overhead.  The last line of stdout is the result
as JSON; the full record, with per-job outcomes and the environment, is
written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracer
from workloads import INPUTS, WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MEMORY_CAP_BYTES = 4 << 30
SETUP_REPEATS = 7
RUN_BUDGET_S = 170  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_child(argv, env, stdout_path, stderr_path, timeout):
    """Run one child to completion: (exit code, wall s, rusage of the child)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            preexec_fn=_cap_memory,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.1))[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Runner:
    """One benchmark run: the workload, its seed and the run's deadline."""

    def __init__(self, jobs: tuple[Job, ...], seed: int, reference: dict, budget_s=RUN_BUDGET_S):
        self.jobs = jobs
        self.seed = seed
        self.env = child_env()
        self.reference = reference
        self.deadline = time.monotonic() + budget_s

    def _remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, argv, stem):
        out, err = WORK / f"{stem}.out", WORK / f"{stem}.err"
        code, wall, usage = run_child(argv, self.env, out, err, self._remaining())
        return code, wall, usage, out.read_bytes(), err.read_bytes()

    def set_up(self) -> float:
        """Write the generated inputs; return the median CLI import time."""
        for name, source in INPUTS.items():
            code, _, _, out, err = self.child([sys.executable, "-c", source], "input")
            if code != 0:
                raise RuntimeError(f"generating {name} failed: {err.decode()[-400:]}")
            (WORK / name).write_bytes(out)
        importer = [sys.executable, "-c", "import hh1lie.cli"]
        times = []
        for _ in range(SETUP_REPEATS + 1):  # the first child compiles bytecode
            code, wall, _, _, err = self.child(importer, "setup")
            if code != 0:
                raise RuntimeError(f"importing hh1lie.cli failed: {err.decode()[-400:]}")
            times.append(wall)
        return statistics.median(times[1:])

    def run_pass(self, traced: bool) -> list[dict]:
        """Run the jobs in order; a traced pass leaves out the untimed probes."""
        outcomes = []
        for job in self.jobs:
            if traced and job.probe:
                continue
            argv = job.argv(self.seed, WORK)
            spans = WORK / f"{job.id}.spans.json"
            if traced:
                argv = [sys.executable, str(BENCH / "traced_cli.py"), job.id, str(spans), *argv]
            else:
                argv = [sys.executable, "-m", "hh1lie.cli", *argv]
            report = job.report_path(WORK)
            for stale in (report, spans):
                if stale:
                    Path(stale).unlink(missing_ok=True)
            code, wall, usage, out, err = self.child(argv, job.id)
            ref = self.reference[job.id]
            status, reason = gate.verdict(job, ref, job.seed(self.seed), code, out, err, WORK)
            outcome = {
                "job": job.id,
                "status": status,
                "reason": reason,
                "exit": code,
                "timed": ref["exit"] == 0 and not job.probe,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024,
            }
            if traced:
                outcome["spans"] = json.loads(spans.read_text()) if spans.exists() else []
            print(
                f"{job.id}: {status} {wall:.3f} s {outcome['peak_rss_mb']:.1f} MiB {reason}",
                file=sys.stderr,
            )
            outcomes.append(outcome)
        return outcomes


def pass_totals(outcomes: list[dict]) -> dict:
    """wall, CPU and peak RSS over the timed jobs.

    Probes are not timed, nor are known limits: one that starts to succeed
    does not charge the change that fixed it for the new work.
    """
    counted = [o for o in outcomes if o["timed"]]
    return {
        "wall_s": sum(o["wall_s"] for o in counted),
        "cpu_s": sum(o["cpu_s"] for o in counted),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in counted),
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "hh1lie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "memory_cap_bytes": MEMORY_CAP_BYTES,
    }


END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}


def end_to_end(runner: Runner, seconds: float, setup_s: float):
    """Untraced passes while the next one still fits in ``seconds``."""
    passes, start = [], time.monotonic()
    while True:
        passes.append(runner.run_pass(traced=False))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    totals = [pass_totals(p) for p in passes]
    metrics = {m: statistics.median(t[m] for t in totals) for m in totals[0]}
    outcomes = [o for p in passes for o in p]
    metrics["ok_ratio"] = sum(o["status"] in ("ok", "newly-ok") for o in outcomes) / len(outcomes)
    metrics["setup_s"] = setup_s
    return passes, metrics


def per_layer(runner: Runner):
    """One untraced and one traced pass: layer metrics and tracing overhead."""
    passes = [runner.run_pass(traced=False), runner.run_pass(traced=True)]
    metrics = tracer.layer_metrics([o.pop("spans") for o in passes[1]])
    plain, traced = (pass_totals(p)["wall_s"] for p in passes)
    metrics["trace.overhead_s"] = traced - plain
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hh1lie" / "cli.py").is_file():
        print(f"error: no hh1lie package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    WORK.mkdir(exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, gate.load_reference())
    try:
        setup_s = runner.set_up()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        passes, metrics = per_layer(runner)
        units = tracer.UNITS
    else:
        passes, metrics = end_to_end(runner, args.seconds, setup_s)
        units = END_TO_END_UNITS

    outcomes = [o for p in passes for o in p]
    failed = sum(o["status"] == "failed" for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_s": setup_s,
        "passes": passes,
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
