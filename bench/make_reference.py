"""Record the correctness gate's reference outputs into reference.json.

usage: python3 bench/make_reference.py

Runs every job of every workload once, untraced, at the default seed, from
the root of the checkout whose outputs become the reference.  The recorded
file is committed; regenerate it only when a change of output is intended.
"""

import json
import sys

import gate
import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner((), DEFAULT_SEED, {}, budget_s=3600)
    runner.set_up()
    reference = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            code, _, _, out, err = runner.child(
                [sys.executable, "-m", "hh1lie.cli", *job.argv(DEFAULT_SEED, run.WORK)], job.id
            )
            reference[job.id] = gate.record(job, code, out, err, run.WORK)
            print(f"{job.id}: exit {code}", file=sys.stderr)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
