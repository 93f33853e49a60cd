"""The benchmark's workloads: the CLI jobs each one runs, in order.

Each job is one ``python -m hh1lie.cli`` call.  ``{work}`` in an argument is
replaced by the benchmark's work directory, where inputs are generated and
reports are written.

The run time of ``hh1`` and ``reproduce`` depends strongly on their ``--seed``,
which drives the randomized irreducibility test and torus sweeps (``hh1`` of
trunc(3,(2,1)) takes 14 s at seed 200 and 23 s at seed 207), while their
answers do not.  So timed jobs run at the CLI's default seed, as users do,
and each workload ends with an untimed probe job that runs at the workload
seed and must give the same seed-independent answers.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0  # the CLI's own default; outputs at this seed are byte-compared


@dataclass(frozen=True)
class Job:
    id: str
    args: tuple[str, ...]
    probe: bool = False  # runs at the workload seed and is not timed

    @property
    def command(self) -> str:
        return self.args[0]

    def seed(self, workload_seed: int) -> int | None:
        """The ``--seed`` this job runs with; ``build`` takes none."""
        if self.command == "build":
            return None
        return workload_seed if self.probe else DEFAULT_SEED

    def argv(self, workload_seed: int, work) -> list[str]:
        args = [a.format(work=work) for a in self.args]
        seed = self.seed(workload_seed)
        return args if seed is None else args + ["--seed", str(seed)]

    def report_path(self, work):
        """The ``--json`` report a ``reproduce`` job writes, else None."""
        if "--json" not in self.args:
            return None
        return self.args[self.args.index("--json") + 1].format(work=work)


def _hh1(job_id: str, *flags: str, probe: bool = False) -> Job:
    return Job(job_id, ("hh1", *flags), probe)


# Inputs generated from the library when a workload is set up: file name ->
# Python source that prints the file's contents.
INPUTS = {
    "tsmash-3-2-1.json": (
        "import sys\n"
        "from hh1lie import algebras as a\n"
        "t = a.trivial_extension(a.smash_product(3, 2, 1)[0])\n"
        "sys.stdout.write(a.dumps_canonical(t.to_json_dict()))\n"
    ),
}

SMASH_3_2_1 = ("--kind", "smash", "--p", "3", "--n", "2", "--r", "1")
TRUNC_3_1_1 = ("--kind", "trunc", "--p", "3", "--exps", "1,1")

# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    "smash-hh1": (
        _hh1("hh1-smash-3-2-1", *SMASH_3_2_1),
        _hh1("hh1-smash-3-3-1", "--kind", "smash", "--p", "3", "--n", "3", "--r", "1"),
        _hh1("hh1-smash-3-2-2", "--kind", "smash", "--p", "3", "--n", "2", "--r", "2"),
        _hh1("hh1-smash-5-2-1", "--kind", "smash", "--p", "5", "--n", "2", "--r", "1"),
        _hh1("hh1-u0borel-3-2", "--kind", "u0borel", "--p", "3", "--n", "2"),
        Job("build-smash-5-2-2", ("build", "--kind", "smash", "--p", "5", "--n", "2", "--r", "2")),
        # rejected at dim 54 for want of a generator presentation: a known limit
        _hh1("hh1-tsmash-3-2-1", "--kind", "json", "--file", "{work}/tsmash-3-2-1.json"),
        _hh1("probe-smash-3-2-1", *SMASH_3_2_1, probe=True),
    ),
    "lie-hh1": (
        _hh1("hh1-trunc-3-1-1", *TRUNC_3_1_1),
        _hh1("hh1-trunc-3-3", "--kind", "trunc", "--p", "3", "--exps", "3"),
        _hh1("hh1-trunc-5-2", "--kind", "trunc", "--p", "5", "--exps", "2"),
        _hh1("hh1-trunc-3-2-1", "--kind", "trunc", "--p", "3", "--exps", "2,1"),
        _hh1("hh1-trivext-5", "--kind", "trivext", "--p", "5"),
        _hh1("hh1-quiver-7", "--kind", "quiver", "--p", "7"),
        _hh1("probe-trunc-3-1-1", *TRUNC_3_1_1, probe=True),
    ),
    "reproduce-p5": (
        Job("reproduce-p5", ("reproduce", "--p", "5", "--json", "{work}/reproduce-p5.json")),
        Job(
            "probe-reproduce-p3",
            ("reproduce", "--p", "3", "--json", "{work}/probe-p3.json"),
            probe=True,
        ),
    ),
}
