"""Self-test of the benchmark: tracing changes no output and patches every binding.

Run from the repository root:  python -m pytest -q bench
"""

import hashlib
import subprocess
import sys

import gate
import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

sys.path.insert(0, str(run.SRC))

from hh1lie import algebras, checks, gfp, hochschild, lie  # noqa: E402

SMASH_321 = ["hh1", "--kind", "smash", "--p", "3", "--n", "2", "--r", "1"]


def _stdout(argv):
    done = subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), capture_output=True, check=True)
    return done.stdout


def test_traced_stdout_is_byte_identical(tmp_path):
    spans = tmp_path / "spans.json"
    plain = _stdout([sys.executable, "-m", "hh1lie.cli", *SMASH_321])
    traced_cli = str(run.BENCH / "traced_cli.py")
    traced = _stdout([sys.executable, traced_cli, "job", str(spans), *SMASH_321])
    assert traced == plain
    ref = gate.load_reference()["hh1-smash-3-2-1"]
    assert hashlib.sha256(plain).hexdigest() == ref["stdout_sha256"]
    assert spans.stat().st_size > 0


def test_every_binding_of_a_wrapped_kernel_is_patched():
    original = gfp.matmul
    registered = list(checks.CHECKS)
    with tracer.installed(tracer.Tracer("job")) as t:
        wrapped_checks = [fn.__bench_original__ for _, fn in checks.CHECKS]
        assert wrapped_checks == [fn for _, fn in registered]
        wrapped = gfp.matmul
        assert wrapped.__bench_original__ is original
        for mod in (hochschild, lie, algebras):
            assert mod.matmul is wrapped
            assert mod.rref is gfp.rref
        gfp.matmul(gfp.normalize([[1, 2]], 3), gfp.normalize([[1], [1]], 3), 3)
        assert [s[0] for s in t.spans] == ["gfp.matmul"]
        assert t.spans[0][4:6] == ["job", 2 * 1 * 2 * 1]
    assert gfp.matmul is original and hochschild.matmul is original
    assert checks.CHECKS == registered


def test_self_time_subtracts_child_spans():
    spans = [
        ["hochschild.hh1", 0.0, 10.0, -1, "job", "a", 0],
        ["hochschild.der", 1.0, 7.0, 0, "job", None, 0],
        ["gfp.rref", 2.0, 3.0, 1, "job", 12, 0],
        ["hochschild.hh1", 20.0, 21.0, -1, "job", "a", 1],
    ]
    m = tracer.layer_metrics([spans])
    assert m["hochschild.hh1_self_s"] == 4.0 + 1.0
    assert m["hochschild.der_s"] == 5.0
    assert m["gfp.rref_s"] == 1.0 and m["gfp.rref_cells"] == 12
    assert m["hochschild.hh1_calls"] == 2 and m["hochschild.hh1_distinct_ratio"] == 0.5
    assert m["hochschild.errors"] == 1


def test_gate_rejects_changed_output_and_accepts_known_limit():
    ref = gate.load_reference()
    job = WORKLOADS["smash-hh1"][0]
    out = _stdout([sys.executable, "-m", "hh1lie.cli", *job.argv(DEFAULT_SEED, run.WORK)])
    assert gate.verdict(job, ref[job.id], DEFAULT_SEED, 0, out, b"", run.WORK)[0] == "ok"
    assert gate.verdict(job, ref[job.id], DEFAULT_SEED, 0, out + b" ", b"", run.WORK)[0] == "failed"
    limit = next(j for j in WORKLOADS["smash-hh1"] if j.id == "hh1-tsmash-3-2-1")
    err = ref[limit.id]["stderr"].encode()
    assert gate.verdict(limit, ref[limit.id], 5, 3, b"", err, run.WORK)[0] == "known-limit"
    assert gate.verdict(limit, ref[limit.id], 5, 1, b"", b"boom", run.WORK)[0] == "failed"
