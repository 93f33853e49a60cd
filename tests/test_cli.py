"""Command line interface: flags, exit codes, determinism, fault injection."""

import copy
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from hh1lie import algebras as alg
from hh1lie import checks, cli, gfp
from hh1lie import hochschild as hoch
from hh1lie.errors import Hh1LieError

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_examples():
    """The argument lists of every ``hh1lie ...`` line in the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("hh1lie ")]


def test_readme_cli_examples_parse():
    # parsing only, nothing runs: an example with a stale flag set fails here
    examples = readme_cli_examples()
    assert len(examples) >= 9
    parser = cli._build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: hh1lie {shlex.join(argv)}")


def test_build_smash_dimension(capsys):
    code, out, _ = run_cli(capsys, "build", "--kind", "smash", "--p", "3", "--n", "2", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["labels"]) == 27
    assert data["p"] == 3


def test_build_trunc(capsys):
    code, out, _ = run_cli(capsys, "build", "--kind", "trunc", "--p", "3", "--exps", "2")
    assert code == 0
    assert len(json.loads(out)["labels"]) == 9


def test_build_rejects_p2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--kind", "smash", "--p", "2", "--n", "1", "--r", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "trunc", "--exps", "99"],
        ["--kind", "trunc", "--exps", "30"],
        ["--kind", "u0borel", "--n", "40"],
        ["--kind", "smash", "--n", "40", "--r", "1"],
    ],
    ids=["trunc-99", "trunc-30", "u0borel-40", "smash-40-1"],
)
@pytest.mark.parametrize("command", ["build", "hh1"])
def test_dimension_above_max_dim_exits_2(capsys, command, args):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--p", "3", *args])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: dimension 3^" in err and f"exceeds the supported maximum {gfp.MAX_DIM}" in err
    assert "Traceback" not in err


def test_json_file_above_max_dim_exits_3(tmp_path, capsys):
    n = gfp.MAX_DIM + 1
    doc = {"p": 3, "labels": [f"e{i}" for i in range(n)], "unit": [1] + [0] * (n - 1), "mult": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "build", "--kind", "json", "--file", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: dimension {n} exceeds the supported maximum {gfp.MAX_DIM}\n"


def test_build_rejects_missing_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--kind", "smash", "--p", "3"])
    assert exc.value.code == 2


def test_build_deterministic_output(capsys):
    args = ["build", "--kind", "smash", "--p", "3", "--n", "1", "--r", "1"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1.encode() == out2.encode()


def test_build_quiver_and_trivext_both_dim8(capsys):
    _, out1, _ = run_cli(capsys, "build", "--kind", "quiver", "--p", "3")
    _, out2, _ = run_cli(capsys, "build", "--kind", "trivext", "--p", "3")
    assert len(json.loads(out1)["labels"]) == 8
    assert len(json.loads(out2)["labels"]) == 8


def test_build_json_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "build", "--kind", "u0borel", "--p", "3", "--n", "1")
    assert code == 0
    path = tmp_path / "algebra.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "build", "--kind", "json", "--file", str(path))
    assert code == 0
    assert out.encode() == out2.encode()


def test_hh1_smash(capsys):
    code, out, _ = run_cli(capsys, "hh1", "--kind", "smash", "--p", "3", "--n", "2", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["dim_hh1"] == 3
    assert data["report"]["dim_der"] == 27
    assert data["report"]["dim_ider"] == 24
    assert data["fingerprint"]["mu_greedy"] == 1


def test_hh1_trivext_matches_gl2(capsys):
    code, out, _ = run_cli(capsys, "hh1", "--kind", "trivext", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["dim_hh1"] == 4
    fp = data["fingerprint"]
    assert fp["dim"] == 4 and fp["dim_center"] == 1 and fp["mu_greedy"] == 2


def test_hh1_trunc_b2(capsys):
    code, out, _ = run_cli(capsys, "hh1", "--kind", "trunc", "--p", "3", "--exps", "1,1")
    assert code == 0
    assert json.loads(out)["report"]["dim_hh1"] == 18


def test_hh1_invalid_json_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 3, "labels": ["a"], "unit": [1], "mult": [[0, 0, 5, 1]]}')
    code, _, err = run_cli(capsys, "hh1", "--kind", "json", "--file", str(path))
    assert code == 3
    assert "error" in err


def test_hh1_of_a_large_algebra_without_generators_exits_3_with_the_known_limit(tmp_path, capsys):
    # T(smash(3,2,1)) from JSON names no generators, and dim 54 is past the dense solver
    t = alg.trivial_extension(alg.smash_product(3, 2, 1)[0])
    path = tmp_path / "tsmash-3-2-1.json"
    path.write_text(alg.dumps_canonical(t.to_json_dict()))
    code, out, err = run_cli(capsys, "hh1", "--kind", "json", "--file", str(path))
    assert (code, out) == (3, "")
    assert err == "error: dimension 54 needs a generator presentation for the derivation solver\n"


def test_hh1_lie_analysis_error_exits_3(monkeypatch, capsys):
    def undecided(*args, **kwargs):
        raise Hh1LieError("irreducibility test did not reach a decision")

    monkeypatch.setattr(cli.lielib, "fingerprint", undecided)
    code, out, err = run_cli(capsys, "hh1", "--kind", "trunc", "--p", "3", "--exps", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: irreducibility test did not reach a decision")


@pytest.mark.parametrize("stage", ["hh1", "from_hh1"])
def test_a_value_error_from_the_pipeline_is_not_a_usage_error(monkeypatch, capsys, stage):
    # only a bad flag value is a usage error (exit 2); an internal ValueError
    # once came out as argparse usage text
    def broken(*args, **kwargs):
        raise ValueError("cannot reshape array of size 0 into shape (0,newaxis)")

    module = cli.hoch if stage == "hh1" else cli.lielib
    monkeypatch.setattr(module, stage, broken)
    code, out, err = run_cli(capsys, "hh1", "--kind", "trunc", "--p", "3", "--exps", "1")
    assert (code, out) == (3, "")
    assert err == "error: cannot reshape array of size 0 into shape (0,newaxis)\n"
    assert exit_code("hh1", "--kind", "trunc", "--p", "3", "--exps", "99") == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, shown",
    [
        (MemoryError(), "error: out of memory\n"),
        (
            _ArrayMemoryError((1 << 40,), np.dtype(np.int64)),
            "error: out of memory: Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type int64\n",
        ),
    ],
)
@pytest.mark.parametrize("command", ["build", "hh1"])
def test_running_out_of_memory_exits_3_with_one_error_line(monkeypatch, capsys, error, shown, command):
    # a stage that runs out of memory once ended in a traceback with exit 1
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(alg.Algebra, "to_json_dict", exhausted)
    monkeypatch.setattr(cli.hoch, "hh1", exhausted)
    code, out, err = run_cli(capsys, command, "--kind", "trunc", "--p", "3", "--exps", "1")
    assert (code, out, err) == (3, "", shown)


def exit_code(*argv):
    """The CLI's exit code, including the usage errors argparse exits with."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("exps", ["1,,1", "1,", ",1"])
@pytest.mark.parametrize("command", ["build", "hh1"])
def test_an_empty_exponent_field_exits_2(capsys, command, exps):
    # "1,,1" once built trunc(3,(1,1)) and exited 0
    assert exit_code(command, "--kind", "trunc", "--p", "3", "--exps", exps) == 2
    err = capsys.readouterr().err
    assert f"cannot parse exponent list {exps!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "hh1"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("unit", 5),
        ("p", "x"),
        ("p", 3.0),
        ("p", True),
        ("labels", []),
        ("labels", "abc"),
        ("unit", [1.5, 0, 0]),
        ("counit", [True, False, False]),
        ("counit", {}),
        ("radical_gens", [[0, 1]]),
    ],
)
def test_malformed_algebra_json_exits_3(tmp_path, capsys, command, field, value):
    # "unit": 5 ended in a TypeError traceback (exit 1) and "p": "x" in a
    # usage error (exit 2)
    doc = alg.truncated_polynomial(3, (1,)).to_json_dict()
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--kind", "json", "--file", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_malformed_mult_coefficient_exits_3(tmp_path, capsys):
    doc = alg.truncated_polynomial(3, (1,)).to_json_dict()
    doc["mult"][1][3] = "a"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "hh1", "--kind", "json", "--file", str(path))
    assert code == 3 and err.startswith("error: ")


BASE_DOC = alg.truncated_polynomial(3, (1,)).to_json_dict()
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# p is drawn small: the primality test of a huge p is slow, not wrong
P_VALUES = st.integers(-5, 40) | st.sampled_from([251, 2**70]) | JSON_VALUES.filter(
    lambda v: not isinstance(v, int) or isinstance(v, bool)
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BASE_DOC)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(BASE_DOC) + ["name"]))
        action = draw(st.sampled_from(["replace", "delete", "element"]))
        target = doc.get(key)
        if action == "delete":
            doc.pop(key, None)
        elif action == "element" and isinstance(target, list) and target:
            pos = draw(st.integers(0, len(target) - 1))
            inner = target[pos]
            if isinstance(inner, list) and inner and draw(st.booleans()):
                inner[draw(st.integers(0, len(inner) - 1))] = draw(JSON_VALUES)
            else:
                target[pos] = draw(JSON_VALUES)
        else:
            doc[key] = draw(P_VALUES if key == "p" else JSON_VALUES)
    return doc


@seed(20240501)
@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=mutated_documents())
def test_fuzzed_algebra_json_exits_0_or_3(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    for command in ("build", "hh1"):
        assert exit_code(command, "--kind", "json", "--file", str(path)) in (0, 3)


def test_build_invalid_table_exits_3(tmp_path, capsys):
    # well-formed JSON, but the table is not associative
    path = tmp_path / "nonassoc.json"
    blob = {
        "p": 3,
        "labels": ["1", "a", "b"],
        "unit": [1, 0, 0],
        "mult": [
            [0, 0, 0, 1],
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [0, 2, 2, 1],
            [2, 0, 2, 1],
            [1, 1, 2, 1],
            [1, 2, 0, 1],
        ],
    }
    path.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "build", "--kind", "json", "--file", str(path))
    assert code == 3


def test_reproduce_passes_and_writes_reports(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    mpath = tmp_path / "report.md"
    code, out, _ = run_cli(
        capsys, "reproduce", "--p", "3", "--json", str(jpath), "--md", str(mpath)
    )
    assert code == 0
    results = json.loads(jpath.read_text())
    assert all(r["status"] == "pass" for r in results)
    ids = [r["check_id"] for r in results]
    assert "lemma-3.1" in ids and "thm-4.2-mu" in ids
    assert mpath.read_text().startswith("| check |")
    assert "| lemma-3.6 | pass |" in out


def test_reproduce_fault_injection_fails_lemma31(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys,
        "reproduce",
        "--p",
        "3",
        "--json",
        str(jpath),
        "--inject-fault",
        "lemma-3.1",
    )
    assert code == 1
    results = {r["check_id"]: r for r in json.loads(jpath.read_text())}
    assert results["lemma-3.1"]["status"] == "fail"
    payload = results["lemma-3.1"]["details"]["counterexample"]
    assert "lambda" in payload and "mu" in payload
    assert "FAIL lemma-3.1" in err


@pytest.mark.parametrize("p", ["3", "5"])
def test_reproduce_fault_injection_report_matches_the_recorded_one(p, tmp_path, capsys):
    # the counterexample is picked from reduced residues, so the whole report is
    # pinned, apart from elapsed_ms: the failing pair, its got and want, and every other check
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "reproduce", "--p", p, "--json", str(path), "--inject-fault", "lemma-3.1")
    report = json.loads(path.read_text())
    for entry in report:
        del entry["elapsed_ms"]
    recorded = Path(__file__).parent / "data" / f"reproduce-fault-lemma-3.1-p{p}.json"
    assert code == 1
    assert report == json.loads(recorded.read_text())


def test_build_custom_quiver_from_file(tmp_path, capsys):
    # Kronecker presentation through the documented quiver JSON schema
    quiver = {
        "vertices": ["1", "2"],
        "arrows": [["x", "1", "2"], ["y", "1", "2"]],
        "relations": [],
    }
    path = tmp_path / "kr.json"
    path.write_text(json.dumps(quiver))
    code, out, _ = run_cli(capsys, "build", "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 0
    assert len(json.loads(out)["labels"]) == 4


def test_build_bad_quiver_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ["1"]}')
    code, _, err = run_cli(capsys, "build", "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 3


@pytest.mark.parametrize("command", ["build", "hh1"])
@pytest.mark.parametrize("kind", ["json", "quiver"])
@pytest.mark.parametrize("problem", ["not-utf8", "missing"])
def test_unreadable_file_exits_3(tmp_path, capsys, command, kind, problem):
    # bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError, which
    # once reached the usage-error path and exited 2
    path = tmp_path / "input.json"
    if problem == "not-utf8":
        path.write_bytes(b"\xff\xfe\x00{}")
    code, out, err = run_cli(capsys, command, "--kind", kind, "--p", "3", "--file", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "usage:" not in err


TRUNC_3_1 = ("--kind", "trunc", "--p", "3", "--exps", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("build", *TRUNC_3_1, "--json"),
        ("hh1", *TRUNC_3_1, "--json"),
        ("reproduce", "--md"),
        ("reproduce", "--json"),
    ],
)
def test_unwritable_output_path_exits_3(tmp_path, monkeypatch, capsys, argv):
    # the output file was once written outside every handler: a traceback and exit 1
    monkeypatch.setattr(checks, "run_suite", lambda **kwargs: [])
    code, _, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "out"))
    assert code == 3
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "--p", "5", "--md"),
        ("reproduce", "--p", "5", "--md", "{ok}", "--json"),
        ("hh1", "--kind", "smash", "--p", "5", "--n", "2", "--r", "1", "--json"),
        ("build", *TRUNC_3_1, "--json"),
    ],
)
@pytest.mark.parametrize("problem", ["missing-dir", "under-a-file", "a-directory"])
def test_unwritable_output_path_is_refused_before_computing(tmp_path, monkeypatch, capsys, argv, problem):
    # reproduce --p 5 once ran its whole suite, 5.4 s, before it found the path unwritable
    fail = lambda *args, **kwargs: pytest.fail("computed before the output path was checked")
    monkeypatch.setattr(hoch, "hh1", fail)
    monkeypatch.setattr(checks, "run_suite", fail)
    (tmp_path / "file").write_text("keep")
    path = {"missing-dir": "missing/out", "under-a-file": "file/out", "a-directory": "."}[problem]
    path = str(tmp_path / path)
    argv = [arg.format(ok=tmp_path / "ok") for arg in argv]
    with pytest.raises(OSError) as opened:
        open(path, "w")
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (3, "")
    assert err == f"error: {opened.value}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "keep"


def test_checked_output_file_is_not_truncated_when_the_computation_fails(tmp_path, monkeypatch, capsys):
    path = tmp_path / "out.json"
    path.write_text("keep")

    def fail(*args, **kwargs):
        raise Hh1LieError("no")

    monkeypatch.setattr(hoch, "hh1", fail)
    code, _, err = run_cli(capsys, "hh1", *TRUNC_3_1, "--json", str(path))
    assert (code, err) == (3, "error: no\n")
    assert path.read_text() == "keep"


@pytest.mark.parametrize("argv", [("hh1", *TRUNC_3_1), ("reproduce",)])
def test_negative_seed_is_a_usage_error(monkeypatch, capsys, argv):
    # hh1 once exited 3 with numpy's message, and reproduce ran the suite,
    # failed all 17 checks and exited 1 as if the paper's claims had failed
    monkeypatch.setattr(checks, "run_suite", lambda **kwargs: pytest.fail("the suite ran"))
    assert exit_code(*argv, "--seed", "-1") == 2
    assert "argument --seed: seed must be non-negative, got -1" in capsys.readouterr().err
    assert exit_code(*argv, "--seed", "x") == 2
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.mark.parametrize(
    "job, argv",
    [
        ("hh1-trunc-3-1-1", ["--kind", "trunc", "--p", "3", "--exps", "1,1"]),
        ("hh1-trunc-5-2", ["--kind", "trunc", "--p", "5", "--exps", "2"]),
        ("hh1-trivext-5", ["--kind", "trivext", "--p", "5"]),
        ("hh1-quiver-7", ["--kind", "quiver", "--p", "7"]),
        ("hh1-trunc-3-2-1", ["--kind", "trunc", "--p", "3", "--exps", "2,1"]),
        ("hh1-trunc-3-3", ["--kind", "trunc", "--p", "3", "--exps", "3"]),
        ("hh1-smash-3-2-1", ["--kind", "smash", "--p", "3", "--n", "2", "--r", "1"]),
        ("hh1-smash-3-3-1", ["--kind", "smash", "--p", "3", "--n", "3", "--r", "1"]),
        ("hh1-smash-3-2-2", ["--kind", "smash", "--p", "3", "--n", "2", "--r", "2"]),
        ("hh1-smash-5-2-1", ["--kind", "smash", "--p", "5", "--n", "2", "--r", "1"]),
        ("hh1-u0borel-3-2", ["--kind", "u0borel", "--p", "3", "--n", "2"]),
    ],
)
def test_hh1_stdout_matches_recorded_reference(job, argv, capsys):
    expected = json.loads(REFERENCE.read_text())[job]
    code, out, _ = run_cli(capsys, "hh1", *argv, "--seed", "0")
    assert code == expected["exit"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]


@pytest.mark.parametrize("job, p", [("probe-reproduce-p3", "3"), ("reproduce-p5", "5")])
def test_reproduce_report_matches_recorded_reference(job, p, tmp_path, capsys):
    # the recorded report of the benchmark's reproduce jobs, apart from elapsed_ms
    expected = json.loads(REFERENCE.read_text())[job]
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "reproduce", "--p", p, "--seed", "0", "--json", str(path))
    report = json.loads(path.read_text())
    for entry in report:
        del entry["elapsed_ms"]
    assert code == expected["exit"] == 0
    assert report == expected["report"]


@pytest.mark.parametrize("blob", ['["1", "2"]', '{"vertices": ["1"], "arrows": [["x", "1"]]}'])
def test_malformed_quiver_file_exits_3(tmp_path, capsys, blob):
    # a top-level list and a short arrow ended in tracebacks
    path = tmp_path / "bad.json"
    path.write_text(blob)
    code, _, err = run_cli(capsys, "build", "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 3 and err.startswith("error: bad quiver presentation")


def test_cli_p_at_the_edge_of_the_supported_range(capsys):
    code, out, _ = run_cli(capsys, "build", "--kind", "trunc", "--p", str(gfp.P_MAX), "--exps", "1")
    assert code == 0 and json.loads(out)["p"] == gfp.P_MAX
    for p in (331, 2**61 - 1):
        assert exit_code("build", "--kind", "trunc", "--p", str(p), "--exps", "1") == 2
        assert exit_code("hh1", "--kind", "trunc", "--p", str(p), "--exps", "1") == 2


def test_json_p_at_the_edge_of_the_supported_range(tmp_path, capsys):
    doc = alg.truncated_polynomial(3, (1,)).to_json_dict()
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({**doc, "p": gfp.P_MAX}))
    code, out, _ = run_cli(capsys, "build", "--kind", "json", "--file", str(path))
    assert code == 0 and json.loads(out)["p"] == gfp.P_MAX
    for p in (331, 2**61 - 1):
        path.write_text(json.dumps({**doc, "p": p}))
        start = time.monotonic()
        code, out, err = run_cli(capsys, "hh1", "--kind", "json", "--file", str(path))
        # rejected before any primality test, so a huge p costs nothing
        assert time.monotonic() - start < 1.0
        assert code == 3 and out == "" and "3 <= p <= 317" in err


def test_quiver_arrow_to_an_undeclared_vertex_is_named(tmp_path, capsys):
    # this exited 3 with "unit law fails on basis element 1"
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": ["1"], "arrows": [["x", "1", "2"]], "relations": []}')
    for command in ("build", "hh1"):
        code, out, err = run_cli(capsys, command, "--kind", "quiver", "--p", "3", "--file", str(path))
        assert code == 3 and out == ""
        assert err == "error: bad quiver presentation: arrow 'x' has target '2', which is not a vertex\n"


MIXED_LENGTHS = [[1, ["c", "d"]], [-1, ["a", "b", "b"]]]


@pytest.mark.parametrize("command", ["build", "hh1"])
@pytest.mark.parametrize("terms", [MIXED_LENGTHS, MIXED_LENGTHS[::-1]], ids=["short-first", "long-first"])
def test_quiver_relation_of_mixed_lengths_exits_3(tmp_path, capsys, command, terms):
    # this ended in a KeyError traceback, exit 1
    doc = {
        "vertices": ["1", "2"],
        "arrows": [["a", "1", "2"], ["b", "2", "2"], ["c", "1", "2"], ["d", "2", "2"]],
        "relations": [terms],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 3 and out == ""
    first, other = (t[1] for t in terms)
    assert err == f"error: bad quiver presentation: relation paths {first} and {other} differ in length\n"


@pytest.mark.parametrize("command", ["build", "hh1"])
def test_quiver_path_explosion_exits_3(tmp_path, capsys, command):
    # four loops with a^3 = 0 listed paths without end
    arrows = [[a, "1", "1"] for a in "abcd"]
    doc = {"vertices": ["1"], "arrows": arrows, "relations": [[[1, ["a", "a", "a"]]]]}
    path = tmp_path / "explode.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 3 and out == ""
    assert err == "error: more than 1024 paths of length 6\n"


@pytest.mark.parametrize("command", ["build", "hh1"])
def test_quiver_relation_path_given_as_a_string_exits_3(tmp_path, capsys, command):
    # the path "xy" was split into the arrows x and y, and the quotient by x y built
    doc = {"vertices": ["1", "2", "3"], "arrows": [["x", "1", "2"], ["y", "2", "3"]], "relations": [[[1, "xy"]]]}
    path = tmp_path / "string-path.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 3 and out == ""
    assert err == "error: bad quiver presentation: relation path 'xy' is not a list of arrow labels\n"


@pytest.mark.parametrize("command", ["build", "hh1"])
@pytest.mark.parametrize("coeff, shown", [(1.5, "1.5"), (True, "True"), ("2", "'2'")], ids=["float", "bool", "string"])
def test_quiver_relation_coefficient_that_is_no_json_integer_exits_3(tmp_path, capsys, command, coeff, shown):
    # int(c) read 1.5 and true as 1 and "2" as 2, and built the algebra of that coefficient
    doc = {"vertices": ["1"], "arrows": [["a", "1", "1"]], "relations": [[[coeff, ["a", "a"]]]]}
    path = tmp_path / "coefficient.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--kind", "quiver", "--p", "3", "--file", str(path))
    assert code == 3 and out == ""
    assert err == f"error: bad quiver presentation: relation coefficient {shown} is not an integer\n"


def test_quiver_relation_coefficient_beyond_int64_is_reduced_mod_p(tmp_path, capsys):
    # a coefficient of 10^29 ended in an OverflowError traceback, exit 1
    outs = []
    for coeff in (10**29, 10**29 % 3):
        doc = {"vertices": ["1", "2", "3"], "arrows": [["x", "1", "2"], ["y", "2", "3"]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**doc, "relations": [[[coeff, ["x", "y"]]]]}))
        code, out, _ = run_cli(capsys, "build", "--kind", "quiver", "--p", "3", "--file", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and len(json.loads(outs[0])["labels"]) == 5


BASE_QUIVER = {
    "vertices": ["1", "2"],
    "arrows": [["x1", "1", "2"], ["y1", "1", "2"], ["x2", "2", "1"], ["y2", "2", "1"]],
    "relations": [
        [[1, ["x1", "y2"]], [-1, ["y1", "x2"]]],
        [[1, ["y2", "x1"]], [-1, ["x2", "y1"]]],
        [[1, ["x2", "x1"]]],
        [[1, ["x1", "x2"]]],
        [[1, ["y1", "y2"]]],
        [[1, ["y2", "y1"]]],
    ],
}
QUIVER_VALUES = st.sampled_from(["1", "2", "3", "x1", "y1", "x2", "y2", "z"]) | JSON_VALUES


def _mutate(draw, node, depth):
    """Replace, drop or recurse into one element of a JSON list."""
    if not isinstance(node, list) or not node or depth == 0:
        return draw(QUIVER_VALUES)
    pos = draw(st.integers(0, len(node) - 1))
    action = draw(st.sampled_from(["replace", "delete", "inner", "duplicate"]))
    if action == "delete":
        del node[pos]
    elif action == "duplicate":
        node.append(copy.deepcopy(node[pos]))
    elif action == "inner":
        node[pos] = _mutate(draw, node[pos], depth - 1)
    else:
        node[pos] = draw(QUIVER_VALUES)
    return node


@st.composite
def mutated_quivers(draw):
    doc = copy.deepcopy(BASE_QUIVER)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(BASE_QUIVER)))
        action = draw(st.sampled_from(["replace", "delete", "element"]))
        if action == "delete":
            doc.pop(key, None)
        elif action == "element" and isinstance(doc.get(key), list):
            doc[key] = _mutate(draw, doc[key], 4)
        else:
            doc[key] = draw(QUIVER_VALUES)
    return doc


@seed(20241017)
@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=mutated_quivers())
@example(doc={"vertices": ["1", "2"], "arrows": []})  # HH1 = 0: empty tables
def test_fuzzed_quiver_json_exits_0_or_3(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    for command in ("build", "hh1"):
        assert exit_code(command, "--kind", "quiver", "--p", "3", "--file", str(path)) in (0, 3)


# A child started by a large process inherits that process's peak RSS into
# its ru_maxrss, so the CLI is started from a small launcher process.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_maxrss_mib(*argv) -> float:
    """Peak RSS of one single-threaded CLI child, read with wait4."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["MKL_NUM_THREADS"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "hh1lie.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out[0] == "0"
    return int(out[1]) / 1024  # KiB on Linux


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_hh1_peak_memory_stays_near_the_baseline():
    # Der, IDer and the complement are held in generator coordinates, and the
    # Lie side enumerates in blocks.  Measured on Linux, numpy with OpenBLAS:
    # smash(3,2,1) peaks at 39 MiB; smash(5,2,1) and smash(3,3,1) peak 34 and
    # 27 MiB above it, where the d^2 form of Der and IDer and the full
    # pairwise-bracket array took 151 and 107 MiB above it.
    base = _child_maxrss_mib("hh1", "--kind", "smash", "--p", "3", "--n", "2", "--r", "1")
    for argv, limit in (
        (("--p", "5", "--n", "2", "--r", "1"), 48.0),
        (("--p", "3", "--n", "3", "--r", "1"), 40.0),
    ):
        peak = _child_maxrss_mib("hh1", "--kind", "smash", *argv)
        assert peak - base <= limit, (argv, base, peak)


def test_build_and_hh1_never_import_numpy_ma():
    # np.setdiff1d, a plain np.unique and np.unique(axis=0) import numpy.ma on
    # their first call, a cost every CLI process would pay; none is reached
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [
        ["hh1", "--kind", "smash", "--p", "3", "--n", "2", "--r", "1"],
        ["hh1", "--kind", "trunc", "--p", "3", "--exps", "1,1"],
        ["build", "--kind", "quiver", "--p", "3"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from hh1lie import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
