"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single ``criterion-NN PASS`` line on success (visible
with ``pytest -s``); a failure surfaces as an ordinary assertion error.
Expensive constructions are shared through module-scoped contexts.
"""

import json

import numpy as np
import pytest

from hh1lie import checks
from hh1lie import lie as lielib
from oracles import bracket_vec, is_p_nilpotent_element


@pytest.fixture(scope="module")
def ctx3():
    return checks.SuiteContext(p=3)


@pytest.fixture(scope="module")
def ctx5():
    return checks.SuiteContext(p=5)


def _report(criterion, note=""):
    print(f"criterion-{criterion:02d} PASS {note}".rstrip())


def _run(check_fn, ctx):
    # CheckFailure carries the counterexample; let it fail the test loudly
    return check_fn(ctx)


def test_criterion_01_smash_multiplication(ctx3, ctx5):
    # exhaustive over lambda, mu for p in {3,5}, r in {1,2}, n <= 2
    _run(checks.check_lemma_3_1, ctx3)
    _run(checks.check_lemma_3_1, ctx5)
    _report(1, "smash multiplication rules, p=3 and p=5")


def test_criterion_02_inner_derivation_formulas(ctx3):
    # exhaustive over indices at p=3, n <= 2, r <= 2
    detail = _run(checks.check_lemma_3_2, ctx3)
    assert all(v == "all indices" for v in detail.values())
    _report(2, "ad(u_lambda x^j) formulas, exhaustive at p=3")


def test_criterion_03_outer_derivations_and_complement(ctx3, ctx5):
    # (p,n,r) in {(3,1,1),(3,2,1),(3,1,2),(5,1,1),(5,2,1)}
    for ctx in (ctx3, ctx5):
        _run(checks.check_lemma_3_4, ctx)
        detail = _run(checks.check_lemma_3_5, ctx)
        for key, rep in detail.items():
            expected = rep["p"] ** (rep["n"] - rep["r"]) if rep["n"] >= rep["r"] else 1
            assert rep["h_size"] == expected, key
            assert rep["dim_der"] == rep["dim_ider"] + rep["h_size"], key
            assert rep["trivial_intersection"] and rep["independent"], key
    _report(3, "Leibniz-validated weight derivations complement IDer")


def test_criterion_04_bracket_and_pmap_tables(ctx3):
    h = ctx3.smash_hh1(2, 1)
    assert h.dim == 3
    for i in range(3):
        for j in range(3):
            want = np.zeros(3, dtype=np.int64)
            if i + j < 3:
                want[i + j] = (j - i) % 3
            assert np.array_equal(h.bracket_table[i, j], want), (i, j)
    want_p = np.zeros((3, 3), dtype=np.int64)
    want_p[0, 0] = 1
    assert np.array_equal(h.pmap_table, want_p)
    _report(4, "bracket (j-i) g_(0,i+j) and p-map tables exact at (3,2,1)")


def test_criterion_05_trigonalizable_with_certified_torus(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        detail = _run(checks.check_thm_3_8, ctx)
        for key, rep in detail.items():
            assert rep["trigonalizable"], key
            assert rep["mu"] == 1, key
            assert rep["status"] == "exhaustively-certified", key
            assert rep["torus_is_g00_class"], key
    _report(5, "trigonalizable, mu = 1 certified, torus = class of g_(0,0)")


def test_criterion_06_witness_ideal(ctx3):
    wit = lielib.prop22_witness(3, (2,))
    assert wit.lie.dim == 9
    assert wit.n_ideal.dim == 6
    # ideal, p-nilpotent, no toral elements (3^6 = 729 checked exhaustively)
    sub = lielib.structure_on(wit.lie, wit.n_ideal.basis, wit.n_ideal.coords_rows)
    torals = lielib._pmap_census(sub)[0]
    assert len(torals) == 0
    for v in wit.n_ideal.basis:
        assert is_p_nilpotent_element(wit.lie, v)
    assert lielib.same_fingerprint(wit.quotient, lielib.witt(3, 1))
    torus = lielib.greedy_maximal_torus(wit.lie)
    assert torus.dim == 1 and torus.maximality_status == "exhaustively-certified"
    _report(6, "dim HH1 = 9, ideal dim 6 p-nilpotent, quotient = Witt, mu = 1")


def test_criterion_07_elementary_abelian_simplicity(ctx3, ctx5):
    for p, n in [(3, 1), (3, 2), (5, 1)]:
        w = lielib.witt(p, n)
        assert w.dim == n * p**n, (p, n)
        assert lielib.is_simple(w), (p, n)
    wit = lielib.prop22_witness(3, (2,))
    assert not lielib.is_simple(wit.lie)
    witness = lielib.adjoint_invariant_subspace(wit.lie)
    assert witness is not None and 0 < witness.dim < wit.lie.dim
    for i in range(wit.lie.dim):
        e = np.zeros(wit.lie.dim, dtype=np.int64)
        e[i] = 1
        for v in witness.basis:
            assert witness.contains_vector(bracket_vec(wit.lie, e, v))
    _report(7, "Witt algebras simple; mixed exponents give an explicit ideal")


def test_criterion_08_local_symmetric(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        detail = _run(checks.check_lemma_2_1, ctx)
        for key, rep in detail.items():
            assert rep["lemma21_holds"] and rep["form_found"], key
    _report(8, "[A,A] in J^2 and nondegenerate forms within 64 seeded trials")


def test_criterion_09_kronecker_trivial_extension(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        detail = _run(checks.check_lemma_4_1, ctx)
        assert detail["dim_hh1"] == 4
        assert detail["center_dim"] == 1
        assert detail["derived_dim"] == 3 and detail["derived_simple"]
        assert detail["mu"] == 2 and detail["status"] == "exhaustively-certified"
        assert detail["projection_toral"] and detail["projection_class_nonzero"]
        assert detail["kr_dim_hh1"] == 3 and detail["kr_matches_sl2"]
        assert detail["tkr_matches_gl2"]
    _report(9, "T(Kr): dim 4, center 1, derived sl2, mu = 2; Kr matches sl2")


def test_criterion_10_solvability_dichotomy(ctx3):
    detail = _run(checks.check_cor_3_10, ctx3)
    assert detail["borel_case"]["solvable"] and detail["borel_case"]["mu"] == 1
    assert not detail["nilpotent_case"]["solvable"]
    assert detail["nilpotent_case"]["mu"] == 1
    assert detail["nilpotent_case"]["status"] == "exhaustively-certified"
    _report(10, "block of the borel case solvable; truncated case non-solvable")


def test_criterion_11_block_decomposition(ctx3):
    detail = _run(checks.check_blocks, ctx3)
    assert detail["split_semisimple"]["blocks"] == 3
    assert detail["u0borel"]["blocks"] == 1
    assert detail["u0borel_block_matches_smash"]
    _report(11, "block counts, idempotent laws, block cohomology fingerprint")


def test_criterion_12_property_suites(ctx3):
    detail = _run(checks.check_properties, ctx3)
    assert detail["trials"] == 100
    _report(12, "seeded property suites, 100 trials each")


def test_criterion_13_complexity_constants(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        detail = _run(checks.check_thm_4_2_mu, ctx)
        for key, rep in detail.items():
            assert rep["expected_cx"] == rep["computed_mu"], key
    _report(13, "stored complexity constants equal computed toral ranks")


def test_suite_computes_shared_objects_once(monkeypatch):
    # the witness and the cohomology of T(Kr) and of the u0borel block are
    # memoized on the context, so each is computed once per suite
    from hh1lie import hochschild as hoch

    calls = []
    witness, hh1 = lielib.prop22_witness, hoch.hh1
    monkeypatch.setattr(lielib, "prop22_witness", lambda *a: calls.append("wit") or witness(*a))
    monkeypatch.setattr(hoch, "hh1", lambda a, **kw: calls.append(a.name) or hh1(a, **kw))
    ctx = checks.SuiteContext(p=3)
    sharing = {
        "prop-2.2", "prop-2.3", "lemma-3.9", "cor-3.10", "cor-3.10-blocks", "lemma-4.1", "thm-4.2-mu"
    }
    for check_id, fn in checks.CHECKS:
        if check_id in sharing:
            fn(ctx)
    assert calls.count("wit") == 1
    assert len(calls) == len(set(calls))


def test_the_p5_suite_solves_no_block_without_generators(monkeypatch):
    # the u0borel(5, 1) block names its parent's generators, so no solve in
    # the suite falls back to every basis vector on a block
    from hh1lie import hochschild as hoch

    solved = []
    init = hoch.DerivationSpace.__init__
    monkeypatch.setattr(
        hoch.DerivationSpace, "__init__", lambda self, a: solved.append((a.name, a.generators)) or init(self, a)
    )
    results = checks.run_suite(p=5)
    assert all(r.status == "pass" for r in results)
    blocks = [gens for name, gens in solved if name.startswith("block(")]
    assert len(blocks) == 1 and all(gens is not None for gens in blocks)


def test_suite_certifies_each_torus_and_weight_derivation_once(monkeypatch):
    # one torus search per (Lie algebra, seed) and one weight derivation per
    # (algebra, lambda, j) over a whole suite: the Lie algebras and the weight
    # derivations are shared through the context, and each report is kept on
    # its algebra.  hh1 takes the lambda = 0 complement as generator values,
    # so each smash algebra builds its weight derivations by name in one
    # batch, the lambda != 0 ones in the context.
    from hh1lie import hochschild as hoch

    searches, outers, batches = [], [], []
    report, named_outers = lielib._torus_report, hoch.named_outers

    def count_search(L, seed):
        searches.append((L, seed))  # held, so no freed algebra's id is reused
        return report(L, seed)

    def count_outers(desc, pairs, a=None):
        outers.extend((a.name, lam, j) for lam, j in pairs)
        batches.append(a.name)
        return named_outers(desc, pairs, a)

    monkeypatch.setattr(lielib, "_torus_report", count_search)
    monkeypatch.setattr(hoch, "named_outers", count_outers)
    results = checks.run_suite(p=5)
    assert all(r.status == "pass" for r in results), [r.check_id for r in results if r.status != "pass"]
    keys = [(id(L), seed) for L, seed in searches]
    assert len(keys) == len(set(keys)) >= 5
    assert len(outers) == len(set(outers)) == 24  # smash(1,1): 4 x 1, smash(2,1): 4 x 5
    assert all(lam != 0 for _, lam, _ in outers)
    assert sorted(batches) == ["smash(p=5,n=1,r=1)", "smash(p=5,n=2,r=1)"]


def test_handed_out_torus_reports_are_copies():
    L = lielib.gl2(5)
    first = lielib.greedy_maximal_torus(L, seed=2)
    want = json.dumps(first.to_json_dict())
    first.basis[0][:] = 0
    first.basis.append(first.basis[0])
    first.certificates[0]["toral"] = False
    first.dim = 7
    assert json.dumps(lielib.greedy_maximal_torus(L, seed=2).to_json_dict()) == want


def test_torus_report_json_dict_is_a_copy():
    report = lielib.greedy_maximal_torus(lielib.gl2(5), seed=2)
    want = json.dumps(report.to_json_dict())
    doc = report.to_json_dict()
    doc["certificates"][0]["toral"] = False
    doc["certificates"].append({"toral": True, "commutes": True})
    doc["basis"][0][0] = 4
    assert report.certificates[0]["toral"] and len(report.certificates) == report.dim
    assert json.dumps(report.to_json_dict()) == want
