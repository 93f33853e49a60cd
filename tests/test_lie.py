"""Restricted Lie algebras: p-maps, series, simplicity, tori, recognition."""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import RestrictednessViolation
from hh1lie.gfp import Subspace, mat_pow
from oracles import bracket_vec, element_analysis, is_p_nilpotent_element


def unit(dim, i):
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


def smash_lie(p, n, r):
    return lielib.from_hh1(hoch.hh1(alg.smash_product(p, n, r)[0]))


# -- construction and validation --------------------------------------------------


def test_from_hh1_smash_321():
    L = smash_lie(3, 2, 1)
    assert L.dim == 3
    assert np.array_equal(bracket_vec(L, unit(3, 0), unit(3, 1)), unit(3, 1))
    assert np.array_equal(bracket_vec(L, unit(3, 0), unit(3, 2)), 2 * unit(3, 2))
    assert not bracket_vec(L, unit(3, 1), unit(3, 2)).any()


def test_from_hh1_trivial_cases():
    assert lielib.from_hh1(hoch.hh1(alg.split_semisimple(3, 2))).dim == 0
    w = lielib.from_hh1(hoch.hh1(alg.truncated_polynomial(3, (1,))))
    assert w.dim == 3


def test_restrictedness_violation_detected():
    # sl2 bracket with a corrupted p-map must be rejected
    s = lielib.sl2(3)
    bad_pmap = s.pmap_basis.copy()
    bad_pmap[0] = unit(3, 1)  # e^[p] := h is wrong
    with pytest.raises(RestrictednessViolation):
        lielib.RestrictedLie(3, s.bracket, bad_pmap)


def test_lie_nilpotency_follows_the_lower_central_series():
    # <a, b> with [a, b] = b is solvable, but [L, L] = [L, [L, L]] = <b> never
    # vanishes; the Heisenberg algebra [x, y] = z is nilpotent
    p = 3
    two = np.zeros((2, 2, 2), dtype=np.int64)
    two[0, 1], two[1, 0] = unit(2, 1), (-unit(2, 1)) % p
    L2 = lielib.RestrictedLie(p, two, np.diag([1, 0]))  # a toral, b p-nilpotent
    heis = np.zeros((3, 3, 3), dtype=np.int64)
    heis[0, 1], heis[1, 0] = unit(3, 2), (-unit(3, 2)) % p
    L3 = lielib.RestrictedLie(p, heis, np.zeros((3, 3), dtype=np.int64))
    assert lielib.series_and_predicates(L2)["is_solvable"]
    assert not lielib._is_lie_nilpotent(L2, Subspace.full(2, p))
    assert lielib._is_lie_nilpotent(L2, Subspace.from_vectors([unit(2, 1)], p, 2))
    assert lielib._is_lie_nilpotent(L3, Subspace.full(3, p))


def test_validate_rejects_non_jacobi():
    c = np.zeros((3, 3, 3), dtype=np.int64)
    # [a,b] = c, [b,c] = a, [c,a] = a: fails Jacobi
    c[0, 1] = unit(3, 2)
    c[1, 0] = -unit(3, 2) % 3
    c[1, 2] = unit(3, 0)
    c[2, 1] = -unit(3, 0) % 3
    c[2, 0] = unit(3, 0)
    c[0, 2] = -unit(3, 0) % 3
    with pytest.raises(Exception):
        lielib.RestrictedLie(3, c, np.zeros((3, 3), dtype=np.int64))


# -- Jacobson p-map -----------------------------------------------------------------


def test_jacobson_additive_on_abelian():
    # abelian algebra with pmap b_i -> b_i: (x+y)^[p] = x^[p] + y^[p]
    L = lielib.RestrictedLie(
        3, np.zeros((2, 2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)
    )
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.integers(0, 3, 2)
        y = rng.integers(0, 3, 2)
        lhs = lielib.jacobson_p_power(L, (x + y) % 3)
        rhs = (lielib.jacobson_p_power(L, x) + lielib.jacobson_p_power(L, y)) % 3
        assert np.array_equal(lhs, rhs)


def test_jacobson_on_basis_returns_stored_images():
    L = smash_lie(3, 2, 1)
    for i in range(L.dim):
        assert np.array_equal(lielib.jacobson_p_power(L, unit(L.dim, i)), L.pmap_basis[i])


def test_jacobson_agrees_with_composition_oracle():
    rng = np.random.default_rng(5)
    for builder in (
        lambda: alg.smash_product(3, 2, 1)[0],
        lambda: alg.truncated_polynomial(3, (1,)),
    ):
        a = builder()
        h = hoch.hh1(a)
        L = lielib.from_hh1(h)
        comp = np.stack([f.matrix for f in h.complement_basis])
        for _ in range(100):
            x = rng.integers(0, 3, L.dim)
            lift = np.tensordot(x, comp, axes=(0, 0)) % 3
            via_comp = h.project_rows(mat_pow(lift, 3, 3)[None])[0]
            assert np.array_equal(via_comp, lielib.jacobson_p_power(L, x))


def test_jacobson_scalar_compatibility():
    L = lielib.sl2(5)
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.integers(0, 5, 3)
        c = int(rng.integers(1, 5))
        lhs = lielib.jacobson_p_power(L, c * x % 5)
        rhs = pow(c, 5, 5) * lielib.jacobson_p_power(L, x) % 5
        assert np.array_equal(lhs, rhs)


# -- series and predicates -------------------------------------------------------------


def test_series_smash_solvable_not_nilpotent():
    L = smash_lie(3, 2, 1)
    preds = lielib.series_and_predicates(L)
    assert preds["is_solvable"]
    assert not preds["is_nilpotent"]
    assert preds["derived_series"][-1].dim == 0


def test_series_witt_not_solvable():
    preds = lielib.series_and_predicates(lielib.witt(3, 1))
    assert not preds["is_solvable"]
    assert preds["derived_series"] == [Subspace.full(3, 3)]


def test_series_abelian_stabilizes_immediately():
    L = lielib.RestrictedLie(
        3, np.zeros((2, 2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)
    )
    preds = lielib.series_and_predicates(L)
    assert preds["is_abelian"] and preds["is_nilpotent"] and preds["is_solvable"]
    assert len(preds["lower_central_series"]) == 2


# -- simplicity --------------------------------------------------------------------------


def test_simple_witt_and_sl2():
    assert lielib.is_simple(lielib.witt(3, 1))
    assert lielib.is_simple(lielib.witt(5, 1))
    assert lielib.is_simple(lielib.sl2(3))
    assert lielib.is_simple(lielib.sl2(5))
    assert lielib.is_simple(lielib.witt(3, 2))


def test_one_dimensional_abelian_not_simple():
    L = lielib.RestrictedLie(
        3, np.zeros((1, 1, 1), dtype=np.int64), np.eye(1, dtype=np.int64)
    )
    assert not lielib.is_simple(L)


def test_smash_lie_not_simple_with_expected_witness():
    L = smash_lie(3, 2, 1)
    assert not lielib.is_simple(L)
    witness = lielib.adjoint_invariant_subspace(L)
    assert witness is not None and 0 < witness.dim < 3
    # span{g_(0,1), g_(0,2)} is an ideal by the bracket table
    expected = Subspace.from_vectors([unit(3, 1), unit(3, 2)], 3, 3)
    for i in range(3):
        for v in expected.basis:
            assert expected.contains_vector(bracket_vec(L, unit(3, i), v))
    assert expected.contains(witness)


def test_gl2_not_simple():
    assert not lielib.is_simple(lielib.gl2(3))


def test_w3_is_simple():
    # Prop. 2.3 at three variables: HH1 of k[x, y, z]/(x^3, y^3, z^3) is W(3)
    L = lielib.from_hh1(hoch.hh1(alg.truncated_polynomial(3, (1, 1, 1))))
    assert L.dim == 81
    assert lielib.is_simple(L)


def test_hh1_trunc5_11_is_simple_at_every_probed_seed():
    # the words alone decide none of these seeds: 3, 5 and 9 need the mixed elements
    L = lielib.from_hh1(hoch.hh1(alg.truncated_polynomial(5, (1, 1))))
    for seed in (0, 3, 5, 9):
        assert lielib.is_simple(L, seed=seed), seed


MIXED_CASES = {
    "witt32": (lambda: lielib.witt(3, 2), True),
    "sl2-5": (lambda: lielib.sl2(5), True),
    "witt51": (lambda: lielib.witt(5, 1), True),
    "gl2-3": (lambda: lielib.gl2(3), False),
    "hh1-trunc3-2": (lambda: lielib.from_hh1(hoch.hh1(alg.truncated_polynomial(3, (2,)))), False),
    "hh1-smash331": (lambda: smash_lie(3, 3, 1), False),
}


@pytest.mark.parametrize("name", sorted(MIXED_CASES))
def test_mixed_elements_alone_decide(name, monkeypatch):
    build, simple = MIXED_CASES[name]
    L = build()

    def mixed_only(mats, p, seed):
        rng = np.random.default_rng(seed)
        return (lielib._mixed_element(mats, p, rng) for _ in range(lielib.NORTON_ROUNDS))

    monkeypatch.setattr(lielib, "_envelope_candidates", mixed_only)
    for seed in range(3):
        witness = lielib.adjoint_invariant_subspace(L, seed=seed)
        if simple:
            assert witness is None, seed
        else:
            assert witness is not None and 0 < witness.dim < L.dim, seed
            assert lielib._is_ideal(L, witness), seed


# -- element analysis ----------------------------------------------------------------------


def test_element_analysis_toral_and_nilpotent():
    L = smash_lie(3, 2, 1)
    res = element_analysis(L, unit(3, 0))
    assert res["is_toral"] and not res["is_p_nilpotent"]
    for j in (1, 2):
        res = element_analysis(L, unit(3, j))
        assert res["is_p_nilpotent"] and not res["is_toral"]


def test_element_analysis_fitting_parts():
    # x = g0 + g1 has semisimple part in the envelope with toral component
    L = smash_lie(3, 2, 1)
    x = (unit(3, 0) + unit(3, 1)) % 3
    res = element_analysis(L, x)
    ss, nil = res["semisimple_part"], res["nilpotent_part"]
    assert np.array_equal((ss + nil) % 3, x)
    assert is_p_nilpotent_element(L, nil)
    assert ss.any()
    # the semisimple part's p-envelope carries an invertible p-map
    env, phi = lielib.p_envelope(L, ss)
    assert np.linalg.matrix_rank(phi) == env.dim


def test_element_analysis_exhaustive_small():
    # cross-check the Fitting split by brute force over all of GF(3)^dim
    L = smash_lie(3, 1, 1)  # dim 1, toral generator
    for c in range(3):
        res = element_analysis(L, np.array([c], dtype=np.int64))
        assert np.array_equal(res["semisimple_part"], np.array([c]) % 3)
        assert not res["nilpotent_part"].any()


# -- tori ---------------------------------------------------------------------------------


def test_greedy_torus_smash():
    L = smash_lie(3, 2, 1)
    rep = lielib.greedy_maximal_torus(L)
    assert rep.dim == 1
    assert rep.maximality_status == "exhaustively-certified"
    assert Subspace.from_vectors(rep.basis, 3, 3) == Subspace.from_vectors([unit(3, 0)], 3, 3)


def test_torus_gl2_rank_two():
    rep = lielib.greedy_maximal_torus(lielib.gl2(3))
    assert rep.dim == 2
    assert rep.maximality_status == "exhaustively-certified"


def test_torus_report_certificates():
    rep = lielib.greedy_maximal_torus(lielib.gl2(3))
    assert all(c["toral"] and c["commutes"] for c in rep.certificates)
    data = rep.to_json_dict()
    assert data["dim"] == 2 and len(data["basis"]) == 2


def test_torus_of_p_nilpotent_ideal_is_zero():
    wit = lielib.prop22_witness(3, (2,))
    sub = wit.n_ideal
    # every nonzero element of the ideal is p-nilpotent, so no torus exists
    for v in sub.basis:
        assert is_p_nilpotent_element(wit.lie, v)
    torals = lielib._pmap_census(wit.lie)[0]
    for t in torals:
        assert not sub.contains_vector(t)


def test_mu_monotone_on_subalgebras():
    g = lielib.gl2(3)
    s = lielib.sl2(3)
    assert lielib.greedy_maximal_torus(s).dim <= lielib.greedy_maximal_torus(g).dim


# -- trigonalizability ----------------------------------------------------------------------


def test_trigonalizable_cases():
    assert lielib.is_trigonalizable(smash_lie(3, 2, 1))
    assert lielib.is_trigonalizable(smash_lie(3, 1, 2))
    assert not lielib.is_trigonalizable(lielib.witt(3, 1))
    # a torus is trivially trigonalizable
    torus = lielib.RestrictedLie(
        3, np.zeros((2, 2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)
    )
    assert lielib.is_trigonalizable(torus)


# -- models and fingerprints ------------------------------------------------------------------


def test_witt_dimensions():
    assert lielib.witt(3, 1).dim == 3
    assert lielib.witt(3, 2).dim == 18
    assert lielib.witt(5, 1).dim == 5


def test_witt1_matches_sl2_at_p3():
    assert lielib.same_fingerprint(lielib.witt(3, 1), lielib.sl2(3))


def test_witt1_differs_from_sl2_at_p5():
    # at p = 5 the Jacobson-Witt algebra has dimension 5, sl2 has 3
    assert not lielib.same_fingerprint(lielib.witt(5, 1), lielib.sl2(5))


def test_gl2_fingerprint_fields():
    fp = lielib.fingerprint(lielib.gl2(3))
    assert fp.dim == 4
    assert fp.dim_center == 1
    assert fp.derived_dims == (4, 3)
    assert not fp.is_simple
    assert fp.mu_greedy == 2


def test_sl2_pmap():
    s = lielib.sl2(3)
    assert np.array_equal(s.pmap_basis[1], unit(3, 1))  # h^[p] = h
    assert not s.pmap_basis[0].any()  # e^[p] = 0
    assert not s.pmap_basis[2].any()  # f^[p] = 0


# -- prop 2.2 witness ---------------------------------------------------------------------------


def test_prop22_witness_p3_exps2():
    wit = lielib.prop22_witness(3, (2,))
    assert wit.lie.dim == 9
    assert wit.n_ideal.dim == 6
    assert wit.quotient.dim == 3
    assert lielib.same_fingerprint(wit.quotient, lielib.witt(3, 1))
    assert lielib.greedy_maximal_torus(wit.lie).dim == 1


def test_prop22_boundary_all_ones():
    wit = lielib.prop22_witness(3, (1,))
    assert wit.n_ideal.dim == 0
    assert lielib.same_fingerprint(wit.quotient, lielib.witt(3, 1))
    assert lielib.same_fingerprint(wit.lie, lielib.witt(3, 1))


def test_prop22_rejects_bad_exponents():
    with pytest.raises(ValueError):
        lielib.prop22_witness(3, (0,))


def test_prop22_grading_ideal_property():
    # span{g_(0,j) : j >= 1} is an ideal of the smash cohomology
    L = smash_lie(3, 2, 1)
    ideal = Subspace.from_vectors([unit(3, 1), unit(3, 2)], 3, 3)
    for i in range(3):
        for v in ideal.basis:
            assert ideal.contains_vector(bracket_vec(L, unit(3, i), v))


def test_lie_json_round_trip_fields():
    L = smash_lie(3, 2, 1)
    data = L.to_json_dict()
    assert data["p"] == 3
    assert len(data["pmap"]) == 3
    rebuilt = lielib.RestrictedLie(
        data["p"],
        _bracket_from_triples(data["bracket"], 3),
        np.array(data["pmap"], dtype=np.int64),
        labels=data["labels"],
    )
    assert np.array_equal(rebuilt.bracket, L.bracket)


def _bracket_from_triples(triples, dim):
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, j, k, v in triples:
        c[i, j, k] = v
    return c


def test_fitting_decomposition_unique_by_envelope_enumeration():
    # at dimension <= 4 the split x = s + n (s in the invertible part of the
    # p-envelope, n p-nilpotent) is checked against brute-force enumeration
    import itertools

    g = lielib.gl2(3)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.integers(0, 3, 4)
        if not x.any():
            continue
        res = element_analysis(g, x)
        env, phi = lielib.p_envelope(g, x)
        m = env.dim
        phi_n = mat_pow(phi, m, 3)
        decompositions = []
        for coeffs_s in itertools.product(range(3), repeat=m):
            s = np.tensordot(np.array(coeffs_s), env.basis, axes=(0, 0)) % 3
            n = (x - s) % 3
            if not env.contains_vector(n):
                continue
            # s must lie in the image of the iterated p-map, n in its kernel
            cs, cn = env.coords_rows(np.stack([s, n]))
            in_image = Subspace.from_vectors(phi_n.T, 3, m).contains_vector(cs)
            in_kernel = not (mat_pow(phi, m, 3) @ cn % 3).any()
            if in_image and in_kernel:
                decompositions.append((tuple(s), tuple(n)))
        assert decompositions == [
            (tuple(res["semisimple_part"]), tuple(res["nilpotent_part"]))
        ]


def test_ad_p_power_equals_ad_of_p_th_power():
    # (ad a)^p = ad(a^p) holds exactly for associative algebras in char p
    sm, _ = alg.smash_product(3, 1, 1)
    rng = np.random.default_rng(21)
    for _ in range(50):
        a_vec = rng.integers(0, 3, sm.dim)
        ad_a = (sm.left_mult_matrix(a_vec) - sm.right_mult_matrix(a_vec)) % 3
        ap = sm.element_power(a_vec, 3)
        ad_ap = (sm.left_mult_matrix(ap) - sm.right_mult_matrix(ap)) % 3
        assert np.array_equal(mat_pow(ad_a, 3, 3), ad_ap)


def test_greedy_torus_of_p_nilpotent_subalgebra_is_zero():
    wit = lielib.prop22_witness(3, (2,))
    sub = lielib.structure_on(wit.lie, wit.n_ideal.basis, wit.n_ideal.coords_rows)
    rep = lielib.greedy_maximal_torus(sub)
    assert rep.dim == 0
    assert rep.maximality_status == "exhaustively-certified"


def test_fingerprint_of_zero_dimensional_lie():
    import hh1lie.hochschild as hoch

    L = lielib.from_hh1(hoch.hh1(alg.split_semisimple(3, 3)))
    fp = lielib.fingerprint(L)
    assert fp.dim == 0 and not fp.is_simple and fp.mu_greedy == 0
    assert fp.nullcone_count == 1
