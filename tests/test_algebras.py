"""Algebra constructors, validation, center, radical checks, blocks, forms."""

import json

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie.errors import (
    AssociativityViolation,
    InfiniteDimensionalQuotient,
    JsonFormatError,
    RadicalUnavailable,
    UnitViolation,
)
from hh1lie.gfp import Subspace, rref


def basis_vec(dim, i):
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


# -- make_algebra ---------------------------------------------------------------


def test_make_algebra_split_product():
    a = alg.make_algebra(
        3, ["e1", "e2"], {(0, 0): [(0, 1)], (1, 1): [(1, 1)]}, [1, 1]
    )
    assert a.dim == 2
    assert np.array_equal(a.mul_basis(0, 1), np.zeros(2, dtype=np.int64))


def test_make_algebra_rejects_non_associative():
    # e1*e1 = e2, e1*e2 = e3, e2*e1 = 0 with unit adjoined would break; use a
    # small table failing (e1 e1) e1 = e1 (e1 e1)
    labels = ["1", "a", "b"]
    mult = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, 1)],
        (1, 0): [(1, 1)],
        (0, 2): [(2, 1)],
        (2, 0): [(2, 1)],
        (1, 1): [(2, 1)],
        (1, 2): [(0, 1)],  # a b = 1 but b a = 0: (a a) a != a (a a)
    }
    with pytest.raises(AssociativityViolation):
        alg.make_algebra(3, labels, mult, [1, 0, 0])


def test_make_algebra_rejects_bad_unit():
    mult = {(0, 0): [(0, 1)], (1, 1): [(1, 1)]}
    with pytest.raises(UnitViolation):
        alg.make_algebra(3, ["e1", "e2"], mult, [1, 0])


def test_tkr_quiver_table_is_associative_by_independent_loop():
    # check all 8^3 triples directly through mul_vec, independently of the
    # constructor's own chunked validation
    a = alg.quiver_algebra(alg.tkr_quiver(), 3)
    assert a.dim == 8
    for i in range(8):
        for j in range(8):
            ij = a.mul_basis(i, j)
            for k in range(8):
                left = a.mul_vec(ij, basis_vec(8, k))
                right = a.mul_vec(basis_vec(8, i), a.mul_basis(j, k))
                assert np.array_equal(left, right)


@pytest.mark.parametrize("p", [191, 251])
def test_signed_truncated_basis_is_associative_at_large_p(p):
    # k[x]/(x^5) on the basis 1, x, x^2, -x^3, x^4: coefficients p - 1 make
    # products of two coefficients exceed 2^15, so 16-bit arithmetic is wrong
    sign = [1, 1, 1, -1, 1]
    mult = {
        (i, j): [(i + j, sign[i] * sign[j] * sign[i + j])]
        for i in range(5)
        for j in range(5)
        if i + j < 5
    }
    a = alg.make_algebra(p, ["1", "x", "x^2", "-x^3", "x^4"], mult, basis_vec(5, 0))
    assert a.is_monomial and a.mul_basis(1, 2).tolist() == [0, 0, 0, p - 1, 0]
    a._validate_assoc_dense()


def test_empty_table_is_accepted():
    assert alg.make_algebra(3, [], {}, []).dim == 0


def assoc_failure(check):
    try:
        check()
    except AssociativityViolation as exc:
        return exc.triple
    return None


@pytest.mark.parametrize(
    "build",
    [
        lambda: alg.smash_product(3, 2, 1)[0],
        lambda: alg.truncated_polynomial(3, (1, 1)),
        lambda: alg.truncated_polynomial(5, (1,)),
        lambda: alg.truncated_polynomial(3, (2,)),
    ],
    ids=["smash321", "trunc3-11", "trunc5-1", "trunc3-2"],
)
def test_support_triple_check_matches_dense_oracle(build):
    # one corrupted kmat and/or cmat entry per trial; both checks must agree
    # on acceptance and on the first failing triple
    base = build()
    kmat, cmat = base.monomial_tables()
    d, p = base.dim, base.p
    rng = np.random.default_rng(d * 1000 + p)
    outcomes = set()
    for _ in range(40):
        k2, c2 = kmat.copy(), cmat.copy()
        i, j = (int(x) for x in rng.integers(0, d, 2))
        mode = rng.integers(0, 3)
        if mode != 1:
            k2[i, j] = rng.integers(0, d)
        if mode != 0:
            c2[i, j] = rng.integers(0, p)
        a = alg.Algebra(p, base.labels, {}, base.unit, validate=False, _monomial=(k2, c2))
        sparse = assoc_failure(a._validate_assoc_monomial)
        assert sparse == assoc_failure(a._validate_assoc_dense)
        outcomes.add(sparse is None)
    assert outcomes == {True, False}


# -- truncated polynomial rings ---------------------------------------------------


def test_truncated_polynomial_single_variable():
    a = alg.truncated_polynomial(3, (1,))
    assert a.dim == 3
    assert a.labels == ["1", "x1", "x1^2"]
    x = basis_vec(3, 1)
    assert np.array_equal(a.mul_vec(x, a.mul_vec(x, x)), np.zeros(3, dtype=np.int64))


def test_truncated_polynomial_commutative():
    a = alg.truncated_polynomial(3, (1, 1))
    assert a.dim == 9
    for i in range(9):
        for j in range(9):
            assert np.array_equal(a.mul_basis(i, j), a.mul_basis(j, i))


def test_truncated_polynomial_high_exponent():
    a = alg.truncated_polynomial(3, (2,))
    assert a.dim == 9
    x = basis_vec(9, 1)
    power = x.copy()
    for _ in range(7):
        power = a.mul_vec(power, x)
    assert power.any()  # x^8 != 0
    assert not a.mul_vec(power, x).any()  # x^9 = 0


def test_truncated_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        alg.truncated_polynomial(3, ())
    with pytest.raises(ValueError):
        alg.truncated_polynomial(3, (0,))


# -- smash products ----------------------------------------------------------------


def test_smash_multiplication_example():
    a, desc = alg.smash_product(3, 1, 1)
    assert a.dim == 9
    # (u_1 x)(u_0 x) = u_1 x^2 != 0
    prod = a.mul_basis(desc.index(1, 1), desc.index(0, 1))
    want = basis_vec(9, desc.index(1, 2))
    assert np.array_equal(prod, want)


def test_smash_idempotents():
    a, desc = alg.smash_product(3, 1, 1)
    for lam in range(3):
        u = basis_vec(a.dim, desc.index(lam, 0))
        assert np.array_equal(a.mul_vec(u, u), u)


def test_smash_x_nilpotency_degree():
    a, desc = alg.smash_product(3, 2, 1)
    x = desc.x_vector()
    power = a.unit.copy()
    for k in range(1, 9):
        power = a.mul_vec(power, x)
        assert power.any(), f"x^{k} vanished too early"
    assert not a.mul_vec(power, x).any()  # x^9 = 0


def test_smash_multiplication_rule_exhaustive_p3():
    for n in (1, 2):
        for r in (1, 2):
            a, desc = alg.smash_product(3, n, r)
            nc = desc.n_chars
            x = desc.x_vector()
            for lam in range(nc):
                ul = basis_vec(a.dim, desc.index(lam, 0))
                ulx = a.mul_vec(ul, x)
                assert np.array_equal(
                    ulx, a.mul_vec(x, basis_vec(a.dim, desc.index((lam - 1) % nc, 0)))
                )
                for mu in range(nc):
                    um = basis_vec(a.dim, desc.index(mu, 0))
                    want = a.mul_vec(x, um) if lam == (mu + 1) % nc else np.zeros(a.dim, dtype=np.int64)
                    assert np.array_equal(a.mul_vec(ulx, um), want)


def test_smash_rejects_bad_parameters():
    with pytest.raises(ValueError):
        alg.smash_product(3, 0, 1)
    with pytest.raises(ValueError):
        alg.smash_product(2, 1, 1)


# -- quivers -----------------------------------------------------------------------


def test_kronecker_dimension():
    a = alg.quiver_algebra(alg.kronecker_quiver(), 3)
    assert a.dim == 4
    assert set(a.labels) == {"e1", "e2", "x", "y"}


def test_tkr_quiver_dimension():
    a = alg.quiver_algebra(alg.tkr_quiver(), 3)
    assert a.dim == 8


def test_loop_quiver_infinite_dimensional():
    loop = alg.QuiverPresentation(("1",), (("a", "1", "1"),))
    with pytest.raises(InfiniteDimensionalQuotient):
        alg.quiver_algebra(loop, 3)


def test_quiver_relation_identifies_paths():
    a = alg.quiver_algebra(alg.tkr_quiver(), 3)
    lbl = {name: i for i, name in enumerate(a.labels)}
    x1y2 = a.mul_basis(lbl["x1"], lbl["y2"])
    y1x2 = a.mul_basis(lbl["y1"], lbl["x2"])
    assert x1y2.any()
    assert np.array_equal(x1y2, y1x2)
    assert not a.mul_basis(lbl["x2"], lbl["x1"]).any()
    assert not a.mul_basis(lbl["x1"], lbl["x2"]).any()


# -- trivial extensions --------------------------------------------------------------


def test_trivial_extension_of_field_is_dual_numbers():
    a = alg.trivial_extension(alg.split_semisimple(3, 1))
    assert a.dim == 2
    eps = basis_vec(2, 1)
    assert not a.mul_vec(eps, eps).any()
    assert a.counit is not None


def test_trivial_extension_dual_square_zero():
    kr = alg.quiver_algebra(alg.kronecker_quiver(), 3)
    te = alg.trivial_extension(kr)
    assert te.dim == 8
    for i in range(4, 8):
        for j in range(4, 8):
            assert not te.mul_basis(i, j).any()


def test_trivial_extension_matches_bound_quiver_table():
    # explicit identification of basis elements, products compared entrywise
    kr = alg.quiver_algebra(alg.kronecker_quiver(), 3)
    te = alg.trivial_extension(kr)
    tq = alg.quiver_algebra(alg.tkr_quiver(), 3)
    target = {
        "e1": "e1",
        "e2": "e2",
        "x1": "x",
        "y1": "y",
        "x2": "y*",
        "y2": "x*",
        "y1*x2": "e1*",
        "y2*x1": "e2*",
    }
    mapping = [te.labels.index(target[lbl]) for lbl in tq.labels]
    for i in range(8):
        for j in range(8):
            prod_te = te.mul_basis(mapping[i], mapping[j])
            mapped = np.zeros(8, dtype=np.int64)
            for k, c in enumerate(tq.mul_basis(i, j)):
                if c:
                    mapped[mapping[k]] = c
            assert np.array_equal(prod_te, mapped), (tq.labels[i], tq.labels[j])


# -- u0_borel -----------------------------------------------------------------------


def test_u0_borel_relations():
    a = alg.u0_borel(3, 1)
    assert a.dim == 9
    x = basis_vec(9, 3)  # x^1 t^0
    t = basis_vec(9, 1)  # x^0 t^1
    assert np.array_equal((a.mul_vec(t, x) - a.mul_vec(x, t)) % 3, x)
    assert np.array_equal(a.element_power(t, 3), t)
    xp = a.element_power(x, 3)
    assert not xp.any()


def test_u0_borel_dimension_p3_n2():
    a = alg.u0_borel(3, 2)
    assert a.dim == 27
    x = basis_vec(27, 3)
    assert not a.element_power(x, 9).any()
    assert a.element_power(x, 8).any()


# -- center -------------------------------------------------------------------------


def test_center_commutative_is_everything():
    a = alg.truncated_polynomial(3, (1, 1))
    assert alg.center(a).dim == a.dim


def test_center_smash_321():
    a, desc = alg.smash_product(3, 2, 1)
    z = alg.center(a)
    assert z.dim == 3
    v3 = np.zeros(27, dtype=np.int64)
    v6 = np.zeros(27, dtype=np.int64)
    for lam in range(3):
        v3[desc.index(lam, 3)] = 1
        v6[desc.index(lam, 6)] = 1
    assert z.contains_vector(a.unit)
    assert z.contains_vector(v3)
    assert z.contains_vector(v6)


def test_center_smash_dimension_formula():
    # dim Z = p^(n-r) for n >= r, else 1
    for p, n, r in [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (5, 2, 1)]:
        a, _ = alg.smash_product(p, n, r)
        want = p ** (n - r) if n >= r else 1
        assert alg.center(a).dim == want, (p, n, r)


def test_center_tkr_contains_unit_and_socle():
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    z = alg.center(te)
    assert z.contains_vector(te.unit)
    # both vertex socle elements are central, so the center is 3-dimensional
    e1s = basis_vec(8, te.labels.index("e1*"))
    e2s = basis_vec(8, te.labels.index("e2*"))
    assert z.contains_vector(e1s)
    assert z.contains_vector(e2s)
    assert z.dim == 3


# -- commutator and radical ------------------------------------------------------------


def test_commutator_radical_local_commutative():
    a = alg.truncated_polynomial(3, (2,))
    res = alg.commutator_and_radical_checks(a)
    assert res["commutator"].dim == 0
    assert res["lemma21_holds"]
    assert res["J"].dim == 8


def test_commutator_radical_u0_borel_reports_false():
    res = alg.commutator_and_radical_checks(alg.u0_borel(3, 1))
    assert not res["lemma21_holds"]
    assert res["commutator"].dim > 0


def test_commutator_radical_requires_radical_data():
    a = alg.make_algebra(
        3, ["e1", "e2"], {(0, 0): [(0, 1)], (1, 1): [(1, 1)]}, [1, 1]
    )
    with pytest.raises(RadicalUnavailable):
        alg.commutator_and_radical_checks(a)


def test_lemma21_on_all_local_truncated_cases():
    for exps in [(1,), (2,), (1, 1), (2, 1)]:
        a = alg.truncated_polynomial(3, exps)
        assert alg.commutator_and_radical_checks(a)["lemma21_holds"]


# -- blocks -----------------------------------------------------------------------------


def test_blocks_split_semisimple():
    blocks = alg.block_decomposition(alg.split_semisimple(3, 3))
    assert len(blocks) == 3
    assert all(b.dim == 1 for _, b in blocks)


def test_blocks_local_algebra_single():
    blocks = alg.block_decomposition(alg.truncated_polynomial(3, (2,)))
    assert len(blocks) == 1
    assert blocks[0][1].dim == 9


def test_block_idempotent_laws():
    a = alg.split_semisimple(3, 3)
    z = alg.center(a)
    blocks = alg.block_decomposition(a)
    total = np.zeros(a.dim, dtype=np.int64)
    for i, (e, _) in enumerate(blocks):
        assert z.contains_vector(e)
        assert np.array_equal(a.mul_vec(e, e), e)
        for j, (e2, _) in enumerate(blocks):
            if i != j:
                assert not a.mul_vec(e, e2).any()
        total = (total + e) % 3
    assert np.array_equal(total, a.unit)


def test_blocks_u0_borel_single_block_is_whole():
    blocks = alg.block_decomposition(alg.u0_borel(3, 1))
    assert len(blocks) == 1
    assert blocks[0][1].dim == 9


# -- symmetric forms ----------------------------------------------------------------------


def test_symmetric_form_truncated_frobenius():
    a = alg.truncated_polynomial(3, (1,))
    # the Frobenius form B(x^i, x^j) = [i + j == 2] solves the constraints
    frob = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            frob[i, j] = 1 if i + j == 2 else 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                ab = a.mul_basis(i, j)
                bc = a.mul_basis(j, k)
                lhs = sum(int(ab[m]) * frob[m, k] for m in range(3)) % 3
                rhs = sum(frob[i, m] * int(bc[m]) for m in range(3)) % 3
                assert lhs == rhs
    _, rank, _ = rref(frob, 3)
    assert rank == 3
    found = alg.symmetric_form_search(a, trials=64, seed=0)
    assert found is not None
    _, rank, _ = rref(found, 3)
    assert rank == 3


def test_symmetric_form_tkr_dual_pairing():
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    found = alg.symmetric_form_search(te, trials=64, seed=0)
    assert found is not None
    _, rank, _ = rref(found, 3)
    assert rank == te.dim


def test_symmetric_form_split_semisimple():
    a = alg.split_semisimple(3, 2)
    found = alg.symmetric_form_search(a, trials=64, seed=0)
    assert found is not None
    _, rank, _ = rref(found, 3)
    assert rank == 2


def test_symmetric_form_properties_of_result():
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    b = alg.symmetric_form_search(te, trials=64, seed=1)
    assert np.array_equal(b, b.T)
    d = te.dim
    for i in range(d):
        for j in range(d):
            ab = te.mul_basis(i, j)
            for k in range(d):
                bc = te.mul_basis(j, k)
                lhs = int(ab @ b[:, k]) % 3
                rhs = int(b[i, :] @ bc) % 3
                assert lhs == rhs


# -- JSON round trip ----------------------------------------------------------------------


def test_algebra_json_round_trip_byte_identical():
    a, _ = alg.smash_product(3, 1, 1)
    blob = alg.dumps_canonical(a.to_json_dict())
    loaded = alg.algebra_from_json_dict(json.loads(blob))
    blob2 = alg.dumps_canonical(loaded.to_json_dict())
    assert blob.encode() == blob2.encode()


def test_algebra_json_rejects_malformed():
    a = alg.truncated_polynomial(3, (1,))
    data = a.to_json_dict()
    bad = dict(data)
    bad["mult"] = [[0, 0, 99, 1]]
    with pytest.raises(JsonFormatError):
        alg.algebra_from_json_dict(bad)
    bad = dict(data)
    del bad["unit"]
    with pytest.raises(JsonFormatError):
        alg.algebra_from_json_dict(bad)


def test_block_decomposition_non_split_center():
    # GF(9) as a two-dimensional GF(3)-algebra: t^2 = -1, irreducible
    from hh1lie.errors import NonSplitCenter

    mult = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, 1)],
        (1, 0): [(1, 1)],
        (1, 1): [(0, 2)],  # t^2 = -1 = 2
    }
    gf9 = alg.make_algebra(3, ["1", "t"], mult, [1, 0])
    with pytest.raises(NonSplitCenter):
        alg.block_decomposition(gf9)


def test_center_dimension_matches_weight_index_range():
    # the center dimension equals the number of valid weight exponents,
    # both p^(n-r) for n >= r and 1 otherwise
    for p, n, r in [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1)]:
        a, desc = alg.smash_product(p, n, r)
        assert alg.center(a).dim == len(desc.outer_exponents()), (p, n, r)


# -- the pairwise-product kernel against the per-pair loops it replaced -----------


def loop_product(a, u, v):
    out = np.zeros(a.dim, dtype=np.int64)
    for i in np.nonzero(u)[0]:
        for j in np.nonzero(v)[0]:
            for k, c in a.mult_terms(int(i), int(j)):
                out[k] += u[i] * v[j] * c
    return out % a.p


PRODUCT_CASES = {
    "u0borel-3-1": lambda: alg.u0_borel(3, 1),  # not monomial
    "u0borel-3-2": lambda: alg.u0_borel(3, 2),
    "trunc-5-11": lambda: alg.truncated_polynomial(5, (1, 1)),
    "smash-3-1-1": lambda: alg.smash_product(3, 1, 1)[0],
    "trivext-kr-3": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3)),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_pairwise_products_match_the_per_pair_loop(case):
    a = PRODUCT_CASES[case]()
    rng = np.random.default_rng(len(case))
    u, v = rng.integers(0, a.p, (5, a.dim)), rng.integers(0, a.p, (4, a.dim))
    got = alg._pairwise_products(a, u, v)
    assert got.shape == (5, 4, a.dim)
    for s in range(5):
        for t in range(4):
            assert np.array_equal(got[s, t], loop_product(a, u[s], v[t]))
            assert np.array_equal(a.mul_vec(u[s], v[t]), got[s, t])
        eye = np.eye(a.dim, dtype=np.int64)
        left = np.stack([loop_product(a, u[s], e) for e in eye], axis=1)
        right = np.stack([loop_product(a, e, u[s]) for e in eye], axis=1)
        assert np.array_equal(a.left_mult_matrix(u[s]), left)
        assert np.array_equal(a.right_mult_matrix(u[s]), right)


CONSTANT_CASES = {
    "u0borel-3-2": (lambda: alg.u0_borel(3, 2), False),
    "trivext-kr-5": (lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)), True),
}


@pytest.mark.parametrize("case", sorted(CONSTANT_CASES))
def test_structure_constants_are_built_once_and_read_only(case):
    build, monomial = CONSTANT_CASES[case]
    a = build()
    assert a.is_monomial == monomial  # both table kinds are covered
    first = a.structure_constants()
    second = a.structure_constants()
    assert all(x is y for x, y in zip(first, second)) and len(second) == 4
    terms = sorted(
        (i, j, k, c) for i in range(a.dim) for j in range(a.dim) for k, c in a.mult_terms(i, j) if c
    )
    assert np.stack(first, axis=1).tolist() == [list(t) for t in terms]
    for arr in first:
        with pytest.raises(ValueError):
            arr[:1] = 0


def test_pairwise_products_across_row_blocks():
    a = alg.smash_product(3, 2, 1)[0]  # d = 27: blocks of 2^18 // (27 * 27) = 359 rows
    rng = np.random.default_rng(27)
    u, v = rng.integers(0, 3, (800, a.dim)), rng.integers(0, 3, (3, a.dim))
    got = alg._pairwise_products(a, u, v)
    for s in range(0, 800, 7):
        assert np.array_equal(got[s], v @ a.left_mult_matrix(u[s]).T % 3)
    assert np.array_equal(got[-1], v @ a.left_mult_matrix(u[-1]).T % 3)


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_span_products_commutators_and_ideal_closure_match_the_loops(case):
    a = PRODUCT_CASES[case]()
    p, d = a.p, a.dim
    eye = np.eye(d, dtype=np.int64)
    comm = [loop_product(a, x, y) - loop_product(a, y, x) for x in eye for y in eye]
    assert alg.commutator_subspace(a) == Subspace.from_vectors(comm, p, d)
    rng = np.random.default_rng(d)
    s1 = Subspace.from_vectors(rng.integers(0, p, (3, d)), p, d)
    s2 = Subspace.from_vectors(rng.integers(0, p, (2, d)), p, d)
    prods = [loop_product(a, u, v) for u in s1.basis for v in s2.basis]
    assert alg._span_products(a, s1, s2) == Subspace.from_vectors(prods, p, d)
    gen = rng.integers(0, p, (1, d)) * (1 - a.unit)  # usually a proper ideal
    span = Subspace.from_vectors(gen, p, d)
    while True:  # the closure one vector at a time
        rows = list(span.basis)
        for w in span.basis:
            rows += [loop_product(a, w, e) for e in eye] + [loop_product(a, e, w) for e in eye]
        grown = Subspace.from_vectors(rows, p, d)
        if grown == span:
            break
        span = grown
    assert alg._ideal_closure(a, gen) == span
