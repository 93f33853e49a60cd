"""Derivation spaces, named derivations, and the HH1 presentation."""

import itertools

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import checks
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import Hh1LieError, WellDefinednessFailure
from hh1lie.gfp import Subspace
from oracles import mult_terms, whole


def basis_vec(dim, i):
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


def vecs(ders):
    return np.vstack([f.matrix.reshape(-1) for f in ders])


def bracket(f, g):
    """The commutator f o g - g o f of two derivations of one algebra."""
    if f.algebra is not g.algebra:
        raise ValueError("bracket of derivations of different algebras")
    p = f.algebra.p
    m = (gfp.matmul(f.matrix, g.matrix, p) - gfp.matmul(g.matrix, f.matrix, p)) % p
    return hoch.Derivation(f.algebra, m)


def p_power(f):
    """The p-fold composition of a derivation, again a derivation in characteristic p."""
    return hoch.Derivation(f.algebra, gfp.mat_pow(f.matrix, f.algebra.p, f.algebra.p))


def project(h, f):
    """Class coordinates of one derivation: the one-map stack of ``project_rows``."""
    return h.project_rows(f.matrix[None])[0]


def ider_basis(h):
    """The canonical basis of IDer(A), as maps: the solver's own when the algebra carries E = {1}."""
    return hoch.inner_derivations(h.algebra)


# -- derivation spaces ------------------------------------------------------------


def test_der_dimension_truncated_one_variable_by_enumeration():
    # oracle: enumerate all 3^9 linear maps on k[x]/(x^3) and count those
    # satisfying Leibniz on every basis pair; expect 3^3 = 27 maps = dim 3
    a = alg.truncated_polynomial(3, (1,))
    count = 0
    for entries in itertools.product(range(3), repeat=9):
        m = np.array(entries, dtype=np.int64).reshape(3, 3)
        d = hoch.Derivation(a, m)
        if d.is_derivation():
            count += 1
    assert count == 3**3
    assert len(hoch.derivation_space(a)) == 3


def test_der_dimension_split_semisimple_zero():
    for m in (1, 2, 3):
        a = alg.split_semisimple(3, m)
        assert len(hoch.derivation_space(a)) == 0


def test_der_dimension_b2_matches_witt2():
    a = alg.truncated_polynomial(3, (1, 1))
    assert len(hoch.derivation_space(a)) == 2 * 3**2


def test_dense_and_generator_solvers_agree_exactly():
    cases = [
        alg.truncated_polynomial(3, (1,)),
        alg.truncated_polynomial(3, (2,)),
        alg.truncated_polynomial(3, (1, 1)),
        alg.smash_product(3, 1, 1)[0],
        alg.smash_product(3, 2, 1)[0],
        alg.smash_product(3, 1, 2)[0],
        alg.smash_product(5, 1, 1)[0],
        alg.u0_borel(3, 1),
        alg.u0_borel(3, 2),
        # with the above, every named-generator ladder algebra of d <= 32
        alg.truncated_polynomial(3, (2, 1)),
        alg.truncated_polynomial(3, (3,)),
        alg.truncated_polynomial(5, (2,)),
        alg.u0_borel(5, 1),
    ]
    for a in cases:
        # the same table with no generators: every basis vector is a generator
        dense = vecs(hoch.derivation_space(alg.Algebra(a.p, a.labels, a.structure_constants(), a.unit)))
        gen = vecs(hoch.derivation_space(a))
        assert np.array_equal(dense, gen), a.name


def test_every_solved_derivation_satisfies_leibniz():
    for a in (alg.smash_product(3, 2, 1)[0], alg.u0_borel(3, 1)):
        for f in hoch.derivation_space(a):
            assert f.is_derivation()


def test_inner_derivation_dimensions():
    a = alg.truncated_polynomial(3, (1, 1))
    assert len(hoch.inner_derivations(a)) == 0
    sm, _ = alg.smash_product(3, 2, 1)
    assert len(hoch.inner_derivations(sm)) == 27 - 3
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    assert len(hoch.inner_derivations(te)) == te.dim - alg.center(te).dim


def test_ider_is_ideal_in_der():
    sm, _ = alg.smash_product(3, 1, 1)
    ders = hoch.derivation_space(sm)
    iders = hoch.inner_derivations(sm)
    isub = Subspace.from_vectors(vecs(iders), 3, sm.dim**2)
    for f in ders:
        for g in iders:
            assert isub.contains_vector(bracket(f, g).matrix.reshape(-1))


def test_bracket_of_f_with_f_is_zero():
    sm, _ = alg.smash_product(3, 1, 1)
    for f in hoch.derivation_space(sm):
        assert not bracket(f, f).matrix.any()


def test_bracket_rejects_mixed_algebras():
    a1 = alg.truncated_polynomial(3, (1,))
    a2 = alg.truncated_polynomial(3, (1,))
    f = hoch.derivation_space(a1)[0]
    g = hoch.derivation_space(a2)[0]
    with pytest.raises(ValueError, match="different algebras"):
        bracket(f, g)


def test_bracket_and_ppower_preserve_leibniz_seeded():
    rng = np.random.default_rng(0)
    sm, _ = alg.smash_product(3, 2, 1)
    ders = hoch.derivation_space(sm)
    dmat = np.stack([f.matrix for f in ders])
    for _ in range(100):
        f = hoch.Derivation(sm, np.tensordot(rng.integers(0, 3, len(ders)), dmat, (0, 0)) % 3)
        g = hoch.Derivation(sm, np.tensordot(rng.integers(0, 3, len(ders)), dmat, (0, 0)) % 3)
        assert bracket(f, g).is_derivation()
        assert p_power(f).is_derivation()


def test_bracket_with_inner_is_inner_of_image():
    rng = np.random.default_rng(1)
    sm, _ = alg.smash_product(3, 2, 1)
    ders = hoch.derivation_space(sm)
    dmat = np.stack([f.matrix for f in ders])
    for _ in range(100):
        f = hoch.Derivation(sm, np.tensordot(rng.integers(0, 3, len(ders)), dmat, (0, 0)) % 3)
        a_vec = rng.integers(0, 3, sm.dim)
        ad_a = hoch.Derivation(
            sm, (sm.left_mult_matrix(a_vec) - sm.right_mult_matrix(a_vec)) % 3
        )
        fa = f(a_vec)
        ad_fa = (sm.left_mult_matrix(fa) - sm.right_mult_matrix(fa)) % 3
        assert np.array_equal(bracket(f, ad_a).matrix, ad_fa)


def leibniz_kernel_by_python_ints(a):
    """RREF kernel of the full Leibniz system, rows built with Python ints.

    Every basis pair (e_i, e_j) and output coordinate t gives one row; the
    zero rows and repeated rows are dropped before the kernel is taken.
    """
    d, p = a.dim, a.p
    m = [[[0] * d for _ in range(d)] for _ in range(d)]  # e_i e_j = sum m[i][j][t] e_t
    for i in range(d):
        for j in range(d):
            for t, c in mult_terms(a, i, j):
                m[i][j][t] = int(c)
    rows = set()
    for i in range(d):
        for j in range(d):
            for t in range(d):
                # unknown f[k][i] (F(e_i) = sum_k f[k][i] e_k) sits at k * d + i
                row = [0] * (d * d)
                for s_ in range(d):
                    row[t * d + s_] += m[i][j][s_]
                for k in range(d):
                    row[k * d + i] -= m[k][j][t]
                    row[k * d + j] -= m[i][k][t]
                row = tuple(x % p for x in row)
                if any(row):
                    rows.add(row)
    return gfp.kernel(np.array(sorted(rows), dtype=np.int64).reshape(-1, d * d), p)


@pytest.mark.parametrize("p", [3, 5])
def test_derivations_of_non_injective_table_match_python_int_system(p):
    # <1, a, b, c> with J^3 = 0 and a a = a b = c: left multiplication by a
    # sends two basis elements to the same target, so scatters need two layers
    mult = {(0, 0): [(0, 1)], (1, 1): [(3, 1)], (1, 2): [(3, 1)]}
    for x in (1, 2, 3):
        mult[(0, x)] = mult[(x, 0)] = [(x, 1)]
    a = alg.make_algebra(p, ["1", "a", "b", "c"], mult, basis_vec(4, 0))
    i, j = a.structure_constants()[:2]
    assert np.unique(i * a.dim + j).size == i.size  # monomial: one term per product
    assert a.mul_vec(basis_vec(4, 1), [0, 1, 1, 0]).tolist() == [0, 0, 0, 2]
    assert a.left_mult_matrix([0, 1, 0, 0])[3].tolist() == [0, 1, 1, 0]
    assert np.array_equal(vecs(hoch.derivation_space(a)), leibniz_kernel_by_python_ints(a))


@pytest.mark.parametrize(
    "build",
    [
        lambda: alg.smash_product(3, 2, 1)[0],
        lambda: alg.u0_borel(3, 2),
        lambda: alg.truncated_polynomial(3, (2, 1)),
        lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3)),
    ],
    ids=["smash321", "u0borel32", "trunc3-21", "tkr3"],
)
def test_derivation_space_matches_python_int_system(build):
    # the first three take the generator path, T(Kr) names no generators
    a = build()
    assert np.array_equal(vecs(hoch.derivation_space(a)), leibniz_kernel_by_python_ints(a))


def corrupted(a, i, j):
    """Copy of a monomial algebra with c_ij raised by one, not validated."""
    k = next((k for k, _ in mult_terms(a, i, j)), 0)  # the target of e_i e_j, or e_0 where it is 0
    terms = [np.r_[x, t] for x, t in zip(a.structure_constants(), (i, j, k, 1))]
    return alg.Algebra(a.p, a.labels, terms, a.unit, generators=a.generators, validate=False)


@pytest.mark.parametrize("i,j", [(22, 17), (13, 7), (4, 21)])
def test_corrupted_structure_constant_fails_the_honesty_check(i, j):
    # the generator pairs (e_i, s) no longer imply every pair on a
    # non-associative table, so the solved maps fail the all-pairs check
    bad = corrupted(alg.smash_product(3, 2, 1)[0], i, j)
    with pytest.raises(Hh1LieError, match="all-pairs check"):
        hoch.derivation_space(bad)


def test_missing_leibniz_rows_fail_the_generator_check(monkeypatch):
    # a solver that loses every pair equation keeps only f(1) = 0 and returns
    # too large a kernel; the generator blocks of the honesty check see it
    # (the system is so redundant that dropping one generator's equations,
    # or every other row, still gives Der(A) here).  Solved with E = {1}:
    # relative to the u_lambda every value in W extends to a derivation, so
    # the pair rows carry nothing there and no check could fire
    a = whole(alg.smash_product(3, 3, 1)[0])
    assert a.dim > hoch.DENSE_SOLVER_LIMIT
    full = hoch._leibniz_terms

    def unit_rows_only(phi):
        eq, unk, coef = full(phi)
        keep = eq < phi.algebra.dim
        return eq[keep], unk[keep], coef[keep]

    monkeypatch.setattr(hoch, "_leibniz_terms", unit_rows_only)
    with pytest.raises(Hh1LieError, match="non-derivation"):
        hoch.derivation_space(a)


def test_all_pairs_check_on_a_large_monomial_algebra_without_presentation():
    # every basis pair is checked, each R_s read as its table terms; no
    # right-multiplication matrix is built or cached on the algebra
    a, desc = alg.smash_product(5, 2, 1)
    b = alg.Algebra(a.p, a.labels, a.structure_constants(), a.unit, validate=False)
    assert b.dim == 125 and b.generators is None
    g = hoch.named_outer(desc, 0, 1, a).matrix
    assert hoch.Derivation(b, g).is_derivation()
    assert list(b._derivation_cache) == ["plans"]  # the scatter plans of the table terms, built once
    assert not hoch.Derivation(b, (g + generator_killer(a)) % 5).is_derivation()


def test_unit_check_rejects_a_map_that_passes_every_generator():
    # F(1) = x1^2 x2^2 x3^2 x4^2, the socle, and F = 0 elsewhere: F(m s) = 0 =
    # F(m) s + m F(s) for every monomial m and generator s, but F(1 1) != 2 F(1);
    # at dim 81 only the unit check of the shared Leibniz checker sees it
    a = alg.truncated_polynomial(3, (1, 1, 1, 1))
    assert a.dim > hoch.DENSE_SOLVER_LIMIT and a.generators is not None
    f = np.zeros((a.dim, a.dim), dtype=np.int64)
    f[a.dim - 1, 0] = 1
    assert not hoch._LeibnizPlan(a, a.generating_set()).fails(f[None])
    assert hoch._leibniz_failure(a, f[None]) == "produced a map with f(1) != 0"
    assert not hoch.Derivation(a, f).is_derivation()


def test_presentation_whose_generator_is_not_its_slot_fails_the_honesty_check(monkeypatch):
    # g(F) read on x + x^2 in place of the generator x: every solved map is a
    # derivation, but its value there is not the solved generator value, so
    # g(phi(y)) != y
    a = alg.truncated_polynomial(3, (1,))
    off_slot = np.array([0, 1, 1])
    monkeypatch.setattr(hoch.Extender, "gen_coords", lambda self, mats: np.asarray(mats) @ off_slot % 3)
    with pytest.raises(Hh1LieError, match="generator values do not determine"):
        hoch.derivation_space(a)


@pytest.mark.parametrize("gen", [[0, 1, 1], [0, 2, 0]], ids=["x+x^2", "2x"])
def test_a_generator_that_reaches_no_basis_element_is_rejected(gen):
    # neither is a basis vector, and 1 g is not one term with coefficient 1, so phi has no step
    a = alg.truncated_polynomial(3, (1,))
    gens = (np.array(gen),)
    b = alg.Algebra(a.p, a.labels, a.structure_constants(), a.unit, generators=gens, validate=False)
    with pytest.raises(Hh1LieError, match=r"do not reach basis element 1 \(x1\)"):
        hoch.derivation_space(b)


def test_a_step_product_that_is_not_one_term_with_coefficient_1_is_rejected():
    # u_0 x * u_2 x is the only nonzero part of (u_0 x) x = u_0 x^2: with a
    # stray term before or after u_0 x^2, or coefficient 2, no step reaches it
    sm, desc = alg.smash_product(3, 1, 1)
    i, j = desc.index(0, 1), desc.index(2, 1)
    for stray in (desc.index(0, 0), desc.index(2, 2), desc.index(0, 2)):
        terms = [np.r_[x, t] for x, t in zip(sm.structure_constants(), (i, j, stray, 1))]
        bad = alg.Algebra(3, sm.labels, terms, sm.unit, generators=sm.generators, validate=False)
        with pytest.raises(Hh1LieError, match=r"do not reach basis element 2 \(u0\*x\^2\)"):
            hoch.extender(bad)


def old_smash_presentation(p, n, r):
    """The hand-written smash slots and steps.

    u_lam is in slot lam and x in slot p^r; u_lam x^j = (u_lam x^(j-1)) x.
    """
    desc = alg.SmashDescriptor(p, n, r)
    nc = desc.n_chars
    base_gen = {(desc.index(lam, 0), lam) for lam in range(nc)}
    steps = {
        (desc.index(lam, j), desc.index(lam, j - 1), nc) for j in range(1, desc.x_bound) for lam in range(nc)
    }
    return alg.smash_product(p, n, r)[0], base_gen, steps


def old_u0_borel_presentation(p, n):
    """The hand-written u0(b) steps, x in slot 0 and t in 1.

    x^b t^a = (x^b t^(a-1)) t, and x^b = x^(b-1) x.
    """
    steps = set()
    for b in range(p**n):
        for a in range(p):
            if a >= 1:
                steps.add((b * p + a, b * p + a - 1, 1))
            elif b >= 1:
                steps.add((b * p, (b - 1) * p, 0))
    return alg.u0_borel(p, n), set(), steps


@pytest.mark.parametrize(
    "old, args",
    [(old_smash_presentation, pnr) for pnr in [(3, 2, 1), (3, 1, 2), (5, 2, 1)]]
    + [(old_u0_borel_presentation, pn) for pn in [(3, 2), (5, 1)]],
    ids=["smash-3-2-1", "smash-3-1-2", "smash-5-2-1", "u0borel-3-2", "u0borel-5-1"],
)
def test_derived_steps_match_the_hand_written_presentations(old, args):
    a, base_gen, steps = old(*args)
    # a hand-written step 1 g_t = e_k from a lone unit gave F(e_k) = v_t: the slot of g_t = e_k
    unit = np.flatnonzero(a.unit)
    from_unit = {(k, t) for k, parent, t in steps if unit.size == 1 and parent == unit[0]}
    phi = hoch.extender(a)
    slots = {(int(np.flatnonzero(g)[0]), t) for t, g in enumerate(phi.gens) if np.count_nonzero(g) == 1}
    assert slots == base_gen | from_unit
    assert set(phi.steps) == steps - {(k, unit[0], t) for k, t in from_unit}
    for target, parent, t in phi.steps:  # each a one-term, coefficient-1 product
        assert np.array_equal(a.mul_vec(basis_vec(a.dim, parent), phi.gens[t]), basis_vec(a.dim, target))


# -- named derivations ---------------------------------------------------------------


def test_named_inner_matches_ad():
    sm, desc = alg.smash_product(3, 2, 1)
    for lam in range(3):
        for j in range(9):
            d = hoch.named_inner(desc, lam, j, sm)
            v = basis_vec(sm.dim, desc.index(lam, j))
            ad = (sm.left_mult_matrix(v) - sm.right_mult_matrix(v)) % 3
            assert np.array_equal(d.matrix, ad)


def test_named_inner_value_on_x():
    sm, desc = alg.smash_product(3, 1, 1)
    d = hoch.named_inner(desc, 0, 1, sm)
    # d_(0,1)(x) = (u_0 - u_1) x^2
    want = basis_vec(9, desc.index(0, 2)) - basis_vec(9, desc.index(1, 2))
    assert np.array_equal(d(desc.x_vector()), want % 3)
    d_top = hoch.named_inner(desc, 0, 2, sm)
    assert not d_top(desc.x_vector()).any()  # j = p^n - 1


def test_named_inner_kills_idempotents_when_pr_divides_j():
    sm, desc = alg.smash_product(3, 2, 1)
    for lam in range(3):
        for j in (0, 3, 6):
            d = hoch.named_inner(desc, lam, j, sm)
            for mu in range(3):
                assert not d(basis_vec(sm.dim, desc.index(mu, 0))).any()


def test_named_inner_index_errors():
    _, desc = alg.smash_product(3, 1, 1)
    with pytest.raises(IndexError):
        hoch.named_inner(desc, 0, 3)
    with pytest.raises(IndexError):
        hoch.named_outer(desc, 0, 1)  # 1*3 + 1 = 4 > 2


def test_named_outer_values():
    sm, desc = alg.smash_product(3, 2, 1)
    g = hoch.named_outer(desc, 0, 0, sm)
    assert np.array_equal(g(desc.x_vector()), basis_vec(sm.dim, desc.index(0, 1)))
    for mu in range(3):
        assert not g(basis_vec(sm.dim, desc.index(mu, 0))).any()
    g1 = hoch.named_outer(desc, 0, 1, sm)
    assert np.array_equal(g1(desc.x_vector()), basis_vec(sm.dim, desc.index(0, 4)))


def test_named_outer_kills_x_power_pn():
    # applying the derivation along x, x^2, ... the top power maps to zero;
    # equivalent to the telescoping-orthogonality argument
    sm, desc = alg.smash_product(3, 2, 1)
    g = hoch.named_outer(desc, 0, 0, sm)
    x = desc.x_vector()
    # g(x^9) = sum_k x^(k-1) g(x) x^(9-k) computed term by term must vanish
    terms = []
    left = sm.unit.copy()
    for k in range(1, 10):
        right = sm.unit.copy()
        for _ in range(9 - k):
            right = sm.mul_vec(right, x)
        terms.append(sm.mul_vec(sm.mul_vec(left, g(x)), right))
        left = sm.mul_vec(left, x)
    assert not (sum(terms) % 3).any()


def test_named_outer_all_leibniz_at_criterion_params():
    for p, n, r in [(3, 1, 1), (3, 2, 1), (3, 1, 2)]:
        sm, desc = alg.smash_product(p, n, r)
        for lam in range(desc.n_chars):
            for j in desc.outer_exponents():
                g = hoch.named_outer(desc, lam, j, sm)
                assert g.is_derivation()


def old_named_outer(desc, lam, j, a):
    """The Leibniz loop named_outer ran before it went through phi, as a dense oracle.

    f(u_mu) = 0, and along u_mu x^k = (u_mu x^(k-1)) x,
    f(u_mu x^k) = f(u_mu x^(k-1)) x + u_mu x^(k-1) u_lam x^(j p^r + 1).
    """
    p, d = a.p, a.dim
    rx = a.right_mult_matrix(desc.x_vector())
    right_v = a.right_mult_matrix(gfp.basis_vector(d, desc.index(lam, j * p**desc.r + 1)))
    f = np.zeros((d, d), dtype=np.int64)
    for k in range(1, desc.x_bound):
        for mu in range(desc.n_chars):
            par = desc.index(mu, k - 1)
            f[:, desc.index(mu, k)] = (rx @ f[:, par] + right_v[:, par]) % p
    return f


@pytest.mark.parametrize(
    "p,n,r", [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (5, 2, 1), (7, 1, 1)]
)
def test_named_outer_is_phi_of_its_values_and_matches_the_old_loop(p, n, r):
    sm, desc = alg.smash_product(p, n, r)
    for lam in range(desc.n_chars):
        for j in desc.outer_exponents():
            want = old_named_outer(desc, lam, j, sm)
            assert np.array_equal(hoch.named_outer(desc, lam, j, sm).matrix, want)


def test_named_outer_without_a_stored_presentation():
    # phi along the descriptor's generators, on a copy of the table with none
    # and on the algebra built from an equal descriptor
    for p, n, r in [(3, 2, 1), (3, 1, 2)]:
        sm, desc = alg.smash_product(p, n, r)
        bare = alg.Algebra(p, sm.labels, sm.structure_constants(), sm.unit, validate=False)
        assert bare.generators is None
        for lam in range(desc.n_chars):
            for j in desc.outer_exponents():
                want = old_named_outer(desc, lam, j, sm)
                assert np.array_equal(hoch.named_outer(desc, lam, j, bare).matrix, want)
                fresh = hoch.named_outer(alg.SmashDescriptor(p, n, r), lam, j)  # builds its own algebra
                assert np.array_equal(fresh.matrix, want)


def test_named_outer_runs_no_derivation_solve(monkeypatch):
    def no_solve(a):
        raise AssertionError("Der(A) was solved")

    monkeypatch.setattr(hoch, "DerivationSpace", no_solve)
    sm, desc = alg.smash_product(3, 2, 1)
    hoch.named_outer(desc, 1, 1, sm)
    assert "der" not in sm._derivation_cache
    assert sm._derivation_cache["phi"] is hoch.extender(sm)
    monkeypatch.undo()
    assert hoch.hh1(sm).space.phi is hoch.extender(sm)  # the solver reads the same phi


def test_named_outer_values_that_extend_to_no_derivation_raise():
    sm, desc = alg.smash_product(3, 1, 1)
    # a stray u_0 on u_0 x * u_0 x makes the step (u_0 x) x = u_0 x^2 two terms,
    # and phi finds no other way to reach u_0 x^2
    bad = corrupted(sm, desc.index(0, 1), desc.index(0, 1))
    with pytest.raises(Hh1LieError, match=r"do not reach basis element 2 \(u0\*x\^2\)"):
        hoch.named_outer(desc, 0, 0, bad)
    # off the steps, on u_0 x^2 * u_0 x, phi of the weight values breaks Leibniz
    bad = corrupted(sm, desc.index(0, 2), desc.index(0, 1))
    assert set(hoch.extender(bad).steps) == set(hoch.extender(sm).steps)
    with pytest.raises(WellDefinednessFailure, match="lambda=0, j=0"):
        hoch.named_outer(desc, 0, 0, bad)


@pytest.mark.parametrize("i,j,first", [(0, 2, (0, 1)), (0, 20, (1, 0)), (1, 23, (1, 1))])
def test_weight_derivations_in_one_batch_fail_on_the_first_failing_pair(i, j, first):
    # one phi call and one Leibniz check for every pair; on a failure the
    # error names the first pair that fails alone, in the order given
    sm, desc = alg.smash_product(3, 2, 1)
    bad = corrupted(sm, i, j)
    pairs = [(lam, j0) for lam in range(desc.n_chars) for j0 in desc.outer_exponents()]
    for pair in pairs[: pairs.index(first)]:
        hoch.named_outer(desc, *pair, bad)
    with pytest.raises(WellDefinednessFailure):
        hoch.named_outer(desc, *first, bad)
    with pytest.raises(WellDefinednessFailure, match=rf"\(lambda={first[0]}, j={first[1]}\) failed"):
        hoch.named_outers(desc, pairs, bad)
    good = hoch.named_outers(desc, pairs, sm)
    assert all(np.array_equal(g.matrix, old_named_outer(desc, lam, j0, sm)) for (lam, j0), g in zip(pairs, good))


# -- complement and hh1 -----------------------------------------------------------------


def test_verify_complement_dimensions():
    # lemma-3.5 reads its report off the generator-coordinate spaces of hh1
    detail = checks.check_lemma_3_5(checks.SuiteContext(p=3))
    rep = detail["(p=3,n=2,r=1)"]
    assert rep["ok"]
    assert rep["h_size"] == 3
    assert rep["dim_der"] == 24 + 3
    rep = detail["(p=3,n=1,r=1)"]
    assert rep["ok"]
    assert rep["h_size"] == 1
    assert rep["dim_der"] == 8 + 1


def test_lemma_3_5_sees_a_shifted_difference_that_is_not_inner(monkeypatch):
    ctx = checks.SuiteContext(p=3)
    for n, r in checks._criterion3_params(3):
        ctx.smash_hh1(n, r)
    real = hoch.named_outers

    def doubled(desc, pairs, algebra=None):
        gs = real(desc, pairs, algebra)
        return [hoch.Derivation(g.algebra, 2 * g.matrix) if lam else g for (lam, _), g in zip(pairs, gs)]

    monkeypatch.setattr(hoch, "named_outers", doubled)
    with pytest.raises(checks.CheckFailure) as exc:
        checks.check_lemma_3_5(ctx)
    rep = exc.value.payload
    assert not rep["shifted_differences_inner"] and not rep["ok"]
    assert rep["spans"] and rep["independent"] and rep["trivial_intersection"]


@pytest.mark.parametrize(
    "fault,prop",
    [("identity", "closure (unit value)"), ("projection", "closure under bracket / p-power")],
)
def test_properties_check_rejects_an_injected_non_derivation(monkeypatch, fault, prop):
    # every drawn map phi(c basis) + ad(a) is replaced by one non-derivation:
    # the identity, with f(1) = 1, or the projection onto u_0 x, with
    # f(1) = 0 but f(x x) = 0 != f(x) x + x f(x) = (u_0 + u_1) x^2; the p-th
    # powers are the maps themselves, so the shared Leibniz checker sees each failure
    ctx = checks.SuiteContext(p=3)
    sm, desc = ctx.smash(2, 1)
    space = ctx.smash_hh1(2, 1).space  # Der_E: the draws add ad(a) to its maps
    f = np.eye(sm.dim, dtype=np.int64)
    if fault == "projection":
        f = np.diag(basis_vec(sm.dim, desc.index(0, 1)))
    assert hoch._leibniz_failure(sm, f[None])
    monkeypatch.setattr(space, "matrices", lambda rows: np.repeat(f[None], len(rows), axis=0))
    monkeypatch.setattr(sm, "ad_matrices", lambda vecs: np.zeros((len(vecs), sm.dim, sm.dim), dtype=np.int64))
    with pytest.raises(checks.CheckFailure) as exc:
        checks.check_properties(ctx)
    assert exc.value.payload == {"property": prop}


def test_properties_check_sees_one_map_that_breaks_ad_in_a_later_block(monkeypatch):
    # with the Leibniz check off, the fourth map of the second block of 8 is
    # drawn as the identity plus ad(b): [1 + ad b, ad a] = ad [b, a] differs
    # from ad (a + [b, a]) by ad a, nonzero off the centre, and no other map fails
    ctx = checks.SuiteContext(p=3)
    sm, _ = ctx.smash(2, 1)
    space = ctx.smash_hh1(2, 1).space  # Der_E: the draws add ad(b) to its maps
    real, calls = space.matrices, []

    def one_identity(rows):
        maps = real(rows)
        calls.append(len(rows))
        if len(calls) == 3:  # the second block's fs: blocks build fs, then gs
            maps[3] = np.eye(sm.dim, dtype=np.int64)
        return maps

    monkeypatch.setattr(hoch, "_leibniz_failure", lambda *args: None)
    monkeypatch.setattr(space, "matrices", one_identity)
    with pytest.raises(checks.CheckFailure) as exc:
        checks.check_properties(ctx)
    assert exc.value.payload == {"property": "[f, ad a] = ad f(a)"} and calls == [8, 8, 8, 8]


def test_properties_check_names_the_first_x_where_jacobson_and_composition_differ(monkeypatch):
    # the p-map is skewed on x = (0, 1, 2), first drawn as the 89th x, inside
    # the twelfth block of 8; the payload names it, and no later block is checked
    ctx = checks.SuiteContext(p=3)
    ctx.lie(ctx.smash_hh1(2, 1))
    real, seen = lielib._jacobson_batch, []

    def skewed(L, xs):
        seen.extend(xs.tolist())
        return (real(L, xs) + (xs == [0, 1, 2]).all(axis=1)[:, None]) % L.p

    monkeypatch.setattr(lielib, "_jacobson_batch", skewed)
    with pytest.raises(checks.CheckFailure) as exc:
        checks.check_properties(ctx)
    assert exc.value.payload == {"property": "jacobson vs composition", "x": [0, 1, 2]}
    assert seen.index([0, 1, 2]) == 88 and len(seen) == 96


def old_check_lemma_3_2(ctx):
    """``checks.check_lemma_3_2`` as it ran one element and one u_mu at a time, with ad e_i = L_i - R_i.

    An oracle of the order in which failures are found.
    """
    p, detail = ctx.p, {}
    for n in (1, 2):
        for r in (1, 2):
            if p ** (n + r) > 256:
                detail[f"(p={p},n={n},r={r})"] = "skipped (dimension)"
                continue
            a, desc = ctx.smash(n, r)
            nc, xb = desc.n_chars, desc.x_bound
            xvec = desc.x_vector()
            for lam in range(nc):
                for j in range(xb):
                    e = basis_vec(a.dim, desc.index(lam, j))
                    ad = (a.left_mult_matrix(e) - a.right_mult_matrix(e)) % p
                    for mu in range(nc):
                        got = ad @ basis_vec(a.dim, desc.index(mu, 0)) % p
                        coef = (int((mu + j * desc.alpha - lam) % nc == 0) - int(mu == lam)) % p
                        want = coef * basis_vec(a.dim, desc.index(lam, j)) % p
                        if not np.array_equal(got, want):
                            raise checks.CheckFailure({"params": (p, n, r), "lambda": lam, "j": j, "mu": mu})
                        if j % (p**r) == 0 and got.any():
                            raise checks.CheckFailure({"params": (p, n, r), "case": "p^r | j", "lambda": lam, "j": j})
                    got = ad @ xvec % p
                    want = np.zeros(a.dim, dtype=np.int64)
                    if j + 1 <= xb - 1:
                        want[desc.index(lam, j + 1)] = 1
                        want[desc.index((lam + desc.alpha) % nc, j + 1)] = p - 1
                    if not np.array_equal(got, want):
                        raise checks.CheckFailure({"params": (p, n, r), "case": "d(x)", "lambda": lam, "j": j})
                    if (j == xb - 1) != (not got.any()):
                        raise checks.CheckFailure({"params": (p, n, r), "case": "d(x)=0 iff j=p^n-1", "j": j})
            detail[f"(p={p},n={n},r={r})"] = "all indices"
    return detail


def outcome(check, ctx):
    try:
        return "pass", check(ctx)
    except checks.CheckFailure as exc:
        return "fail", exc.payload


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_stacked_lemma_3_2_fails_where_the_element_loop_failed(monkeypatch, n, r):
    # each of a few seeded corruptions of one smash table, and the lemma 3.1
    # fault, gives the same verdict and counterexample as the old loop
    ctx = checks.SuiteContext(p=3)
    sm, desc = ctx.smash(n, r)
    every = {f"(p=3,n={n0},r={r0})": "all indices" for n0 in (1, 2) for r0 in (1, 2)}
    assert outcome(checks.check_lemma_3_2, ctx) == outcome(old_check_lemma_3_2, ctx) == ("pass", every)
    rng = np.random.default_rng(n * 10 + r)
    faults = [corrupted(sm, *rng.integers(0, sm.dim, 2)) for _ in range(6)] + [ctx.faulty_smash(n, r)[0]]
    smash = ctx.smash
    for bad in faults:
        monkeypatch.setattr(ctx, "smash", lambda n0, r0, bad=bad: (bad, desc) if (n0, r0) == (n, r) else smash(n0, r0))
        got, want = outcome(checks.check_lemma_3_2, ctx), outcome(old_check_lemma_3_2, ctx)
        assert got == want


def old_check_lemma_3_1(ctx):
    """``checks.check_lemma_3_1`` as it ran one (lambda, mu) pair at a time through ``mul_vec``.

    An oracle of the order in which failures are found, and of their payloads.
    """
    p = ctx.p
    detail = {}
    for n in (1, 2):
        for r in (1, 2):
            if ctx.inject_fault == "lemma-3.1" and (n, r) == (1, 1):
                a, desc = ctx.faulty_smash(n, r)
            else:
                a, desc = ctx.smash(n, r)
            nc = desc.n_chars
            xvec = desc.x_vector()
            for lam in range(nc):
                ul = gfp.basis_vector(a.dim, desc.index(lam, 0))
                ulx = a.mul_vec(ul, xvec)
                for mu in range(nc):
                    um = gfp.basis_vector(a.dim, desc.index(mu, 0))
                    got = a.mul_vec(ulx, um)
                    want = (
                        a.mul_vec(xvec, um)
                        if (lam - mu - desc.alpha) % nc == 0
                        else np.zeros(a.dim, dtype=np.int64)
                    )
                    if not np.array_equal(got, want):
                        raise checks.CheckFailure(
                            {
                                "params": {"p": p, "n": n, "r": r},
                                "lambda": lam,
                                "mu": mu,
                                "got": got.tolist(),
                                "want": want.tolist(),
                            }
                        )
                shifted = a.mul_vec(xvec, gfp.basis_vector(a.dim, desc.index(lam - desc.alpha, 0)))
                if not np.array_equal(ulx, shifted):
                    raise checks.CheckFailure({"params": {"p": p, "n": n, "r": r}, "lambda": lam})
            detail[f"(p={p},n={n},r={r})"] = "all pairs"
    return detail


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_stacked_lemma_3_1_fails_where_the_pair_loop_failed(monkeypatch, p, n, r):
    # corruptions of the products u_lambda x (first, then the shift check
    # sees them), of (u_lambda x) u_mu and of x-free products, and the
    # injected fault, each give the old loop's verdict and counterexample
    ctx = checks.SuiteContext(p=p)
    sm, desc = ctx.smash(n, r)
    assert outcome(checks.check_lemma_3_1, ctx) == outcome(old_check_lemma_3_1, ctx)
    assert outcome(checks.check_lemma_3_1, ctx)[0] == "pass"
    rng = np.random.default_rng(p * 100 + n * 10 + r)
    nc = desc.n_chars
    pairs = [(desc.index(rng.integers(nc), 0), desc.index(rng.integers(nc), 1)) for _ in range(3)]
    pairs += [(desc.index(rng.integers(nc), 1), desc.index(rng.integers(nc), 0)) for _ in range(3)]
    pairs += [tuple(rng.integers(0, sm.dim, 2)) for _ in range(2)]
    faults = [corrupted(sm, i, j) for i, j in pairs]
    smash = ctx.smash
    for bad in faults:
        monkeypatch.setattr(ctx, "smash", lambda n0, r0, bad=bad: (bad, desc) if (n0, r0) == (n, r) else smash(n0, r0))
        assert outcome(checks.check_lemma_3_1, ctx) == outcome(old_check_lemma_3_1, ctx)
    monkeypatch.setattr(ctx, "smash", smash)
    ctx.inject_fault = "lemma-3.1"
    got = outcome(checks.check_lemma_3_1, ctx)
    assert got == outcome(old_check_lemma_3_1, ctx) and got[0] == "fail"


def test_shifted_outer_differences_are_inner():
    sm, desc = alg.smash_product(3, 2, 1)
    iders = hoch.inner_derivations(sm)
    isub = Subspace.from_vectors(vecs(iders), 3, sm.dim**2)
    for j in desc.outer_exponents():
        g0 = hoch.named_outer(desc, 0, j, sm)
        for i in range(1, desc.n_chars):
            gi = hoch.named_outer(desc, i, j, sm)
            assert isub.contains_vector((g0.matrix.reshape(-1) - gi.matrix.reshape(-1)) % 3)


def test_hh1_dimensions():
    assert hoch.hh1(alg.smash_product(3, 2, 1)[0]).dim == 3
    assert hoch.hh1(alg.smash_product(3, 1, 2)[0]).dim == 1
    assert hoch.hh1(alg.split_semisimple(3, 2)).dim == 0
    assert hoch.hh1(alg.split_semisimple(3, 3)).dim == 0


def test_hh1_commutative_has_all_classes_outer():
    a = alg.truncated_polynomial(3, (1, 1))
    h = hoch.hh1(a)
    assert h.dim_ider == 0
    assert h.dim == h.dim_der


def test_hh1_bracket_table_smash_321():
    h = hoch.hh1(alg.smash_product(3, 2, 1)[0])
    # [g_(0,i), g_(0,j)] = (j - i) g_(0,i+j), zero once i+j is out of range
    for i in range(3):
        for j in range(3):
            want = np.zeros(3, dtype=np.int64)
            if i + j < 3:
                want[i + j] = (j - i) % 3
            assert np.array_equal(h.bracket_table[i, j], want)
    assert np.array_equal(h.bracket_table[0, 1], [0, 1, 0])


def test_hh1_pmap_table_smash_321():
    h = hoch.hh1(alg.smash_product(3, 2, 1)[0])
    assert np.array_equal(h.pmap_table[0], [1, 0, 0])
    assert not h.pmap_table[1].any()
    assert not h.pmap_table[2].any()


BRACKET_LAW_GRID = [
    (3, 1, 1),
    (3, 2, 1),
    (3, 3, 1),
    (3, 1, 2),
    (3, 2, 2),
    (3, 3, 2),
    (5, 1, 1),
    (5, 2, 1),
    (5, 1, 2),
]


@pytest.mark.parametrize("p,n,r", BRACKET_LAW_GRID)
def test_bracket_law_as_operator_identity(p, n, r):
    # [g_(0,i), g_(0,j)] and (j-i) g_(0,i+j) agree on every idempotent and
    # on x, and both are derivations, so they are equal as matrices; the
    # product is zero once (i+j) p^r + 1 leaves the exponent range
    sm, desc = alg.smash_product(p, n, r)
    exps = desc.outer_exponents()
    gs = {j: hoch.named_outer(desc, 0, j, sm) for j in exps}
    d = sm.dim
    for i in exps:
        for j in exps:
            br = bracket(gs[i], gs[j]).matrix
            if i + j in gs:
                want = (j - i) % p * gs[i + j].matrix % p
            else:
                want = np.zeros((d, d), dtype=np.int64)
            assert np.array_equal(br, want), (p, n, r, i, j)


@pytest.mark.parametrize("p,n,r", [(3, 3, 1), (3, 2, 2)])
def test_hh1_tables_on_larger_grid(p, n, r):
    h = hoch.hh1(alg.smash_product(p, n, r)[0])
    hdim = h.dim
    assert hdim == (p ** (n - r) if n >= r else 1)
    for i in range(hdim):
        for j in range(hdim):
            want = np.zeros(hdim, dtype=np.int64)
            if i + j < hdim:
                want[i + j] = (j - i) % p
            assert np.array_equal(h.bracket_table[i, j], want)
    want_p = np.zeros((hdim, hdim), dtype=np.int64)
    want_p[0, 0] = 1
    assert np.array_equal(h.pmap_table, want_p)


def test_ppower_of_named_outer_classes():
    sm, desc = alg.smash_product(3, 2, 1)
    h = hoch.hh1(sm)
    g0 = hoch.named_outer(desc, 0, 0, sm)
    assert np.array_equal(project(h, p_power(g0)), project(h, g0))
    for j in (1, 2):
        gj = hoch.named_outer(desc, 0, j, sm)
        assert not project(h, p_power(gj)).any()


def test_ppower_of_inner_is_inner():
    sm, _ = alg.smash_product(3, 1, 1)
    h = hoch.hh1(sm)
    for f in ider_basis(h):
        assert not project(h, p_power(f)).any()


def test_hh1_representative_independence_seeded():
    rng = np.random.default_rng(42)
    sm, _ = alg.smash_product(3, 2, 1)
    h = hoch.hh1(sm)
    ider_flat = vecs(ider_basis(h))
    for _ in range(100):
        coeffs = rng.integers(0, 3, size=(h.dim, h.dim_ider))
        shifts = (coeffs @ ider_flat % 3).reshape(h.dim, sm.dim, sm.dim)
        reps = np.stack([(f.matrix + s) % 3 for f, s in zip(h.complement_basis, shifts)])
        btab, ptab = matrix_tables(reps, 3, h.project_rows)
        assert np.array_equal(btab, h.bracket_table)
        assert np.array_equal(ptab, h.pmap_table)


def matrix_tables(mats, p, coords_rows):
    """The d x d oracle: the tables from the products [X_i, X_j] and X_i^p themselves.

    ``coords_rows`` gives the coordinates of a stack of vectorized matrices;
    pairs i < j go in blocks of about 2^18 cells.
    """
    mats = gfp.normalize(mats, p)
    h, d = mats.shape[0], mats.shape[-1]
    bracket = np.zeros((h, h, h), dtype=np.int64)
    first, second = np.triu_indices(h, 1)
    step = max(1, (1 << 18) // max(d * d, 1))
    for s in range(0, first.size, step):
        i, j = first[s : s + step], second[s : s + step]
        comm = (gfp.matmul(mats[i], mats[j], p) - gfp.matmul(mats[j], mats[i], p)) % p
        bracket[i, j] = coords_rows(comm.reshape(i.size, d * d))
    bracket[second, first] = -bracket[first, second] % p
    return bracket, coords_rows(gfp.mat_pow(mats, p, p).reshape(h, d * d))


TABLE_LADDER = {
    "smash(3,2,1)": lambda: alg.smash_product(3, 2, 1)[0],
    "smash(5,2,1)": lambda: alg.smash_product(5, 2, 1)[0],
    "u0borel(3,2)": lambda: alg.u0_borel(3, 2),
    "trunc(3,(2,1))": lambda: alg.truncated_polynomial(3, (2, 1)),
    "trivext(Kr,5)": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)),
    "quiver(tkr,7)": lambda: alg.quiver_algebra(alg.tkr_quiver(), 7),
}


def dense_mult_tensors(a):
    """(L, R) with L[i] = L_(e_i) and R[i] = R_(e_i), summed term by term from the structure constants."""
    d, (i, j, k, c) = a.dim, a.structure_constants()
    left, right = np.zeros((d, d, d), dtype=np.int64), np.zeros((d, d, d), dtype=np.int64)
    np.add.at(left, (i, k, j), c)  # e_i e_j = c e_k: column j of L_i gets c e_k
    np.add.at(right, (j, k, i), c)  # and column i of R_j
    return left % a.p, right % a.p


@pytest.mark.parametrize("name", list(TABLE_LADDER))
def test_ad_matrices_match_the_per_element_left_minus_right(name):
    # on every basis element, on a seeded stack of elements (ad is linear) and on an empty stack
    a = TABLE_LADDER[name]()
    p, d = a.p, a.dim
    left, right = dense_mult_tensors(a)
    assert np.array_equal(a.ad_matrices(np.eye(d, dtype=np.int64)), (left - right) % p)
    stack = np.random.default_rng(d).integers(0, p, (5, d))
    stack[0] = p - 1
    want = np.einsum("si,ikj->skj", stack, left - right) % p
    assert np.array_equal(a.ad_matrices(stack), want)
    for v, ad in zip(stack, want):
        l_v, r_v = np.einsum("i,ikj->kj", v, left) % p, np.einsum("i,ikj->kj", v, right) % p
        assert np.array_equal(a.left_mult_matrix(v), l_v) and np.array_equal(a.right_mult_matrix(v), r_v)
        assert np.array_equal((l_v - r_v) % p, ad)
    assert a.ad_matrices(np.zeros((0, d), dtype=np.int64)).shape == (0, d, d)


@pytest.mark.parametrize("name", list(TABLE_LADDER))
def test_generator_tables_match_the_matrix_oracle(name):
    # on the first h representatives for h = 0, 1 (no pairs) and all of them,
    # then after seeded shifts from ad(C), whose values need no gen_coords;
    # the tables read the maps on W only, all of A when the algebra carries E = {1}
    a = TABLE_LADDER[name]()
    h = hoch.hh1(a)
    space = h.space
    p, comp = a.p, np.stack([f.matrix for f in h.complement_basis])
    values = space.gen_coords(comp)
    on_w = comp[:, space.window][:, :, space.window]
    assert np.array_equal(on_w, h._reps) and (space.window.size == a.dim) == (len(a.idempotents) == 1)
    for k in sorted({0, 1, h.dim}):
        got = hoch.generator_tables(on_w[:k], values[:k], p, h._classes.coords_rows)
        want = matrix_tables(comp[:k], p, h.project_rows)
        assert all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(got, want))
    assert np.array_equal(got[0], h.bracket_table) and np.array_equal(got[1], h.pmap_table)
    inner_rows = space.inner()[0]
    rng = np.random.default_rng(len(name))
    for _ in range(3):
        shifts = gfp.matmul(rng.integers(0, p, (h.dim, inner_rows.shape[0])), inner_rows, p)
        reps = comp + space.matrices(shifts)
        got = hoch.generator_tables(reps[:, space.window][:, :, space.window], values + shifts, p, h._classes.coords_rows)
        want = matrix_tables(reps, p, h.project_rows)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(got[0], h.bracket_table) and np.array_equal(got[1], h.pmap_table)


def test_hh1_of_an_arrowless_quiver_has_empty_tables():
    a = alg.quiver_algebra(alg.QuiverPresentation(("1", "2"), ()), 3)
    h = hoch.hh1(a)
    assert (h.dim_der, h.dim_ider, h.dim) == (0, 0, 0)
    assert h.bracket_table.shape == (0, 0, 0) and h.pmap_table.shape == (0, 0)


def test_a_complement_representative_corrupted_in_one_entry_is_rejected():
    # the presentation takes the representatives' generator values and checks
    # them once, on entry: one entry moved along a unit vector off Der_g
    # escapes (u0(b) has one: on the smash products every value in W extends)
    a = alg.u0_borel(3, 2)
    h = hoch.hh1(a)
    off = np.flatnonzero(h.space.der.reduce_rows(np.eye(h.space.nv, dtype=np.int64)).any(axis=1))
    bad = h._values.copy()
    bad[1, off[0]] = (bad[1, off[0]] + 1) % a.p
    with pytest.raises(Hh1LieError, match="complement representatives escape Der"):
        hoch.HH1Presentation(h.space, bad, h.complement_labels)
    hoch.HH1Presentation(h.space, h._values, h.complement_labels)  # the uncorrupted ones pass


def test_hh1_report_dict_shape():
    h = hoch.hh1(alg.smash_product(3, 2, 1)[0])
    rep = h.to_report_dict()
    assert rep["dim_der"] == 27 and rep["dim_ider"] == 24 and rep["dim_hh1"] == 3
    assert rep["complement_labels"] == ["g[0,0]", "g[0,1]", "g[0,2]"]
    assert len(rep["bracket_table"]) == 3
    assert len(rep["pmap_table"]) == 3


def test_der_closed_under_bracket_and_ppower_on_basis():
    sm, _ = alg.smash_product(3, 1, 1)
    ders = hoch.derivation_space(sm)
    span = Subspace.from_vectors(vecs(ders), 3, sm.dim**2)
    for f in ders:
        assert span.contains_vector(p_power(f).matrix.reshape(-1))
        for g in ders:
            assert span.contains_vector(bracket(f, g).matrix.reshape(-1))


def project_rows_dense(h, mat):
    """Class coordinates by elimination on every d^2 column, or None for a non-member."""
    p, n = h.p, h.algebra.dim ** 2
    comp = vecs(h.complement_basis)
    ider = Subspace.from_vectors(vecs(ider_basis(h)), p, n) if h.dim_ider else Subspace.zero(n, p)
    resid = (comp - comp[:, list(ider.pivots)] @ ider.basis) % p
    _, _, piv = gfp.rref(resid, p)
    rv = (mat - mat[:, list(ider.pivots)] @ ider.basis) % p
    coeffs = rv[:, piv] @ gfp.inverse(resid[:, piv], p) % p
    bad = ((rv - coeffs @ resid) % p).any(axis=1)
    return [None if b else c for b, c in zip(bad, coeffs)]


def generator_killer(a):
    """A nonzero map E with E s = 0 for every generator s."""
    free = np.flatnonzero(~np.stack(a.generators).any(axis=0))
    e = np.zeros((a.dim, a.dim), dtype=np.int64)
    e[:, free[0]] = 1
    return e


@pytest.mark.parametrize(
    "build",
    [
        lambda: alg.smash_product(3, 2, 1)[0],
        lambda: alg.truncated_polynomial(3, (1, 1)),
        lambda: alg.u0_borel(3, 2),
    ],
)
def test_support_restricted_projection_matches_dense(build):
    a = build()
    h = hoch.hh1(a)
    p, n = a.p, a.dim**2
    rng = np.random.default_rng(a.dim)
    ders = vecs(hoch.derivation_space(a))
    members = rng.integers(0, p, (5, ders.shape[0])) @ ders % p
    support = vecs(hoch.derivation_space(a)).any(axis=0)
    off = np.zeros(n, dtype=np.int64)
    off[np.flatnonzero(~support)[0]] = 1  # zero on every column a derivation reaches
    on = members[0].copy()
    on[np.flatnonzero(support)[0]] += 1
    # same generator values as a member, but not a derivation
    killed = (members[1] + generator_killer(a).reshape(-1)) % p
    candidates = [*members, rng.integers(0, p, n), off, on % p, killed]
    want = project_rows_dense(h, np.vstack(candidates))
    assert [w is None for w in want] == [False] * 5 + [True] * 4
    for row, expected in zip(candidates, want):
        if expected is None:
            with pytest.raises(ValueError, match="not in IDer"):
                h.project_rows(row[None, :])
        else:
            assert np.array_equal(h.project_rows(row[None, :])[0], expected)
    assert np.array_equal(h.project_rows(members), np.stack(want[:5]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: alg.smash_product(3, 2, 1)[0],
        lambda: alg.smash_product(5, 2, 1)[0],
        lambda: alg.truncated_polynomial(3, (2, 1)),
        lambda: alg.u0_borel(3, 2),
    ],
)
def test_membership_rejects_a_derivation_plus_a_generator_killer(build):
    # D + E has the generator values of the derivation D, so g(D + E) lies in
    # Der_g; only the check X = phi(g(X)) tells that D + E is not a derivation
    a = build()
    h = hoch.hh1(a)
    space = h.space
    d_mat = h.complement_basis[-1].matrix
    x = (d_mat + generator_killer(a)) % a.p
    assert not hoch.Derivation(a, x).is_derivation()
    assert np.array_equal(space.gen_coords(x), space.gen_coords(d_mat))
    assert not space.der.reduce_rows(space.gen_coords(x)).any()
    assert space.contains(d_mat[None]) and not space.contains(x[None])
    assert h.project_rows(d_mat[None]).any()
    with pytest.raises(ValueError, match="not in IDer"):
        h.project_rows(x[None])
