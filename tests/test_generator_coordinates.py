"""Coordinates in sub- and quotient structures against the code they replaced.

The first oracle is a copy of the earlier d^2 form of ``hh1``: Der as the
RREF of the solved maps in vec(F) coordinates, IDer as the RREF of the ad
e_i, the pivot complement read off both, and the tables projected on
d^2-column subspaces.  Only the kernel of the Leibniz system is shared.

The second part copies the per-pair solvers that ``coords_rows`` and the
batched table builders replaced (quotient and block algebras, sub- and
quotient Lie algebras, ``lie_from_matrices``, the p-envelope and its Fitting
split, the centre) and compares every table with them.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import Hh1LieError
from hh1lie.gfp import INT, Subspace
from oracles import (
    bracket_vec,
    element_analysis,
    is_p_nilpotent_element,
    mult_terms,
    old_coords,
    old_p_envelope,
    quotient_basis,
    whole,
)


def d2_derivations(a):
    """Canonical RREF basis of the solved space (Der(A) when a carries E = {1}) in vec(F) coordinates, as rows."""
    d, p = a.dim, a.p
    space = hoch.DerivationSpace(a)
    ker, (fe, unk, val) = space.der.basis, space.phi.triplets
    fvecs = np.zeros((d * d, ker.shape[0]), dtype=INT)
    gfp.scatter_add(fvecs, fe, val, np.ascontiguousarray(ker.T), unk)
    return gfp.row_space(fvecs.T % p, p)


def d2_hh1(a):
    """The d^2 presentation: dims, bases, complement, labels and tables."""
    p, d = a.p, a.dim
    der = Subspace.from_vectors(d2_derivations(whole(a)), p, d * d)
    ad = np.vstack([((a.left_mult_matrix(e) - a.right_mult_matrix(e)) % p).reshape(-1) for e in np.eye(d, dtype=int)])
    ider = Subspace.from_vectors(ad, p, d * d)
    assert not der.reduce_rows(ider.basis).any()
    pivots = set(ider.pivots)
    pivot_comp = np.array([row for row, c in zip(der.basis, der.pivots) if c not in pivots], dtype=INT)
    pivot_comp = pivot_comp.reshape(-1, d * d)
    if a.descriptor is not None:
        exps = a.descriptor.outer_exponents()
        reps = np.vstack([hoch.named_outer(a.descriptor, 0, j, a).matrix.reshape(-1) for j in exps])
        labels = [f"g[0,{j}]" for j in exps]
    else:
        reps, labels = pivot_comp, [f"h{i}" for i in range(len(pivot_comp))]
    h = reps.shape[0]
    btab, ptab = np.zeros((h, h, h), dtype=INT), np.zeros((h, h), dtype=INT)
    if h:
        resid = ider.reduce_rows(reps)
        _, rank, piv = gfp.rref(resid, p)
        assert rank == h
        solver = gfp.inverse(resid[:, piv], p)
        stack = reps.reshape(h, d, d)
        comm = np.stack([(x @ y - y @ x) % p for x in stack for y in stack]).reshape(h * h, -1)
        powers = np.stack([gfp.mat_pow(x, p, p) for x in stack]).reshape(h, -1)
        rv = ider.reduce_rows(np.vstack([comm, powers]))
        coords = rv[:, piv] @ solver % p
        assert not ((rv - coords @ resid) % p).any()
        btab, ptab = coords[: h * h].reshape(h, h, h), coords[h * h :]
    return {
        "der": der.basis,
        "der_pivots": list(der.pivots),
        "ider": ider.basis,
        "pivot_comp": pivot_comp,
        "reps": reps,
        "labels": labels,
        "btab": btab,
        "ptab": ptab,
    }


CASES = {
    "smash-3-2-1": lambda: alg.smash_product(3, 2, 1)[0],
    "smash-5-2-1": lambda: alg.smash_product(5, 2, 1)[0],
    "u0borel-3-2": lambda: alg.u0_borel(3, 2),
    "trunc-3-2-1": lambda: alg.truncated_polynomial(3, (2, 1)),
    "trunc-5-2": lambda: alg.truncated_polynomial(5, (2,)),
    "trivext-5": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)),
    "quiver-7": lambda: alg.quiver_algebra(alg.tkr_quiver(), 7),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hh1_matches_the_d2_pipeline(case):
    a = CASES[case]()
    want = d2_hh1(a)
    h = hoch.hh1(a)
    # all of Der is the solve with E = {1}: hh1's own space when the algebra carries no other E
    one = whole(a)
    space = hoch._derivation_space(one)
    assert (space is h.space) == (one is a)
    d2 = a.dim**2
    assert space.nv == (d2 if a.generators is None else len(a.generators) * a.dim)
    assert (h.dim_der, h.dim_ider, h.dim) == (
        len(want["der"]),
        len(want["ider"]),
        len(want["reps"]),
    )
    assert space.pivots == want["der_pivots"]
    assert np.array_equal(space.matrices(space.basis).reshape(-1, d2), want["der"])
    ider = space.matrices(space.inner()[0]).reshape(-1, d2)
    assert np.array_equal(ider, want["ider"])
    comp = [i for i in range(space.dim) if i not in set(space.inner()[1])]
    assert np.array_equal(space.matrices(space.basis[comp]).reshape(-1, d2), want["pivot_comp"])
    reps = np.array([f.matrix.reshape(-1) for f in h.complement_basis], dtype=INT).reshape(-1, d2)
    assert np.array_equal(reps, want["reps"])
    assert h.complement_labels == want["labels"]
    assert np.array_equal(h.bracket_table, want["btab"])
    assert np.array_equal(h.pmap_table, want["ptab"])
    # g is the identity on the generator-coordinate basis after phi
    for sp in (space, h.space):
        assert np.array_equal(sp.gen_coords(sp.matrices(sp.basis)), sp.basis)


def test_derivation_space_is_the_d2_canonical_basis():
    for build in (CASES["smash-3-2-1"], CASES["trivext-5"]):
        a = build()
        got = np.array([f.matrix.reshape(-1) for f in hoch.derivation_space(a)], dtype=INT)
        assert np.array_equal(got, d2_derivations(whole(a)))


def test_streamed_pivots_do_not_depend_on_the_block_size(monkeypatch):
    # STREAM_CELLS sizes the Leibniz row blocks that _span_echelon adds; the
    # smash products are solved both relative to their idempotents and with E = {1}
    for case in ("smash-3-2-1", "u0borel-3-2", "smash-5-2-1"):
        built = CASES[case]()
        for a in dict.fromkeys((built, whole(built))):
            want = d2_derivations(a)
            for cells in (1, 27, 1 << 10):
                monkeypatch.setattr(hoch, "STREAM_CELLS", cells)
                space = hoch.DerivationSpace(a)
                assert np.array_equal(space.matrices(space.basis).reshape(len(want), -1), want)
            monkeypatch.undo()


# -- structure tables on sub- and quotient spaces ------------------------------


def old_mul_vec(a, u, v):
    """The product through the table terms, one basis pair at a time."""
    out = np.zeros(a.dim, dtype=INT)
    for i in np.nonzero(u)[0]:
        for j in np.nonzero(v)[0]:
            for k, c in mult_terms(a, int(i), int(j)):
                out[k] += u[i] * v[j] * c
    return out % a.p


def old_fixed_basis_coords(stack, p, skip, error):
    """The hand-rolled pivot solver: coordinates in the rows of stack, minus the first skip."""
    _, rank, piv = gfp.rref(stack, p)
    assert rank == stack.shape[0]
    solver = gfp.inverse(stack[:, piv], p)

    def coords(v):
        v = np.asarray(v, dtype=INT).reshape(-1) % p
        c = v[list(piv)] @ solver % p
        if ((v - c @ stack) % p).any():
            raise error
        return c[skip:]

    return coords


def table_triples(m, product, coords):
    return [
        [s, t, k, int(c)]
        for s in range(m)
        for t in range(m)
        for k, c in enumerate(coords(product(s, t)))
        if c
    ]


def old_quotient_algebra(a, j):
    """Triples and unit of A/J as the per-pair quotient construction gave them."""
    comp = quotient_basis(Subspace.full(a.dim, a.p), j)
    reps = np.vstack(comp) if comp else np.zeros((0, a.dim), dtype=INT)
    stack = np.vstack([j.basis, reps]) if j.dim else reps
    coords = old_fixed_basis_coords(stack, a.p, j.dim, AssertionError())
    triples = table_triples(len(reps), lambda s, t: old_mul_vec(a, reps[s], reps[t]), coords)
    return triples, coords(a.unit)


@pytest.mark.parametrize("p, exps", [(3, (2,)), (5, (1, 1))])
def test_quotient_algebra_matches_the_pivot_solver(p, exps):
    a = alg.truncated_polynomial(p, exps)
    j = Subspace.from_vectors(gfp.kernel(a.counit.reshape(1, -1), p), p, a.dim)
    for ideal in (j, alg._span_products(a, j, j)):
        q = alg._quotient_algebra(a, ideal)
        triples, unit = old_quotient_algebra(a, ideal)
        assert q.dim == a.dim - ideal.dim
        assert q.mult_triples() == triples
        assert np.array_equal(q.unit, unit)
        assert q.labels == [f"q{i}" for i in range(q.dim)]


def old_block_decomposition(a):
    """The block algebras as JSON, from per-pair products and coordinates."""
    p, d = a.p, a.dim
    eye = np.eye(d, dtype=INT)

    def algebra_on(sub, unit, labels, name):
        rows = sub.basis
        product = lambda s, t: old_mul_vec(a, rows[s], rows[t])  # noqa: E731
        prods = table_triples(sub.dim, product, lambda w: old_coords(sub, w))
        mult = {}
        for s, t, k, c in prods:
            mult.setdefault((s, t), []).append((k, c))
        return alg.make_algebra(p, labels, mult, old_coords(sub, unit), name=name)

    z = alg.center(a)
    zalg = algebra_on(z, a.unit, [f"z{i}" for i in range(z.dim)], "Z")
    blocks = []
    for ez in alg._split_primitive_idempotents(zalg):
        evec = ez @ z.basis % p
        left = np.stack([old_mul_vec(a, evec, e) for e in eye], axis=1)
        right = np.stack([old_mul_vec(a, e, evec) for e in eye], axis=1)
        sub = Subspace(p, d, gfp.row_space((left @ right % p).T, p))
        block = algebra_on(sub, evec, [a.labels[c] for c in sub.pivots], f"block({a.name})")
        blocks.append((evec, block.to_json_dict()))
    return blocks


@pytest.mark.parametrize("build", [lambda: alg.u0_borel(3, 1), lambda: alg.split_semisimple(3, 3)])
def test_block_decomposition_tables_match_the_pivot_solver(build):
    a = build()
    got = alg.block_decomposition(a)
    want = old_block_decomposition(a)
    assert len(got) == len(want) >= 1
    for (evec, block), (want_evec, want_json) in zip(got, want):
        assert np.array_equal(evec, want_evec)
        assert block.to_json_dict() == want_json


def old_sub_lie(L, sub):
    m = sub.dim
    bracket, pmap = np.zeros((m, m, m), dtype=INT), np.zeros((m, m), dtype=INT)
    for i in range(m):
        for j in range(m):
            bracket[i, j] = old_coords(sub, bracket_vec(L, sub.basis[i], sub.basis[j]))
        pmap[i] = old_coords(sub, lielib.jacobson_p_power(L, sub.basis[i]))
    return bracket, pmap


def old_quotient_lie(L, ideal):
    comp = quotient_basis(Subspace.full(L.dim, L.p), ideal)
    reps = np.vstack(comp) if comp else np.zeros((0, L.dim), dtype=INT)
    m = reps.shape[0]
    stack = np.vstack([ideal.basis, reps]) if ideal.dim else reps
    class_coords = old_fixed_basis_coords(stack, L.p, ideal.dim, AssertionError())
    bracket, pmap = np.zeros((m, m, m), dtype=INT), np.zeros((m, m), dtype=INT)
    for i in range(m):
        for j in range(m):
            bracket[i, j] = class_coords(bracket_vec(L, reps[i], reps[j]))
        pmap[i] = class_coords(lielib.jacobson_p_power(L, reps[i]))
    return bracket, pmap


@pytest.mark.parametrize("p", [3, 5])
def test_sub_and_quotient_lie_match_the_pivot_solver(p):
    wit = lielib.prop22_witness(p, (2,))
    L, ideal = wit.lie, wit.n_ideal
    sub = lielib.structure_on(L, ideal.basis, ideal.coords_rows)
    bracket, pmap = old_sub_lie(L, ideal)
    assert np.array_equal(sub.bracket, bracket) and np.array_equal(sub.pmap_basis, pmap)
    quo = lielib._quotient_lie(L, ideal)
    bracket, pmap = old_quotient_lie(L, ideal)
    assert np.array_equal(quo.bracket, bracket) and np.array_equal(quo.pmap_basis, pmap)
    assert quo.labels == [f"q{i}" for i in range(L.dim - ideal.dim)]
    assert np.array_equal(wit.quotient.bracket, quo.bracket)


def old_lie_from_matrices(p, mats):
    flat = np.stack([np.asarray(m, dtype=INT).reshape(-1) % p for m in mats])
    coords = old_fixed_basis_coords(flat, p, 0, Hh1LieError("not closed"))
    n = len(mats)
    bracket, pmap = np.zeros((n, n, n), dtype=INT), np.zeros((n, n), dtype=INT)
    for i in range(n):
        mi = np.asarray(mats[i], dtype=INT) % p
        for j in range(n):
            mj = np.asarray(mats[j], dtype=INT) % p
            bracket[i, j] = coords((mi @ mj - mj @ mi) % p)
        pmap[i] = coords(gfp.mat_pow(mi, p, p))
    return bracket, pmap


@pytest.mark.parametrize("p", [3, 5, 7, 317])
def test_lie_from_matrices_matches_the_pivot_solver(p):
    e, h, f, i2 = [[0, 1], [0, 0]], [[1, 0], [0, p - 1]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]
    for L, mats in ((lielib.sl2(p), [e, h, f]), (lielib.gl2(p), [e, h, f, i2])):
        bracket, pmap = old_lie_from_matrices(p, mats)
        assert np.array_equal(L.bracket, bracket) and np.array_equal(L.pmap_basis, pmap)


def old_fitting_parts(L, x):
    """(semisimple, nilpotent) parts through the stacked kernel/image pivot solve."""
    p = L.p
    env, phi = old_p_envelope(L, x)
    m = env.dim
    phi_n = gfp.mat_pow(phi, m, p)
    ker, img = gfp.kernel(phi_n, p), gfp.row_space(phi_n.T, p)
    coords = old_fixed_basis_coords(np.vstack([ker, img]), p, 0, AssertionError())
    coeffs = coords(old_coords(env, x))
    nil_c = coeffs[: ker.shape[0]] @ ker % p
    ss_c = (old_coords(env, x) - nil_c) % p
    return ss_c @ env.basis % p, nil_c @ env.basis % p


def rng_rows(seed, p, shape):
    return np.random.default_rng(seed).integers(0, p, shape)


def hh1_lie(a):
    return lielib.from_hh1(hoch.hh1(a))


def tkr(p):
    return alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), p))


@pytest.mark.parametrize(
    "build",
    [
        lambda: (hh1_lie(tkr(3)), lielib._all_vectors_batch(3, 4)[1:]),
        lambda: (hh1_lie(tkr(5)), rng_rows(5, 5, (60, 4))),
        # W(2) at p = 3 has elements whose nil part is not a canonical kernel row
        lambda: (hh1_lie(alg.truncated_polynomial(3, (1, 1))), rng_rows(1, 3, (60, 18))),
    ],
)
def test_p_envelope_and_element_analysis_match_the_pivot_solver(build):
    L, xs = build()
    for x in xs:
        if not x.any():
            continue
        env, phi = lielib.p_envelope(L, x)
        want_env, want_phi = old_p_envelope(L, x)
        assert env == want_env and np.array_equal(phi, want_phi)
        res = element_analysis(L, x)
        ss, nil = old_fitting_parts(L, x)
        assert np.array_equal(res["semisimple_part"], ss)
        assert np.array_equal(res["nilpotent_part"], nil)
        assert res["is_p_nilpotent"] == is_p_nilpotent_element(L, x)


def old_center_of(L):
    if L.dim == 0:
        return Subspace.zero(0, L.p)
    return Subspace.from_vectors(gfp.kernel(L.ad_basis().reshape(-1, L.dim), L.p), L.p, L.dim)


def old_centralizer(L, vectors):
    if not vectors:
        return Subspace.full(L.dim, L.p)
    stacked = np.vstack([L.ad(v) for v in vectors])
    return Subspace.from_vectors(gfp.kernel(stacked, L.p), L.p, L.dim)


def test_center_and_centralizer_match_their_copies():
    rng = np.random.default_rng(5)
    zero_dim = lielib.from_hh1(hoch.hh1(alg.split_semisimple(3, 3)))
    cases = [zero_dim, lielib.sl2(5), lielib.gl2(3), lielib.witt(3, 1), lielib.prop22_witness(3, (2,)).lie]
    for L in cases:
        got = lielib.center_of(L)
        assert got == old_center_of(L) and got.basis.shape == old_center_of(L).basis.shape
        assert got.pivots == old_center_of(L).pivots
        for n in range(3):
            vectors = list(rng.integers(0, L.p, (n, L.dim)))
            assert lielib._centralizer(L, vectors) == old_centralizer(L, vectors)
    assert lielib.center_of(zero_dim).basis.shape == (0, 0)


def test_non_members_raise_the_documented_errors():
    # a span that the commutator leaves: [e, f] = h
    with pytest.raises(Hh1LieError):
        lielib.lie_from_matrices(5, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], ["e", "f"])
    with pytest.raises(Hh1LieError):
        lielib.lie_from_matrices(5, [[[0, 1], [0, 0]], [[0, 2], [0, 0]]], ["e", "2e"])
    # a span that the p-map leaves: [[1, 1], [0, 1]]^5 is the identity
    with pytest.raises(Hh1LieError):
        lielib.lie_from_matrices(5, [[[1, 1], [0, 1]]], ["u"])
    # a subspace that is not a subalgebra
    L = lielib.sl2(5)
    with pytest.raises(ValueError):
        sub = Subspace.from_vectors([[1, 0, 0], [0, 0, 1]], 5, 3)
        lielib.structure_on(L, sub.basis, sub.coords_rows)
    # maps outside IDer + complement
    a = alg.smash_product(3, 2, 1)[0]
    h = hoch.hh1(a)
    bad = np.zeros((a.dim, a.dim), dtype=INT)
    bad[0, 0] = 1  # f(1) != 0, so not a derivation
    good = h.complement_basis[0].matrix
    with pytest.raises(ValueError):
        h.project_rows(bad[None])
    with pytest.raises(ValueError):
        h.project_rows(np.stack([good, bad]).reshape(2, -1))
    assert np.array_equal(h.project_rows(good.reshape(1, -1)), [[1] + [0] * (h.dim - 1)])
