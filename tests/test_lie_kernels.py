"""Batched kernels of hh1lie.lie, differentially against the slow paths."""

import itertools
import re

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import Hh1LieError
from hh1lie.gfp import INT, Subspace


def hh1_lie(algebra):
    return lielib.from_hh1(hoch.hh1(algebra))


def spin_oracle(mats, v, p):
    """Spin by re-applying every matrix to the whole span until it stops growing."""
    dim = v.shape[0]
    stack = np.stack(mats)
    basis = gfp.row_space(v[None, :], p)
    while True:
        imgs = np.einsum("mab,kb->mka", stack, basis) % p
        grown = gfp.row_space(np.vstack([basis, imgs.reshape(-1, dim)]), p)
        if grown.shape[0] == basis.shape[0]:
            return Subspace(p, dim, grown)
        basis = grown


SPIN_CASES = {
    "witt32": lambda: lielib.witt(3, 2),
    "sl2-5": lambda: lielib.sl2(5),
    "gl2-3": lambda: lielib.gl2(3),
    "hh1-trunc3-11": lambda: hh1_lie(alg.truncated_polynomial(3, (1, 1))),
    "hh1-trunc3-2": lambda: hh1_lie(alg.truncated_polynomial(3, (2,))),
}


@pytest.mark.parametrize("name", sorted(SPIN_CASES))
def test_frontier_spin_matches_full_recompute(name):
    L = SPIN_CASES[name]()
    p, d = L.p, L.dim
    ads = L.ad_basis()
    # all ad matrices, their transposes (the dual module) and a pair of them,
    # which leaves proper invariant subspaces even in a simple algebra
    families = [ads, ads.transpose(0, 2, 1), ads[:2], ads[1:2]]
    rng = np.random.default_rng(sum(map(ord, name)))
    starts = [np.eye(d, dtype=INT)[i] for i in range(d)]
    starts += [rng.integers(0, p, d) for _ in range(6)]
    sizes, generating = set(), 0
    for mats in families:
        op = lielib._spin_operator(mats)
        plain = [lielib._spin(op, v, p) for v in starts]
        gens = [v for v, span in zip(starts, plain) if span.dim == d]
        generating += len(gens)
        for v, got in zip(starts, plain):
            assert got == spin_oracle(list(mats), v, p)
            sizes.add(got.dim)
            # known generators end only full spins early: every span is the same
            for known in ([], np.zeros((0, d), dtype=INT), gens, gens[::-1][:2]):
                assert lielib._spin(op, v, p, known) == got
    assert min(sizes) < d  # proper spans were exercised, not only full ones
    assert generating  # and full ones, so the known generators were used


def test_spin_of_zero_and_of_full_span():
    L = lielib.sl2(3)
    op = lielib._spin_operator(L.ad_basis())
    assert lielib._spin(op, np.zeros(3, dtype=INT), 3).dim == 0
    assert lielib._spin(op, np.array([1, 0, 0]), 3) == Subspace.full(3, 3)


PAIRWISE_CASES = {
    "smash331": lambda: hh1_lie(alg.smash_product(3, 3, 1)[0]),
    "witt32": lambda: lielib.witt(3, 2),
    "gl2-5": lambda: lielib.gl2(5),
    "trivext5": lambda: hh1_lie(alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5))),
}


@pytest.mark.parametrize("name", sorted(PAIRWISE_CASES))
def test_pairwise_brackets_match_bracket_vec(name):
    L = PAIRWISE_CASES[name]()
    rng = np.random.default_rng(3)
    a = rng.integers(0, L.p, (5, L.dim))
    b = np.vstack([np.eye(L.dim, dtype=INT), rng.integers(0, L.p, (4, L.dim))])
    got = lielib._pairwise_brackets(L, a, b)
    assert got.shape == (5, b.shape[0], L.dim) and got.dtype == INT
    for s, t in itertools.product(range(5), range(b.shape[0])):
        assert np.array_equal(got[s, t], L.bracket_vec(a[s], b[t]))


def test_pairwise_brackets_match_python_ints_at_p251():
    p, d = 251, 9
    rng = np.random.default_rng(251)
    c = rng.integers(0, p, (d, d, d))
    L = lielib.RestrictedLie(p, c, np.zeros((d, d), dtype=INT), validate=False)
    a = np.vstack([np.full(d, p - 1), rng.integers(0, p, (3, d))])
    b = np.vstack([np.full(d, p - 1), rng.integers(0, p, (4, d))])
    got = lielib._pairwise_brackets(L, a, b)
    cl = c.tolist()
    for s, t in itertools.product(range(a.shape[0]), range(b.shape[0])):
        x, y = a[s].tolist(), b[t].tolist()
        want = [
            sum(x[i] * y[j] * cl[i][j][k] for i in range(d) for j in range(d)) % p
            for k in range(d)
        ]
        assert got[s, t].tolist() == want
    sl2 = lielib.sl2(p)
    e, h, f = np.eye(3, dtype=INT)
    assert np.array_equal(sl2.bracket_vec(e, f), h)
    assert np.array_equal(sl2.bracket_vec(h, e), 2 * e)


JACOBSON_CASES = {
    "hh1-tkr7": lambda: hh1_lie(alg.quiver_algebra(alg.tkr_quiver(), 7)),
    "gl2-3": lambda: lielib.gl2(3),
    "sl2-5": lambda: lielib.sl2(5),
}


@pytest.mark.parametrize("name", sorted(JACOBSON_CASES))
def test_jacobson_batch_matches_single_element_p_map(name):
    L = JACOBSON_CASES[name]()
    vectors = lielib._all_vectors_batch(L.p, L.dim)
    got = lielib._jacobson_batch(L, vectors)
    want = np.stack([lielib.jacobson_p_power(L, v) for v in vectors])
    assert np.array_equal(got, want)
    if lielib.center_of(L).dim:  # the enumerations go through the batch
        torals = [v for v, x in zip(vectors, want) if v.any() and np.array_equal(x, v)]
        assert [t.tolist() for t in lielib._toral_elements_exhaustive(L)] == [t.tolist() for t in torals]
        assert lielib._nullcone_count(L) == sum(not x.any() for x in want)


ABELIAN_CASES = {
    "zero-dim": lambda: lielib.RestrictedLie(3, np.zeros((0, 0, 0), dtype=INT), np.zeros((0, 0), dtype=INT)),
    "abelian-1": lambda: lielib.RestrictedLie(3, np.zeros((1, 1, 1), dtype=INT), np.eye(1, dtype=INT)),
    "abelian-3": lambda: lielib.RestrictedLie(5, np.zeros((3, 3, 3), dtype=INT), np.zeros((3, 3), dtype=INT)),
    "sl2-3": lambda: lielib.sl2(3),
    "gl2-3": lambda: lielib.gl2(3),
    "witt31": lambda: lielib.witt(3, 1),
    "smash321": lambda: hh1_lie(alg.smash_product(3, 2, 1)[0]),
    "hh1-trunc3-2": lambda: hh1_lie(alg.truncated_polynomial(3, (2,))),
}


@pytest.mark.parametrize("name", sorted(ABELIAN_CASES))
def test_is_simple_abelian_shortcut_matches_series(name):
    L = ABELIAN_CASES[name]()
    abelian = lielib.series_and_predicates(L)["is_abelian"]
    assert (not L.bracket.any()) == abelian
    if abelian:
        assert not lielib.is_simple(L)
        witness = lielib.adjoint_invariant_subspace(L)
        assert L.dim == 0 or witness.dim == 1


@pytest.mark.parametrize("seed", range(5))
def test_lazy_candidate_stream_matches_eager_list(seed):
    for L in (lielib.witt(3, 2), lielib.gl2(5)):
        mats = L.ad_basis()
        rng = np.random.default_rng(seed)
        eager = list(mats) + [lielib._random_env_element(mats, L.p, rng) for _ in range(400)]
        lazy = lielib._envelope_candidates(mats, L.p, seed, 400)
        # a partial read sees the eager prefix, and a full read all of it
        prefix = list(itertools.islice(lazy, L.dim + 7))
        rest = list(lazy)
        assert len(prefix) + len(rest) == len(eager)
        for got, want in zip(prefix + rest, eager):
            assert np.array_equal(got, want)


def jacobi_oracle(c, p):
    jac = np.einsum("jkm,imn->ijkn", c, c)
    jac = (jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))) % p
    bad = np.argwhere(jac.any(axis=3))
    return tuple(int(x) for x in bad[0]) if bad.size else None


def test_jacobi_check_reports_the_einsum_oracle_triple():
    rng = np.random.default_rng(11)
    p, d = 3, 5
    seen = 0
    for _ in range(40):
        c = rng.integers(0, p, (d, d, d))
        c = (c - c.transpose(1, 0, 2)) % p  # antisymmetric, rarely Jacobi
        triple = jacobi_oracle(c, p)
        if triple is None:
            continue
        seen += 1
        with pytest.raises(Hh1LieError, match=re.escape(f"Jacobi identity fails at triple {triple}")):
            lielib.RestrictedLie(p, c, np.zeros((d, d), dtype=INT))
    assert seen > 30


def full_tensor_jacobi_triple(c, p):
    """The Jacobi check on the whole (d, d, d, d) tensor at once."""
    cf = c.astype(np.float64)
    jac = np.tensordot(cf, cf, axes=(2, 1)).transpose(2, 0, 1, 3).astype(INT)
    jac += np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
    jac %= p
    bad = np.argwhere(jac.any(axis=3))
    return tuple(int(x) for x in bad[0]) if bad.size else None


def jacobi_error(c, p):
    """The triple the sliced check in validate reports, or None."""
    try:
        lielib.RestrictedLie(p, c, np.zeros((c.shape[0],) * 2, dtype=INT))
    except Hh1LieError as exc:
        found = re.search(r"Jacobi identity fails at triple (\(.*\))", str(exc))
        if found:
            return tuple(int(x) for x in found.group(1).strip("()").split(","))
    return None


@pytest.mark.parametrize("p,d", [(3, 5), (5, 6), (7, 4)])
def test_sliced_jacobi_check_matches_the_full_tensor(p, d):
    rng = np.random.default_rng(p * 100 + d)
    for _ in range(40):
        c = rng.integers(0, p, (d, d, d))
        c = (c - c.transpose(1, 0, 2)) % p
        assert jacobi_error(c, p) == full_tensor_jacobi_triple(c, p)


def test_sliced_jacobi_check_reports_late_first_indices():
    # brackets only among the basis vectors from an offset on: every failing
    # triple starts at the offset or later, which the slicing must reach
    rng = np.random.default_rng(7)
    p, d = 5, 7
    firsts = set()
    for trial in range(40):
        off = 1 + trial % 4
        c = np.zeros((d, d, d), dtype=INT)
        block = rng.integers(0, p, (d - off,) * 3)
        c[off:, off:, off:] = (block - block.transpose(1, 0, 2)) % p
        want = full_tensor_jacobi_triple(c, p)
        assert jacobi_error(c, p) == want
        if want is not None:
            firsts.add(want[0])
    assert min(firsts) >= 1 and len(firsts) >= 3


def frontier_spin_oracle(op, v, p):
    """The frontier spin under every ad matrix, as it ran before the generator spin."""
    dim = op.shape[0]
    span = Subspace.from_vectors(list(np.reshape(v, (-1, dim))), p, dim)
    new = span.basis
    while span.dim < dim:
        imgs = (new.astype(np.float64) @ op).astype(INT) % p
        new = gfp.row_space(span.reduce_rows(imgs.reshape(-1, dim)), p)
        if not new.shape[0]:
            return span
        span = Subspace(p, dim, gfp.row_space(np.vstack([span.basis, new]), p))
    return Subspace.full(dim, p)


GENERATOR_CASES = {
    "witt32": lambda: lielib.witt(3, 2),
    "sl2-5": lambda: lielib.sl2(5),
    "gl2-3": lambda: lielib.gl2(3),
    "hh1-trunc3-21": lambda: hh1_lie(alg.truncated_polynomial(3, (2, 1))),
    "hh1-trunc3-3": lambda: hh1_lie(alg.truncated_polynomial(3, (3,))),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generator_spin_matches_the_all_ad_spin(name):
    L = GENERATOR_CASES[name]()
    p, d = L.p, L.dim
    ads = L.ad_basis()
    gens = ads[lielib._lie_generators(L)]
    rng = np.random.default_rng(sum(map(ord, name)))
    starts = [np.eye(d, dtype=INT)[i] for i in range(d)]
    starts += [rng.integers(0, p, d) for _ in range(6)]
    starts += [rng.integers(0, p, (2, d)) for _ in range(2)]  # several start rows at once
    sizes = set()
    for mats, gmats in ((ads, gens), (ads.transpose(0, 2, 1), gens.transpose(0, 2, 1))):
        op_all, op_gen = lielib._spin_operator(mats), lielib._spin_operator(gmats)
        for v in starts:
            got = lielib._spin(op_gen, v, p)
            assert got == frontier_spin_oracle(op_all, v, p)
            assert list(got.pivots) == [int(np.flatnonzero(row)[0]) for row in got.basis]
            sizes.add(got.dim)
    if name.startswith("hh1"):
        assert min(sizes) < d  # not simple: proper submodules were reached


def generated_subalgebra(L, indices):
    """Span of the basis elements at indices closed under the bracket, by bracket spans."""
    span = Subspace.from_vectors([np.eye(L.dim, dtype=INT)[i] for i in indices], L.p, L.dim)
    while True:
        grown = span.sum(lielib._bracket_span(L, span, span))
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_lie_generators_close_to_the_whole_algebra(name):
    L = GENERATOR_CASES[name]()
    gens = lielib._lie_generators(L)
    assert gens == sorted(set(gens)) and lielib._lie_generators(L) is gens  # built once
    assert generated_subalgebra(L, gens).dim == L.dim
    # greedy in basis order: each generator lies outside what the earlier ones generate
    for k, g in enumerate(gens):
        assert not generated_subalgebra(L, gens[:k]).contains_vector(np.eye(L.dim, dtype=INT)[g])
    if name == "hh1-trunc3-21":
        assert len(gens) == 6 < L.dim == 54


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_invariant_subspace_is_the_one_found_under_all_ad(name, monkeypatch):
    L = GENERATOR_CASES[name]()
    got = [lielib.adjoint_invariant_subspace(L, seed=s) for s in (0, 3)]
    monkeypatch.setattr(lielib, "_lie_generators", lambda L: list(range(L.dim)))
    want = [lielib.adjoint_invariant_subspace(L, seed=s) for s in (0, 3)]
    assert got == want
    assert (got[0] is None) == (name in ("witt32", "sl2-5"))


def test_fingerprint_enumerates_the_p_map_once(monkeypatch):
    calls = []
    enumerate_pmap = lielib._pmap_enumeration

    def counted(L):
        calls.append(L)
        return enumerate_pmap(L)

    monkeypatch.setattr(lielib, "_pmap_enumeration", counted)
    for L in (hh1_lie(alg.quiver_algebra(alg.tkr_quiver(), 7)), lielib.gl2(3), lielib.sl2(5)):
        calls.clear()
        fp = lielib.fingerprint(L)
        assert len(calls) == 1 and fp.nullcone_count is not None
        assert fp.mu_greedy == lielib.greedy_maximal_torus(L).dim
        assert len(calls) == 1  # the census is kept on L


def plain_invariant_subspace(L, seed=0, max_rounds=400):
    """adjoint_invariant_subspace on a nonabelian L, every spin run to its end."""
    d, p = L.dim, L.p
    mats = L.ad_basis()
    gen_mats = mats[lielib._lie_generators(L)]
    op, op_t = lielib._spin_operator(gen_mats), lielib._spin_operator(gen_mats.transpose(0, 2, 1))

    def dual_side(theta):
        for u in gfp.left_kernel(theta, p):
            span_t = lielib._spin(op_t, u, p)
            if span_t.dim == d:
                return None
            perp = Subspace.from_vectors(gfp.kernel(span_t.basis, p), p, d)
            if 0 < perp.dim < d:
                return perp
        raise Hh1LieError("transpose kernel vanished unexpectedly")

    fallback = None
    for theta in lielib._envelope_candidates(mats, p, seed, max_rounds):
        ker = gfp.kernel(theta, p)
        nullity = ker.shape[0]
        if nullity == 0 or nullity == d:
            continue
        for v in ker[:3]:
            span = lielib._spin(op, v, p)
            if span.dim < d:
                return span
        if nullity == 1:
            return dual_side(theta)
        if fallback is None and p**nullity <= 2000:
            fallback = (theta, ker, nullity)
    if fallback is not None:
        theta, ker, nullity = fallback
        for coeffs in lielib._iterate_vectors(p, nullity):
            v = gfp.matmul(coeffs, ker, p)
            if not v.any():
                continue
            span = lielib._spin(op, v, p)
            if span.dim < d:
                return span
        return dual_side(theta)
    raise Hh1LieError("irreducibility test did not reach a decision; increase max_rounds")


NORTON_CASES = {
    **GENERATOR_CASES,
    "hh1-trunc5-2": lambda: hh1_lie(alg.truncated_polynomial(5, (2,))),
    "hh1-tkr5": lambda: hh1_lie(alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5))),
    # reducible, yet decided on the dual side, after full spins were kept
    "hh1-smash321": lambda: hh1_lie(alg.smash_product(3, 2, 1)[0]),
    "hh1-u0borel32": lambda: hh1_lie(alg.u0_borel(3, 2)),
}


@pytest.mark.parametrize("name", sorted(NORTON_CASES))
def test_known_generators_leave_every_witness_unchanged(name):
    L = NORTON_CASES[name]()
    for seed in (0, 3):
        assert lielib.adjoint_invariant_subspace(L, seed=seed) == plain_invariant_subspace(L, seed=seed)


def scaled_rows(rows, p):
    """The distinct rows of a stack, each scaled to a leading 1."""
    out = {}
    for row in np.asarray(rows, dtype=INT):
        lead = int(row[np.flatnonzero(row)[0]])
        scaled = row * gfp.inv_mod(lead, p) % p
        out[scaled.tobytes()] = scaled
    return list(out.values())


@pytest.mark.parametrize("name", ["hh1-trunc3-21", "hh1-trunc3-3", "hh1-trunc5-2", "witt32"])
def test_every_known_row_generates_the_adjoint_module(name, monkeypatch):
    L = NORTON_CASES[name]()
    spin, seen = lielib._spin, {}

    def spy(op, starts, p, known=()):
        if len(known):
            seen[id(op)] = (op, np.array(known))  # the stack only grows
        return spin(op, starts, p, known)

    monkeypatch.setattr(lielib, "_spin", spy)
    for seed in (0, 3):
        lielib.adjoint_invariant_subspace(L, seed=seed)
    assert seen
    for op, known in seen.values():
        for row in scaled_rows(known, L.p):
            assert frontier_spin_oracle(op, row, L.p).dim == L.dim


def test_known_generators_cut_the_rref_calls_of_the_search(monkeypatch):
    L = NORTON_CASES["hh1-trunc3-21"]()
    calls = []
    rref = gfp.rref

    def counted(*args, **kwargs):
        calls.append(1)
        return rref(*args, **kwargs)

    monkeypatch.setattr(gfp, "rref", counted)
    monkeypatch.setattr(lielib, "rref", counted)
    assert lielib.adjoint_invariant_subspace(L, seed=0).dim == 36
    assert len(calls) < 1500  # 5,361 when every full spin runs to its end
