"""Batched kernels of hh1lie.lie, differentially against the slow paths."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import Hh1LieError
from hh1lie.gfp import INT, Subspace
from oracles import bracket_vec, old_graph_max_commuting_torus, old_p_envelope


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
        assert np.array_equal(got[s, t], bracket_vec(L, a[s], b[t]))


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
    assert np.array_equal(bracket_vec(sl2, e, f), h)
    assert np.array_equal(bracket_vec(sl2, h, e), 2 * e)


def recursive_p_power(L, x):
    """x^[p] by the Jacobson recursion on the first nonzero coordinate, one bracket at a time.

    (u+v)^[p] = u^[p] + v^[p] + sum s_i(u, v) where i s_i(u, v) is the
    coefficient of t^(i-1) in ad(t u + v)^(p-1)(u).
    """
    p = L.p
    x = gfp.normalize(x, p).reshape(-1)
    nz = np.nonzero(x)[0]
    if nz.size == 0:
        return np.zeros(L.dim, dtype=INT)
    i = int(nz[0])
    head = x[i] * L.pmap_basis[i] % p  # a^p = a in GF(p)
    if nz.size == 1:
        return head
    u = np.zeros(L.dim, dtype=INT)
    u[i] = x[i]
    v = x.copy()
    v[i] = 0
    total = (head + recursive_p_power(L, v)) % p
    poly = np.zeros((p, L.dim), dtype=INT)
    poly[0] = u
    for step in range(p - 1):
        nxt = np.zeros_like(poly)
        for deg in range(step + 1):
            if poly[deg].any():
                nxt[deg + 1] = (nxt[deg + 1] + bracket_vec(L, u, poly[deg])) % p
                nxt[deg] = (nxt[deg] + bracket_vec(L, v, poly[deg])) % p
        poly = nxt
    for s in range(1, p):
        if poly[s - 1].any():
            total = (total + gfp.inv_mod(s, p) * poly[s - 1]) % p
    return total


def recursive_p_nilpotent(L, x):
    y = gfp.normalize(x, L.p).reshape(-1)
    for _ in range(L.dim + 1):
        if not y.any():
            return True
        y = recursive_p_power(L, y)
    return not y.any()


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
    want = np.stack([recursive_p_power(L, v) for v in vectors])
    assert np.array_equal(got, want)
    for v, w in zip(vectors, want):
        assert np.array_equal(lielib.jacobson_p_power(L, v), w)
    if lielib.center_of(L).dim:  # the enumerations go through the batch
        torals = [v for v, x in zip(vectors, want) if v.any() and np.array_equal(x, v)]
        assert [t.tolist() for t in lielib._pmap_census(L)[0]] == [t.tolist() for t in torals]
        assert lielib._pmap_census(L)[1] == sum(not x.any() for x in want)


MIXED_CASES = {
    **JACOBSON_CASES,
    "hh1-trunc3-21": lambda: hh1_lie(alg.truncated_polynomial(3, (2, 1))),
}


def mixed_rows(p, d, rng):
    """Rows with 0, 1, 2 and all coordinates nonzero, shuffled into one stack."""
    rows = [np.zeros(d, dtype=INT)]
    for support in [1] * 4 + [2] * 6 + [d] * 4:
        row = np.zeros(d, dtype=INT)
        cols = rng.choice(d, size=min(support, d), replace=False)
        row[cols] = rng.integers(1, p, size=cols.size)
        rows.append(row)
    rows.append(np.eye(d, dtype=INT)[-1])  # its only nonzero entry is the last
    return np.stack(rows)[rng.permutation(len(rows))]


@pytest.mark.parametrize("name", sorted(MIXED_CASES))
def test_mixed_batch_matches_the_recursive_evaluator(name):
    L = MIXED_CASES[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    rows = mixed_rows(L.p, L.dim, rng)
    want = np.stack([recursive_p_power(L, x) for x in rows])
    assert np.array_equal(lielib._jacobson_batch(L, rows), want)
    dense = (rows != 0).all(axis=1)  # these rows are live at every column but the last
    assert dense.any() and np.array_equal(lielib._jacobson_batch(L, rows[dense]), want[dense])
    for x, w in zip(rows, want):
        assert np.array_equal(lielib.jacobson_p_power(L, x), w)
    assert lielib._jacobson_batch(L, rows[:0]).shape == (0, L.dim)


def witness_and_ideal_basis(p, exponents):
    wit = lielib.prop22_witness(p, exponents)
    return wit.lie, wit.n_ideal.basis


NILPOTENT_CASES = {
    **{name: lambda make=make: (make(), None) for name, make in JACOBSON_CASES.items()},
    "prop22-witness-3-2": lambda: witness_and_ideal_basis(3, (2,)),
}


@pytest.mark.parametrize("name", sorted(NILPOTENT_CASES))
def test_p_nilpotent_rows_match_the_recursive_evaluator(name):
    L, ideal_basis = NILPOTENT_CASES[name]()
    rows = mixed_rows(L.p, L.dim, np.random.default_rng(sum(map(ord, name))))
    if ideal_basis is not None:
        rows = np.vstack([ideal_basis, rows])
    nilpotent = [recursive_p_nilpotent(L, x) for x in rows]
    assert lielib._p_nilpotent_rows(L, rows).tolist() == nilpotent
    assert [lielib._p_nilpotent_rows(L, x[None])[0] for x in rows] == nilpotent
    assert any(nilpotent) and not all(nilpotent)


@pytest.mark.parametrize(
    "bad_nilpotent,bad_closure,message",
    [
        (3, None, "non-p-nilpotent basis element"),
        (None, 3, "not closed under the p-map"),
        (2, 2, "non-p-nilpotent basis element"),  # the same vector: nilpotency first
        (2, 1, "not closed under the p-map"),  # the first failing vector decides
        (1, 4, "non-p-nilpotent basis element"),
    ],
)
def test_prop22_witness_reports_the_first_failing_basis_vector(
    monkeypatch, bad_nilpotent, bad_closure, message
):
    ideal = lielib.prop22_witness(3, (2,)).n_ideal
    off_ideal = np.eye(ideal.ambient, dtype=INT)[np.setdiff1d(np.arange(ideal.ambient), ideal.pivots)[0]]
    batch = lielib._jacobson_batch

    def nilpotent_rows(L, xs):
        out = np.ones(len(xs), dtype=bool)
        if bad_nilpotent is not None:
            out[bad_nilpotent] = False
        return out

    def powers(L, xs):
        out = batch(L, xs)
        if bad_closure is not None:
            out[bad_closure] = (out[bad_closure] + off_ideal) % L.p
        return out

    monkeypatch.setattr(lielib, "_p_nilpotent_rows", nilpotent_rows)
    monkeypatch.setattr(lielib, "_jacobson_batch", powers)
    with pytest.raises(Hh1LieError, match=message):
        lielib.prop22_witness(3, (2,))


def old_monomial_derivation_matrix(algebra, exponents, alpha, k_var):
    """x^alpha d/dx_k on the monomial basis, entry by entry, as prop22_witness built it before phi."""
    p = algebra.p
    bounds = [p**a for a in exponents]
    index = {m: i for i, m in enumerate(itertools.product(*[range(b) for b in bounds]))}
    out = np.zeros((algebra.dim, algebra.dim), dtype=INT)
    for m, i in index.items():
        if m[k_var] == 0:
            continue
        shifted = tuple(e + alpha[v] - (1 if v == k_var else 0) for v, e in enumerate(m))
        if all(e < b for e, b in zip(shifted, bounds)):
            out[index[shifted], i] = m[k_var] % p
    return out


@pytest.mark.parametrize(
    "p,exps", [(3, (1,)), (3, (2,)), (3, (1, 1)), (3, (2, 1)), (5, (2,)), (5, (1, 1)), (7, (1,))]
)
def test_monomial_derivations_are_phi_of_their_values(p, exps):
    # phi of F(x_k) = x^alpha, zero on the other variables, for every alpha and k
    a = alg.truncated_polynomial(p, exps)
    phi = hoch.extender(a)
    monos = itertools.product(*[range(p**e) for e in exps])
    cases = [(i, alpha, k) for i, alpha in enumerate(monos) for k in range(len(exps))]
    values = np.zeros((len(cases), phi.nv), dtype=INT)
    for row, (i, _, k) in enumerate(cases):
        values[row, k * a.dim + i] = 1
    want = np.stack([old_monomial_derivation_matrix(a, exps, alpha, k) for _, alpha, k in cases])
    assert np.array_equal(phi.matrices(values), want)


@pytest.mark.parametrize("p", [3, 5])
def test_prop22_ideal_is_spanned_by_the_old_monomial_matrices(p):
    wit = lielib.prop22_witness(p, (2,))
    a = wit.presentation.algebra
    mats = [old_monomial_derivation_matrix(a, (2,), (e,), 0) for e in range(p, p * p)]
    rows = wit.presentation.project_rows(np.stack([m for m in mats if m.any()]))
    assert wit.n_ideal == Subspace.from_vectors(rows, p, wit.lie.dim)


def matrix_p_power_coords(kind, x, p):
    """Coordinates of M^p, in Python ints, for the matrix M with coordinates x.

    The basis is (e, h, f) for sl2 and (e, h, f, id) for gl2.
    """
    x = [int(c) for c in x] + [0] * (4 - len(x))
    e, h, f, i = x
    m = [[(h + i) % p, e], [f, (i - h) % p]]
    power = [[1, 0], [0, 1]]
    for _ in range(p):
        power = [[sum(power[r][k] * m[k][c] for k in range(2)) % p for c in range(2)] for r in range(2)]
    (a, b), (c, d) = power
    half = pow(2, -1, p)
    coords = [b, (a - d) * half % p, c, (a + d) * half % p]
    if kind == "sl2":
        assert coords[3] == 0
        return coords[:3]
    return coords


@pytest.mark.parametrize("p", [3, 5, 7, 191, 251, 317])
@pytest.mark.parametrize("kind", ["sl2", "gl2"])
def test_jacobson_p_map_matches_python_int_matrix_powers(kind, p):
    L = lielib.sl2(p) if kind == "sl2" else lielib.gl2(p)
    rng = np.random.default_rng(p)
    rows = np.vstack([
        np.eye(L.dim, dtype=INT),
        np.full((1, L.dim), p - 1, dtype=INT),
        rng.integers(0, p, (6, L.dim)),
        mixed_rows(p, L.dim, rng)[:6],
    ])
    want = [matrix_p_power_coords(kind, x, p) for x in rows]
    assert lielib._jacobson_batch(L, rows).tolist() == want
    for x, w in zip(rows[:4], want):
        assert lielib.jacobson_p_power(L, x).tolist() == w


def iterate_vectors(p, dim):
    """All vectors of GF(p)^dim in mixed-radix order, one at a time."""
    for start in range(p**dim):
        digits, x = [], start
        for _ in range(dim):
            digits.append(x % p)
            x //= p
        yield digits


@pytest.mark.parametrize("p,dim", [(3, 4), (5, 3), (7, 2), (3, 0)])
def test_all_vectors_batch_lists_the_mixed_radix_order(p, dim):
    assert lielib._all_vectors_batch(p, dim).tolist() == list(iterate_vectors(p, dim))


def old_projectivize(vectors, p):
    """One vector per line, scaled to a leading 1, one vector at a time, in order of first appearance."""
    seen = {}
    for v in vectors:
        lead = int(v[np.nonzero(v)[0][0]])
        canon = v * gfp.inv_mod(lead, p) % p
        seen.setdefault(canon.tobytes(), canon)
    return list(seen.values())


def old_max_commuting_toral_dim(L, torals):
    """The torus search as it was: the maximum dimension only."""
    p = L.p
    reps = old_projectivize(torals, p)
    n = len(reps)
    if n == 0:
        return 0
    mat = np.stack(reps)
    commute = ~lielib._pairwise_brackets(L, mat, mat).any(axis=2)
    best, seen = 0, set()

    def extend(span, cand_idx):
        nonlocal best
        best = max(best, span.dim)
        key = span.basis.tobytes()
        if key in seen:
            return
        seen.add(key)
        for pos, t in enumerate(cand_idx):
            if span.contains_vector(reps[t]):
                continue
            nxt_cand = [s for s in cand_idx[pos + 1 :] if commute[t, s]]
            extend(span.sum(Subspace.from_vectors([reps[t]], p, L.dim)), nxt_cand)

    extend(Subspace.zero(L.dim, p), list(range(n)))
    return best


def old_rebuild_torus(L, torals, target_dim):
    """The second search that rebuilt a torus of the certified dimension, unpruned."""
    p = L.p
    reps = old_projectivize(torals, p)

    def search(chosen, span, cand):
        if span.dim == target_dim:
            return chosen
        for pos, t in enumerate(cand):
            if span.contains_vector(reps[t]):
                continue
            nxt = [s for s in cand[pos + 1 :] if not bracket_vec(L, reps[t], reps[s]).any()]
            got = search(chosen + [reps[t]], span.sum(Subspace.from_vectors([reps[t]], p, L.dim)), nxt)
            if got is not None:
                return got
        return None

    return search([], Subspace.zero(L.dim, p), list(range(len(reps))))


TORUS_CASES = {
    **JACOBSON_CASES,
    "sl2-3": lambda: lielib.sl2(3),
    "gl2-5": lambda: lielib.gl2(5),
    "witt31": lambda: lielib.witt(3, 1),
    "hh1-smash321": lambda: hh1_lie(alg.smash_product(3, 2, 1)[0]),
    "hh1-trunc3-2": lambda: hh1_lie(alg.truncated_polynomial(3, (2,))),
    "hh1-tkr5": lambda: hh1_lie(alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5))),
    "hh1-tkr3": lambda: hh1_lie(alg.quiver_algebra(alg.tkr_quiver(), 3)),
    # 197 toral lines and mu = 2: the rank bound prunes branches here
    "hh1-quiver7": lambda: hh1_lie(alg.quiver_algebra(alg.tkr_quiver(), 7)),
    "hh1-tkr7": lambda: hh1_lie(alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 7))),
    "hh1-smash331": lambda: hh1_lie(alg.smash_product(3, 3, 1)[0]),  # 729 toral lines
    "hh1-smash521": lambda: hh1_lie(alg.smash_product(5, 2, 1)[0]),  # 625 toral lines
}


@pytest.mark.parametrize("name", sorted(TORUS_CASES))
def test_torus_search_returns_the_rebuilt_torus(name):
    L = TORUS_CASES[name]()
    torals = lielib._pmap_census(L)[0]
    assert torals is not None
    if len(torals):
        reps = lielib._projectivize(torals, L.p)
        assert [r.tolist() for r in reps] == [r.tolist() for r in old_projectivize(torals, L.p)]
    got = lielib._max_commuting_torus(L, torals)
    dim = old_max_commuting_toral_dim(L, torals)
    assert len(got) == dim
    assert [t.tolist() for t in got] == [t.tolist() for t in old_rebuild_torus(L, torals, dim)]
    assert [t.tolist() for t in got] == [t.tolist() for t in old_graph_max_commuting_torus(L, torals)]
    report = lielib.greedy_maximal_torus(L)
    assert report.dim == dim and report.maximality_status == "exhaustively-certified"
    assert all(c == {"toral": True, "commutes": True} for c in report.certificates)


def test_toral_line_counts_of_the_pruned_cases():
    for name, lines, mu in (("hh1-quiver7", 197, 2), ("hh1-smash331", 729, 1), ("hh1-smash521", 625, 1)):
        L = TORUS_CASES[name]()
        torals = lielib._pmap_census(L)[0]
        assert len(old_projectivize(torals, L.p)) == lines
        assert len(lielib._max_commuting_torus(L, torals)) == mu


def diagonal_units(p, d):
    """The abelian Lie algebra of the d diagonal matrix units: every nonzero element is toral."""
    mats = np.zeros((d, d, d), dtype=INT)
    mats[np.arange(d), np.arange(d), np.arange(d)] = 1
    return lielib.lie_from_matrices(p, mats, [f"e{i}" for i in range(d)])


def test_centralizer_search_matches_the_commuting_graph_on_the_diagonal_units():
    L = diagonal_units(3, 8)
    torals = lielib._pmap_census(L)[0]
    assert len(lielib._projectivize(torals, L.p)) == (3**8 - 1) // 2 == 3280
    got = lielib._max_commuting_torus(L, torals)
    assert len(got) == 8
    assert [t.tolist() for t in got] == [t.tolist() for t in old_graph_max_commuting_torus(L, torals)]


def test_a_torus_past_the_commuting_graph_limit_is_certified():
    # 9,841 toral lines, where the n x n commuting graph stopped at 5,000
    L = diagonal_units(3, 9)
    assert len(lielib._projectivize(lielib._pmap_census(L)[0], L.p)) == 9841
    report = lielib.greedy_maximal_torus(L)
    assert report.dim == 9 and report.maximality_status == "exhaustively-certified"
    assert all(c == {"toral": True, "commutes": True} for c in report.certificates)


def sequential_greedy_torus(L, seed=0, random_rounds=60):
    """greedy_maximal_torus as it was: one p-envelope per candidate, then the unpruned search.

    Returns the basis as lists and the maximality status.
    """
    p, d = L.p, L.dim
    rng = np.random.default_rng(seed)
    torus = []

    def try_extend():
        cent = lielib._centralizer(L, torus)
        span = Subspace.from_vectors(torus, p, d) if torus else Subspace.zero(d, p)
        candidates = list(cent.basis)
        for _ in range(random_rounds):
            coeffs = rng.integers(0, p, size=cent.dim)
            v = gfp.matmul(coeffs, cent.basis, p) if cent.dim else np.zeros(d, dtype=INT)
            if v.any():
                candidates.append(v)
        for x in candidates:
            if span.contains_vector(x):
                continue
            env, phi = old_p_envelope(L, x)
            for c in gfp.kernel((phi - np.eye(env.dim, dtype=INT)) % p, p):
                t = gfp.matmul(c, env.basis, p)
                if not span.contains_vector(t):
                    torus.append(t)
                    return True
        return False

    while try_extend():
        pass
    status = "greedy-maximal"
    torals = lielib._pmap_census(L)[0]
    if torals is not None:
        dim = old_max_commuting_toral_dim(L, torals)
        if dim > len(torus):
            torus = old_rebuild_torus(L, torals, dim)
        status = "exhaustively-certified"
    return [[int(x) for x in t] for t in torus], status


GREEDY_CASES = {
    "zero-dim": lambda: lielib.RestrictedLie(3, np.zeros((0, 0, 0), dtype=INT), np.zeros((0, 0), dtype=INT)),
    "abelian-toral-5": lambda: lielib.RestrictedLie(5, np.zeros((3, 3, 3), dtype=INT), np.eye(3, dtype=INT)),
    "abelian-nil-3": lambda: lielib.RestrictedLie(3, np.zeros((2, 2, 2), dtype=INT), np.zeros((2, 2), INT)),
    "sl2-5": lambda: lielib.sl2(5),
    "gl2-3": lambda: lielib.gl2(3),
    "hh1-trunc3-1": lambda: hh1_lie(alg.truncated_polynomial(3, (1,))),
    "hh1-trunc3-11": lambda: hh1_lie(alg.truncated_polynomial(3, (1, 1))),  # 3^18: greedy only
    "hh1-smash321": lambda: hh1_lie(alg.smash_product(3, 2, 1)[0]),
    "hh1-tkr5": lambda: hh1_lie(alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5))),
    "hh1-quiver7": TORUS_CASES["hh1-quiver7"],
}


@pytest.mark.parametrize("name", sorted(GREEDY_CASES))
def test_greedy_torus_matches_the_sequential_sweep(name):
    L = GREEDY_CASES[name]()
    for seed in range(5):
        report = lielib.greedy_maximal_torus(L, seed=seed)
        basis, status = sequential_greedy_torus(L, seed=seed)
        assert report.to_json_dict()["basis"] == basis
        assert (report.dim, report.maximality_status) == (len(basis), status)
        assert all(c == {"toral": True, "commutes": True} for c in report.certificates)


@pytest.mark.parametrize("name", sorted(GREEDY_CASES))
def test_batched_envelopes_match_the_sequential_ones_on_a_sweep(name, monkeypatch):
    L = GREEDY_CASES[name]()
    batches, batched = [], lielib._p_envelopes

    def record(L, xs):
        batches.append((xs, batched(L, xs)))
        return batches[-1][1]

    monkeypatch.setattr(lielib, "_p_envelopes", record)
    lielib.greedy_maximal_torus(L, seed=1)
    # every candidate of a first sweep in one batch: the basis, then random elements
    cands = np.vstack([np.eye(L.dim, dtype=INT), np.random.default_rng(1).integers(0, L.p, (60, L.dim))])
    cands = cands[cands.any(axis=1)]
    if len(cands):
        batches.append((cands, batched(L, cands)))
    for xs, got in batches:
        assert len(got) == len(xs)
        for x, (env, phi) in zip(xs, got):
            want_env, want_phi = old_p_envelope(L, x)
            assert env == want_env and np.array_equal(phi, want_phi)


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
        eager += [lielib._mixed_element(mats, L.p, rng) for _ in range(400)]  # from the same generator
        lazy = lielib._envelope_candidates(mats, L.p, seed)
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


def test_sliced_jacobi_check_in_slices_of_several_first_indices():
    # dim 30 takes 9 first indices a slice; gl4 sits at an offset, so a
    # corrupted bracket of two of its basis elements first fails in any slice
    p, d = 5, 30
    units = np.eye(16, dtype=INT).reshape(16, 4, 4)
    gl4 = lielib.lie_from_matrices(p, units, [f"E{n}" for n in range(16)]).bracket
    rng = np.random.default_rng(30)
    firsts = set()
    for _ in range(30):
        off = int(rng.integers(0, d - 15))
        c = np.zeros((d, d, d), dtype=INT)
        c[off : off + 16, off : off + 16, off : off + 16] = gl4
        i, j = sorted(rng.choice(np.arange(off, off + 16), 2, replace=False))
        c[i, j, off : off + 16] = rng.integers(0, p, 16)
        c[j, i] = -c[i, j] % p
        want = full_tensor_jacobi_triple(c, p)
        assert jacobi_error(c, p) == want
        firsts.add(want and want[0] // 9)
    assert {0, 1} <= firsts


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


def test_pmap_census_holds_one_chunk_at_a_time():
    # HH1 of smash(3,3,1), trivial centre: 3^9 vectors in chunks of 2^18 cells
    # (2 MiB), each chunk's ad(x)^T and powers released before the next
    L = hh1_lie(alg.smash_product(3, 3, 1)[0])
    assert L.dim == 9 and lielib.center_of(L).dim == 0
    tracemalloc.start()
    try:
        torals, nullcone = lielib._pmap_census(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak
    vectors = lielib._all_vectors_batch(L.p, L.dim)
    powers = lielib._jacobson_batch(L, vectors)
    want = vectors[(powers == vectors).all(axis=1) & vectors.any(axis=1)]
    assert np.array_equal(np.array(torals), want) and len(want) == 1458
    assert nullcone == int((~powers.any(axis=1)).sum()) == 1701


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


def plain_invariant_subspace(L, seed=0):
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

    for theta in lielib._envelope_candidates(mats, p, seed):
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
    raise Hh1LieError("irreducibility test did not reach a decision")


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


def antisymmetry_loop_error(c, p):
    """The first antisymmetry failure of the double loop over the pairs, or None."""
    d = c.shape[0]
    for i in range(d):
        if c[i, i].any():
            return f"[b{i}, b{i}] != 0"
        for j in range(d):
            if ((c[i, j] + c[j, i]) % p).any():
                return f"bracket not antisymmetric at ({i}, {j})"
    return None


def antisymmetry_error(c, p):
    """The antisymmetry failure validate reports, or None if it reports another or none."""
    try:
        lielib.RestrictedLie(p, c, np.zeros((c.shape[0],) * 2, dtype=INT))
    except Hh1LieError as exc:
        if re.fullmatch(r"\[b\d+, b\d+\] != 0|bracket not antisymmetric at .*", str(exc)):
            return str(exc)
    return None


@pytest.mark.parametrize("p,d", [(3, 1), (3, 5), (5, 7), (7, 4)])
def test_antisymmetry_check_reports_the_loop_failure(p, d):
    rng = np.random.default_rng(p * 10 + d)
    kinds = []
    for trial in range(80):
        c = rng.integers(0, p, (d, d, d))
        c = (c - c.transpose(1, 0, 2)) % p
        for _ in range(trial % 3):  # 0, 1 or 2 corrupted entries
            i, j, k = rng.integers(0, d, 3)
            if trial % 4 == 0:
                j = i  # a corrupted [b_i, b_i]
            c[i, j, k] = (c[i, j, k] + rng.integers(1, p)) % p
        want = antisymmetry_loop_error(c, p)
        assert antisymmetry_error(c, p) == want
        kinds.append(want and want[0])
    assert {None, "["} <= set(kinds) and ("b" in kinds or d == 1)


def test_antisymmetry_check_reports_the_square_before_a_later_pair():
    # row 2 has both a nonzero [b2, b2] and a failing pair (2, 3); the loop
    # reports the square, and a pair of an earlier row before either
    p, d = 5, 4
    c = np.zeros((d, d, d), dtype=INT)
    c[2, 2, 1] = c[2, 3, 0] = 1
    assert antisymmetry_error(c, p) == antisymmetry_loop_error(c, p) == "[b2, b2] != 0"
    c[1, 3, 0] = 2
    assert antisymmetry_error(c, p) == antisymmetry_loop_error(c, p) == "bracket not antisymmetric at (1, 3)"


def old_lie_json_dict(L):
    triples = []
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                cc = int(L.bracket[i, j, k])
                if cc:
                    triples.append([i, j, k, cc])
    pmap = [[int(x) for x in row] for row in L.pmap_basis]
    return {"p": L.p, "labels": list(L.labels), "bracket": triples, "pmap": pmap}


SERIALIZED_CASES = {
    "gf3^2": lambda: alg.split_semisimple(3, 2),  # HH1 = 0
    "trunc3-1": lambda: alg.truncated_polynomial(3, (1,)),
    "trunc3-11": lambda: alg.truncated_polynomial(3, (1, 1)),
    "smash-3-2-1": lambda: alg.smash_product(3, 2, 1)[0],
}


@pytest.mark.parametrize("name", sorted(SERIALIZED_CASES))
def test_serialized_tables_match_the_old_loops(name):
    h = hoch.hh1(SERIALIZED_CASES[name]())
    L = lielib.from_hh1(h)
    report = h.to_report_dict()
    assert report["bracket_table"] == [[[int(c) for c in row] for row in plane] for plane in h.bracket_table]
    assert report["pmap_table"] == [[int(c) for c in row] for row in h.pmap_table]
    assert alg.dumps_canonical(L.to_json_dict()) == alg.dumps_canonical(old_lie_json_dict(L))


def test_serialized_tables_of_dimension_zero():
    L = lielib.RestrictedLie(3, np.zeros((0, 0, 0), dtype=INT), np.zeros((0, 0), dtype=INT))
    assert L.to_json_dict() == old_lie_json_dict(L) == {"p": 3, "labels": [], "bracket": [], "pmap": []}
    report = hoch.hh1(SERIALIZED_CASES["gf3^2"]()).to_report_dict()
    assert (report["dim_hh1"], report["bracket_table"], report["pmap_table"]) == (0, [], [])
