"""Exact linear algebra over GF(p): rref, kernel, subspace operations."""

import itertools

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie.errors import DimensionMismatch, Hh1LieError
from hh1lie.gfp import Subspace, kernel, rref
from oracles import intersection, quotient_basis


def all_vectors(p, n):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=n)]


def test_check_prime():
    assert gfp.check_prime(3) == 3
    assert gfp.check_prime(7) == 7
    for bad in (2, 4, 9, 1, -3):
        with pytest.raises(ValueError):
            gfp.check_prime(bad)


def test_supported_range_of_p_at_its_edge():
    # P_MAX is the largest prime for which triple products over MAX_DIM^2
    # terms stay below 2^53; the next prime breaks that bound
    n = gfp.MAX_DIM**2
    nxt = next(q for q in range(gfp.P_MAX + 1, 2 * gfp.P_MAX) if gfp.is_prime(q))
    assert gfp.is_prime(gfp.P_MAX) and nxt == 331
    assert n * (gfp.P_MAX - 1) ** 3 < 2**53 <= n * (nxt - 1) ** 3
    assert n * (gfp.P_MAX - 1) ** 2 < 2**53
    assert gfp.check_prime(gfp.P_MAX) == gfp.P_MAX
    for bad in (nxt, gfp.P_MAX + 2, 2**61 - 1, 10**30 + 57):
        with pytest.raises(ValueError, match="3 <= p <= 317"):
            gfp.check_prime(bad)


def test_supported_dimension_at_its_edge():
    assert gfp.check_dim(gfp.MAX_DIM) == gfp.check_dim(2, 14) == gfp.MAX_DIM
    assert gfp.check_dim(3, 0) == 1
    for base, exp in ((gfp.MAX_DIM + 1, 1), (2, 15), (3, 9), (3, 10**12)):
        with pytest.raises(ValueError, match=f"exceeds the supported maximum {gfp.MAX_DIM}"):
            gfp.check_dim(base, exp)


def test_matmul_is_exact_at_the_largest_p():
    p = gfp.P_MAX
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (3, 1 << 16))
    a[0] = p - 1
    b = np.full((1 << 16, 2), p - 1, dtype=np.int64)
    b[:, 1] = rng.integers(0, p, 1 << 16)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert gfp.matmul(a, b, p).tolist() == want


def test_rref_identity():
    eye = np.eye(3, dtype=np.int64)
    red, rank, pivots = rref(eye, 3)
    assert np.array_equal(red, eye)
    assert rank == 3 and pivots == [0, 1, 2]


def test_rref_dependent_rows():
    red, rank, _ = rref([[1, 2], [2, 4]], 5)
    assert np.array_equal(red, [[1, 2], [0, 0]])
    assert rank == 1


def test_rref_zero():
    red, rank, pivots = rref(np.zeros((2, 2), dtype=np.int64), 3)
    assert not red.any() and rank == 0 and pivots == []


def test_rref_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = int(rng.choice([3, 5, 7]))
        m = rng.integers(0, p, size=(rng.integers(1, 7), rng.integers(1, 7)))
        red, rank, piv = rref(m, p)
        red2, rank2, piv2 = rref(red, p)
        assert np.array_equal(red, red2) and rank == rank2 and piv == piv2


def test_kernel_identity_and_zero():
    assert kernel(np.eye(4, dtype=np.int64), 3).shape[0] == 0
    assert kernel(np.zeros((2, 3), dtype=np.int64), 3).shape[0] == 3


def test_kernel_sum_functional_against_enumeration():
    # oracle: enumerate all 27 vectors of GF(3)^3 and keep those with
    # coordinate sum zero; the kernel must match that set exactly
    m = np.array([[1, 1, 1]], dtype=np.int64)
    ker = kernel(m, 3)
    assert ker.shape[0] == 2
    sub = Subspace(3, 3, ker)
    members = {tuple(v) for v in all_vectors(3, 3) if v.sum() % 3 == 0}
    found = {tuple((c1 * ker[0] + c2 * ker[1]) % 3) for c1 in range(3) for c2 in range(3)}
    assert found == members
    for v in all_vectors(3, 3):
        assert sub.contains_vector(v) == (v.sum() % 3 == 0)


def test_rank_nullity_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = int(rng.choice([3, 5]))
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        m = rng.integers(0, p, size=(rows, cols))
        _, rank, _ = rref(m, p)
        assert kernel(m, p).shape[0] + rank == cols


def test_subspace_canonical_form():
    # two different spanning sets of the same subspace store identical bases
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = 3
        base = rng.integers(0, p, size=(2, 5))
        mix = np.array([[1, 1], [2, 1]], dtype=np.int64)  # invertible over GF(3)
        a = Subspace.from_vectors(base, p, 5)
        b = Subspace.from_vectors(mix @ base % p, p, 5)
        assert a == b
        assert np.array_equal(a.basis, b.basis)


def test_subspace_self_operations():
    a = Subspace.from_vectors([[1, 0, 2], [0, 1, 1]], 3, 3)
    assert a.sum(a) == a
    assert intersection(a, a) == a
    assert a.contains(a)
    assert quotient_basis(a, a) == []


def test_subspace_complementary_coordinates():
    a = Subspace.from_vectors([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 3, 5)
    b = Subspace.from_vectors([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 3, 5)
    assert intersection(a, b).dim == 0
    assert a.sum(b).dim == 5
    assert not a.contains(b)


def test_subspace_dimension_identity_brute_force():
    # dim(sum) + dim(intersection) = dim(a) + dim(b), with membership checked
    # by exhaustive enumeration over GF(3)^5
    rng = np.random.default_rng(17)
    p = 3
    vecs = all_vectors(p, 5)
    for _ in range(10):
        a = Subspace.from_vectors(rng.integers(0, p, size=(3, 5)), p, 5)
        b = Subspace.from_vectors(rng.integers(0, p, size=(2, 5)), p, 5)
        s = a.sum(b)
        i = intersection(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        count_a = sum(1 for v in vecs if a.contains_vector(v))
        count_b = sum(1 for v in vecs if b.contains_vector(v))
        count_i = sum(1 for v in vecs if a.contains_vector(v) and b.contains_vector(v))
        assert count_a == p**a.dim and count_b == p**b.dim and count_i == p**i.dim
        for v in vecs:
            if i.contains_vector(v):
                assert s.contains_vector(v)


def test_quotient_basis_extends_intersection():
    rng = np.random.default_rng(23)
    p = 3
    for _ in range(25):
        a = Subspace.from_vectors(rng.integers(0, p, size=(3, 6)), p, 6)
        b = Subspace.from_vectors(rng.integers(0, p, size=(2, 6)), p, 6)
        q = quotient_basis(a, b)
        inter = intersection(a, b)
        assert len(q) == a.dim - inter.dim
        # the extension vectors together with the intersection span a, and
        # no combination of them falls into b
        back = Subspace.from_vectors(list(inter.basis) + q, p, 6)
        assert back == a
        if q:
            span_q = Subspace.from_vectors(q, p, 6)
            assert intersection(span_q, b).dim == 0


@pytest.mark.parametrize("p", [3, 5])
def test_quotient_coordinates_are_the_classes_of_the_rows(p):
    # random subspaces, whose RREF rows are nonzero off their pivots: each
    # vector differs from its coordinates times the representatives by a member
    rng = np.random.default_rng(p)
    for n, k in ((6, 2), (7, 4), (5, 0), (4, 4)):
        sub = Subspace.from_vectors(rng.integers(0, p, size=(k, n)), p, n)
        reps, coords_rows = sub.quotient()
        assert reps.shape == (n - sub.dim, n)
        assert np.array_equal(coords_rows(reps), np.eye(n - sub.dim, dtype=np.int64))
        assert not coords_rows(sub.basis).any()
        vs = rng.integers(0, p, size=(20, n))
        assert sub.contains(Subspace.from_vectors((vs - coords_rows(vs) @ reps) % p, p, n))


def test_subspace_mixed_characteristic_rejected():
    a = Subspace.from_vectors([[1, 0]], 3, 2)
    b = Subspace.from_vectors([[1, 0]], 5, 2)
    with pytest.raises(DimensionMismatch):
        a.sum(b)
    with pytest.raises(DimensionMismatch):
        a.contains(Subspace.from_vectors([[1, 0, 0]], 3, 3))


def test_matmul_and_inverse():
    rng = np.random.default_rng(5)
    for p in (3, 5, 7):
        for _ in range(20):
            m = rng.integers(0, p, size=(4, 4))
            _, rank, _ = rref(m, p)
            if rank < 4:
                with pytest.raises(ZeroDivisionError):
                    gfp.inverse(m, p)
            else:
                inv = gfp.inverse(m, p)
                assert np.array_equal(gfp.matmul(m, inv, p), np.eye(4, dtype=np.int64))


@pytest.mark.parametrize("p", [3, 7])
def test_mat_pow_matches_repeated_matmul(p):
    rng = np.random.default_rng(p)
    for n in (1, 4, 6):
        a = rng.integers(0, p, size=(n, n))
        for k in (0, 1, 2, p, 2 * p + 1):
            want = np.eye(n, dtype=np.int64)
            for _ in range(k):
                want = gfp.matmul(want, a, p)
            got = gfp.mat_pow(a, k, p)
            assert got.dtype == np.int64 and np.array_equal(got, want)
    a = rng.integers(0, p, size=(3, 3))
    before = a.copy()
    gfp.mat_pow(a, 1, p)[0, 0] += 1  # the result is a fresh array
    assert np.array_equal(a, before)


# -- scatter_add (np.add.at is the oracle) -------------------------------------------


def scatter_oracle(shape, index, coef, src=None, take=None):
    coef = np.asarray(coef).reshape(-1)
    index = np.asarray(index).reshape(-1)
    take = np.arange(coef.size) if take is None else np.asarray(take).reshape(-1)
    vals = coef if src is None else coef.reshape((-1,) + (1,) * (src.ndim - 1)) * src[take]
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, vals)
    return out


def test_scatter_add_matches_add_at_with_duplicates_and_zeros():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        targets = int(rng.integers(1, 6))  # few targets: several layers
        index = rng.integers(0, targets, n)
        coef = rng.integers(0, 4, n) * (rng.random(n) < 0.7)  # zero coefficients
        for shape, src in (((targets,), None), ((targets, 3, 2), rng.integers(0, 7, (n, 3, 2)))):
            out = gfp.scatter_add(np.zeros(shape, dtype=np.int64), index, coef, src)
            assert np.array_equal(out, scatter_oracle(shape, index, coef, src))


def test_scatter_add_gathers_through_take():
    rng = np.random.default_rng(8)
    src = rng.integers(0, 5, (6, 4))
    index = rng.integers(0, 3, (5, 5))
    coef = rng.integers(0, 3, (5, 5))
    take = np.broadcast_to(np.arange(5)[:, None] % 6, (5, 5))
    out = gfp.scatter_add(np.zeros((3, 4), dtype=np.int64), index, coef, src, take)
    assert np.array_equal(out, scatter_oracle((3, 4), index, coef, src, take))


def test_scatter_add_needs_one_layer_per_repeat():
    # five terms on one target, one of them with coefficient 0
    out = gfp.scatter_add(np.zeros(2, dtype=np.int64), [1, 1, 1, 1, 1], [1, 2, 0, 3, 4])
    assert out.tolist() == [0, 10]


def test_scatter_add_empty_and_all_zero_index():
    out = np.arange(8, dtype=np.int64).reshape(4, 2)
    gfp.scatter_add(out, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    gfp.scatter_add(out, [0, 3], [0, 0], np.ones((2, 2), dtype=np.int64))
    assert np.array_equal(out, np.arange(8).reshape(4, 2))


def rref_oracle(a, p):
    """rref walking every column until the rows run out, with no early stop."""
    a = gfp.normalize(a, p).copy()
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = a[r] * gfp.inv_mod(piv, p) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


def sparse_low_rank(rng, p, rows, cols, rank):
    """A seeded rows x cols matrix of the given rank at most, with zero rows and columns."""
    m = rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols)) % p
    m[rng.random(rows) < 0.3] = 0
    m[:, rng.random(cols) < 0.3] = 0
    return m


@pytest.mark.parametrize("p", [3, 5, 7, 251])
def test_rref_matches_the_full_column_walk(p):
    rng = np.random.default_rng(p)
    shapes = [(0, 4), (4, 0), (1, 1), (3, 9), (9, 3), (15, 54), (60, 20), (8, 8)]
    for trial in range(60):
        rows, cols = shapes[trial % len(shapes)]
        rank = int(rng.integers(0, min(rows, cols) + 1)) if rows and cols else 0
        m = sparse_low_rank(rng, p, rows, cols, rank)
        if trial % 5 == 0 and rows:
            m[rows // 2] = m[0] * 2  # a dependent row that elimination zeroes
        red, r, piv = rref(m, p)
        want, want_r, want_piv = rref_oracle(m, p)
        assert np.array_equal(red, want) and r == want_r and piv == want_piv


def test_rref_matches_the_full_column_walk_on_the_ider_matrix():
    a, _ = alg.smash_product(5, 2, 1)
    ads = [(a.left_mult_matrix(e) - a.right_mult_matrix(e)) % 5 for e in np.eye(a.dim, dtype=np.int64)]
    rows = np.vstack([ad.reshape(-1) for ad in ads])
    red, r, piv = rref(rows, 5)
    want, want_r, want_piv = rref_oracle(rows, 5)
    assert r == want_r == 120
    assert np.array_equal(red, want) and piv == want_piv


def reduce_rows_dense(sub, mat):
    """Residuals by elimination on every column."""
    mat = gfp.normalize(mat, sub.p)
    return (mat - mat[:, list(sub.pivots)] @ sub.basis) % sub.p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_support_restricted_reduce_rows_matches_dense(p):
    rng = np.random.default_rng(10 + p)
    for trial in range(40):
        n = int(rng.integers(1, 30))
        basis = sparse_low_rank(rng, p, int(rng.integers(1, 8)), n, int(rng.integers(1, 5)))
        if trial % 4 == 0:
            basis = rng.integers(0, p, (3, n))  # usually nonzero on every column
        sub = Subspace.from_vectors(basis, p, n)
        members = rng.integers(0, p, (4, sub.dim)) @ sub.basis % p
        mat = np.vstack([rng.integers(-p, 2 * p, (6, n)), members])
        got = sub.reduce_rows(mat)
        assert np.array_equal(got, reduce_rows_dense(sub, mat))
        assert not got[6:].any()
        assert np.array_equal(sub.reduce_rows(mat), got)  # with the cached support


def test_support_restricted_reduce_rows_on_the_ider_subspace():
    a, _ = alg.smash_product(5, 2, 1)
    ider = Subspace.from_vectors([f.matrix.reshape(-1) for f in hoch.inner_derivations(a)], 5, a.dim**2)
    assert np.count_nonzero(ider.basis.any(axis=0)) < a.dim**2
    rng = np.random.default_rng(521)
    ders = np.vstack([f.matrix.reshape(-1) for f in hoch.derivation_space(a)])
    mat = np.vstack([rng.integers(0, 5, (3, ders.shape[0])) @ ders % 5, rng.integers(0, 5, (3, a.dim**2))])
    assert np.array_equal(ider.reduce_rows(mat), reduce_rows_dense(ider, mat))


@pytest.mark.parametrize("p", [3, 5, 317])
def test_extend_matches_the_rref_of_the_whole_stack(p):
    rng = np.random.default_rng(300 + p)
    for trial in range(40):
        n = int(rng.integers(1, 16))
        some = sparse_low_rank(rng, p, int(rng.integers(1, 8)), n, int(rng.integers(1, 5)))
        if trial % 4 == 0:
            some = rng.integers(0, p, (3, n))  # usually nonzero on every column
        for start in (Subspace.zero(n, p), Subspace.full(n, p), Subspace.from_vectors(some, p, n)):
            fresh = rng.integers(-p, 2 * p, (int(rng.integers(1, 6)), n))
            stacks = [
                fresh,
                np.vstack([fresh[:1], np.zeros((2, n), dtype=np.int64), fresh, fresh[:1]]),
                rng.integers(0, p, (3, start.dim)) @ start.basis % p,  # already in the span
                np.zeros((0, n), dtype=np.int64),
                fresh[0],  # one row
                fresh + p * rng.integers(-(1 << 40), 1 << 40, fresh.shape),  # far from reduced mod p
                rng.integers(0, p, (5 * n, n)),  # taller than the 2 * ambient rows eliminated at once
            ]
            for rows in stacks:
                got = start.extend(rows)
                want = Subspace.from_vectors(np.vstack([start.basis, np.reshape(rows, (-1, n))]), p, n)
                assert np.array_equal(got.basis, want.basis)
                assert got.pivots == want.pivots
            with pytest.raises(DimensionMismatch):
                start.extend(np.zeros((2, n + 1), dtype=np.int64))
            with pytest.raises(DimensionMismatch):
                start.extend(np.zeros(n + 1, dtype=np.int64))


@pytest.mark.parametrize("p", [3, 7, 317])
def test_ranks_match_rref_matrix_by_matrix(p):
    rng = np.random.default_rng(500 + p)
    for rows, cols in [(1, 1), (4, 4), (3, 7), (7, 3), (9, 9), (0, 5), (5, 0)]:
        ranks = rng.integers(0, min(rows, cols) + 1, 30)
        stack = [sparse_low_rank(rng, p, rows, cols, int(r)) for r in ranks]
        stack += [
            np.zeros((rows, cols), dtype=np.int64),
            np.eye(rows, cols, dtype=np.int64) * int(rng.integers(1, p)),  # full rank, pivot not 1
            rng.integers(0, p, (rows, cols)) + p * rng.integers(-3, 3, (rows, cols)),  # not reduced mod p
        ]
        if rows and cols:
            stack.append(np.eye(rows, cols, dtype=np.int64)[rng.permutation(rows)])  # pivots out of row order
        got = gfp.ranks(np.stack(stack), p)
        assert got.tolist() == [rref(m, p)[1] for m in stack], (rows, cols)
    assert gfp.ranks(np.zeros((0, 3, 4), dtype=np.int64), p).shape == (0,)
    with pytest.raises(DimensionMismatch):
        gfp.ranks(np.zeros((3, 4), dtype=np.int64), p)


def old_kernel(a, p):
    """gfp.kernel as it was: a Python loop over free x pivot columns, then the RREF."""
    a = gfp.normalize(a, p)
    cols = a.shape[1]
    red, rank, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for row, c in enumerate(pivots):
            basis[idx, c] = (-red[row, f]) % p
    return gfp.row_space(basis, p)


@pytest.mark.parametrize("p", [3, 5, 317])
def test_kernel_matches_its_loop_copy(p):
    rng = np.random.default_rng(p)
    shapes = [(0, 4), (3, 0), (0, 0), (4, 6), (5, 5), (6, 3)]
    for trial in range(20):
        rows, cols = shapes[trial] if trial < len(shapes) else rng.integers(1, 9, 2)
        if trial == 3:
            a = np.zeros((rows, cols), dtype=np.int64)
        elif trial == 4:
            a = np.eye(rows, dtype=np.int64) * int(rng.integers(1, p))  # full rank
        elif trial % 3 == 0:  # low rank
            r = int(rng.integers(1, 3))
            a = rng.integers(0, p, (rows, r)) @ rng.integers(0, p, (r, cols))
        else:
            a = rng.integers(-p, 2 * p, (rows, cols))
        got, want = kernel(a, p), old_kernel(a, p)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not (np.asarray(a, dtype=np.int64) % p @ got.T % p).any()


def int_combination(coeffs, rows):
    """coeffs @ rows with Python ints, unreduced."""
    out = [[sum(int(c) * int(r) for c, r in zip(cr, col)) for col in rows.T] for cr in coeffs]
    return np.array(out, dtype=object)


def test_coords_rows_against_python_ints_at_the_largest_p():
    p, n = gfp.P_MAX, 48
    rng = np.random.default_rng(317)
    sub = Subspace.from_vectors(rng.integers(0, p, (30, n)), p, n)
    coeffs = rng.integers(0, p, (12, sub.dim))
    rows = (int_combination(coeffs, sub.basis) % p).astype(np.int64)
    assert sub.coords_rows(rows).tolist() == coeffs.tolist()
    # a fixed-order basis modulo a subspace: rows = c B + s M
    modulo = Subspace.from_vectors(rng.integers(0, p, (10, n)), p, n)
    basis, coeffs = rng.integers(0, p, (15, n)), coeffs[:, :15]
    shift = rng.integers(0, p, (12, modulo.dim))
    rows = int_combination(coeffs, basis) + int_combination(shift, modulo.basis)
    ordered = gfp.OrderedBasis(basis, p, modulo)
    assert ordered.coords_rows((rows % p).astype(np.int64)).tolist() == coeffs.tolist()
    rows = (int_combination(coeffs, basis) % p).astype(np.int64)
    assert gfp.OrderedBasis(basis, p).coords_rows(rows).tolist() == coeffs.tolist()


def test_coordinates_reject_non_members_and_dependent_rows():
    p = 5
    sub = Subspace.from_vectors([[1, 0, 2, 0], [0, 1, 1, 0]], p, 4)
    assert sub.coords_rows(np.array([[2, 3, 2, 0]])).tolist() == [[2, 3]]
    with pytest.raises(ValueError, match="not in the subspace"):
        sub.coords_rows(np.array([[2, 3, 2, 0], [0, 0, 0, 1]]))
    with pytest.raises(KeyError, match="custom"):
        sub.coords_rows(np.array([[0, 0, 0, 1]]), KeyError("custom"))
    assert Subspace.zero(4, p).coords_rows(np.zeros((2, 4), dtype=np.int64)).shape == (2, 0)
    ordered = gfp.OrderedBasis([[0, 0, 3, 0]], p, sub)
    assert ordered.coords_rows(np.array([[1, 1, 4, 0], [0, 1, 4, 0]])).tolist() == [[2], [1]]
    with pytest.raises(ValueError):
        ordered.coords_rows(np.array([[0, 0, 0, 1]]))
    with pytest.raises(Hh1LieError, match="dependent"):
        gfp.OrderedBasis([[1, 0, 2, 0], [0, 0, 1, 0]], p, sub)  # the first row lies in sub
    assert gfp.OrderedBasis(np.zeros((0, 4), dtype=np.int64), p).coords_rows(np.zeros((1, 4))).shape == (1, 0)
