"""The floating-point products of the package, against Python-int arithmetic at the edge of the range of p.

Every product goes through ``gfp.matmul`` or ``gfp.mat_pow``, which sum k
terms in float32 while k (p-1)^2 < 2^24 and in float64 while it is below
2^53 (``gfp.product_type``).  Each kernel routed through them is compared
here with the same sums taken in Python ints, on both sides of the switch.
"""

import itertools
import pathlib

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import DimensionMismatch
from hh1lie.gfp import INT

PRIMES = [3, 5, 7, 191, 251, 317]


def edge_rows(rng, p, n, d):
    """n rows of length d: one all p - 1, the rest random."""
    return np.vstack([np.full((1, d), p - 1, dtype=INT), rng.integers(0, p, (n - 1, d))])


def py_matmul(a, b, p):
    """a @ b mod p for nested lists, in Python ints."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def py_pow(a, k, p):
    n = len(a)
    out = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(k):
        out = py_matmul(out, a, p)
    return out


@pytest.mark.parametrize("p", [257, gfp.P_MAX])  # at 257, one past the bound sums to 2^53 exactly
def test_matmul_raises_one_past_the_bound(p):
    last = (gfp.EXACT - 1) // (p - 1) ** 2  # the longest exact contraction
    # zero-stride operands with an empty output: nothing is allocated or summed,
    # so only the check can raise
    empty = np.broadcast_to(np.float64(1), (0, last))
    assert gfp.matmul(empty, empty.T, p).shape == (0, 0)  # passes the check
    a = np.broadcast_to(np.float64(p - 1), (1, last + 1))
    b = np.broadcast_to(np.float64(p - 1), (last + 1, 0))
    with pytest.raises(DimensionMismatch, match=f"contraction of {last + 1} terms mod {p} is not exact"):
        gfp.matmul(a, b, p)
    with pytest.raises(DimensionMismatch):
        gfp.matmul(np.ones((2, 3)), np.ones((2, 3)), p)
    with pytest.raises(DimensionMismatch):
        gfp.mat_pow(np.ones((2, 3)), 2, p)


def test_no_module_but_gfp_names_float64():
    src = pathlib.Path(lielib.__file__).parent
    named = [f.name for f in sorted(src.glob("*.py")) if "float64" in f.read_text()]
    assert named == ["gfp.py"]
    assert [f.name for f in sorted(src.glob("*.py")) if "float32" in f.read_text()] == ["gfp.py"]


@pytest.mark.parametrize("p", [3, 5, 317])
def test_product_type_switches_where_float32_stops_being_exact(p):
    last32 = (gfp.EXACT32 - 1) // (p - 1) ** 2  # the longest contraction exact in float32
    assert gfp.product_type(last32, p) is np.float32 and gfp.product_type(last32 + 1, p) is np.float64
    assert last32 * (p - 1) ** 2 < 2**24 <= (last32 + 1) * (p - 1) ** 2
    last64 = (gfp.EXACT - 1) // (p - 1) ** 2
    assert gfp.product_type(last64, p) is np.float64
    with pytest.raises(DimensionMismatch):
        gfp.product_type(last64 + 1, p)
    if p == 317:
        assert (gfp.product_type(168, p), gfp.product_type(169, p)) == (np.float32, np.float64)


def worst_operands(p, shape_a, shape_b):
    """Operands with every entry p - 1, the largest sums, but the last of each row of a and column of b p - 2.

    Sums of (p - 1)^2 alone are multiples of 4 (of 16 at p = 5 and 317), so
    float32 would hold them exactly past 2^24; the odd term (p - 2)^2 makes
    every sum odd, which float32 cannot hold there.
    """
    a, b = np.full(shape_a, p - 1, dtype=INT), np.full(shape_b, p - 1, dtype=INT)
    a[..., -1], b[..., -1, :] = p - 2, p - 2
    return a, b


def py_stack_matmul(a, b, p):
    """a @ b mod p with numpy broadcasting of the stack axes, each product in Python ints."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = np.broadcast_to(a, shape + a.shape[-2:]), np.broadcast_to(b, shape + b.shape[-2:])
    pairs = zip(a.reshape(-1, *a.shape[-2:]), b.reshape(-1, *b.shape[-2:]))
    out = [py_matmul(x.tolist(), y.tolist(), p) for x, y in pairs]
    return np.array(out, dtype=INT).reshape(shape + (a.shape[-2], b.shape[-1]))


@pytest.mark.parametrize("p,ks", [(3, (1, 40)), (5, (1, 40)), (317, (1, 168, 169))])
def test_products_on_both_sides_of_the_float32_bound_match_python_ints(p, ks):
    # at p = 317, k = 168 sums in float32 and k = 169 in float64: a float32
    # bound raised to 2^25 gives wrong last bits at k = 169
    for k in ks:
        shapes = [((3, k), (k, 4)), ((2, 3, k), (2, k, 4)), ((3, k), (2, k, 4)), ((2, 1, 3, k), (4, k, 2))]
        for shape_a, shape_b in shapes:  # plain, stacked, and broadcast both ways
            a, b = worst_operands(p, shape_a, shape_b)
            got = gfp.matmul(a, b, p)
            assert got.dtype == INT and np.array_equal(got, py_stack_matmul(a, b, p)), (k, shape_a, shape_b)
        a, b = worst_operands(p, (k,), (k, 3))  # a vector times a matrix
        assert gfp.matmul(a, b, p).tolist() == py_matmul([a.tolist()], b.tolist(), p)[0]
    if p == gfp.P_MAX:  # sums past 2^31, which a float64 product must not reduce in int32: k = 21,506
        k = 2**31 // (p - 1) ** 2 + 1
        a, b = worst_operands(p, (2, k), (k, 2))
        assert gfp.matmul(a, b, p).tolist() == py_matmul(a.tolist(), b.tolist(), p)


@pytest.mark.parametrize("p", [3, 5])
def test_longest_float32_contraction_and_the_next_are_exact(p):
    # zero-stride operands: only the converted copies of a single row are allocated
    last32 = (gfp.EXACT32 - 1) // (p - 1) ** 2
    for k in (last32, last32 + 1):
        a = np.broadcast_to(np.int64(p - 1), (1, k))
        assert gfp.matmul(a, a.T, p).tolist() == [[k * (p - 1) ** 2 % p]]


def py_reduce(basis, rows, p):
    """Residuals of rows modulo an RREF basis in Python ints: each basis row times the entry on its pivot."""
    out = []
    for v in rows:
        for b in basis:
            f = v[next(c for c, x in enumerate(b) if x)]
            v = [(x - f * y) % p for x, y in zip(v, b)]
        out.append(v)
    return out


@pytest.mark.parametrize("p,ambient", [(3, 12), (5, 12), (317, 40), (317, 200)])
def test_reduce_rows_matches_python_int_elimination_at_every_extreme_rank(p, ambient):
    # ranks 0, 1, ambient - 1 and ambient; at p = 317 and ambient 200 the two
    # largest ranks pass 168, so their cached operand is float64, not float32
    rng = np.random.default_rng(p * ambient)
    for rank in (0, 1, ambient - 1, ambient):
        sub = gfp.Subspace.zero(ambient, p)
        while sub.dim < rank:  # random rows until they have that rank
            sub = gfp.Subspace.from_vectors(rng.integers(0, p, (rank, ambient)), p, ambient)
        rows = edge_rows(rng, p, 4, ambient)
        got = sub.reduce_rows(rows)
        assert got.dtype == INT and got.tolist() == py_reduce(sub.basis.tolist(), rows.tolist(), p)
        assert not got[:, list(sub.pivots)].any()
        if rank:
            assert sub._basis_op.dtype == gfp.product_type(rank, p)
    assert gfp.Subspace.from_vectors(np.eye(3, dtype=INT)[:1], 317, 3)._basis_op is None  # built on first use


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_broadcasts_stacks_exactly(p):
    rng = np.random.default_rng(p)
    a = np.stack([edge_rows(rng, p, 3, 5) for _ in range(4)])  # (4, 3, 5)
    b = edge_rows(rng, p, 5, 2)
    got = gfp.matmul(a, b, p)
    assert got.dtype == INT and got.tolist() == [py_matmul(x.tolist(), b.tolist(), p) for x in a]
    got = gfp.matmul(b.T, a.transpose(0, 2, 1), p)  # a plain matrix times a stack
    assert got.tolist() == [py_matmul(b.T.tolist(), x.T.tolist(), p) for x in a]
    assert gfp.matmul(a[:, 0], b, p).tolist() == py_matmul(a[:, 0].tolist(), b.tolist(), p)
    assert gfp.matmul(np.zeros((0, 3, 5), dtype=INT), b, p).shape == (0, 3, 2)
    assert not gfp.matmul(np.zeros((2, 0)), np.zeros((0, 4)), p).any()


@pytest.mark.parametrize("p", PRIMES)
def test_stacked_mat_pow_matches_python_int_powers(p):
    rng = np.random.default_rng(p)
    stack = np.stack([np.full((4, 4), p - 1)] + [rng.integers(0, p, (4, 4)) for _ in range(2)])
    for k in (0, 1, 2, p, p + 1):
        got = gfp.mat_pow(stack, k, p)
        assert got.dtype == INT and got.tolist() == [py_pow(m.tolist(), k, p) for m in stack]
    assert gfp.mat_pow(np.zeros((0, 3, 3), dtype=INT), p, p).shape == (0, 3, 3)
    assert gfp.mat_pow(np.zeros((2, 0, 0), dtype=INT), 0, p).shape == (2, 0, 0)


def random_table(p, d, rng):
    """An unvalidated table with every product e_i e_j a full row of constants, some p - 1."""
    i, j, k = (x.reshape(-1) for x in np.indices((d, d, d)))
    c = rng.integers(0, p, i.size)
    c[: d * d] = p - 1
    return alg.Algebra(p, [f"e{n}" for n in range(d)], (i, j, k, c), gfp.basis_vector(d, 0), validate=False)


@pytest.mark.parametrize("p", PRIMES)
def test_pairwise_products_match_python_ints(p):
    rng = np.random.default_rng(p)
    d = 6
    a = random_table(p, d, rng)
    u, v = edge_rows(rng, p, 4, d), edge_rows(rng, p, 3, d)
    terms = list(zip(*(x.tolist() for x in a.structure_constants())))
    got = alg._pairwise_products(a, u, v)
    for s, t in itertools.product(range(4), range(3)):
        want = [0] * d
        for i, j, k, c in terms:
            want[k] += int(u[s, i]) * int(v[t, j]) * c
        assert got[s, t].tolist() == [w % p for w in want]


def random_lie(p, d, rng):
    c = rng.integers(0, p, (d, d, d))
    c[0] = p - 1
    return lielib.RestrictedLie(p, c, np.zeros((d, d), dtype=INT), validate=False)


@pytest.mark.parametrize("p", PRIMES)
def test_pairwise_brackets_and_ad_match_python_ints(p):
    rng = np.random.default_rng(p)
    d = 6
    L = random_lie(p, d, rng)
    cl = L.bracket.tolist()
    a, b = edge_rows(rng, p, 3, d), edge_rows(rng, p, 4, d)
    got = lielib._pairwise_brackets(L, a, b)
    for s, t in itertools.product(range(3), range(4)):
        x, y = a[s].tolist(), b[t].tolist()
        want = [sum(x[i] * y[j] * cl[i][j][k] for i in range(d) for j in range(d)) % p for k in range(d)]
        assert got[s, t].tolist() == want
    # ad(x)[k, j] is the coefficient of e_k in [x, b_j], for one element and a stack
    want = [
        [[sum(x * cl[i][j][k] for i, x in enumerate(row)) % p for j in range(d)] for k in range(d)]
        for row in a.tolist()
    ]
    assert L.ad(a).tolist() == want
    assert L.ad(a[1]).tolist() == want[1]
    assert lielib._pairwise_brackets(L, a[:0], b).shape == (0, 4, d)


@pytest.mark.parametrize("p", PRIMES)
def test_spin_operator_products_match_python_ints(p):
    rng = np.random.default_rng(p)
    d, m = 5, 3
    mats = np.stack([np.full((d, d), p - 1)] + [rng.integers(0, p, (d, d)) for _ in range(m - 1)])
    rows = edge_rows(rng, p, 4, d)
    got = gfp.matmul(rows, lielib._spin_operator(mats), p).reshape(4, m, d)
    for r, g in itertools.product(range(4), range(m)):  # the image of row r under matrix g
        assert got[r, g].tolist() == [row[0] for row in py_matmul(mats[g].tolist(), rows[r, :, None].tolist(), p)]
    # the spin is the smallest span holding the row and closed under the matrices
    span = lielib._spin(lielib._spin_operator(mats[1:]), rows[1], p)
    assert span.contains_vector(rows[1])
    for v, g in itertools.product(span.basis.tolist(), mats[1:].tolist()):
        assert span.contains_vector([sum(x * y for x, y in zip(row, v)) % p for row in g])


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_tables_match_python_ints(p):
    # with the basis as generators g(X) = X^T, and coords_rows the identity on
    # the n^2 values, so transposed back bracket[i, j] is [X_i, X_j] itself
    # and pmap[i] is X_i^p
    rng = np.random.default_rng(p)
    n = 3
    mats = np.stack([np.full((n, n), p - 1)] + [rng.integers(0, p, (n, n)) for _ in range(n * n - 1)])
    values = mats.transpose(0, 2, 1).reshape(n * n, n * n)
    bracket, pmap = hoch.generator_tables(mats, values, p, lambda rows: rows)
    bracket = bracket.reshape(n * n, n * n, n, n).swapaxes(-1, -2).reshape(n * n, n * n, n * n)
    pmap = pmap.reshape(n * n, n, n).swapaxes(-1, -2).reshape(n * n, n * n)
    lists = mats.tolist()
    for i, j in itertools.product(range(n * n), repeat=2):
        xy, yx = py_matmul(lists[i], lists[j], p), py_matmul(lists[j], lists[i], p)
        assert bracket[i, j].tolist() == [(s - t) % p for r, q in zip(xy, yx) for s, t in zip(r, q)]
    assert pmap.tolist() == [sum(py_pow(x, p, p), []) for x in lists]


def all_pairs_matrix_tables(mats, p, coords_rows):
    """The d x d oracle: the tables from every product [X_i, X_j] and X_i^p at once."""
    h, d = mats.shape[0], mats.shape[-1]
    prod = gfp.matmul(mats[:, None], mats[None, :], p)
    comm = (prod - prod.transpose(1, 0, 2, 3)) % p
    coords = coords_rows(np.vstack([comm.reshape(h * h, d * d), gfp.mat_pow(mats, p, p).reshape(h, d * d)]))
    return coords[: h * h].reshape(h, h, h), coords[h * h :]


@pytest.mark.parametrize("p", [3, 317])
def test_matrix_tables_in_pair_blocks_match_all_pairs(p):
    # d = 100 and 20 generators: 4 matrices a column block (8 blocks) and
    # 131 pairs a pair block, so the 435 pairs of 30 matrices span 4 blocks
    rng = np.random.default_rng(p)
    h, d, m = 30, 100, 20
    mats = rng.integers(0, p, (h, d, d))
    gens = rng.integers(0, p, (m, d))

    def values(maps):  # g(X) = (X s)_s
        return gfp.matmul(maps.reshape(-1, d, d), gens.T, p).transpose(0, 2, 1).reshape(-1, m * d)

    coords = lambda rows: rows[:, :h]  # noqa: E731 - any linear map of the values serves
    got = hoch.generator_tables(mats, values(mats), p, coords)
    want = all_pairs_matrix_tables(mats, p, lambda rows: coords(values(rows)))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    no_maps, no_values = np.zeros((0, 4, 4), dtype=INT), np.zeros((0, 8), dtype=INT)
    empty = hoch.generator_tables(no_maps, no_values, p, lambda rows: rows[:, :0])
    assert empty[0].shape == (0, 0, 0) and empty[1].shape == (0, 0)
