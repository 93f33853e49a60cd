"""The one reduction kernel ``gfp.mod`` and the fresh-output scatter ``gfp.scatter_new``.

``mod`` is compared with Python's ``int % p``, and ``scatter_new`` with
``np.zeros`` + ``scatter_apply`` and with ``np.add.at``.  The product
matrices and phi, which reduce only the cells their plan's first layer
reaches, are compared with a dense ``np.add.at`` reduced everywhere.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from test_leibniz_residual import non_injective

PRIMES = [3, 5, 7, gfp.P_MAX]
BOUND = 1 << 47  # the documented bound on an exact Leibniz residual


def int_mod(a, p):
    return [int(x) % p for x in np.asarray(a).reshape(-1).tolist()]


@pytest.mark.parametrize("p", PRIMES)
def test_mod_matches_python_ints(p):
    rng = np.random.default_rng(p)
    big = rng.integers(-BOUND, BOUND, size=(40, 50))
    edges = np.array([-BOUND, BOUND - 1, -p, -p - 1, -p + 1, -1, 0, 1, p - 1, p, p + 1, 2 * p, -2 * p])
    small = np.arange(-3 * p, 3 * p).reshape(2, -1)
    for a in (big, edges, small, big.T, big[::3, 1::2]):
        got = gfp.mod(a, p)
        assert got.dtype == np.int64 and got.shape == a.shape
        assert got.reshape(-1).tolist() == int_mod(a, p)
        assert gfp.normalize(a, p).tolist() == got.tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_mod_of_scalars_zero_d_and_empty_arrays(p):
    for x in (-BOUND, -p - 2, -1, 0, 1, p, 3 * p + 2, BOUND - 1):
        for a in (x, np.int64(x), np.array(x)):
            assert int(gfp.mod(a, p)) == x % p
            assert int(gfp.normalize(a, p)) == x % p
            assert np.ndim(gfp.mod(a, p)) == 0
    for shape in ((0,), (0, 4), (3, 0, 2)):
        got = gfp.mod(np.zeros(shape, dtype=np.int64), p)
        assert got.shape == shape and got.dtype == np.int64
        assert gfp.normalize(np.zeros(shape), p).shape == shape


@pytest.mark.parametrize("p", PRIMES)
def test_mod_keeps_int32(p):
    # the float32 branch of _product reduces its product as int32, below 2^24
    rng = np.random.default_rng(p)
    a = rng.integers(-(1 << 24), 1 << 24, size=(30, 30)).astype(np.int32)
    got = gfp.mod(a, p)
    assert got.dtype == np.int32
    assert got.reshape(-1).tolist() == int_mod(a, p)
    assert gfp.mod(np.int32(-7), p).dtype == np.int32


@pytest.mark.parametrize("p", PRIMES)
def test_mod_and_normalize_return_fresh_arrays(p):
    # rref reduces the array normalize returns in place, so it must never be the input
    for a in (np.arange(-6, 6, dtype=np.int64).reshape(3, 4), np.arange(12, dtype=np.int64) % p):
        before = a.copy()
        for got in (gfp.mod(a, p), gfp.normalize(a, p)):
            assert not np.shares_memory(got, a)
            got[...] = 0
        assert np.array_equal(a, before)
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    gfp.rref(a, p)
    assert a.tolist() == [[1, 2], [3, 4]]


def test_mod_is_what_product_reduces_by():
    a = np.arange(-50, 50, dtype=np.float32).reshape(10, 10)
    got = gfp._product(a, np.eye(10, dtype=np.float32), np.float32, 7)
    assert got.dtype == np.int32 and got.reshape(-1).tolist() == [x % 7 for x in range(-50, 50)]


# -- the fresh-output scatter ---------------------------------------------------------


def add_at(shape, index, coef, src=None, take=None):
    coef, index = np.asarray(coef).reshape(-1), np.asarray(index).reshape(-1)
    take = np.arange(coef.size) if take is None else np.asarray(take).reshape(-1)
    vals = coef if src is None else coef.reshape((-1,) + (1,) * (src.ndim - 1)) * src[take]
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, index, vals)
    return out


def both_scatters(shape, plan, src=None, axis=0):
    fresh = gfp.scatter_new(shape, plan, src, axis)
    assert fresh.dtype == np.int64 and fresh.shape == tuple(shape)
    assert np.array_equal(fresh, gfp.scatter_apply(np.zeros(shape, dtype=np.int64), plan, src, axis))
    return fresh


def test_scatter_new_with_repeats_and_zero_coefficients():
    rng = np.random.default_rng(11)
    layered = 0
    for _ in range(100):
        n = int(rng.integers(1, 40))
        targets = int(rng.integers(1, 6))  # few targets: several layers
        index = rng.integers(0, targets, n)
        coef = rng.integers(-4, 5, n) * (rng.random(n) < 0.7)  # zero coefficients
        plan = gfp.scatter_plan(index, coef)
        layered += len(plan) > 1
        assert np.array_equal(both_scatters((targets,), plan), add_at((targets,), index, coef))
        src = rng.integers(0, 7, (n, 3, 2))
        shape = (targets, 3, 2)
        assert np.array_equal(both_scatters(shape, plan, src), add_at(shape, index, coef, src))
    assert layered > 50


def test_scatter_new_through_take_and_along_an_axis():
    rng = np.random.default_rng(12)
    src = rng.integers(0, 5, (6, 4))
    index = rng.integers(0, 3, 20)
    coef = rng.integers(0, 3, 20)
    take = rng.integers(0, 6, 20)
    plan = gfp.scatter_plan(index, coef, take)
    assert np.array_equal(both_scatters((3, 4), plan, src), add_at((3, 4), index, coef, src, take))
    # along axis 1: the targets are columns
    want = add_at((3, 4), index, coef, src, take).T
    assert np.array_equal(both_scatters((4, 3), plan, np.ascontiguousarray(src.T), axis=1), want)


@pytest.mark.parametrize("p", PRIMES)
def test_scatter_new_reduces_only_the_targets_a_term_reaches(p):
    rng = np.random.default_rng(p)
    src = rng.integers(0, p, (30, 3))
    for targets in (8, 12):  # 12: four targets no term reaches stay zero
        index = np.r_[np.arange(8), rng.integers(0, 8, 22)]
        coef = rng.integers(-(p - 1), p, 30)
        coef[:8] = p - 1  # layer 0 keeps all 8 targets
        plan = gfp.scatter_plan(index, coef)
        got = gfp.scatter_new((targets, 3), plan, src, p=p)
        assert np.array_equal(got, add_at((targets, 3), index, coef, src) % p)
        assert np.array_equal(gfp.scatter_new((targets,), plan, p=p), add_at((targets,), index, coef) % p)
    assert not gfp.scatter_new((3, 2), [], np.ones((1, 2), dtype=np.int64), p=p).any()
    assert gfp.scatter_new((0, 2), [(np.zeros(0, dtype=np.int64),) * 3], np.ones((1, 2), dtype=np.int64), p=p).shape == (0, 2)


@pytest.mark.parametrize("cells", [1, 5, 64])
def test_scatter_new_reduces_in_blocks_of_stream_cells(monkeypatch, cells):
    # a target has 3 cells: 1 and 5 give one target per block, 64 gives 21
    monkeypatch.setattr(gfp, "STREAM_CELLS", cells)
    rng = np.random.default_rng(cells)
    index = rng.integers(0, 40, 120)
    coef = rng.integers(-4, 5, 120)
    src = rng.integers(0, 5, (120, 3))
    plan = gfp.scatter_plan(index, coef)
    assert np.array_equal(gfp.scatter_new((50, 3), plan, src, p=5), add_at((50, 3), index, coef, src) % 5)
    want = add_at((50, 3), index, coef, src).T % 5
    assert np.array_equal(gfp.scatter_new((3, 50), plan, np.ascontiguousarray(src.T), axis=1, p=5), want)


def test_scatter_new_of_an_empty_or_all_zero_plan_is_zero():
    for plan in (gfp.scatter_plan(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
                 gfp.scatter_plan([0, 3], [0, 0])):
        assert plan == []
        assert not both_scatters((4, 2), plan, np.ones((2, 2), dtype=np.int64)).any()
        assert not both_scatters((5,), plan).any()


TABLES = {
    "smash-3-2-1": lambda: alg.smash_product(3, 2, 1)[0],  # monomial table
    "smash-5-1-1": lambda: alg.smash_product(5, 1, 1)[0],
    "u0borel-3-2": lambda: alg.u0_borel(3, 2),  # products with several terms
    "u0borel-5-1": lambda: alg.u0_borel(5, 1),
    "non-injective-3": lambda: non_injective(3),
    "non-injective-317": lambda: non_injective(gfp.P_MAX),
}


def dense_mult(a, stack):
    """L_v, R_v and ad v for each row v, from the table terms by np.add.at, reduced everywhere."""
    i, j, k, c = a.structure_constants()
    n = stack.shape[0]
    left, right = np.zeros((n, a.dim, a.dim), dtype=np.int64), np.zeros((n, a.dim, a.dim), dtype=np.int64)
    for t, v in enumerate(stack):
        np.add.at(left[t], (k, j), c * v[i])
        np.add.at(right[t], (k, i), c * v[j])
    return {"L": left % a.p, "R": right % a.p, "ad": (left - right) % a.p}


@pytest.mark.parametrize("name", TABLES)
def test_product_matrices_equal_the_full_reduction(name):
    a = TABLES[name]()
    rng = np.random.default_rng(3)
    stack = np.vstack([np.eye(a.dim, dtype=np.int64), rng.integers(0, a.p, (6, a.dim)), np.zeros((1, a.dim))])
    want = dense_mult(a, stack.astype(np.int64))
    for kind in ("L", "R", "ad"):
        assert np.array_equal(a._mult_matrices(kind, stack), want[kind]), kind
    assert np.array_equal(a.ad_matrices(stack), want["ad"])
    assert np.array_equal(a.left_mult_matrix(stack[-2]), want["L"][-2])
    assert np.array_equal(a.right_mult_matrix(stack[-2]), want["R"][-2])


@pytest.mark.parametrize("name", TABLES)
def test_phi_equals_the_full_reduction(name):
    a = TABLES[name]()
    phi = hoch.Extender(a, a.generating_set())
    fe, unk, val = phi.triplets
    rng = np.random.default_rng(4)
    rows = np.vstack([rng.integers(0, a.p, (5, phi.nv)), np.eye(min(phi.nv, 8), phi.nv, dtype=np.int64)])
    full = np.zeros((a.dim**2, rows.shape[0]), dtype=np.int64)
    np.add.at(full, fe, val[:, None] * rows.T[unk])
    full = (full % a.p).T
    assert np.array_equal(phi.on(rows), full)
    cells = np.sort(rng.choice(a.dim**2, size=a.dim**2 // 3, replace=False))
    assert np.array_equal(phi.on(rows, cells), full[:, cells])
    reached = np.unique(fe)  # as a block reads them: every cell phi reaches
    assert np.array_equal(phi.on(rows, reached), full[:, reached])
    assert np.array_equal(phi.matrices(rows), full.reshape(-1, a.dim, a.dim))
