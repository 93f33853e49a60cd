"""The Leibniz system solved one block of its own components at a time.

The blocks are the connected components of the unknowns that one distinct
Leibniz row or one vec(F) cell of phi links (``_components``).  No row
meets two blocks, so the blocks' RREF kernels sorted by pivot are the RREF
kernel of the whole system; no cell meets two, so each block's vec(F)
pivots come from its own cells, and sorted they are the pivots of the
whole RREF of phi(K).  The torus weights that cut the system before are an
oracle here: every block lies in one weight class.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie.errors import Hh1LieError
from oracles import bare, old_leibniz_rows, old_stream_pivots, unknown_weights, whole


CASES = {
    "smash321": lambda: alg.smash_product(3, 2, 1)[0],
    "smash331": lambda: alg.smash_product(3, 3, 1)[0],
    "smash322": lambda: alg.smash_product(3, 2, 2)[0],
    "smash521": lambda: alg.smash_product(5, 2, 1)[0],
    "u0borel32": lambda: alg.u0_borel(3, 2),
    "u0borel51-block": lambda: alg.block_decomposition(alg.u0_borel(5, 1))[0][1],
    # the same table with no generators, as blocks were solved before they named them: 625 unknowns
    "u0borel51-table": lambda: bare(alg.u0_borel(5, 1)),
    "trunc3-21": lambda: alg.truncated_polynomial(3, (2, 1)),
    "trivext5": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)),
    "quiver7": lambda: alg.quiver_algebra(alg.tkr_quiver(), 7),
    "gf3^4": lambda: alg.split_semisimple(3, 4),
}

# more blocks (53 for trunc(3,(1,1,1))), and quiver algebras that name no generators
PIVOT_CASES = {
    **CASES,
    "trunc3-111": lambda: alg.truncated_polynomial(3, (1, 1, 1)),
    "tkr5": lambda: alg.quiver_algebra(alg.tkr_quiver(), 5),
    "kronecker7": lambda: alg.quiver_algebra(alg.kronecker_quiver(), 7),
}


def whole_system_kernel(a):
    """The RREF kernel of the whole deduplicated Leibniz system, densified and eliminated by one gfp.kernel."""
    phi = hoch.extender(a)
    rows, cols, vals = hoch._leibniz_rows(phi)
    system = np.zeros((int(rows.max(initial=-1)) + 1, phi.nv), dtype=np.int64)
    system[rows, cols] = vals
    return gfp.kernel(system, a.p)


@pytest.mark.parametrize("name", CASES)
def test_block_kernel_equals_the_whole_system_kernel(name):
    a = CASES[name]()
    space = hoch.DerivationSpace(a)
    oracle = whole_system_kernel(a)
    assert space.der.basis.shape == oracle.shape
    assert np.array_equal(space.der.basis, oracle)



@pytest.mark.parametrize("name", PIVOT_CASES)
def test_block_pivots_and_m_equal_the_lazy_column_stream(name):
    a = PIVOT_CASES[name]()
    space = hoch.DerivationSpace(a)
    pivots, m = old_stream_pivots(space, space.der.basis)
    assert space.pivots == pivots
    assert np.array_equal(space._m, m)


def test_generator_values_that_phi_merges_raise():
    # x given twice: phi reads only the first copy's values, so the second
    # copy's are free unknowns that no Leibniz row meets, and phi maps every
    # choice of them to the same map
    a = alg.truncated_polynomial(3, (2,))
    x = a.generating_set()[0]
    a._derivation_cache["phi"] = hoch.Extender(a, [x, x])
    with pytest.raises(Hh1LieError, match="phi maps distinct solved generator values to one map"):
        hoch.DerivationSpace(a)

def test_an_empty_distinct_row_set_leaves_every_unknown_free():
    a = CASES["trunc3-21"]()
    rows, cols, vals = hoch._leibniz_rows(hoch.extender(a))
    assert rows.size == cols.size == vals.size == 0
    nv = hoch.extender(a).nv
    assert np.array_equal(hoch.DerivationSpace(a).der.basis, np.eye(nv, dtype=np.int64))


def blocks(a):
    """phi, the distinct rows and the block of each unknown, as ``DerivationSpace`` cuts them."""
    phi = hoch.extender(a)
    rows, cols, vals = hoch._leibniz_rows(phi)
    fe, unk, _ = phi.triplets
    return phi, (rows, cols, vals), hoch._components(phi.nv, rows, cols, fe, unk)


def union_find(nv, links):
    """The block of each unknown by a union-find over (key, unknown) links, numbered by least unknown."""
    parent = list(range(nv))

    def root(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for keys, members in links:
        first = {}
        for key, u in zip(keys.tolist(), members.tolist()):
            a, b = root(first.setdefault(key, u)), root(u)
            parent[max(a, b)] = min(a, b)
    roots = sorted({root(u) for u in range(nv)})
    return np.array([roots.index(root(u)) for u in range(nv)], dtype=np.int64)


@pytest.mark.parametrize("name", PIVOT_CASES)
def test_leibniz_rows_equal_the_broadcast_builder(name):
    phi = hoch.extender(PIVOT_CASES[name]())
    for new, old in zip(hoch._leibniz_rows(phi), old_leibniz_rows(phi)):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("name", PIVOT_CASES)
def test_components_equal_a_union_find(name):
    phi, (rows, cols, _), block = blocks(PIVOT_CASES[name]())
    fe, unk, _ = phi.triplets
    assert np.array_equal(block, union_find(phi.nv, [(rows, cols), (fe, unk)]))


@pytest.mark.parametrize("name", PIVOT_CASES)
def test_no_row_and_no_cell_meets_two_blocks(name):
    phi, (rows, cols, _), block = blocks(PIVOT_CASES[name]())
    fe, unk, _ = phi.triplets
    for keys, members in [(rows, cols), (fe, unk)]:
        first = np.searchsorted(keys, keys)  # the first term of each term's row or cell
        assert np.array_equal(block[members], block[members[first]])


@pytest.mark.parametrize("name", PIVOT_CASES)
def test_every_block_lies_in_one_weight_class(name):
    a = PIVOT_CASES[name]()
    phi, _, block = blocks(a)
    weight = unknown_weights(a, phi.gens)[:, phi.slots]
    for b in range(block.max(initial=-1) + 1):
        own = weight[:, block == b]
        assert (own == own[:, :1]).all()


def linked_only_by(links, other, nv):
    """The first unknown that one of ``links`` joins to another unknown and none of ``other`` does."""

    def linked(keys, members):
        count = np.bincount(keys, minlength=int(keys.max(initial=-1)) + 1)[keys]  # terms of the unknown's row or cell
        return np.bincount(members[count > 1], minlength=nv) > 0

    return int(np.flatnonzero(linked(*links) & ~linked(*other))[0])


def cut_one(monkeypatch, u):
    """Patch ``_components`` to give unknown u a block of its own."""
    real = hoch._components

    def cut(*args):
        block = real(*args)
        block[u] = block.max() + 1
        return block

    monkeypatch.setattr(hoch, "_components", cut)


def test_a_cut_row_makes_the_solver_raise(monkeypatch):
    # u shares a Leibniz row with other unknowns and no cell of phi.  Solved
    # on that cut, its row falls apart into stronger ones: the kernel shrinks
    # to dim 26 of 27, every map in it a derivation, so the honesty check,
    # which checks only that, would pass it.  The solver must refuse the cut.
    # (With E = {1}: relative to the u_lambda there are no rows.)
    a = whole(alg.smash_product(3, 2, 1)[0])
    phi, (rows, cols, _), _ = blocks(a)
    fe, unk, _ = phi.triplets
    cut_one(monkeypatch, linked_only_by((rows, cols), (fe, unk), phi.nv))
    with pytest.raises(Hh1LieError, match="meets two blocks"):
        hoch.DerivationSpace(a)


def test_a_cut_cell_makes_the_solver_raise(monkeypatch):
    # u shares a vec(F) cell of phi with other unknowns and no row: cut off,
    # its block's image and another's meet on that cell, so their pivots
    # need not be disjoint and sorted they need not be the whole RREF's
    a = whole(alg.smash_product(3, 2, 1)[0])
    phi, (rows, cols, _), _ = blocks(a)
    fe, unk, _ = phi.triplets
    cut_one(monkeypatch, linked_only_by((fe, unk), (rows, cols), phi.nv))
    with pytest.raises(Hh1LieError, match="meets two blocks"):
        hoch.DerivationSpace(a)
