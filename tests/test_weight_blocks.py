"""The Leibniz system solved one torus-weight block at a time.

W is the kernel of w_i + w_j = w_k over the table's terms, with every
generator homogeneous.  Each Leibniz equation involves one weight, so the
system splits into blocks with disjoint supports, and the blocks' RREF
kernels sorted by pivot are the RREF kernel of the whole system.  phi keeps
weights too, so each block's vec(F) pivots come from its own cells, and
sorted they are the pivots of the whole RREF of phi(K).
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie.errors import Hh1LieError
from oracles import bare, old_stream_pivots, whole


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

# more blocks (27 for trunc(3,(1,1,1))), and quiver algebras that name no generators
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


def weight_labels(a):
    """The weight of each value coordinate t * d + b, as one integer per distinct weight vector."""
    weights = [tuple(w) for w in hoch._unknown_weights(a, hoch.extender(a).gens).T.tolist()]
    index = {w: n for n, w in enumerate(sorted(set(weights)))}
    return np.array([index[w] for w in weights])


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


@pytest.mark.parametrize("name", CASES)
def test_weights_satisfy_every_term_and_keep_generators_homogeneous(name):
    a = CASES[name]()
    gens = hoch.extender(a).gens
    w = hoch._torus_weights(a, gens)
    ci, cj, ck, _ = a.structure_constants()
    assert not ((w[:, ci] + w[:, cj] - w[:, ck]) % a.p).any()
    for g in gens:
        support = np.flatnonzero(g)
        assert (w[:, support] == w[:, support[:1]]).all()


@pytest.mark.parametrize("name", CASES)
def test_every_distinct_leibniz_row_has_one_weight(name):
    a = CASES[name]()
    phi = hoch.extender(a)
    rows, cols, _ = hoch._leibniz_rows(phi)
    label = weight_labels(a)[phi.slots][cols]
    first = np.searchsorted(rows, rows)  # the first term of each term's row
    assert np.array_equal(label, label[first])


@pytest.mark.parametrize(
    "name,m", [("smash321", 1), ("smash521", 1), ("u0borel32", 1), ("trunc3-21", 2), ("gf3^4", 0)]
)
def test_torus_rank(name, m):
    # smash products: one x-degree, since the idempotents u_lambda span x's generator
    a = CASES[name]()
    w = hoch._torus_weights(a, hoch.extender(a).gens)
    assert w.shape == (m, a.dim)
    assert len(np.unique(weight_labels(a))) == a.p**m


def test_weights_that_break_a_term_make_the_solver_raise(monkeypatch):
    # u0 x^2 is in no generator's support, so the shifted W keeps every
    # generator homogeneous and breaks only term equations.  Solved on that
    # split, a mixed row falls apart into stronger ones: the kernel shrinks to
    # dim 25 of 27, every map in it a derivation, so the honesty check, which
    # checks only that, would pass it.  The solver must refuse the split.
    # (With E = {1}: relative to the u_lambda, u0 x^2 is in no unknown's block.)
    a = whole(alg.smash_product(3, 2, 1)[0])
    gens = hoch.extender(a).gens
    k = a.labels.index("u0*x^2")
    assert not gens[:, k].any()
    bad = hoch._torus_weights(a, gens).copy()
    bad[0, k] = (bad[0, k] + 1) % a.p
    ci, cj, ck, _ = a.structure_constants()
    assert ((bad[:, ci] + bad[:, cj] - bad[:, ck]) % a.p).any()
    monkeypatch.setattr(hoch, "_torus_weights", lambda alg_, gens_: bad)
    with pytest.raises(Hh1LieError, match="mixes two torus weights"):
        hoch.DerivationSpace(a)
