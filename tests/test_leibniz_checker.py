"""The sparse Leibniz checker, differentially against the dense one before it.

``hochschild._residual_terms`` joins a stack's nonzero entries with the
terms of R_s and with the table terms, and ``_fails`` sums those terms by
one merge mod p.  ``oracles.old_gen_block_residual``, ``old_fails_leibniz``
and ``old_leibniz_failure`` are the dense checker: three zero-filled
scatters per block of maps, two adds through transposes and a mod of every
entry.  Both sum the same integer products, so the residuals summed
exactly agree entry by entry, and so does every verdict.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from oracles import checker_fails, entries_of, mult_terms
from oracles import old_fails_leibniz, old_gen_block_residual, old_leibniz_failure
from test_leibniz_residual import TABLES

BUILDS = {name: (lambda build=build: build(3)) for name, build in TABLES.items()}
BUILDS["smash521"] = lambda: alg.smash_product(5, 2, 1)[0]
BUILDS["u0borel52"] = lambda: alg.u0_borel(5, 2)


def unreduced(a, fstack, s):
    """The checker's residual terms of a stack against s, summed exactly, as [t, coordinate, i]."""
    out = np.zeros(fstack.shape[0] * a.dim**2, dtype=np.int64)
    for keys, vals in hoch._residual_terms(a, entries_of(fstack), np.asarray(s)[None], hoch._table_by_j(a)):
        np.add.at(out, keys, vals)
    return out.reshape(fstack.shape)


def unit_killed(a, maps):
    """The maps F - (F 1) w^T with w^T 1 = 1, so that F(1) = 0."""
    b = int(np.flatnonzero(a.unit)[0])
    w = np.zeros(a.dim, dtype=np.int64)
    w[b] = gfp.inv_mod(a.unit[b], a.p)
    return (maps - np.einsum("ta,b->tab", gfp.matmul(maps, a.unit, a.p), w)) % a.p


def stacks(a, rng):
    """Named stacks of maps with entries in [0, p): derivations and non-derivations."""
    der = hoch._derivation_space(a)
    basis = der.matrices(der.basis)
    yield "der", basis
    yield "der-combinations", der.matrices(gfp.matmul(rng.integers(0, a.p, (6, der.dim)), der.basis, a.p))
    rand = rng.integers(0, a.p, size=(6, a.dim, a.dim))
    yield "random", rand
    yield "random-unital", unit_killed(a, rand)
    bumped = basis[:6].copy()
    for f in bumped:  # one entry of each derivation raised by one
        f[tuple(rng.integers(0, a.dim, 2))] += 1
    yield "der-bumped", bumped % a.p


@pytest.mark.parametrize("name", list(BUILDS))
def test_unreduced_residuals_match_the_old_checker(name):
    a = BUILDS[name]()
    rng = np.random.default_rng(11)
    elements = [np.asarray(g) for g in a.generating_set()] + list(rng.integers(0, a.p, (2, a.dim)))
    for kind, maps in stacks(a, rng):
        for s in elements:
            got = unreduced(a, maps[:8], s)
            assert np.array_equal(got, old_gen_block_residual(a, maps[:8], s, reduce=False)), kind
            assert np.array_equal(old_gen_block_residual(a, maps[:8], s), got % a.p), kind


@pytest.mark.parametrize("name", list(BUILDS))
def test_verdicts_match_the_old_checker(name):
    a = BUILDS[name]()
    rng = np.random.default_rng(12)
    gen_sets = [a.generating_set()]
    if a.dim <= hoch.DENSE_SOLVER_LIMIT:
        gen_sets.append(np.eye(a.dim, dtype=np.int64))  # the all-pairs pass
    verdicts = {}
    for kind, maps in stacks(a, rng):
        verdicts[kind] = hoch._leibniz_failure(a, maps)
        assert verdicts[kind] == old_leibniz_failure(a, maps), kind
        for gens in gen_sets:
            assert checker_fails(a, maps, gens) == old_fails_leibniz(a, maps, gens), kind
    assert verdicts["der"] is None and verdicts["der-combinations"] is None
    assert verdicts["random"] == "produced a map with f(1) != 0"
    assert verdicts["random-unital"] == "produced a non-derivation"


def part_positions(a, s, pos):
    """The residual entries (coordinate, i) that each part writes for a unit change of F at pos."""
    row, col = pos
    x, y, _ = a.right_terms(s)
    ci, cj, ck, _ = a.structure_constants()
    rows = {(int(t), col) for t in y[x == row]}  # R_s F: row x = row lands in row y
    cols = {(row, int(t)) for t in x[y == col]}  # F R_s: column y = col lands in column x
    table = set(zip(ck[cj == row].tolist(), ci[cj == row].tolist())) if s[col] % a.p else set()
    return {"rows": rows, "cols": cols, "table": table}


def reached_only_by(a, kind):
    """The first (element, position) whose unit change fails Leibniz only at entries ``kind`` alone writes."""
    for s in a.generating_set():
        for pos in np.ndindex(a.dim, a.dim):
            change = np.zeros((1, a.dim, a.dim), dtype=np.int64)
            change[(0,) + pos] = 1
            hit = set(zip(*(c.tolist() for c in np.nonzero(old_gen_block_residual(a, change, s)[0]))))
            parts = part_positions(a, s, pos)
            others = set().union(*(v for k, v in parts.items() if k != kind))
            if hit and hit <= parts[kind] - others:
                return np.asarray(s), pos
    raise AssertionError(f"no position is reached only by {kind}")


@pytest.mark.parametrize("name", ["smash321", "tkr-quiver", "non-injective"])
@pytest.mark.parametrize("kind", ["rows", "cols", "table"])
def test_one_entry_change_reached_by_one_part_fails_in_both(name, kind):
    # the change breaks Leibniz only at residual entries that one part writes:
    # the row scatter of R_s F, the column scatter of F R_s, or the table
    a = BUILDS[name]()
    s, pos = reached_only_by(a, kind)
    der = hoch._derivation_space(a)
    f = der.matrices(der.basis)[:1] if der.dim else np.zeros((1, a.dim, a.dim), dtype=np.int64)
    f = f.copy()
    f[(0,) + pos] = (f[(0,) + pos] + 1) % a.p
    assert checker_fails(a, f, [s]) and old_fails_leibniz(a, f, [s])
    assert np.array_equal(unreduced(a, f, s), old_gen_block_residual(a, f, s, reduce=False))
    assert hoch._leibniz_failure(a, f) == old_leibniz_failure(a, f) is not None


def test_all_pairs_verdict_matches_on_a_non_associative_table(monkeypatch):
    # e_22 e_17 raised by one: the maps solved on the generators pass the
    # generator pass, and only the all-pairs pass (d <= 32) sees the table,
    # sorted once for both passes
    a = alg.smash_product(3, 2, 1)[0]
    k = next((k for k, _ in mult_terms(a, 22, 17)), 0)  # the target of e_22 e_17, or e_0 where it is 0
    terms = [np.r_[col, t] for col, t in zip(a.structure_constants(), (22, 17, k, 1))]
    bad = alg.Algebra(a.p, a.labels, terms, a.unit, generators=a.generators, validate=False)
    monkeypatch.setattr(hoch.DerivationSpace, "_verify", lambda self: None)
    space = hoch.DerivationSpace(bad)
    maps = space.matrices(space.basis)
    assert bad.dim <= hoch.DENSE_SOLVER_LIMIT
    sorts, passes = [], []
    by_j, fails = hoch._table_by_j, hoch._fails
    monkeypatch.setattr(hoch, "_table_by_j", lambda a: sorts.append(a) or by_j(a))
    monkeypatch.setattr(hoch, "_fails", lambda a, entries, s, table: passes.append(s) or fails(a, entries, s, table))
    assert hoch._leibniz_failure(bad, maps) == old_leibniz_failure(bad, maps) == "failed the all-pairs check"
    assert sorts == [bad] and len(passes) == 2  # the generators pass, then every basis vector
    assert np.array_equal(passes[0], bad.generating_set()) and np.array_equal(passes[1], np.eye(bad.dim))


@pytest.mark.parametrize("name", ["smash321", "tkr-quiver", "non-injective"])
def test_unit_verdict_matches(name):
    a = BUILDS[name]()
    ident = np.eye(a.dim, dtype=np.int64)[None]
    assert hoch._leibniz_failure(a, ident) == old_leibniz_failure(a, ident) == "produced a map with f(1) != 0"


def test_a_residual_entry_that_is_a_nonzero_multiple_of_p_passes():
    # only the nonzero entries are reduced, and an entry of p or -2p is still
    # = 0 mod p: deciding by res.any() would reject these derivations
    a = BUILDS["u0borel32"]()
    rng = np.random.default_rng(13)
    der = hoch._derivation_space(a)
    maps = der.matrices(gfp.matmul(rng.integers(0, a.p, (8, der.dim)), der.basis, a.p))
    s = np.asarray(a.generating_set()[0])
    exact = old_gen_block_residual(a, maps, s, reduce=False)
    assert exact.any() and not (exact % a.p).any()
    assert np.array_equal(unreduced(a, maps, s), exact)
    assert not checker_fails(a, maps, [s]) and not old_fails_leibniz(a, maps, [s])
    assert hoch._leibniz_failure(a, maps) is None


def test_plans_are_built_once_per_honesty_check(monkeypatch):
    # _verify builds the canonical basis on phi's cells a block at a time and
    # checks all of their entries in one pass of the checker, which sorts the
    # table once; nothing but phi is cached on the algebra
    a = alg.smash_product(3, 3, 1)[0]
    a = alg.Algebra(a.p, a.labels, a.structure_constants(), a.unit, generators=a.generators)
    sorts, blocks, checked = [], [], []
    by_j, on, failure = hoch._table_by_j, hoch.Extender.on, hoch._entries_failure
    monkeypatch.setattr(hoch, "_table_by_j", lambda b: sorts.append(b) or by_j(b))
    reached = hoch.extender(a).cells

    def counted(self, rows, cells=None):
        if cells is not None and np.array_equal(cells, reached):  # a block of _verify
            blocks.append(len(rows))
        return on(self, rows, cells)

    monkeypatch.setattr(hoch.Extender, "on", counted)
    monkeypatch.setattr(hoch, "_entries_failure", lambda b, ent: checked.append(ent[0].size) or failure(b, ent))
    monkeypatch.setattr(hoch, "STREAM_CELLS", 4 * reached.size)  # four maps per block: several blocks
    space = hoch.DerivationSpace(a)
    assert space.dim > 8 and blocks[:2] == [4, 4] and sum(blocks) == space.dim
    assert sorts == [a] and len(checked) == 1
    assert checked[0] == np.count_nonzero(space.matrices(space.basis))  # every nonzero entry of the basis
    assert set(a._derivation_cache) == {"phi"}
