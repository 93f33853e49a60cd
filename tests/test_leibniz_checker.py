"""The planned Leibniz checker, differentially against the one it replaced.

``hochschild._LeibnizPlan`` plans each element's scatters once per check,
builds the residual in place and reduces only its nonzero entries.
``oracles.old_gen_block_residual``, ``old_fails_leibniz`` and
``old_leibniz_failure`` are the checker before that change: three
zero-filled scatters per block of maps, two adds through transposes and a
mod of every entry.  Both sum the same integers, so the unreduced residuals
agree entry by entry, and so does every verdict.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from oracles import mult_terms, old_fails_leibniz, old_gen_block_residual, old_leibniz_failure
from test_leibniz_residual import TABLES

BUILDS = {name: (lambda build=build: build(3)) for name, build in TABLES.items()}
BUILDS["smash521"] = lambda: alg.smash_product(5, 2, 1)[0]
BUILDS["u0borel52"] = lambda: alg.u0_borel(5, 2)


def unreduced(a, fstack, s):
    """The new checker's exact residual of a block of maps against s, as [t, coordinate, i]."""
    plan = hoch._LeibnizPlan(a, [s])
    return plan.residual(plan.block(fstack), 0).transpose(2, 0, 1)


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
            assert hoch._LeibnizPlan(a, gens).fails(maps) == old_fails_leibniz(a, maps, gens), kind
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
    assert hoch._LeibnizPlan(a, [s]).fails(f) and old_fails_leibniz(a, f, [s])
    assert np.array_equal(unreduced(a, f, s), old_gen_block_residual(a, f, s, reduce=False))
    assert hoch._leibniz_failure(a, f) == old_leibniz_failure(a, f) is not None


def test_all_pairs_verdict_matches_on_a_non_associative_table(monkeypatch):
    # e_22 e_17 raised by one: the maps solved on the generators pass the
    # generator pass, and only the all-pairs pass (d <= 32) sees the table
    a = alg.smash_product(3, 2, 1)[0]
    k = next((k for k, _ in mult_terms(a, 22, 17)), 0)  # the target of e_22 e_17, or e_0 where it is 0
    terms = [np.r_[col, t] for col, t in zip(a.structure_constants(), (22, 17, k, 1))]
    bad = alg.Algebra(a.p, a.labels, terms, a.unit, generators=a.generators, validate=False)
    monkeypatch.setattr(hoch.DerivationSpace, "_verify", lambda self: None)
    space = hoch.DerivationSpace(bad)
    maps = space.matrices(space.basis)
    assert bad.dim <= hoch.DENSE_SOLVER_LIMIT
    assert hoch._leibniz_failure(bad, maps) == old_leibniz_failure(bad, maps) == "failed the all-pairs check"
    plans = hoch._leibniz_plans(bad)
    assert plans[1] is not None and plans[1].table is plans[0].table  # one table plan for both passes


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
    assert not hoch._LeibnizPlan(a, [s]).fails(maps) and not old_fails_leibniz(a, maps, [s])
    assert hoch._leibniz_failure(a, maps) is None


def test_plans_are_built_once_per_honesty_check(monkeypatch):
    # _verify checks every block of the canonical basis on one set of plans,
    # which is cached on the algebra beside phi
    a = alg.smash_product(3, 3, 1)[0]
    a = alg.Algebra(a.p, a.labels, a.structure_constants(), a.unit, generators=a.generators)
    built = []
    plan = hoch._LeibnizPlan

    class Counted(plan):
        def __init__(self, *args):
            built.append(len(args[1]))
            super().__init__(*args)

    monkeypatch.setattr(hoch, "_LeibnizPlan", Counted)
    monkeypatch.setattr(hoch, "STREAM_CELLS", 4 * a.dim**2)  # four maps per block: several blocks
    space = hoch.DerivationSpace(a)
    assert space.dim > 4 and built == [len(a.generating_set())]
    assert set(a._derivation_cache) == {"phi", "plans"}
