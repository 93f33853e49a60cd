"""HH1 relative to the idempotents a smash product carries, differentially against the solve with E = {1}.

A smash product carries E = {u_lambda}, and ``hochschild.hh1`` presents
HH1 = Der_E / ad(C).  ``Algebra.without_idempotents`` is the same table
carrying E = {1}, whose solve is all of Der: the two routes must report the
same dimensions, tables and ``hh1`` JSON.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import checks, cli
from hh1lie import hochschild as hoch
from hh1lie.errors import Hh1LieError, IdempotentViolation
from oracles import mult_terms

# every smash product with d <= 125 at p = 3 and 5: r < n, r = n and r > n at each p
SMASH = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 3, 1), (3, 2, 2), (3, 1, 3), (5, 1, 1), (5, 2, 1), (5, 1, 2)]


@pytest.mark.parametrize("p,n,r", SMASH)
def test_relative_route_matches_the_solve_with_e_1(p, n, r):
    a, desc = alg.smash_product(p, n, r)
    whole = a.without_idempotents
    assert whole is not a and len(whole.idempotents) == 1 and whole.without_idempotents is whole
    rel, full = hoch.hh1(a), hoch.hh1(whole)
    # the unknowns: p^max(n, r) values of F(x) in the blocks u_lambda A u_(lambda - 1), against (p^r + 1) d
    assert rel.space.nv == p ** max(n, r) and full.space.nv == (desc.n_chars + 1) * a.dim
    assert rel.space.centralizer.size == p ** max(n, r) and full.space.centralizer.size == a.dim
    assert (rel.dim_der, rel.dim_ider, rel.dim) == (full.dim_der, full.dim_ider, full.dim)
    assert rel.dim_ider == a.dim - alg.center(a).dim  # Z(A) by the independent narrowing of ``center``
    assert rel.dim == (p ** (n - r) if n >= r else 1)
    assert np.array_equal(rel.bracket_table, full.bracket_table)
    assert np.array_equal(rel.pmap_table, full.pmap_table)
    assert rel.complement_labels == full.complement_labels
    for f, g in zip(rel.complement_basis, full.complement_basis):
        assert np.array_equal(f.matrix, g.matrix)
    assert alg.dumps_canonical(cli._hh1_payload(a, 0)) == alg.dumps_canonical(cli._hh1_payload(whole, 0))


@pytest.mark.parametrize("p,n,r", [(3, 2, 1), (3, 1, 2), (5, 2, 1)])
def test_relative_route_projects_every_derivation(p, n, r):
    # a derivation that does not vanish on E is moved into Der_E by
    # F - ad(sum_i F(e_i) e_i), which keeps its class
    a = alg.smash_product(p, n, r)[0]
    rel, full = hoch.hh1(a), hoch.hh1(a.without_idempotents)
    rng = np.random.default_rng(p * 100 + n * 10 + r)
    space = full.space
    ders = space.matrices(rng.integers(0, p, (6, space.dim)) @ space.basis % p)
    assert np.array_equal(rel.project_rows(ders), full.project_rows(ders))
    assert not rel.project_rows(a.ad_matrices(rng.integers(0, p, (3, a.dim)))).any()


def test_relative_hh1_builds_no_d2_map_of_der_or_ider(monkeypatch):
    # the honesty check builds the Der_E basis as maps, a block at a time, and nothing else does
    a = alg.smash_product(5, 2, 1)[0]
    built = []
    matrices = hoch.Extender.matrices

    def counted(self, rows):
        out = matrices(self, rows)
        built.append(out.shape[0])
        return out

    def no_ad(self, stack):
        raise AssertionError("an ad map was built")

    monkeypatch.setattr(hoch.Extender, "matrices", counted)
    monkeypatch.setattr(alg.Algebra, "ad_matrices", no_ad)
    h = hoch.hh1(a)
    assert sum(built) == h.space.dim == h.dim_der - a.dim + h.space.centralizer.size  # dim Der_E
    assert h.space.window.size == h.space.nv == 25 and h._reps.shape == (h.dim, 25, 25)


def with_idempotents(a, idems, mult=None, **kw):
    """The table of a (or the terms ``mult``) carrying the given idempotents, a's generators and descriptor kept."""
    kw = dict(dict(descriptor=a.descriptor, generators=a.generators), **kw)
    return alg.Algebra(a.p, a.labels, a.structure_constants() if mult is None else mult, a.unit, idempotents=idems, **kw)


def test_the_idempotent_check_rejects_three_sets():
    a, desc = alg.smash_product(3, 1, 1)
    u = [np.eye(a.dim, dtype=np.int64)[desc.index(lam, 0)] for lam in range(3)]
    z = np.eye(a.dim, dtype=np.int64)[desc.index(0, 1)]  # u_0 x, in u_0 A u_2
    with pytest.raises(IdempotentViolation, match="not orthogonal"):
        with_idempotents(a, [u[0] + u[1], u[1] + u[2], 2 * u[1]])  # sums to u_0 + 4 u_1 + u_2 = 1
    with pytest.raises(IdempotentViolation, match="do not sum to 1"):
        with_idempotents(a, [u[0], u[1]])
    # u_0 + z, u_1, u_2 - z are orthogonal idempotents summing to 1, but
    # (u_0 + z) u_2 = z: the basis vector u_2 lies in no e_i A e_j
    odd = [(u[0] + z) % 3, u[1], (u[2] - z) % 3]
    assert np.array_equal(a.mul_vec(odd[0], odd[0]), odd[0]) and not a.mul_vec(odd[0], odd[2]).any()
    with pytest.raises(IdempotentViolation, match=r"basis element 6 \(u2\) lies in no e_i A e_j"):
        with_idempotents(a, odd)
    assert np.array_equal(with_idempotents(a, u).peirce, a.peirce)


def test_a_corrupted_smash_table_raises_on_the_relative_route():
    # the suite's negative control: a stray u_0 on u_0 x * u_0 puts u_0 x in no e_i A e_j
    for n, r in [(1, 1), (2, 1), (1, 2)]:
        bad, _ = checks.SuiteContext(p=3).faulty_smash(n, r)
        with pytest.raises(IdempotentViolation, match="lies in no e_i A e_j"):
            hoch.hh1(bad)
    # a constant raised off the idempotents keeps every block; the honesty check sees it
    sm = alg.smash_product(3, 2, 1)[0]
    for i, j in [(22, 17), (13, 7), (4, 21)]:
        k = next((k for k, _ in mult_terms(sm, i, j)), 0)
        terms = [np.r_[col, t] for col, t in zip(sm.structure_constants(), (i, j, k, 1))]
        bad = with_idempotents(sm, sm.idempotents, mult=terms, validate=False)
        assert np.array_equal(bad.peirce, sm.peirce)
        with pytest.raises(Hh1LieError, match="derivation solver"):
            hoch.hh1(bad)


def test_every_idempotent_must_be_a_generator():
    a = alg.smash_product(3, 1, 1)[0]
    b = with_idempotents(a, a.idempotents, generators=a.generators[-1:])
    with pytest.raises(Hh1LieError, match="every idempotent of E must be a generator"):
        hoch.hh1(b)
