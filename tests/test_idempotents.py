"""HH1 relative to the idempotents a smash product carries, differentially against the solve with E = {1}.

A smash product carries E = {u_lambda}, and ``hochschild.hh1`` presents
HH1 = Der_E / ad(C).  The oracle ``whole`` is the same table carrying
E = {1}, whose solve is all of Der: the two routes must report the same
dimensions, tables and ``hh1`` JSON, and ``derivation_space``, which reads
Der off the relative solve, must give that solve's maps byte for byte.
Every other algebra carries E = {1}, the one-block case of the same code:
its ad(A) from the table terms is compared with the d x d maps ad e_i that
the one-block case used to build.
"""

import json

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import checks, cli
from hh1lie import hochschild as hoch
from hh1lie.errors import Hh1LieError, IdempotentViolation
from oracles import mult_terms, old_inner, whole

# every smash product with d <= 125 at p = 3 and 5: r < n, r = n and r > n at each p
SMASH = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 3, 1), (3, 2, 2), (3, 1, 3), (5, 1, 1), (5, 2, 1), (5, 1, 2)]


@pytest.mark.parametrize("p,n,r", SMASH)
def test_relative_route_matches_the_solve_with_e_1(p, n, r):
    a, desc = alg.smash_product(p, n, r)
    one = whole(a)
    assert one is not a and len(one.idempotents) == 1 and whole(one) is one
    rel, full = hoch.hh1(a), hoch.hh1(one)
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
    assert alg.dumps_canonical(cli._hh1_payload(a, 0)) == alg.dumps_canonical(cli._hh1_payload(one, 0))


# every smash product above, then one algebra of each other family that carries E = {1}
DER = {f"smash-{p}-{n}-{r}": (lambda p=p, n=n, r=r: alg.smash_product(p, n, r)[0]) for p, n, r in SMASH}
DER.update(
    {
        "trunc-3-2-1": lambda: alg.truncated_polynomial(3, (2, 1)),
        "u0borel-3-2": lambda: alg.u0_borel(3, 2),
        "trivext-kr-5": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)),
    }
)


@pytest.mark.parametrize("name", DER)
def test_derivation_space_reads_der_off_the_relative_solve(monkeypatch, name):
    # Der = Der_E + ad(A): the canonical basis is the E = {1} solve's, map for
    # map and byte for byte, and the only space solved is the algebra's own
    a = DER[name]()
    solved, init = [], hoch.DerivationSpace.__init__

    def recorded(self, alg_):
        solved.append(alg_)
        init(self, alg_)

    monkeypatch.setattr(hoch.DerivationSpace, "__init__", recorded)
    got = np.stack([f.matrix for f in hoch.derivation_space(a)])
    assert len(solved) == 1 and solved[0] is a
    monkeypatch.undo()
    space = hoch.DerivationSpace(whole(a))
    want = space.matrices(space.basis)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p,n,r", [(3, 2, 1), (3, 1, 2), (5, 2, 1)])
def test_relative_route_projects_every_derivation(p, n, r):
    # a derivation that does not vanish on E is moved into Der_E by
    # F - ad(sum_i F(e_i) e_i), which keeps its class
    a = alg.smash_product(p, n, r)[0]
    rel, full = hoch.hh1(a), hoch.hh1(whole(a))
    rng = np.random.default_rng(p * 100 + n * 10 + r)
    space = full.space
    ders = space.matrices(rng.integers(0, p, (6, space.dim)) @ space.basis % p)
    assert np.array_equal(rel.project_rows(ders), full.project_rows(ders))
    assert not rel.project_rows(a.ad_matrices(rng.integers(0, p, (3, a.dim)))).any()


def assert_no_d2_map_of_der_or_ider(monkeypatch, a, window, nv):
    # the honesty check builds the Der_E basis as maps, a block at a time, and
    # nothing else does but the representatives on W, which is all of A when E = {1}
    built, on_w = [], []
    matrices, columns = hoch.Extender.matrices, hoch.Extender.columns

    def counted(self, rows):
        out = matrices(self, rows)
        if not on_w:
            built.append(out.shape[0])
        return out

    def restricted(self, rows, cols):
        on_w.append(cols)
        try:
            return columns(self, rows, cols)
        finally:
            on_w.pop()

    def no_ad(self, stack):
        raise AssertionError("an ad map was built")

    monkeypatch.setattr(hoch.Extender, "matrices", counted)
    monkeypatch.setattr(hoch.Extender, "columns", restricted)
    monkeypatch.setattr(alg.Algebra, "ad_matrices", no_ad)
    h = hoch.hh1(a)
    assert sum(built) == h.space.dim == h.dim_der - a.dim + h.space.centralizer.size  # dim Der_E
    assert h.space.window.size == window and h.space.nv == nv and h._reps.shape == (h.dim, window, window)


def test_relative_hh1_builds_no_d2_map_of_der_or_ider(monkeypatch):
    assert_no_d2_map_of_der_or_ider(monkeypatch, alg.smash_product(5, 2, 1)[0], 25, 25)


@pytest.mark.parametrize(
    "build,window,nv",
    [
        (lambda: alg.u0_borel(3, 2), 27, 54),  # E = {1}: W = A, and each of x, t has d unknowns
        (lambda: alg.truncated_polynomial(3, (2, 1)), 27, 54),
    ],
    ids=["u0borel-3-2", "trunc-3-2-1"],
)
def test_relative_hh1_with_e_1_builds_no_d2_map_of_der_or_ider(monkeypatch, build, window, nv):
    assert_no_d2_map_of_der_or_ider(monkeypatch, build(), window, nv)


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


def json_trunc_3_1_1():
    """trunc(3, (1, 1)) read back from JSON: it names no generators, so every basis vector is one, 1 = e_0 too."""
    t = alg.truncated_polynomial(3, (1, 1))
    return alg.algebra_from_json_dict(json.loads(alg.dumps_canonical(t.to_json_dict())))


# the lie-hh1 bench algebras, u0borel, trunc(3,(1,1,1)) and a JSON table whose unit is a generator: all carry E = {1}
ONE_BLOCK = {
    "trunc-3-1-1": lambda: alg.truncated_polynomial(3, (1, 1)),
    "trunc-3-3": lambda: alg.truncated_polynomial(3, (3,)),
    "trunc-5-2": lambda: alg.truncated_polynomial(5, (2,)),
    "trunc-3-2-1": lambda: alg.truncated_polynomial(3, (2, 1)),
    "trivext-5": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)),
    "quiver-7": lambda: alg.quiver_algebra(alg.tkr_quiver(), 7),
    "u0borel-3-2": lambda: alg.u0_borel(3, 2),
    "u0borel-5-2": lambda: alg.u0_borel(5, 2),
    "trunc-3-1-1-1": lambda: alg.truncated_polynomial(3, (1, 1, 1)),
    "json-trunc-3-1-1": json_trunc_3_1_1,
}


@pytest.mark.parametrize("name", ONE_BLOCK)
def test_inner_from_the_table_terms_equals_the_d2_ad_maps(name):
    a = ONE_BLOCK[name]()
    assert len(a.idempotents) == 1
    space = hoch._derivation_space(a)
    assert np.array_equal(space.centralizer, np.arange(a.dim))  # C = A
    rows, piv, span = space.inner()
    want_rows, want_piv, want_span = old_inner(space)
    assert np.array_equal(rows, want_rows) and list(piv) == list(want_piv)
    assert np.array_equal(span.basis, want_span.basis) and span.pivots == want_span.pivots


def test_a_generator_equal_to_1_gets_no_unknowns():
    # with E = {1} the slot rule gives a generator in E, here e_0 = 1, no
    # unknowns (F(1) = 0), and every other generator all d coordinates of
    # W = A; the solve, its maps and ad(A) are those with every coordinate an unknown
    a = json_trunc_3_1_1()
    d = a.dim
    assert a.generators is None and a.unit.tolist() == [1] + [0] * (d - 1)
    phi = hoch.extender(a)
    assert np.array_equal(phi.slots, np.arange(d, d * d)) and phi.nv == (d - 1) * d
    assert phi.steps == [] and not phi.matrices(np.ones((1, phi.nv), dtype=np.int64))[0][:, 0].any()
    space = hoch._derivation_space(a)
    b = json_trunc_3_1_1()
    b._derivation_cache["phi"] = hoch.Extender(b, phi.gens)  # every value coordinate an unknown
    every = hoch.DerivationSpace(b)
    assert every.nv == d * d and every.dim == space.dim == 2 * d  # Der of the 2-variable truncated ring
    assert every.pivots == space.pivots
    assert np.array_equal(every.matrices(every.basis), space.matrices(space.basis))
    assert np.array_equal(every.matrices(every.inner()[0]), space.matrices(space.inner()[0]))
    assert np.array_equal(every.inner()[1], space.inner()[1])
    assert alg.dumps_canonical(cli._hh1_payload(a, 0)) == alg.dumps_canonical(cli._hh1_payload(b, 0))


def test_the_suite_builds_no_derivation_space_on_a_copy_without_idempotents(monkeypatch):
    # each algebra is solved once, relative to the idempotents it carries:
    # no smash table is solved again as a copy carrying E = {1}
    solved, init = [], hoch.DerivationSpace.__init__

    def recorded(self, a):
        solved.append(a)
        init(self, a)

    monkeypatch.setattr(hoch.DerivationSpace, "__init__", recorded)
    assert all(r.status == "pass" for r in checks.run_suite(p=3))
    assert solved and len({id(a) for a in solved}) == len(solved)
    assert not any(isinstance(a.descriptor, alg.SmashDescriptor) and len(a.idempotents) == 1 for a in solved)
    assert any(len(a.idempotents) > 1 for a in solved)


# the smash products of dim d <= 343 among those on which the closed form was first compared
CLOSED_FORM = [(3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2), (3, 1, 2), (5, 2, 1), (3, 4, 1), (3, 2, 3), (5, 1, 2), (7, 2, 1)]


@pytest.mark.parametrize("p,n,r", CLOSED_FORM, ids=[f"smash-{p}-{n}-{r}" for p, n, r in CLOSED_FORM])
def test_hh1_tables_of_the_smash_products_have_the_closed_form(p, n, r):
    # HH1(A(p, n, r)) has the basis g_a = g[0, a], a < K = max(1, p^(n - r)),
    # with [g_a, g_b] = (b - a) g_(a + b), 0 when a + b >= K, and the p-map
    # g_a -> g_(pa) when p | a and pa < K, otherwise 0
    h = hoch.hh1(alg.smash_product(p, n, r)[0])
    k = p ** max(n - r, 0)
    g = np.eye(k, dtype=np.int64)
    bracket = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k - i):
            bracket[i, j] = (j - i) * g[i + j] % p
    pmap = np.array([g[p * i] if i % p == 0 and p * i < k else 0 * g[0] for i in range(k)])
    assert h.complement_labels == [f"g[0,{a}]" for a in range(k)]
    assert np.array_equal(h.bracket_table, bracket) and np.array_equal(h.pmap_table, pmap)
