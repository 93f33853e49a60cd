"""Algebra constructors, validation, center, radical checks, blocks, forms."""

import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import cli, gfp
from hh1lie import hochschild as hoch
from hh1lie.errors import (
    AssociativityViolation,
    CounitViolation,
    DimensionMismatch,
    Hh1LieError,
    InfiniteDimensionalQuotient,
    JsonFormatError,
    RadicalUnavailable,
    UnitViolation,
)
from hh1lie.gfp import Subspace, left_kernel, matmul, rref
from oracles import bare, mult_terms, quiver_algebra_from_pairs


def basis_vec(dim, i):
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


def mul_basis(a, i, j):
    """e_i e_j as a coordinate vector, read from the terms of the table."""
    v = np.zeros(a.dim, dtype=np.int64)
    for k, c in mult_terms(a, i, j):
        v[k] = c
    return v


def is_monomial(a):
    """Whether every product of two basis elements has at most one term."""
    i, j = a.structure_constants()[:2]
    return not ((i[1:] == i[:-1]) & (j[1:] == j[:-1])).any()


def monomial_grids(a):
    """Grids (kmat, cmat) with e_i e_j = cmat[i, j] e_kmat[i, j] of a monomial table."""
    assert is_monomial(a)
    i, j, k, c = a.structure_constants()
    kmat, cmat = np.zeros((2, a.dim, a.dim), dtype=np.int64)
    kmat[i, j], cmat[i, j] = k, c
    return kmat, cmat


def from_grids(base, kmat, cmat):
    """An unvalidated copy of base whose table is the grids (kmat, cmat)."""
    i, j = np.nonzero(cmat)
    return alg.Algebra(base.p, base.labels, (i, j, kmat[i, j], cmat[i, j]), base.unit, validate=False)


# -- make_algebra ---------------------------------------------------------------


def test_make_algebra_split_product():
    a = alg.make_algebra(
        3, ["e1", "e2"], {(0, 0): [(0, 1)], (1, 1): [(1, 1)]}, [1, 1]
    )
    assert a.dim == 2
    assert np.array_equal(mul_basis(a, 0, 1), np.zeros(2, dtype=np.int64))


def test_make_algebra_rejects_non_associative():
    # e1*e1 = e2, e1*e2 = e3, e2*e1 = 0 with unit adjoined would break; use a
    # small table failing (e1 e1) e1 = e1 (e1 e1)
    labels = ["1", "a", "b"]
    mult = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, 1)],
        (1, 0): [(1, 1)],
        (0, 2): [(2, 1)],
        (2, 0): [(2, 1)],
        (1, 1): [(2, 1)],
        (1, 2): [(0, 1)],  # a b = 1 but b a = 0: (a a) a != a (a a)
    }
    with pytest.raises(AssociativityViolation):
        alg.make_algebra(3, labels, mult, [1, 0, 0])


def test_make_algebra_rejects_bad_unit():
    mult = {(0, 0): [(0, 1)], (1, 1): [(1, 1)]}
    with pytest.raises(UnitViolation):
        alg.make_algebra(3, ["e1", "e2"], mult, [1, 0])


def test_tkr_quiver_table_is_associative_by_independent_loop():
    # check all 8^3 triples directly through mul_vec, independently of the
    # constructor's own chunked validation
    a = alg.quiver_algebra(alg.tkr_quiver(), 3)
    assert a.dim == 8
    for i in range(8):
        for j in range(8):
            ij = mul_basis(a, i, j)
            for k in range(8):
                left = a.mul_vec(ij, basis_vec(8, k))
                right = a.mul_vec(basis_vec(8, i), mul_basis(a, j, k))
                assert np.array_equal(left, right)


def dense_assoc_failure(a):
    """First triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), or None.

    The oracle for the sparse join: the dense product tensor m[i, j] = e_i e_j,
    both sides compared one first index i at a time.
    """
    d, p = a.dim, a.p
    i, j, k, c = a.structure_constants()
    m = np.zeros((d, d, d))
    np.add.at(m, (i, j, k), c)
    for i in range(d):
        lhs = m[i] @ m.reshape(d, d * d)  # (e_i e_j) e_k at [j, k * d + s]
        rhs = m.reshape(d * d, d) @ m[i]  # e_i (e_j e_k) at [j * d + k, s]
        bad = np.argwhere(((lhs.reshape(d, d, d) - rhs.reshape(d, d, d)) % p).any(axis=2))
        if bad.size:
            return i, int(bad[0, 0]), int(bad[0, 1])
    return None


def support_assoc_failure(a):
    """First failing triple by the support-triple walk of a monomial table, or None.

    (e_i e_j) e_k needs c_ij != 0 and e_i (e_j e_k) needs c_jk != 0, so those
    two triple sets hold every failure; the smaller first failure is reported.
    """
    kmat, cmat = monomial_grids(a)
    d, p = a.dim, a.p
    pi, pj = np.nonzero(cmat)
    cij, kij = cmat[pi, pj], kmat[pi, pj]

    def first(c2, k2, c3, k3):
        hit = np.argwhere((c2 % p != c3 % p) | ((c2 % p != 0) & (k2 != k3)))
        return hit[0] if hit.size else None

    bad = []
    jk = kmat[pj]  # rows: pairs (i, j) with c_ij != 0; columns: every k
    hit = first(cij[:, None] * cmat[kij], kmat[kij], cmat[pj] * cmat[pi[:, None], jk], kmat[pi[:, None], jk])
    if hit is not None:
        bad.append((int(pi[hit[0]]), int(pj[hit[0]]), int(hit[1])))
    i = np.arange(d)[:, None]  # rows: every i; columns: pairs (j, k) with c_jk != 0
    ij = kmat[i, pi]
    hit = first(cmat[i, pi] * cmat[ij, pj], kmat[ij, pj], cij * cmat[i, kij], kmat[i, kij])
    if hit is not None:
        bad.append((int(hit[0]), int(pi[hit[1]]), int(pj[hit[1]])))
    return min(bad) if bad else None


@pytest.mark.parametrize("p", [191, 251])
def test_signed_truncated_basis_is_associative_at_large_p(p):
    # k[x]/(x^5) on the basis 1, x, x^2, -x^3, x^4: coefficients p - 1 make
    # products of two coefficients exceed 2^15, so 16-bit arithmetic is wrong
    sign = [1, 1, 1, -1, 1]
    mult = {
        (i, j): [(i + j, sign[i] * sign[j] * sign[i + j])]
        for i in range(5)
        for j in range(5)
        if i + j < 5
    }
    a = alg.make_algebra(p, ["1", "x", "x^2", "-x^3", "x^4"], mult, basis_vec(5, 0))
    assert is_monomial(a) and mul_basis(a, 1, 2).tolist() == [0, 0, 0, p - 1, 0]
    assert dense_assoc_failure(a) is None
    a._validate_assoc()


def test_empty_table_is_accepted():
    assert alg.make_algebra(3, [], {}, []).dim == 0


def assoc_failure(check):
    try:
        check()
    except AssociativityViolation as exc:
        return exc.triple
    return None


def corrupted_tables(base, trials, seed, add_terms=True):
    """Copies of base, unvalidated, each with one term's k or c changed or one term added."""
    i, j, k, c = (np.array(x) for x in base.structure_constants())
    d, p = base.dim, base.p
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        t, mode = int(rng.integers(0, i.size)), int(rng.integers(0, 3 if add_terms else 2))
        terms = [i.copy(), j.copy(), k.copy(), c.copy()]
        if mode == 0:
            terms[2][t] = rng.integers(0, d)
        elif mode == 1:
            terms[3][t] = rng.integers(0, p)
        else:
            terms = [np.r_[x, rng.integers(0, n)] for x, n in zip(terms, (d, d, d, p))]
        yield alg.Algebra(p, base.labels, tuple(terms), base.unit, validate=False)


@pytest.mark.parametrize(
    "build",
    [
        lambda: alg.smash_product(3, 2, 1)[0],
        lambda: alg.truncated_polynomial(3, (1, 1)),
        lambda: alg.truncated_polynomial(5, (1,)),
        lambda: alg.truncated_polynomial(3, (2,)),
    ],
    ids=["smash321", "trunc3-11", "trunc5-1", "trunc3-2"],
)
def test_support_triple_check_matches_dense_oracle(build):
    # one corrupted kmat and/or cmat entry per trial; the join, the dense
    # oracle and the support-triple walk agree on acceptance and on the
    # first failing triple
    base = build()
    kmat, cmat = monomial_grids(base)
    d, p = base.dim, base.p
    rng = np.random.default_rng(d * 1000 + p)
    outcomes = set()
    for _ in range(40):
        k2, c2 = kmat.copy(), cmat.copy()
        i, j = (int(x) for x in rng.integers(0, d, 2))
        mode = rng.integers(0, 3)
        if mode != 1:
            k2[i, j] = rng.integers(0, d)
        if mode != 0:
            c2[i, j] = rng.integers(0, p)
        a = from_grids(base, k2, c2)
        join = assoc_failure(a._validate_assoc)
        assert join == dense_assoc_failure(a) == support_assoc_failure(a)
        outcomes.add(join is None)
    assert outcomes == {True, False}


def integral_table(build, p):
    """An algebra whose table has integer constants, taken over GF(p)."""
    a = build()
    return alg.Algebra(p, a.labels, a.structure_constants(), a.unit)


JOIN_CASES = {  # name -> p -> algebra over GF(p)
    "smash521": lambda p: integral_table(lambda: alg.smash_product(5, 2, 1)[0], p),
    "trunc321": lambda p: integral_table(lambda: alg.truncated_polynomial(3, (2, 1)), p),
    "u0borel": lambda p: alg.u0_borel(p, 2 if p == 3 else 1),
    "tkron": lambda p: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), p)),
    "tkr": lambda p: alg.quiver_algebra(alg.tkr_quiver(), p),
    "tsmash321": lambda p: integral_table(lambda: alg.trivial_extension(alg.smash_product(3, 2, 1)[0]), p),
}


@pytest.mark.parametrize(  # u0borel(251, n) has dim at least 251^2
    "case,p", [(case, p) for case in sorted(JOIN_CASES) for p in (3, 5, 251) if (case, p) != ("u0borel", 251)]
)
def test_join_matches_dense_oracle_on_corrupted_tables(case, p):
    # multi-term tables (u0borel, and every table once a term is added) and
    # monomial ones; the support-triple walk is checked too where it applies
    base = JOIN_CASES[case](p)
    big = base.dim > 64  # smash521: the dense oracle is too slow, the support walk is the old check
    outcomes = []
    for a in corrupted_tables(base, 6 if big else 12, base.dim + p, add_terms=not big):
        join = assoc_failure(a._validate_assoc)
        if is_monomial(a):
            assert join == support_assoc_failure(a)
        if not big:
            assert join == dense_assoc_failure(a)
        outcomes.append(join is None)
    assert False in outcomes
    assert assoc_failure(base._validate_assoc) is None


def test_u0borel_above_dim_64_builds_and_a_corrupted_copy_is_rejected():
    a = alg.u0_borel(5, 2)  # dim 125, multi-term: rejected when only monomial tables were joined
    assert a.dim == 125 and not is_monomial(a)
    i, j, k, c = (np.array(x) for x in a.structure_constants())
    c[-1] = (c[-1] + 1) % a.p
    bad = alg.Algebra(a.p, a.labels, (i, j, k, c), a.unit, validate=False)
    first = assoc_failure(bad.validate)
    assert first is not None and first == dense_assoc_failure(bad)


def direct_product(*factors):
    """A_1 x ... x A_n on the concatenated bases; e_a e_b = 0 across factors."""
    terms, shift = [[], [], [], []], 0
    for f in factors:
        for n, x in enumerate(f.structure_constants()):
            terms[n].append(x + shift if n < 3 else x)
        shift += f.dim
    labels = [f"{n}:{lbl}" for n, f in enumerate(factors) for lbl in f.labels]
    unit = np.concatenate([f.unit for f in factors])
    return alg.Algebra(factors[0].p, labels, tuple(np.concatenate(x) for x in terms), unit, validate=False)


def test_a_failure_in_a_later_block_of_first_indices(monkeypatch):
    # u0borel(7, 1) twice has about 1.1 * 2^20 join terms, so the corrupted
    # last factor, whose basis comes last, starts in the second block
    u = alg.u0_borel(7, 1)
    t = alg.truncated_polynomial(7, (1,))
    i, j, k, c = (np.array(x) for x in t.structure_constants())
    c[np.flatnonzero((i == 1) & (j == 5))] = 2  # x x^5 = 2 x^6, but (x x) x^4 = x^6
    bad = alg.Algebra(7, t.labels, (i, j, k, c), t.unit, validate=False)
    a = direct_product(u, u, bad)
    calls = []
    merge = alg.gfp.merge
    monkeypatch.setattr(alg.gfp, "merge", lambda *args: calls.append(1) or merge(*args))
    # products across factors vanish, so the failures are those of the last factor, shifted
    assert assoc_failure(a._validate_assoc) == tuple(x + 2 * u.dim for x in dense_assoc_failure(bad))
    assert len(calls) > 1
    calls.clear()
    assert assoc_failure(direct_product(u, u, t)._validate_assoc) is None and len(calls) > 1


# -- constructor tables against the grid loops they replaced -----------------------


def grid_terms(kmat, cmat):
    """Sorted [i, j, k, c] of the terms of grids e_i e_j = cmat[i, j] e_kmat[i, j]."""
    i, j = np.nonzero(cmat)
    return np.stack([i, j, kmat[i, j], cmat[i, j]], axis=1).tolist()


def old_truncated_grids(p, exponents):
    bounds = [p**a for a in exponents]
    basis = list(itertools.product(*[range(b) for b in bounds]))
    index = {mono: i for i, mono in enumerate(basis)}
    dim = len(basis)
    kmat = np.zeros((dim, dim), dtype=np.int32)
    cmat = np.zeros((dim, dim), dtype=np.int64)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            s = tuple(x + y for x, y in zip(a, b))
            if all(x < bnd for x, bnd in zip(s, bounds)):
                kmat[i, j] = index[s]
                cmat[i, j] = 1
    return kmat, cmat


def old_smash_grids(p, n, r):
    desc = alg.SmashDescriptor(p, n, r)
    nc, xb = desc.n_chars, desc.x_bound
    lam = np.arange(nc)
    jj = np.arange(xb)
    # (u_lam x^i)(u_mu x^j) = [lam == mu + i*alpha] * u_lam x^(i+j)
    lam_i = np.repeat(lam, xb)  # row index -> lambda
    i_i = np.tile(jj, nc)  # row index -> i
    mu_j = np.repeat(lam, xb)
    j_j = np.tile(jj, nc)
    match = (lam_i[:, None] - mu_j[None, :] - i_i[:, None] * desc.alpha) % nc == 0
    exp = i_i[:, None] + j_j[None, :]
    nonzero = match & (exp < xb)
    kmat = np.where(nonzero, lam_i[:, None] * xb + np.minimum(exp, xb - 1), 0).astype(np.int32)
    return kmat, nonzero.astype(np.int64)


def old_split_semisimple_grids(m):
    kmat = np.zeros((m, m), dtype=np.int32)
    cmat = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        kmat[i, i] = i
        cmat[i, i] = 1
    return kmat, cmat


def old_u0_borel_terms(p, n):
    """Sorted [i, j, k, c] of u0borel(p, n), each product summed in a dict."""
    xb = p**n

    def idx(b, a):
        return b * p + a

    terms = []
    binom = [[math.comb(a, k) for k in range(a + 1)] for a in range(p)]
    for b in range(xb):
        for a in range(p):
            for c in range(xb):
                for d_ in range(p):
                    if b + c >= xb:
                        continue
                    # t^a x^c = x^c (t + c)^a, then t^(k+d) with t^p = t
                    acc: dict[int, int] = {}
                    for k in range(a + 1):
                        coeff = binom[a][k] * pow(c, a - k, p) % p
                        if coeff == 0:
                            continue
                        e = k + d_
                        while e >= p:
                            e -= p - 1
                        tgt = idx(b + c, e)
                        acc[tgt] = (acc.get(tgt, 0) + coeff) % p
                    terms += [[idx(b, a), idx(c, d_), t, v] for t, v in sorted(acc.items()) if v]
    return sorted(terms)


GRID_CASES = {  # name -> (build, old terms)
    **{
        f"trunc-{p}-{''.join(map(str, e))}": (
            lambda p=p, e=e: alg.truncated_polynomial(p, e),
            lambda p=p, e=e: grid_terms(*old_truncated_grids(p, e)),
        )
        for p in (3, 5, 7)
        for e in ((1,), (2, 1), (1, 1, 1))
    },
    **{
        f"smash-{p}-{n}-{r}": (
            lambda p=p, n=n, r=r: alg.smash_product(p, n, r)[0],
            lambda p=p, n=n, r=r: grid_terms(*old_smash_grids(p, n, r)),
        )
        for p in (3, 5, 7)
        for n, r in ((1, 1), (2, 1), (1, 2))
    },
    **{
        f"u0borel-{p}-{n}": (lambda p=p, n=n: alg.u0_borel(p, n), lambda p=p, n=n: old_u0_borel_terms(p, n))
        for p, n in ((3, 1), (3, 2), (5, 1), (7, 1))
    },
    **{
        f"gf3^{m}": (lambda m=m: alg.split_semisimple(3, m), lambda m=m: grid_terms(*old_split_semisimple_grids(m)))
        for m in (1, 4)
    },
}


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_constructor_tables_match_the_old_loops(case):
    build, old_terms = GRID_CASES[case]
    assert np.stack(build().structure_constants(), axis=1).tolist() == old_terms()


# -- truncated polynomial rings ---------------------------------------------------


def test_truncated_polynomial_single_variable():
    a = alg.truncated_polynomial(3, (1,))
    assert a.dim == 3
    assert a.labels == ["1", "x1", "x1^2"]
    x = basis_vec(3, 1)
    assert np.array_equal(a.mul_vec(x, a.mul_vec(x, x)), np.zeros(3, dtype=np.int64))


def test_truncated_polynomial_commutative():
    a = alg.truncated_polynomial(3, (1, 1))
    assert a.dim == 9
    for i in range(9):
        for j in range(9):
            assert np.array_equal(mul_basis(a, i, j), mul_basis(a, j, i))


def test_truncated_polynomial_high_exponent():
    a = alg.truncated_polynomial(3, (2,))
    assert a.dim == 9
    x = basis_vec(9, 1)
    power = x.copy()
    for _ in range(7):
        power = a.mul_vec(power, x)
    assert power.any()  # x^8 != 0
    assert not a.mul_vec(power, x).any()  # x^9 = 0


def test_truncated_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        alg.truncated_polynomial(3, ())
    with pytest.raises(ValueError):
        alg.truncated_polynomial(3, (0,))


# -- smash products ----------------------------------------------------------------


def test_smash_multiplication_example():
    a, desc = alg.smash_product(3, 1, 1)
    assert a.dim == 9
    # (u_1 x)(u_0 x) = u_1 x^2 != 0
    prod = mul_basis(a, desc.index(1, 1), desc.index(0, 1))
    want = basis_vec(9, desc.index(1, 2))
    assert np.array_equal(prod, want)


def test_smash_idempotents():
    a, desc = alg.smash_product(3, 1, 1)
    for lam in range(3):
        u = basis_vec(a.dim, desc.index(lam, 0))
        assert np.array_equal(a.mul_vec(u, u), u)


def test_smash_x_nilpotency_degree():
    a, desc = alg.smash_product(3, 2, 1)
    x = desc.x_vector()
    power = a.unit.copy()
    for k in range(1, 9):
        power = a.mul_vec(power, x)
        assert power.any(), f"x^{k} vanished too early"
    assert not a.mul_vec(power, x).any()  # x^9 = 0


def test_smash_multiplication_rule_exhaustive_p3():
    for n in (1, 2):
        for r in (1, 2):
            a, desc = alg.smash_product(3, n, r)
            nc = desc.n_chars
            x = desc.x_vector()
            for lam in range(nc):
                ul = basis_vec(a.dim, desc.index(lam, 0))
                ulx = a.mul_vec(ul, x)
                assert np.array_equal(
                    ulx, a.mul_vec(x, basis_vec(a.dim, desc.index((lam - 1) % nc, 0)))
                )
                for mu in range(nc):
                    um = basis_vec(a.dim, desc.index(mu, 0))
                    want = a.mul_vec(x, um) if lam == (mu + 1) % nc else np.zeros(a.dim, dtype=np.int64)
                    assert np.array_equal(a.mul_vec(ulx, um), want)


def scanned_smash_terms(p, n, r):
    """(i, j, k) of the smash table by the scan over all d^2 pairs that the constructor used to make."""
    desc = alg.SmashDescriptor(p, n, r)
    nc, xb = desc.n_chars, desc.x_bound
    lam, a = np.divmod(np.arange(p ** (n + r)), xb)
    i, j = np.nonzero(((lam[:, None] - lam - a[:, None] * desc.alpha) % nc == 0) & (a[:, None] + a < xb))
    return i, j, i + a[j]


# every smash product the tests, the suite at p = 3, 5 and 7, the benchmark and CI build
SMASH_BUILT = [
    (3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 4, 1), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 1, 3), (3, 2, 3),
    (5, 1, 1), (5, 2, 1), (5, 3, 1), (5, 1, 2), (5, 2, 2), (7, 1, 1), (7, 2, 1), (7, 1, 2), (7, 2, 2),
]


@pytest.mark.parametrize("p,n,r", SMASH_BUILT, ids=[f"smash-{p}-{n}-{r}" for p, n, r in SMASH_BUILT])
def test_smash_table_equals_the_pair_scan(p, n, r):
    i, j, k, c = alg.smash_product(p, n, r)[0].structure_constants()
    oi, oj, ok = scanned_smash_terms(p, n, r)
    assert np.array_equal(i, oi) and np.array_equal(j, oj) and np.array_equal(k, ok)
    assert (c == 1).all()


def test_smash_at_the_largest_dimension_builds_without_a_pair_scan():
    # smash(127, 1, 1) has d = 16,129: the d x d scan allocated 1.94 GiB per array;
    # the table has p^r * p^n (p^n + 1) / 2 terms
    tracemalloc.start()
    try:
        a, desc = alg.smash_product(127, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.dim == 127**2 and a.structure_constants()[0].size == 127 * 127 * 128 // 2
    assert peak < 1 << 30


def test_smash_rejects_bad_parameters():
    with pytest.raises(ValueError):
        alg.smash_product(3, 0, 1)
    with pytest.raises(ValueError):
        alg.smash_product(2, 1, 1)


# -- quivers -----------------------------------------------------------------------


def test_kronecker_dimension():
    a = alg.quiver_algebra(alg.kronecker_quiver(), 3)
    assert a.dim == 4
    assert set(a.labels) == {"e1", "e2", "x", "y"}


def test_tkr_quiver_dimension():
    a = alg.quiver_algebra(alg.tkr_quiver(), 3)
    assert a.dim == 8


def test_loop_quiver_infinite_dimensional():
    loop = alg.QuiverPresentation(("1",), (("a", "1", "1"),))
    with pytest.raises(InfiniteDimensionalQuotient):
        alg.quiver_algebra(loop, 3)


def test_quiver_relation_identifies_paths():
    a = alg.quiver_algebra(alg.tkr_quiver(), 3)
    lbl = {name: i for i, name in enumerate(a.labels)}
    x1y2 = mul_basis(a, lbl["x1"], lbl["y2"])
    y1x2 = mul_basis(a, lbl["y1"], lbl["x2"])
    assert x1y2.any()
    assert np.array_equal(x1y2, y1x2)
    assert not mul_basis(a, lbl["x2"], lbl["x1"]).any()
    assert not mul_basis(a, lbl["x1"], lbl["x2"]).any()


def test_quiver_path_explosion_raises_at_the_per_length_bound():
    # four loops and a^3 = 0: 4^n paths of length n, and no length saturates
    q = alg.QuiverPresentation(("1",), tuple((a, "1", "1") for a in "abcd"), (((1, ["a", "a", "a"]),),))
    start = time.monotonic()
    with pytest.raises(InfiniteDimensionalQuotient, match="more than 1024 paths of length 6"):
        alg.quiver_algebra(q, 3)
    assert time.monotonic() - start < 2.0


def random_presentation(rng):
    """A homogeneous presentation: <= 3 vertices, <= 4 arrows, <= 8 relations of length 2-3."""
    verts = [str(v) for v in range(1, rng.randint(1, 3) + 1)]
    arrows = [(a, rng.choice(verts), rng.choice(verts)) for a in "abcd"[: rng.randint(1, 4)]]
    ends = {a: (s, t) for a, s, t in arrows}
    paths, parallel = [(a,) for a in ends], {}
    for n in (2, 3):
        paths = [w + (a,) for w in paths for a in ends if ends[a][0] == ends[w[-1]][1]]
        for w in paths:
            parallel.setdefault((ends[w[0]][0], ends[w[-1]][1], n), []).append(list(w))
    rels = []
    for _ in range(rng.randint(0, 8) if parallel else 0):
        group = parallel[rng.choice(sorted(parallel))]
        terms = rng.sample(group, min(len(group), rng.randint(1, 3)))
        rels.append(tuple((rng.choice([-2, -1, 1, 2, 3]), w) for w in terms))
    return alg.QuiverPresentation(tuple(verts), tuple(arrows), tuple(rels))


def quiver_outcome(build, q, p):
    """Canonical JSON of the built algebra, None, or the type of the exception raised."""
    try:
        a = build(q, p)
    except Exception as exc:
        return type(exc)
    return None if a is None else alg.dumps_canonical(a.to_json_dict())


def test_quiver_builder_matches_the_pairwise_oracle_on_random_presentations():
    rng, compared, built = random.Random(20241019), 0, 0
    for _ in range(200):
        q, p = random_presentation(rng), rng.choice([3, 5, 7])
        want = quiver_outcome(lambda q, p: quiver_algebra_from_pairs(q, p, max_paths=60), q, p)
        if want is None:  # the oracle listed too many paths to finish quickly
            continue
        assert quiver_outcome(alg.quiver_algebra, q, p) == want, q
        compared += 1
        built += isinstance(want, str)
    assert compared >= 100 and 0 < built < compared


@pytest.mark.parametrize("k", [4, 8, 12, 16])
def test_radical_square_zero_quiver_matches_the_pairwise_oracle(k):
    loops = tuple((f"a{i}", "1", "1") for i in range(k))
    squares = tuple(((1, [a, b]),) for (a, *_), (b, *_) in itertools.product(loops, loops))
    q = alg.QuiverPresentation(("1",), loops, squares)
    a = alg.quiver_algebra(q, 5)
    assert a.dim == k + 1
    assert alg.dumps_canonical(a.to_json_dict()) == quiver_outcome(quiver_algebra_from_pairs, q, 5)


# -- trivial extensions --------------------------------------------------------------


def test_trivial_extension_of_field_is_dual_numbers():
    a = alg.trivial_extension(alg.split_semisimple(3, 1))
    assert a.dim == 2
    eps = basis_vec(2, 1)
    assert not a.mul_vec(eps, eps).any()
    assert a.counit is not None


def test_trivial_extension_dual_square_zero():
    kr = alg.quiver_algebra(alg.kronecker_quiver(), 3)
    te = alg.trivial_extension(kr)
    assert te.dim == 8
    for i in range(4, 8):
        for j in range(4, 8):
            assert not mul_basis(te, i, j).any()


def test_trivial_extension_matches_bound_quiver_table():
    # explicit identification of basis elements, products compared entrywise
    kr = alg.quiver_algebra(alg.kronecker_quiver(), 3)
    te = alg.trivial_extension(kr)
    tq = alg.quiver_algebra(alg.tkr_quiver(), 3)
    target = {
        "e1": "e1",
        "e2": "e2",
        "x1": "x",
        "y1": "y",
        "x2": "y*",
        "y2": "x*",
        "y1*x2": "e1*",
        "y2*x1": "e2*",
    }
    mapping = [te.labels.index(target[lbl]) for lbl in tq.labels]
    for i in range(8):
        for j in range(8):
            prod_te = mul_basis(te, mapping[i], mapping[j])
            mapped = np.zeros(8, dtype=np.int64)
            for k, c in enumerate(mul_basis(tq, i, j)):
                if c:
                    mapped[mapping[k]] = c
            assert np.array_equal(prod_te, mapped), (tq.labels[i], tq.labels[j])


# -- u0_borel -----------------------------------------------------------------------


def test_u0_borel_relations():
    a = alg.u0_borel(3, 1)
    assert a.dim == 9
    x = basis_vec(9, 3)  # x^1 t^0
    t = basis_vec(9, 1)  # x^0 t^1
    assert np.array_equal((a.mul_vec(t, x) - a.mul_vec(x, t)) % 3, x)
    assert np.array_equal(a.element_power(t, 3), t)
    xp = a.element_power(x, 3)
    assert not xp.any()


def test_u0_borel_dimension_p3_n2():
    a = alg.u0_borel(3, 2)
    assert a.dim == 27
    x = basis_vec(27, 3)
    assert not a.element_power(x, 9).any()
    assert a.element_power(x, 8).any()


# -- center -------------------------------------------------------------------------


def test_center_commutative_is_everything():
    a = alg.truncated_polynomial(3, (1, 1))
    assert alg.center(a).dim == a.dim


def test_center_smash_321():
    a, desc = alg.smash_product(3, 2, 1)
    z = alg.center(a)
    assert z.dim == 3
    v3 = np.zeros(27, dtype=np.int64)
    v6 = np.zeros(27, dtype=np.int64)
    for lam in range(3):
        v3[desc.index(lam, 3)] = 1
        v6[desc.index(lam, 6)] = 1
    assert z.contains_vector(a.unit)
    assert z.contains_vector(v3)
    assert z.contains_vector(v6)


def test_center_smash_dimension_formula():
    # dim Z = p^(n-r) for n >= r, else 1
    for p, n, r in [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (5, 2, 1)]:
        a, _ = alg.smash_product(p, n, r)
        want = p ** (n - r) if n >= r else 1
        assert alg.center(a).dim == want, (p, n, r)


def test_center_tkr_contains_unit_and_socle():
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    z = alg.center(te)
    assert z.contains_vector(te.unit)
    # both vertex socle elements are central, so the center is 3-dimensional
    e1s = basis_vec(8, te.labels.index("e1*"))
    e2s = basis_vec(8, te.labels.index("e2*"))
    assert z.contains_vector(e1s)
    assert z.contains_vector(e2s)
    assert z.dim == 3


# -- commutator and radical ------------------------------------------------------------


def test_commutator_radical_local_commutative():
    a = alg.truncated_polynomial(3, (2,))
    res = alg.commutator_and_radical_checks(a)
    assert res["commutator"].dim == 0
    assert res["lemma21_holds"]
    assert res["J"].dim == 8


def test_commutator_radical_u0_borel_reports_false():
    res = alg.commutator_and_radical_checks(alg.u0_borel(3, 1))
    assert not res["lemma21_holds"]
    assert res["commutator"].dim > 0


def test_commutator_radical_requires_radical_data():
    a = alg.make_algebra(
        3, ["e1", "e2"], {(0, 0): [(0, 1)], (1, 1): [(1, 1)]}, [1, 1]
    )
    with pytest.raises(RadicalUnavailable):
        alg.commutator_and_radical_checks(a)


def test_lemma21_on_all_local_truncated_cases():
    for exps in [(1,), (2,), (1, 1), (2, 1)]:
        a = alg.truncated_polynomial(3, exps)
        assert alg.commutator_and_radical_checks(a)["lemma21_holds"]


# -- blocks -----------------------------------------------------------------------------


def test_blocks_split_semisimple():
    blocks = alg.block_decomposition(alg.split_semisimple(3, 3))
    assert len(blocks) == 3
    assert all(b.dim == 1 for _, b in blocks)


def test_blocks_local_algebra_single():
    blocks = alg.block_decomposition(alg.truncated_polynomial(3, (2,)))
    assert len(blocks) == 1
    assert blocks[0][1].dim == 9


def test_block_idempotent_laws():
    a = alg.split_semisimple(3, 3)
    z = alg.center(a)
    blocks = alg.block_decomposition(a)
    total = np.zeros(a.dim, dtype=np.int64)
    for i, (e, _) in enumerate(blocks):
        assert z.contains_vector(e)
        assert np.array_equal(a.mul_vec(e, e), e)
        for j, (e2, _) in enumerate(blocks):
            if i != j:
                assert not a.mul_vec(e, e2).any()
        total = (total + e) % 3
    assert np.array_equal(total, a.unit)


def test_blocks_u0_borel_single_block_is_whole():
    blocks = alg.block_decomposition(alg.u0_borel(3, 1))
    assert len(blocks) == 1
    assert blocks[0][1].dim == 9


@pytest.mark.parametrize("p", [3, 5])
def test_blocks_of_a_product_whose_center_has_nilpotent_parts(p):
    factors = (
        alg.truncated_polynomial(p, (2,)),
        alg.u0_borel(p, 1),
        alg.truncated_polynomial(p, (1, 1)),
        alg.smash_product(p, 1, 1)[0],
    )
    a = direct_product(*factors)
    blocks = alg.block_decomposition(a)
    assert sorted(b.dim for _, b in blocks) == [p * p] * 4
    total = np.zeros(a.dim, dtype=np.int64)
    for i, (e, _) in enumerate(blocks):
        assert np.array_equal(a.left_mult_matrix(e), a.right_mult_matrix(e))
        assert np.array_equal(a.mul_vec(e, e), e)
        for j, (e2, _) in enumerate(blocks):
            if i != j:
                assert not a.mul_vec(e, e2).any()
        total = (total + e) % p
    assert np.array_equal(total, a.unit)


def hh1_json(a):
    """The ``hh1`` CLI payload of an algebra, as its canonical JSON."""
    return alg.dumps_canonical(cli._hh1_payload(a, 0))


@pytest.mark.parametrize("p", [3, 5])
def test_the_u0borel_block_names_the_generators_and_solves_as_without_them(p):
    ub = alg.u0_borel(p, 1)
    (e, block), = alg.block_decomposition(ub)
    # one block: e = 1, and the block is the parent on the same basis, with its generators
    assert np.array_equal(e, ub.unit)
    assert all(np.array_equal(x, y) for x, y in zip(block.structure_constants(), ub.structure_constants()))
    assert [g.tolist() for g in block.generators] == [g.tolist() for g in ub.generators]
    assert len(block.idempotents) == 1 and block.dim <= 32
    assert hh1_json(block) == hh1_json(bare(block))


def test_the_u0borel_block_at_p7_is_solved_as_its_parent():
    ub = alg.u0_borel(7, 1)
    block = alg.block_decomposition(ub)[0][1]
    assert block.dim == 49 > hoch.DENSE_SOLVER_LIMIT
    with pytest.raises(Hh1LieError, match="dimension 49 needs a generator presentation"):
        hoch.hh1(bare(block))
    got, want = hoch.hh1(block).to_report_dict(), hoch.hh1(ub).to_report_dict()
    assert got.pop("algebra") == "block(u0borel(p=7,n=1))" and want.pop("algebra") == "u0borel(p=7,n=1)"
    assert got == want


def named_product(factors, gens, idempotents=None):
    """``direct_product`` naming the generators ``gens`` and the idempotents, each a pair (factor, vector)."""
    a = direct_product(*factors)
    at = np.cumsum([0] + [f.dim for f in factors])

    def embed(n, v):
        out = np.zeros(a.dim, dtype=np.int64)
        out[at[n] : at[n + 1]] = v
        return out

    return alg.Algebra(
        a.p,
        a.labels,
        a.structure_constants(),
        a.unit,
        generators=tuple(embed(n, v) for n, v in gens),
        idempotents=None if idempotents is None else tuple(embed(n, v) for n, v in idempotents),
    )


def two_block_cases(p):
    trunc, borel, smash = alg.truncated_polynomial(p, (1,)), alg.u0_borel(p, 1), alg.smash_product(p, 1, 1)[0]
    units = [(0, trunc.unit), (1, borel.unit)]
    tgen, borel_gens = (0, trunc.generators[0]), [(1, g) for g in borel.generators]
    # the Kronecker basis is e1, e2, x, y, and its four basis vectors generate it
    kr = alg.quiver_algebra(alg.kronecker_quiver(), p)
    vertices, arrows = [(0, v) for v in np.eye(4, dtype=np.int64)[:2]], [(0, v) for v in np.eye(4, dtype=np.int64)[2:]]
    return {
        # every image is a basis vector: both blocks name them
        "trunc x borel": (named_product((trunc, borel), units + [tgen] + borel_gens), 2),
        # E = the two units, whose images are each block's unit
        "trunc x borel, E": (named_product((trunc, borel), units + [tgen] + borel_gens, units), 2),
        # a repeated image and a zero image are dropped
        "trunc x borel, repeats": (named_product((trunc, borel), borel_gens + units + [tgen] + borel_gens), 2),
        # E = the Kronecker vertices and trunc's unit: the Kronecker block carries both vertices
        "kronecker x trunc, E": (
            named_product((kr, trunc), vertices + arrows + [(1, trunc.unit), (1, tgen[1])], vertices + [(1, trunc.unit)]),
            2,
        ),
        # smash's x = sum u_lambda x has two terms in its block, so that block names none
        "smash x trunc": (
            named_product((smash, trunc), [(0, g) for g in smash.generators] + [(1, trunc.unit), (1, tgen[1])]),
            1,
        ),
    }


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize(
    "case", ["trunc x borel", "trunc x borel, E", "trunc x borel, repeats", "kronecker x trunc, E", "smash x trunc"]
)
def test_blocks_of_a_product_carry_images_phi_accepts_or_none(p, case):
    a, named = two_block_cases(p)[case]
    blocks = alg.block_decomposition(a)
    assert len(blocks) == 2
    assert sum(block.generators is not None for _, block in blocks) == named
    if case == "kronecker x trunc, E":
        assert sorted(len(block.idempotents) for _, block in blocks) == [1, 2]
    for _, block in blocks:
        if block.generators is not None:
            # coefficient-1 basis vectors, each once, so phi seeds at every one of them
            gens = np.stack(block.generators)
            assert (gens.sum(axis=1) == 1).all() and gens.max() == 1
            assert len({int(g.argmax()) for g in gens}) == len(gens)
            hoch.extender(block)  # phi reaches every basis vector from them, or raises
        else:
            assert len(block.idempotents) == 1
        # the same answer as the all-basis solve blocks took before, and nothing new raises
        assert hh1_json(block) == hh1_json(bare(block))


# -- symmetric forms ----------------------------------------------------------------------


def test_symmetric_form_truncated_frobenius():
    a = alg.truncated_polynomial(3, (1,))
    # the Frobenius form B(x^i, x^j) = [i + j == 2] solves the constraints
    frob = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            frob[i, j] = 1 if i + j == 2 else 0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                ab = mul_basis(a, i, j)
                bc = mul_basis(a, j, k)
                lhs = sum(int(ab[m]) * frob[m, k] for m in range(3)) % 3
                rhs = sum(frob[i, m] * int(bc[m]) for m in range(3)) % 3
                assert lhs == rhs
    _, rank, _ = rref(frob, 3)
    assert rank == 3
    found = alg.symmetric_form_search(a, trials=64, seed=0)
    assert found is not None
    _, rank, _ = rref(found, 3)
    assert rank == 3


def test_symmetric_form_tkr_dual_pairing():
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    found = alg.symmetric_form_search(te, trials=64, seed=0)
    assert found is not None
    _, rank, _ = rref(found, 3)
    assert rank == te.dim


def test_symmetric_form_split_semisimple():
    a = alg.split_semisimple(3, 2)
    found = alg.symmetric_form_search(a, trials=64, seed=0)
    assert found is not None
    _, rank, _ = rref(found, 3)
    assert rank == 2


def test_symmetric_form_properties_of_result():
    te = alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3))
    b = alg.symmetric_form_search(te, trials=64, seed=1)
    assert np.array_equal(b, b.T)
    d = te.dim
    for i in range(d):
        for j in range(d):
            ab = mul_basis(te, i, j)
            for k in range(d):
                bc = mul_basis(te, j, k)
                lhs = int(ab @ b[:, k]) % 3
                rhs = int(b[i, :] @ bc) % 3
                assert lhs == rhs


# -- JSON round trip ----------------------------------------------------------------------


def test_algebra_json_round_trip_byte_identical():
    a, _ = alg.smash_product(3, 1, 1)
    blob = alg.dumps_canonical(a.to_json_dict())
    loaded = alg.algebra_from_json_dict(json.loads(blob))
    blob2 = alg.dumps_canonical(loaded.to_json_dict())
    assert blob.encode() == blob2.encode()


@pytest.mark.parametrize(
    "build",
    [
        lambda: alg.truncated_polynomial(3, (99,)),
        lambda: alg.truncated_polynomial(3, (30,)),
        lambda: alg.truncated_polynomial(3, (5, 4)),
        lambda: alg.u0_borel(3, 40),
        lambda: alg.smash_product(3, 40, 1),
        lambda: alg.split_semisimple(3, gfp.MAX_DIM + 1),
    ],
    ids=["trunc-99", "trunc-30", "trunc-5-4", "u0borel-40", "smash-40-1", "semisimple"],
)
def test_constructors_reject_a_dimension_above_max_dim_before_allocating(build):
    # unchecked, these raised OverflowError or MemoryError, or ran out of memory
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"exceeds the supported maximum {gfp.MAX_DIM}"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_algebra_with_more_labels_than_max_dim_raises():
    n = gfp.MAX_DIM + 1
    doc = {"p": 3, "labels": [f"e{i}" for i in range(n)], "unit": [1] + [0] * (n - 1), "mult": []}
    with pytest.raises(DimensionMismatch, match=f"dimension {n} exceeds"):
        alg.algebra_from_json_dict(doc)


def test_algebra_json_rejects_malformed():
    a = alg.truncated_polynomial(3, (1,))
    data = a.to_json_dict()
    bad = dict(data)
    bad["mult"] = [[0, 0, 99, 1]]
    with pytest.raises(JsonFormatError):
        alg.algebra_from_json_dict(bad)
    bad = dict(data)
    del bad["unit"]
    with pytest.raises(JsonFormatError):
        alg.algebra_from_json_dict(bad)


def test_block_decomposition_non_split_center():
    # GF(9) as a two-dimensional GF(3)-algebra: t^2 = -1, irreducible
    from hh1lie.errors import NonSplitCenter

    mult = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, 1)],
        (1, 0): [(1, 1)],
        (1, 1): [(0, 2)],  # t^2 = -1 = 2
    }
    gf9 = alg.make_algebra(3, ["1", "t"], mult, [1, 0])
    with pytest.raises(NonSplitCenter):
        alg.block_decomposition(gf9)


def test_center_dimension_matches_weight_index_range():
    # the center dimension equals the number of valid weight exponents,
    # both p^(n-r) for n >= r and 1 otherwise
    for p, n, r in [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1)]:
        a, desc = alg.smash_product(p, n, r)
        assert alg.center(a).dim == len(desc.outer_exponents()), (p, n, r)


# -- the pairwise-product kernel against the per-pair loops it replaced -----------


def loop_product(a, u, v):
    out = np.zeros(a.dim, dtype=np.int64)
    for i in np.nonzero(u)[0]:
        for j in np.nonzero(v)[0]:
            for k, c in mult_terms(a, int(i), int(j)):
                out[k] += u[i] * v[j] * c
    return out % a.p


PRODUCT_CASES = {
    "u0borel-3-1": lambda: alg.u0_borel(3, 1),  # not monomial
    "u0borel-3-2": lambda: alg.u0_borel(3, 2),
    "trunc-5-11": lambda: alg.truncated_polynomial(5, (1, 1)),
    "smash-3-1-1": lambda: alg.smash_product(3, 1, 1)[0],
    "trivext-kr-3": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 3)),
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_pairwise_products_match_the_per_pair_loop(case):
    a = PRODUCT_CASES[case]()
    rng = np.random.default_rng(len(case))
    u, v = rng.integers(0, a.p, (5, a.dim)), rng.integers(0, a.p, (4, a.dim))
    got = alg._pairwise_products(a, u, v)
    assert got.shape == (5, 4, a.dim)
    for s in range(5):
        for t in range(4):
            assert np.array_equal(got[s, t], loop_product(a, u[s], v[t]))
            assert np.array_equal(a.mul_vec(u[s], v[t]), got[s, t])
        eye = np.eye(a.dim, dtype=np.int64)
        left = np.stack([loop_product(a, u[s], e) for e in eye], axis=1)
        right = np.stack([loop_product(a, e, u[s]) for e in eye], axis=1)
        assert np.array_equal(a.left_mult_matrix(u[s]), left)
        assert np.array_equal(a.right_mult_matrix(u[s]), right)


CONSTANT_CASES = {
    "u0borel-3-2": (lambda: alg.u0_borel(3, 2), False),
    "trivext-kr-5": (lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)), True),
}


@pytest.mark.parametrize("case", sorted(CONSTANT_CASES))
def test_structure_constants_are_built_once_and_read_only(case):
    build, monomial = CONSTANT_CASES[case]
    a = build()
    assert is_monomial(a) == monomial  # both table kinds are covered
    first = a.structure_constants()
    second = a.structure_constants()
    assert all(x is y for x, y in zip(first, second)) and len(second) == 4
    terms = sorted(
        (i, j, k, c) for i in range(a.dim) for j in range(a.dim) for k, c in mult_terms(a, i, j) if c
    )
    assert np.stack(first, axis=1).tolist() == [list(t) for t in terms]
    for arr in first:
        with pytest.raises(ValueError):
            arr[:1] = 0


def test_pairwise_products_across_row_blocks():
    a = alg.smash_product(3, 2, 1)[0]  # d = 27: blocks of 2^18 // (27 * 27) = 359 rows
    rng = np.random.default_rng(27)
    u, v = rng.integers(0, 3, (800, a.dim)), rng.integers(0, 3, (3, a.dim))
    got = alg._pairwise_products(a, u, v)
    for s in range(0, 800, 7):
        assert np.array_equal(got[s], v @ a.left_mult_matrix(u[s]).T % 3)
    assert np.array_equal(got[-1], v @ a.left_mult_matrix(u[-1]).T % 3)


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_span_products_commutators_and_ideal_closure_match_the_loops(case):
    a = PRODUCT_CASES[case]()
    p, d = a.p, a.dim
    eye = np.eye(d, dtype=np.int64)
    comm = [loop_product(a, x, y) - loop_product(a, y, x) for x in eye for y in eye]
    assert alg.commutator_subspace(a) == Subspace.from_vectors(comm, p, d)
    rng = np.random.default_rng(d)
    s1 = Subspace.from_vectors(rng.integers(0, p, (3, d)), p, d)
    s2 = Subspace.from_vectors(rng.integers(0, p, (2, d)), p, d)
    prods = [loop_product(a, u, v) for u in s1.basis for v in s2.basis]
    assert alg._span_products(a, s1, s2) == Subspace.from_vectors(prods, p, d)
    gen = rng.integers(0, p, (1, d)) * (1 - a.unit)  # usually a proper ideal
    span = Subspace.from_vectors(gen, p, d)
    while True:  # the closure one vector at a time
        rows = list(span.basis)
        for w in span.basis:
            rows += [loop_product(a, w, e) for e in eye] + [loop_product(a, e, w) for e in eye]
        grown = Subspace.from_vectors(rows, p, d)
        if grown == span:
            break
        span = grown
    assert alg._ideal_closure(a, gen) == span


# -- center, forms, unit and counit against copies of the loops they replaced -------


def narrow_candidates(cand, resid_fn, p):
    """Shrink a candidate row space by left kernels of column subsamples until resid_fn vanishes."""
    while cand.shape[0]:
        resid = resid_fn(cand) % p
        nzc = np.nonzero(resid.any(axis=0))[0]
        if nzc.size == 0:
            break
        lk = left_kernel(resid[:, nzc[: max(2 * cand.shape[0], 64)]], p)
        cand = matmul(lk, cand, p) if lk.shape[0] else np.zeros((0, cand.shape[1]), dtype=np.int64)
    return cand


def narrowed_center(a):
    d, p = a.dim, a.p
    cand = np.eye(d, dtype=np.int64)
    for i in range(d):
        e = gfp.basis_vector(d, i)
        m = (a.left_mult_matrix(e) - a.right_mult_matrix(e)) % p
        cand = narrow_candidates(cand, lambda c, m=m: matmul(c, m.T, p), p)
    return Subspace.from_vectors(cand, p, d)


def narrowed_form_space(a):
    """Basis of the symmetric associative forms, solved over d^2 unknowns B[i, j]."""
    d, p = a.dim, a.p
    nv = d * d
    cand = np.eye(nv, dtype=np.int64)
    for i in range(d):  # the equations of one first index at a time
        rows = np.zeros((d + d * d, nv), dtype=np.int64)
        for j in range(i + 1, d):  # B(e_i, e_j) = B(e_j, e_i)
            rows[j, i * d + j], rows[j, j * d + i] = 1, p - 1
        for j in range(d):
            for k in range(d):  # B(e_i e_j, e_k) = B(e_i, e_j e_k)
                for t, c in mult_terms(a, i, j):
                    rows[d + j * d + k, t * d + k] += c
                for t, c in mult_terms(a, j, k):
                    rows[d + j * d + k, i * d + t] -= c
        cand = narrow_candidates(cand, lambda c, r=rows % p: matmul(c, r.T, p), p)
    return cand


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_center_and_form_search_match_the_narrowing_loops(case):
    a = PRODUCT_CASES[case]()
    d, p = a.dim, a.p
    assert alg.center(a) == narrowed_center(a)
    space = narrowed_form_space(a)
    # every form is lam(x y) with lam killing [A, A]: the solved space is the
    # Gram matrices of those functionals
    grams = []
    for lam in left_kernel(alg.commutator_subspace(a).basis.T, p):
        grams.append([sum(c * int(lam[k]) for k, c in mult_terms(a, i, j)) % p for i in range(d) for j in range(d)])
    assert Subspace.from_vectors(space, p, d * d) == Subspace.from_vectors(grams, p, d * d)
    rng = np.random.default_rng(0)
    old = None
    for _ in range(64):  # the old search, sampling the solved space
        bmat = matmul(rng.integers(0, p, size=space.shape[0]), space, p).reshape(d, d)
        if rref(bmat, p)[1] == d:
            old = bmat
            break
    found = alg.symmetric_form_search(a, trials=64, seed=0)
    assert (found is None) == (old is None)
    if found is not None:
        assert rref(found, p)[1] == d and np.array_equal(found, found.T)
        assert Subspace.from_vectors(space, p, d * d).contains_vector(found.reshape(-1))


def loop_unit_failure(a):
    for i in range(a.dim):
        e = basis_vec(a.dim, i)
        if not np.array_equal(a.mul_vec(a.unit, e), e) or not np.array_equal(a.mul_vec(e, a.unit), e):
            return ("unit", i)
    return None


def loop_counit_failure(a):
    eps, p = a.counit, a.p
    if int(eps @ a.unit % p) != 1:
        return ("counit", "counit(1) != 1")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = sum(c * int(eps[k]) for k, c in mult_terms(a, i, j))
            if lhs % p != int(eps[i]) * int(eps[j]) % p:
                return ("counit", f"counit not multiplicative at ({i}, {j})")
    return None


def unit_counit_failure(a):
    try:
        a._validate_unit()
        if a.counit is not None:
            a._validate_counit()
    except UnitViolation as exc:
        return ("unit", exc.index)
    except CounitViolation as exc:
        return ("counit", str(exc))
    return None


def local_xy(p):
    """k<x, y>/(x^2, y^2, y x) on 1, x, y, x y: local, with a counit, and not commutative."""
    mult = {(0, t): [(t, 1)] for t in range(4)} | {(t, 0): [(t, 1)] for t in range(1, 4)}
    mult[(1, 2)] = [(3, 1)]
    return alg.make_algebra(p, ["1", "x", "y", "x*y"], mult, basis_vec(4, 0), counit=basis_vec(4, 0))


@pytest.mark.parametrize("case", ["trunc-5-11", "trivext-kr-3", "u0borel-3-2", "smash-3-1-1", "local-xy-5"])
def test_unit_and_counit_checks_match_the_loops(case):
    base = local_xy(5) if case == "local-xy-5" else PRODUCT_CASES[case]()
    d, p = base.dim, base.p
    rng = np.random.default_rng(d)
    outcomes = []
    for trial in range(16):
        unit, counit = base.unit.copy(), None if base.counit is None else base.counit.copy()
        if trial % 2 or counit is None:
            unit[rng.integers(0, d)] = rng.integers(0, p)
        else:
            counit[rng.integers(0, d)] = rng.integers(0, p)
        a = alg.Algebra(p, base.labels, base.structure_constants(), unit, counit=counit, validate=False)
        want = loop_unit_failure(a) or (None if counit is None else loop_counit_failure(a))
        assert unit_counit_failure(a) == want
        outcomes.append(want)
    assert None in outcomes and any(outcomes)
    if case == "local-xy-5":  # counit(x y) = 1 != counit(x) counit(y), while counit(y x) = 0
        a = alg.Algebra(p, base.labels, base.structure_constants(), base.unit, counit=[1, 0, 0, 1], validate=False)
        assert unit_counit_failure(a) == loop_counit_failure(a) == ("counit", "counit not multiplicative at (1, 2)")


def dense_unit_failure(a):
    """The unit check as it was: the dense L_1 and R_1 against the identity."""
    eye = np.eye(a.dim, dtype=np.int64)
    left, right = a.left_mult_matrix(a.unit), a.right_mult_matrix(a.unit)
    bad = np.flatnonzero((left != eye).any(axis=0) | (right != eye).any(axis=0))
    return ("unit", int(bad[0])) if bad.size else None


def dense_counit_failure(a):
    """The counit check as it was: a dense d x d left side against the outer product."""
    eps, d, p = a.counit, a.dim, a.p
    if int(eps @ a.unit % p) != 1:
        return ("counit", "counit(1) != 1")
    i, j, k, c = a.structure_constants()
    lhs = np.zeros((d, d), dtype=np.int64)
    np.add.at(lhs, (i, j), c * eps[k])
    bad = np.argwhere(lhs % p != np.outer(eps, eps) % p)
    return ("counit", f"counit not multiplicative at ({bad[0, 0]}, {bad[0, 1]})") if bad.size else None


def with_counit_one(eps, unit, p):
    """eps changed on the first entry of the unit's support so that eps(1) = 1."""
    eps, lead = eps.copy(), int(np.flatnonzero(unit)[0])
    eps[lead] = 0
    eps[lead] = (1 - int(eps @ unit)) * gfp.inv_mod(unit[lead], p) % p
    return eps


@pytest.mark.parametrize("case", ["trunc-5-11", "trivext-kr-3", "u0borel-3-1", "smash-3-1-1", "local-xy-5"])
def test_sparse_unit_and_counit_checks_match_the_dense_oracles(case):
    # corrupted tables and units, and counits of every support size: the
    # base one, one entry changed, a random sparse one and a dense one
    base = local_xy(5) if case == "local-xy-5" else PRODUCT_CASES[case]()
    d, p = base.dim, base.p
    rng = np.random.default_rng(d + p)
    base_eps = base.counit if base.counit is not None else gfp.basis_vector(d, 0)
    outcomes = []
    for trial, bad in enumerate(corrupted_tables(base, 40, d * p)):
        unit, eps, consts = base.unit.copy(), base_eps.copy(), base.structure_constants()
        mode = trial % 5
        if mode == 0:
            unit[rng.integers(0, d)] = rng.integers(0, p)
        elif mode == 1:
            consts = bad.structure_constants()
        elif mode == 2:
            eps[rng.integers(0, d)] = rng.integers(0, p)
        elif mode == 3:
            eps = np.zeros(d, dtype=np.int64)
            eps[rng.integers(0, d, 2)] = rng.integers(1, p, 2)
        else:
            eps = rng.integers(1, p, d)
        if mode > 2 or trial % 10 == 2:
            eps = with_counit_one(eps, unit, p)
        a = alg.Algebra(p, base.labels, consts, unit, counit=eps, validate=False)
        want = dense_unit_failure(a) or dense_counit_failure(a)
        assert unit_counit_failure(a) == want
        outcomes.append(want and want[0])
    assert {None, "unit", "counit"} <= set(outcomes)


def test_a_large_semisimple_algebra_builds_in_little_memory():
    # the dense unit check held 3 d^2 int64, 3.2 GiB at d = 12000
    tracemalloc.start()
    try:
        a = alg.split_semisimple(3, 12000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.dim == 12000 and peak < 32 << 20
