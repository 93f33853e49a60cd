"""The sparse Leibniz residual, differentially against the two dense paths it replaced.

``hochschild._residual_terms`` reads R_s as table terms.  It used to
take a dense R_s and either gather/scatter its columns, when every column
held at most one nonzero, or contract it in a float64 einsum.  Both live on
here as oracles.  They build R_s and the left multiplications densely from
the structure constants with ``np.add.at``, so they share no code with the
scatters under test.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from oracles import checker_fails, entries_of

INT = np.int64


def dense_right(a, s):
    """R_s with R_s[y, x] the e_y coordinate of e_x s."""
    i, j, k, c = a.structure_constants()
    r = np.zeros((a.dim, a.dim), dtype=INT)
    np.add.at(r, (k, i), c * np.asarray(s, dtype=INT)[j])
    return r % a.p


def left_term(a, fstack, s):
    """e_i F(s) as [t, coordinate, i], through dense left multiplications."""
    i, j, k, c = a.structure_constants()
    lmats = np.zeros((a.dim,) * 3, dtype=INT)  # lmats[i] = L_(e_i)
    np.add.at(lmats, (i, k, j), c)
    return np.einsum("iab,tb->tai", lmats, fstack @ s % a.p)


def column_monomial(m):
    """(rows, coefs) if every column of m has at most one nonzero, else None."""
    if ((m != 0).sum(axis=0) > 1).any():
        return None
    rows, coefs = np.zeros(m.shape[0], dtype=INT), np.zeros(m.shape[0], dtype=INT)
    col, row = np.nonzero(m.T)
    rows[col], coefs[col] = row, m[row, col]
    return rows, coefs


def residual_by_gather(a, fstack, s):
    """The column-monomial branch: F R_s is a gather of columns, R_s F a scatter of rows."""
    rows, coefs = column_monomial(dense_right(a, s))
    lhs = fstack[:, :, rows] * coefs
    term_r = np.zeros((a.dim, fstack.shape[0], a.dim), dtype=INT)
    np.add.at(term_r, rows, coefs[:, None, None] * fstack.transpose(1, 0, 2))
    return (lhs - term_r.transpose(1, 0, 2) - left_term(a, fstack, s)) % a.p


def residual_by_einsum(a, fstack, s):
    """The dense branch: F R_s - R_s F - e_i F(s), contracted in float64."""
    f64, rs = fstack.astype(np.float64), dense_right(a, s).astype(np.float64)
    lhs = np.einsum("tab,bi->tai", f64, rs).astype(INT)
    term_r = np.einsum("ab,tbi->tai", rs, f64).astype(INT)
    return (lhs - term_r - left_term(a, fstack, s)) % a.p


def non_injective(p):
    """<1, a, b, c> with J^3 = 0 and a a = a b = c."""
    mult = {(0, 0): [(0, 1)], (1, 1): [(3, 1)], (1, 2): [(3, 1)]}
    for x in (1, 2, 3):
        mult[(0, x)] = mult[(x, 0)] = [(x, 1)]
    return alg.make_algebra(p, ["1", "a", "b", "c"], mult, [1, 0, 0, 0])


TABLES = {
    "smash321": lambda p: alg.smash_product(p, 2, 1)[0],
    "trunc3-21": lambda p: alg.truncated_polynomial(p, (2, 1)),
    "u0borel32": lambda p: alg.u0_borel(p, 2),
    "u0borel-n1": lambda p: alg.u0_borel(p, 1),
    "tkr-trivext": lambda p: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), p)),
    "tkr-quiver": lambda p: alg.quiver_algebra(alg.tkr_quiver(), p),
    "non-injective": non_injective,
}
# the smash, trunc and u0borel(3, 2) tables are named at p = 3; at p = 5 they
# have dim 125 and beyond, where the dense oracles over a Der basis cost
# minutes, so u0borel(5, 1), dim 25, stands in for a multi-term table there
SMALL = ("tkr-trivext", "tkr-quiver", "non-injective")
CASES = [(name, 3) for name in TABLES] + [(name, p) for p in (5, 317) for name in SMALL]
CASES.append(("u0borel-n1", 5))


def elements(a, rng):
    """The generators, every basis vector, and random elements, whose R_s has many terms."""
    eye = np.eye(a.dim, dtype=INT)
    rand = rng.integers(0, a.p, size=(3, a.dim))
    return [np.asarray(g, dtype=INT) for g in a.generating_set()] + list(eye) + list(rand)


def reduced_residual(a, fstack, s):
    """The checker's residual of the stack against s, each block's terms merged mod p, as [t, coordinate, i]."""
    out = np.zeros(fstack.shape[0] * a.dim**2, dtype=INT)
    for keys, vals in hoch._residual_terms(a, entries_of(fstack), s[None], hoch._table_by_j(a)):
        keys, vals = gfp.merge(keys, vals, a.p)
        assert not out[keys].any()  # no entry is summed in two blocks
        out[keys] = vals
    return out.reshape(fstack.shape)


def stacks(a, rng):
    """Random maps, then the canonical Der basis; the solver's honesty check runs the residual."""
    yield "random", rng.integers(0, a.p, size=(5, a.dim, a.dim))
    der = hoch._derivation_space(a)
    yield "der", der.matrices(der.basis)


@pytest.mark.parametrize("name, p", CASES, ids=[f"{n}-p{p}" for n, p in CASES])
def test_residual_matches_the_gather_and_einsum_paths(name, p):
    a = TABLES[name](p)
    rng = np.random.default_rng(p)
    multi_term = 0
    for kind, fstack in stacks(a, rng):
        for s in elements(a, rng):
            got = reduced_residual(a, fstack, s)
            assert got.shape == fstack.shape
            assert np.array_equal(got, residual_by_einsum(a, fstack, s)), (kind, s)
            if column_monomial(dense_right(a, s)) is None:
                multi_term += 1
            else:
                assert np.array_equal(got, residual_by_gather(a, fstack, s)), (kind, s)
            assert got.any() == checker_fails(a, fstack, [s])
            if kind == "der":
                assert not got.any()
        assert kind != "random" or checker_fails(a, fstack, np.eye(a.dim, dtype=INT))
    assert multi_term  # the einsum path, not only the gather, was compared


@pytest.mark.parametrize("p", [3, 5, 317])
def test_right_terms_sum_to_the_dense_right_multiplication(p):
    a = alg.u0_borel(p, 1) if p < 317 else non_injective(p)
    rng = np.random.default_rng(0)
    for s in list(rng.integers(0, p, size=(4, a.dim))) + list(np.eye(a.dim, dtype=INT)):
        x, y, c = a.right_terms(s)
        assert ((0 < c) & (c < p)).all()
        r = np.zeros((a.dim, a.dim), dtype=INT)
        np.add.at(r, (y, x), c)
        assert np.array_equal(r % p, dense_right(a, s))
        assert np.array_equal(a.right_mult_matrix(s), dense_right(a, s))
