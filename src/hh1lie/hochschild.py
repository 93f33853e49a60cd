"""Derivations, inner derivations and the first Hochschild cohomology.

HH1(A, A) is realized as Der(A)/IDer(A).  Derivations are solved exactly
as the null space of the Leibniz system f(e_i e_j) = f(e_i) e_j + e_i f(e_j).
The unknowns are the values of f on a generating set, which determine f
through a presentation; with no presentation every basis vector is a
generator.  The solver enforces f(1) = 0 together with the pairs (e_i, s)
for every basis element e_i and generator s, which implies the full
system: by induction on word length, f(a w s) = f(a w) s + a w f(s)
extends Leibniz from words w to w s.  The system is built sparse in
int64, deduplicated, and its kernel taken once.

For smash-product algebras the distinguished outer derivations (zero on
every idempotent u_lambda, sending x to u_lambda x^(j p^r + 1)) and the
inner derivations ad(u_lambda x^j) are available by name, and the
complement of IDer inside Der is the span of the weight derivations with
lambda = 0, cross-validated against the pivot-chosen complement.
"""

from __future__ import annotations

import numpy as np

from . import gfp
from .algebras import Algebra, Presentation, SmashDescriptor
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    Hh1LieError,
    WellDefinednessFailure,
)
from .gfp import INT, Subspace, matmul, normalize, rref

DENSE_SOLVER_LIMIT = 32
CHUNK = 1024  # dense rows per elimination step of the derivation solver


class Derivation:
    """A linear map on an algebra, stored as a matrix acting on coordinates."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: Algebra, matrix, validate: bool = False):
        self.algebra = algebra
        self.matrix = normalize(matrix, algebra.p)
        if self.matrix.shape != (algebra.dim, algebra.dim):
            raise DimensionMismatch("derivation matrix shape does not match the algebra")
        if validate and not self.is_derivation():
            raise WellDefinednessFailure("map fails the Leibniz rule on some basis pair")

    def __call__(self, v) -> np.ndarray:
        return matmul(self.matrix, normalize(v, self.algebra.p).reshape(-1), self.algebra.p)

    def is_derivation(self) -> bool:
        """Leibniz rule on every basis pair.

        Small algebras are checked pair by pair.  Larger ones with a
        generator presentation use the equivalent reduced system: f(1) = 0
        and Leibniz against every generator (complete by induction on
        word length).
        """
        a = self.algebra
        stack = self.matrix[None, :, :]
        if a.dim > DENSE_SOLVER_LIMIT and a.presentation is not None:
            if matmul(stack, a.unit, a.p).any():
                return False
            pres = a.presentation
            return not _fails_leibniz(a, stack, pres.gen_vectors, a.presentation_right_mats())
        return not _fails_all_pairs(a, stack)

    def vec(self) -> np.ndarray:
        return self.matrix.reshape(-1)

    def __repr__(self):
        return f"Derivation(dim={self.algebra.dim}, p={self.algebra.p})"


def bracket(f: Derivation, g: Derivation) -> Derivation:
    """Commutator f o g - g o f; a derivation whenever f and g are."""
    if f.algebra is not g.algebra:
        raise AlgebraMismatch("bracket of derivations of different algebras")
    p = f.algebra.p
    m = (matmul(f.matrix, g.matrix, p) - matmul(g.matrix, f.matrix, p)) % p
    return Derivation(f.algebra, m)


def p_power(f: Derivation) -> Derivation:
    """p-fold composition; again a derivation in characteristic p."""
    return Derivation(f.algebra, gfp.mat_pow(f.matrix, f.algebra.p, f.algebra.p))


# -- Leibniz residuals -----------------------------------------------------------


def _pair_block_residual(a: Algebra, fstack: np.ndarray, i: int) -> np.ndarray:
    """Residuals of F(e_i e_j) - F(e_i) e_j - e_i F(e_j) over all j.

    fstack has shape (k, d, d); the result is (k, d*d), zero rows exactly
    on the block's solution space.
    """
    d, p = a.dim, a.p
    k = fstack.shape[0]
    if k == 0:
        return np.zeros((0, d * d), dtype=INT)
    mono = a.monomial_tables()
    if mono is not None:
        kmat, cmat = mono
        lhs = fstack[:, :, kmat[i, :]] * cmat[i, :][None, None, :]
        # f(e_i) e_j = R_j f(e_i): scatter over b with e_b e_j = c e_k
        term_r = np.zeros((d, d, k), dtype=INT)  # (target, j, k)
        bgrid = np.broadcast_to(np.arange(d)[:, None], (d, d))
        flat = kmat * d + bgrid.T  # (b, j) -> (target, j)
        gfp.scatter_add(term_r.reshape(d * d, k), flat, cmat, fstack[:, :, i].T, bgrid)
        # e_i f(e_j) = L_i f(e_j): scatter over b with e_i e_b = c e_k
        term_l = np.zeros((d, d, k), dtype=INT)
        gfp.scatter_add(term_l, kmat[i, :], cmat[i, :], fstack.transpose(1, 2, 0))
        resid = (lhs - term_r.transpose(2, 0, 1) - term_l.transpose(2, 0, 1)) % p
        return resid.reshape(k, d * d)
    ls = a.left_stack().astype(np.float64)
    rs = a.right_stack().astype(np.float64)
    li = ls[i]
    f64 = fstack.astype(np.float64)
    lhs = np.einsum("tab,bj->taj", f64, li)  # columns of L_i are e_i e_j
    term_r = np.einsum("jab,tb->taj", rs, f64[:, :, i])
    term_l = np.einsum("ab,tbj->taj", li, f64)
    resid = (lhs - term_r - term_l).astype(INT) % a.p
    return resid.reshape(k, d * d)


def _column_monomial(m: np.ndarray):
    """(rows, coefs) if every column of m has at most one nonzero, else None."""
    d = m.shape[0]
    counts = (m != 0).sum(axis=0)
    if (counts > 1).any():
        return None
    rows = np.zeros(d, dtype=np.int64)
    coefs = np.zeros(d, dtype=INT)
    nz = np.nonzero(m.T)
    rows[nz[0]] = nz[1]
    coefs[nz[0]] = m[nz[1], nz[0]]
    return rows, coefs


def _gen_block_residual(a: Algebra, fstack: np.ndarray, svec: np.ndarray, rs: np.ndarray):
    """Residuals of F(e_i s) - F(e_i) s - e_i F(s) over all basis indices i.

    rs is the right-multiplication matrix of s.  Shape (k, d * d), zero rows
    exactly on the maps that satisfy Leibniz against s.  Entries stay below
    d * p^2, so mods are deferred to the end.
    """
    d, p = a.dim, a.p
    k = fstack.shape[0]
    if k == 0:
        return np.zeros((0, d * d), dtype=INT)
    colmono = _column_monomial(rs)
    if colmono is not None:
        rows, coefs = colmono
        # F(e_i s) = (F R_s)[:, i]: gather since R_s[:, i] = coefs[i] e_rows[i]
        lhs = fstack[:, :, rows]
        lhs *= coefs[None, None, :]
        # F(e_i) s = (R_s F)[:, i]: scatter rows of F
        term_r = np.zeros((d, k, d), dtype=INT)  # (target, t, i)
        gfp.scatter_add(term_r, rows, coefs, fstack.transpose(1, 0, 2))
        term_r = term_r.transpose(1, 0, 2)
    else:
        f64 = fstack.astype(np.float64)
        lhs = np.einsum("tab,bi->tai", f64, rs.astype(np.float64)).astype(INT)
        term_r = np.einsum("ab,tbi->tai", rs.astype(np.float64), f64).astype(INT)
    # e_i F(s): columns are right-multiplication by the vector y = F(s)
    ys = matmul(fstack, svec, p)  # (k, d)
    mono = a.monomial_tables()
    if mono is not None:
        kmat, cmat = mono
        term_y = np.zeros((d, d, k), dtype=INT)  # (target, i, t)
        jgrid = np.broadcast_to(np.arange(d), (d, d))
        flat = kmat * d + np.arange(d)[:, None]  # (i, j) -> (target, i)
        gfp.scatter_add(term_y.reshape(d * d, k), flat, cmat, ys.T, jgrid)
        term_y = term_y.transpose(2, 0, 1)
    else:
        ls = a.left_stack().astype(np.float64)
        term_y = np.einsum("iab,tb->tai", ls, ys.astype(np.float64)).astype(INT)
    lhs -= term_r
    lhs -= term_y
    return (lhs % p).reshape(k, d * d)


# -- the derivation solver ------------------------------------------------------
#
# The unknowns are the values of F on a generating set: v[t * d + b] is the
# e_b coordinate of F(g_t).  vec(F)[x * d + k] is the e_x coordinate of
# F(e_k), a sparse linear map phi of v.  Sparse matrices are int64 triplets
# (row, column, coefficient), reduced mod p before any two are multiplied.


def _merge(keys: np.ndarray, vals: np.ndarray, p: int):
    """Sum vals over equal keys mod p: sorted distinct keys and nonzero sums."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order] % p
    if keys.size == 0:
        return keys, vals
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, start) % p
    return keys[start][sums != 0], sums[sums != 0]


def _expand(rows: np.ndarray, ptr: np.ndarray):
    """(term, position) for every entry ptr[r] <= position < ptr[r + 1] of r = rows[term]."""
    lo = ptr[rows]
    counts = ptr[rows + 1] - lo
    term = np.repeat(np.arange(rows.size), counts)
    return term, np.arange(term.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _phi(a: Algebra, pres: Presentation, rmats, consts):
    """phi as triplets (vec(F) index, unknown, coefficient), sorted.

    F(e_k) is v_t on a base generator slot, and F(e_parent g_t) =
    R_(g_t) F(e_parent) + L_parent v_t along the steps; it is zero on the
    unit.
    """
    d, p = a.dim, a.p
    nv = len(pres.gen_vectors) * d
    ci, cj, ck, cc = consts
    lptr = np.searchsorted(ci, np.arange(d + 1))  # e_parent e_b = c e_k, by parent
    right = []  # R_g by columns: R_g[x, b] for x in rows[ptr[b] : ptr[b + 1]]
    for rg in rmats:
        b, x = np.nonzero(rg.T)
        right.append((np.searchsorted(b, np.arange(d + 1)), x, rg[x, b]))
    empty = np.zeros(0, dtype=INT)
    cols = [(empty, empty, empty)] * d  # F(e_k) as (coordinate, unknown, coefficient)
    for k, t in pres.base_gen:
        cols[k] = (np.arange(d), t * d + np.arange(d), np.ones(d, dtype=INT))
    for target, parent, t in pres.steps:
        rows, unk, val = cols[parent]
        ptr, r_rows, r_vals = right[t]
        term, pos = _expand(rows, ptr)
        lo, hi = lptr[parent], lptr[parent + 1]
        key, val = _merge(
            np.concatenate([r_rows[pos] * nv + unk[term], ck[lo:hi] * nv + t * d + cj[lo:hi]]),
            np.concatenate([r_vals[pos] * val[term], cc[lo:hi]]),
            p,
        )
        cols[target] = (key // nv, key % nv, val)
    key, val = _merge(
        np.concatenate([(rows * d + k) * nv + unk for k, (rows, unk, _) in enumerate(cols)]),
        np.concatenate([val for _, _, val in cols]),
        p,
    )
    return key // nv, key % nv, val


def _leibniz_terms(a: Algebra, gens, consts):
    """Triplets (equation, vec(F) index, coefficient) of the Leibniz system.

    Equation x < d is coordinate x of F(1) = 0, and equation
    d + (t * d + i) * d + x is coordinate x of F(e_i s) - F(e_i) s - e_i F(s)
    for s = gens[t].  Each term below is one structure constant
    e_i e_j = c e_k, broadcast over a free index.
    """
    d = a.dim
    ci, cj, ck, cc = consts
    ar = np.arange(d)
    u = np.flatnonzero(a.unit)
    parts = [np.broadcast_arrays(ar[:, None], ar[:, None] * d + u, a.unit[u])]
    for t, s in enumerate(gens):
        base = d + t * d * d
        sel = np.flatnonzero(s[cj])
        i, k, c = ci[sel, None], ck[sel, None], (cc[sel] * s[cj[sel]])[:, None]
        ys = np.flatnonzero(s)
        parts += [
            np.broadcast_arrays(base + i * d + ar, ar * d + k, c),  # F(e_i s): c s_j F[x, k]
            np.broadcast_arrays(base + ar * d + k, i * d + ar, -c),  # F(e_x) s: c s_j F[i, x]
            np.broadcast_arrays(  # e_i F(s): c s_y F[j, y] in coordinate k
                base + ci[:, None] * d + ck[:, None], cj[:, None] * d + ys, -cc[:, None] * s[ys]
            ),
        ]
    return [np.concatenate([part[n].ravel() for part in parts]) for n in range(3)]


def _distinct_rows(keys: np.ndarray, vals: np.ndarray, nv: int, p: int):
    """The distinct nonzero rows scaled to a leading 1, shortest first, as triplets.

    keys are sorted equation * nv + unknown.  Rows of one length are
    compared entry by entry, so no two distinct rows are ever merged.
    """
    eq, col = np.divmod(keys, nv)
    start = np.flatnonzero(np.r_[True, eq[1:] != eq[:-1]]) if eq.size else eq
    lengths = np.diff(np.r_[start, eq.size])
    leads, which = np.unique(vals[start], return_inverse=True)
    inv = np.array([gfp.inv_mod(x, p) for x in leads], dtype=INT)
    code = col * p + vals * np.repeat(inv[which], lengths) % p
    empty = np.zeros(0, dtype=INT)
    rows, codes, n = [empty], [empty], 0
    for length in np.unique(lengths):
        block = np.unique(code[start[lengths == length][:, None] + np.arange(length)], axis=0)
        rows.append(np.repeat(np.arange(n, n + block.shape[0]), length))
        codes.append(block.ravel())
        n += block.shape[0]
    code = np.concatenate(codes)
    return np.concatenate(rows), code // p, code % p


def _span_echelon(rows, cols, vals, nv: int, p: int) -> np.ndarray:
    """RREF basis of the span of sparse rows sorted by row, CHUNK rows at a time.

    Each chunk is densified and reduced against the basis so far, so at
    most rank + CHUNK dense rows are held at once.
    """
    basis, pivots = np.zeros((0, nv), dtype=INT), []
    n = int(rows.max(initial=-1)) + 1
    for first in range(0, n, CHUNK):
        lo, hi = np.searchsorted(rows, [first, first + CHUNK])
        part = np.zeros((min(CHUNK, n - first), nv), dtype=INT)
        part[rows[lo:hi] - first, cols[lo:hi]] = vals[lo:hi]
        if pivots:
            part = (part - matmul(part[:, pivots], basis, p)) % p
        part = part[part.any(axis=1)]
        if part.shape[0]:
            basis, rank, pivots = rref(np.vstack([basis, part]), p)
            basis = basis[:rank]
    return basis


def _fails_all_pairs(a: Algebra, fstack: np.ndarray) -> bool:
    return any(_pair_block_residual(a, fstack, i).any() for i in range(a.dim))


def _fails_leibniz(a: Algebra, fstack: np.ndarray, gens, rmats) -> bool:
    """Whether some map fails Leibniz against some generator.

    Eight maps at a time: small residual arrays stay in cache, which made
    the check about 40% faster on smash(5,2,1) than one full-stack call.
    """
    return any(
        _gen_block_residual(a, fstack[t : t + 8], normalize(s, a.p), rs).any()
        for s, rs in zip(gens, rmats)
        for t in range(0, fstack.shape[0], 8)
    )


def _solve_derivations(a: Algebra, pres: Presentation, rmats) -> np.ndarray:
    """Canonical basis (rows of vec(F), RREF) of Der(A).

    One exact kernel of the sparse Leibniz system over the generator
    values, mapped through phi and brought to RREF in vec(F) coordinates.
    """
    d, p = a.dim, a.p
    gens = [normalize(g, p) for g in pres.gen_vectors]
    nv = len(gens) * d
    consts = a.structure_constants()
    fe, unk, val = _phi(a, pres, rmats, consts)
    eq, ent, coef = _leibniz_terms(a, gens, consts)
    term, pos = _expand(ent, np.searchsorted(fe, np.arange(d * d + 1)))
    keys, vals = _merge(eq[term] * nv + unk[pos], coef[term] % p * val[pos], p)
    ker = gfp.kernel(_span_echelon(*_distinct_rows(keys, vals, nv, p), nv, p), p)
    fvecs = np.zeros((d * d, ker.shape[0]), dtype=INT)
    gfp.scatter_add(fvecs, fe, val, np.ascontiguousarray(ker.T), unk)
    basis = gfp.row_space(fvecs.T % p, p)
    stack = basis.reshape(-1, d, d)
    # honesty check on the canonical basis
    if matmul(stack, a.unit, p).any():
        raise Hh1LieError("derivation solver produced a map with f(1) != 0")
    if _fails_leibniz(a, stack, gens, rmats):
        raise Hh1LieError("derivation solver produced a non-derivation")
    if d <= DENSE_SOLVER_LIMIT and _fails_all_pairs(a, stack):
        raise Hh1LieError("derivation solver failed the all-pairs check")
    return basis


def derivation_space(a: Algebra, method: str = "auto") -> list[Derivation]:
    """Basis of Der(A), deterministic via RREF pivots.

    Both methods run the same solver: "generator" on the values of f on the
    presentation's generators, "dense" with every basis vector as a
    generator (the test oracle).  "auto" takes the presentation when there
    is one, else "dense" up to dimension DENSE_SOLVER_LIMIT.
    """
    if method == "auto":
        method = "dense" if a.presentation is None else "generator"
        if method == "dense" and a.dim > DENSE_SOLVER_LIMIT:
            raise Hh1LieError(
                f"dimension {a.dim} needs a generator presentation for the derivation solver"
            )
    if method not in ("dense", "generator"):
        raise ValueError(f"unknown method {method!r}")
    if method == "generator" and a.presentation is None:
        raise Hh1LieError("algebra has no generator presentation")
    # the algebra is immutable, so the solved basis is cached on it
    if method not in a._derivation_cache:
        if method == "generator":
            pres, rmats = a.presentation, a.presentation_right_mats()
        else:
            eye = np.eye(a.dim, dtype=INT)
            pres = Presentation(tuple(eye), (), tuple((k, k) for k in range(a.dim)), ())
            rmats = [a.right_mult_matrix(e) for e in eye]
        a._derivation_cache[method] = _solve_derivations(a, pres, rmats)
    basis = a._derivation_cache[method]
    return [Derivation(a, row.reshape(a.dim, a.dim)) for row in basis]


def inner_derivations(a: Algebra) -> list[Derivation]:
    """Canonical basis of span{ad e_i}."""
    d, p = a.dim, a.p
    rows = []
    for i in range(d):
        ad = (a.basis_left_matrix(i) - a.basis_right_matrix(i)) % p
        rows.append(ad.reshape(-1))
    basis = gfp.row_space(np.vstack(rows), p)
    return [Derivation(a, row.reshape(d, d)) for row in basis]


# -- named derivations on smash products ----------------------------------------


def _basis_vector(dim: int, idx: int) -> np.ndarray:
    v = np.zeros(dim, dtype=INT)
    v[idx] = 1
    return v


def named_inner(desc: SmashDescriptor, lam: int, j: int, algebra: Algebra = None) -> Derivation:
    """The inner derivation ad(u_lambda x^j)."""
    from .algebras import smash_product

    if algebra is None:
        algebra, _ = smash_product(desc.p, desc.n, desc.r)
    if not 0 <= j <= desc.x_bound - 1:
        raise IndexError(f"x-exponent {j} out of range")
    lam %= desc.n_chars
    v = _basis_vector(algebra.dim, desc.index(lam, j))
    m = (algebra.left_mult_matrix(v) - algebra.right_mult_matrix(v)) % algebra.p
    return Derivation(algebra, m)


def named_outer(desc: SmashDescriptor, lam: int, j: int, algebra: Algebra = None) -> Derivation:
    """The weight derivation killing every u_mu with x -> u_lambda x^(j p^r + 1).

    The map is extended to all basis monomials by the Leibniz rule and
    then fully validated; a failure would mean the extension is not well
    defined.
    """
    from .algebras import smash_product

    if algebra is None:
        algebra, _ = smash_product(desc.p, desc.n, desc.r)
    exp = j * desc.p**desc.r + 1
    if not 0 <= exp <= desc.x_bound - 1:
        raise IndexError(f"weight exponent {j} maps to x^{exp}, out of range")
    lam %= desc.n_chars
    d, p = algebra.dim, algebra.p
    vidx = desc.index(lam, exp)
    f = np.zeros((d, d), dtype=INT)
    # f(u_mu) = 0; extend along u_mu x^j = (u_mu x^(j-1)) x by Leibniz:
    # f(col) = R_x f(parent) + e_parent * e_(lam, exp), both monomial
    rows_rx, coefs_rx = _column_monomial(algebra.right_mult_matrix(desc.x_vector()))
    kmat, cmat = algebra.monomial_tables()
    mus = np.arange(desc.n_chars)
    for jj in range(1, desc.x_bound):
        tgt = mus * desc.x_bound + jj
        par = tgt - 1
        cols = np.zeros((d, desc.n_chars), dtype=INT)
        gfp.scatter_add(cols, rows_rx, coefs_rx, f[:, par])
        cols[kmat[par, vidx], mus] += cmat[par, vidx]
        f[:, tgt] = cols % p
    der = Derivation(algebra, f)
    if not der.is_derivation():
        raise WellDefinednessFailure(
            f"Leibniz extension of the weight derivation (lambda={lam}, j={j}) failed"
        )
    return der


def verify_complement(desc: SmashDescriptor, algebra: Algebra = None) -> dict:
    """Check that the lambda=0 weight derivations complement IDer in Der.

    Also confirms the ideal-membership fact that combinations
    sum_i a_i g_(i*alpha, j) with sum a_i = 0 are inner.  Failures are
    reported in the returned dict, never raised.
    """
    from .algebras import smash_product

    if algebra is None:
        algebra, _ = smash_product(desc.p, desc.n, desc.r)
    p, d = algebra.p, algebra.dim
    ders = derivation_space(algebra)
    iders = inner_derivations(algebra)
    der_sub, ider_sub = _span(ders, p, d * d), _span(iders, p, d * d)
    h = [named_outer(desc, 0, j, algebra) for j in desc.outer_exponents()]
    h_mat = np.vstack([f.vec() for f in h])
    h_resid = ider_sub.reduce_rows(h_mat)
    _, h_rank, _ = rref(h_resid, p)
    spans = all(der_sub.contains_vector(f.vec()) for f in h) and (
        ider_sub.dim + len(h) == der_sub.dim and h_rank == len(h)
    )
    shifted_inner = True
    for j in desc.outer_exponents():
        g0 = named_outer(desc, 0, j, algebra)
        for i in range(1, desc.n_chars):
            gi = named_outer(desc, i, j, algebra)
            diff = (g0.vec() - gi.vec()) % p
            if not ider_sub.contains_vector(diff):
                shifted_inner = False
    report = {
        "p": desc.p,
        "n": desc.n,
        "r": desc.r,
        "h_size": len(h),
        "dim_der": der_sub.dim,
        "dim_ider": ider_sub.dim,
        "independent": rref(h_mat, p)[1] == len(h),
        "trivial_intersection": h_rank == len(h),
        "spans": spans,
        "shifted_differences_inner": shifted_inner,
    }
    report["ok"] = all(
        report[key]
        for key in ("independent", "trivial_intersection", "spans", "shifted_differences_inner")
    )
    return report


def _span(ders: list[Derivation], p: int, n: int) -> Subspace:
    """The subspace of GF(p)^n whose canonical basis is the vectorized derivations."""
    return Subspace(p, n, np.vstack([f.vec() for f in ders])) if ders else Subspace.zero(n, p)


# -- HH1 ------------------------------------------------------------------------


class HH1Presentation:
    """Der(A) = IDer(A) + complement, with bracket and p-map on classes.

    complement_basis holds chosen representatives; ``project`` maps any
    derivation in Der(A) to its class coordinates.  The bracket and p-map
    tables are verified to be independent of the representatives by
    re-deriving them after seeded inner perturbations.
    """

    def __init__(self, algebra, der_basis, ider_basis, complement_basis, labels, seed=0):
        self.algebra = algebra
        self.der_basis = der_basis
        self.ider_basis = ider_basis
        self.complement_basis = complement_basis
        self.complement_labels = labels
        p, d = algebra.p, algebra.dim
        self.p = p
        self.dim_der = len(der_basis)
        self.dim_ider = len(ider_basis)
        self.dim = len(complement_basis)
        self._ider_sub = _span(ider_basis, p, d * d)
        self._der_sub = _span(der_basis, p, d * d)
        if self.dim:
            comp_rows = np.vstack([f.vec() for f in complement_basis])
            resid = self._ider_sub.reduce_rows(comp_rows)
            red, rank, piv = rref(resid, p)
            if rank != self.dim:
                raise Hh1LieError("complement representatives are dependent modulo IDer")
            # class coordinates w.r.t. the residuals equal those w.r.t. the
            # representatives, since each residual is inner-equivalent to it
            self._resid_piv = list(piv)
            self._resid_solver = gfp.inverse(resid[:, self._resid_piv], p)
            # the residuals vanish off their support, so a member's residual must too
            self._resid_support = np.flatnonzero(resid.any(axis=0))
            self._resid_on = resid[:, self._resid_support]
        self.bracket_table, self.pmap_table = self._tables(self.complement_basis)
        self._verify_representative_independence(seed)

    def project_rows(self, mat: np.ndarray) -> np.ndarray:
        """Class coordinates for a stack of vectorized derivation matrices."""
        rv = self._ider_sub.reduce_rows(mat)
        if not self.dim:
            if rv.any():
                raise ValueError("matrix is not in IDer + complement")
            return np.zeros((mat.shape[0], 0), dtype=INT)
        coeffs = matmul(rv[:, self._resid_piv], self._resid_solver, self.p)
        # entries lie in (-p, p) after the subtraction, so nonzero means nonzero mod p
        rv[:, self._resid_support] -= matmul(coeffs, self._resid_on, self.p)
        if rv.any():
            raise ValueError("matrix is not in IDer + complement")
        return coeffs

    def project_matrix(self, matrix) -> np.ndarray:
        """Class coordinates of a derivation matrix in the complement basis."""
        v = normalize(matrix, self.p).reshape(-1)
        return self.project_rows(v[None, :])[0]

    def project(self, f: Derivation) -> np.ndarray:
        return self.project_matrix(f.matrix)

    def _tables(self, reps):
        h = len(reps)
        d = self.algebra.dim
        btab = np.zeros((h, h, h), dtype=INT)
        ptab = np.zeros((h, h), dtype=INT)
        if h == 0:
            return btab, ptab
        stack = np.stack([f.matrix for f in reps]).astype(np.float64)
        prod = np.matmul(stack[:, None], stack[None, :])
        comm = (prod - prod.transpose(1, 0, 2, 3)).astype(INT) % self.p
        powers = np.stack([gfp.mat_pow(f.matrix, self.p, self.p) for f in reps])
        rows = np.vstack([comm.reshape(h * h, d * d), powers.reshape(h, d * d)])
        coords = self.project_rows(rows)
        btab = coords[: h * h].reshape(h, h, h)
        ptab = coords[h * h :]
        return btab, ptab

    def _verify_representative_independence(self, seed, trials=4):
        if self.dim == 0 or self.dim_ider == 0:
            return
        rng = np.random.default_rng(seed)
        d = self.algebra.dim
        ider_flat = np.vstack([f.vec() for f in self.ider_basis])
        for _ in range(trials):
            coeffs = rng.integers(0, self.p, size=(self.dim, self.dim_ider))
            shifts = matmul(coeffs, ider_flat, self.p).reshape(self.dim, d, d)
            perturbed = [
                Derivation(self.algebra, (f.matrix + shift) % self.p)
                for f, shift in zip(self.complement_basis, shifts)
            ]
            btab, ptab = self._tables(perturbed)
            if not (
                np.array_equal(btab, self.bracket_table)
                and np.array_equal(ptab, self.pmap_table)
            ):
                raise Hh1LieError("bracket or p-map table depends on the representatives")

    def to_report_dict(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "dim_der": self.dim_der,
            "dim_ider": self.dim_ider,
            "dim_hh1": self.dim,
            "bracket_table": [
                [[int(c) for c in row] for row in plane] for plane in self.bracket_table
            ],
            "pmap_table": [[int(c) for c in row] for row in self.pmap_table],
            "complement_labels": list(self.complement_labels),
        }


def hh1(a: Algebra, method: str = "auto", seed: int = 0) -> HH1Presentation:
    """HH1(A, A) as a deterministic presentation Der = IDer + complement.

    For smash products the complement is the span of the named weight
    derivations with lambda = 0, cross-validated against the pivot-chosen
    complement; otherwise the complement is pivot-chosen.
    """
    p, d = a.p, a.dim
    ders = derivation_space(a, method=method)
    iders = inner_derivations(a)
    der_sub, ider_sub = _span(ders, p, d * d), _span(iders, p, d * d)
    if iders and der_sub.reduce_rows(np.vstack([f.vec() for f in iders])).any():
        raise Hh1LieError("inner derivations escape the derivation space")
    ider_pivots = set(ider_sub.pivots)
    pivot_comp = [
        row.copy() for row, piv in zip(der_sub.basis, der_sub.pivots) if piv not in ider_pivots
    ]
    if a.descriptor is not None:
        desc = a.descriptor
        reps = [named_outer(desc, 0, j, a) for j in desc.outer_exponents()]
        labels = [f"g[0,{j}]" for j in desc.outer_exponents()]
        h_mat = np.vstack([f.vec() for f in reps])
        resid = ider_sub.reduce_rows(h_mat)
        _, rank, _ = rref(resid, p)
        if rank != len(reps):
            raise Hh1LieError("weight derivations do not complement IDer")
        if der_sub.reduce_rows(h_mat).any():
            raise Hh1LieError("weight derivations escape Der")
        if ider_sub.dim + len(reps) != der_sub.dim or len(pivot_comp) != len(reps):
            raise Hh1LieError("weight complement has the wrong dimension")
    else:
        reps = [Derivation(a, v.reshape(d, d)) for v in pivot_comp]
        labels = [f"h{i}" for i in range(len(reps))]
    pres = HH1Presentation(a, ders, iders, reps, labels, seed=seed)
    if a.descriptor is not None and pivot_comp:
        # projection equality: the pivot complement must project bijectively
        proj = np.stack([pres.project_matrix(v.reshape(d, d)) for v in pivot_comp])
        _, rank, _ = rref(proj, p)
        if rank != len(pivot_comp):
            raise Hh1LieError("pivot complement does not project onto the weight complement")
    return pres
