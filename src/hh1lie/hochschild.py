"""Derivations, inner derivations and the first Hochschild cohomology.

HH1(A, A) is realized as Der(A)/IDer(A).  Derivations are solved exactly
as the null space of the Leibniz system f(e_i e_j) = f(e_i) e_j + e_i f(e_j).
Two solver paths exist: a dense one over all dim^2 matrix unknowns that
enforces every basis pair directly (the oracle path), and a
generator-based one whose unknowns are the values of f on a generating
set.  The generator path enforces f(1) = 0 together with the pairs
(e_i, s) for every basis element e_i and generator s, which implies the
full system: by induction on word length, f(a w s) = f(a w) s + a w f(s)
extends Leibniz from words w to w s.  Both paths must agree exactly
wherever both apply.

For smash-product algebras the distinguished outer derivations (zero on
every idempotent u_lambda, sending x to u_lambda x^(j p^r + 1)) and the
inner derivations ad(u_lambda x^j) are available by name, and the
complement of IDer inside Der is the span of the weight derivations with
lambda = 0, cross-validated against the pivot-chosen complement.
"""

from __future__ import annotations

import numpy as np

from . import gfp
from .algebras import Algebra, SmashDescriptor
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    Hh1LieError,
    WellDefinednessFailure,
)
from .gfp import INT, Subspace, matmul, normalize, rref

DENSE_SOLVER_LIMIT = 32


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
            for g, rs in zip(a.presentation.gen_vectors, a.presentation_right_mats()):
                if _gen_block_residual(a, stack, normalize(g, a.p), rs).any():
                    return False
            return True
        for i in range(a.dim):
            if _pair_block_residual(a, stack, i).any():
                return False
        return True

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


def _gen_block_residual(
    a: Algebra, fstack: np.ndarray, svec: np.ndarray, rs: np.ndarray, cols=None
):
    """Residuals of F(e_i s) - F(e_i) s - e_i F(s) over basis indices i.

    rs is the right-multiplication matrix of s.  ``cols`` restricts the
    checked indices i (a partial residual; zero on the full solution
    space, used to narrow cheaply).  Shape (k, d * len(cols)).
    Entries stay below d * p^2, so mods are deferred to the end.
    """
    d, p = a.dim, a.p
    k = fstack.shape[0]
    idx = np.arange(d) if cols is None else np.asarray(cols)
    m = idx.shape[0]
    if k == 0:
        return np.zeros((0, d * m), dtype=INT)
    colmono = _column_monomial(rs)
    if colmono is not None:
        rows, coefs = colmono
        # F(e_i s) = (F R_s)[:, i]: gather since R_s[:, i] = coefs[i] e_rows[i]
        lhs = fstack[:, :, rows[idx]]
        lhs *= coefs[idx][None, None, :]
        # F(e_i) s = (R_s F)[:, i]: scatter rows of F
        term_r = np.zeros((d, k, m), dtype=INT)  # (target, t, i)
        fs = fstack if cols is None else fstack[:, :, idx]  # no full-size copy of F
        gfp.scatter_add(term_r, rows, coefs, fs.transpose(1, 0, 2))
        term_r = term_r.transpose(1, 0, 2)
    else:
        rs64 = rs[:, idx].astype(np.float64)
        f64 = fstack.astype(np.float64)
        lhs = np.einsum("tab,bi->tai", f64, rs64).astype(INT)
        term_r = np.einsum("ab,tbi->tai", rs.astype(np.float64), f64[:, :, idx]).astype(INT)
    # e_i F(s): columns are right-multiplication by the vector y = F(s)
    ys = matmul(fstack, svec, p)  # (k, d)
    mono = a.monomial_tables()
    if mono is not None:
        kmat, cmat = mono
        term_y = np.zeros((d, m, k), dtype=INT)  # (target, i, t)
        jgrid = np.broadcast_to(np.arange(d), (m, d))
        flat = kmat[idx] * m + np.arange(m)[:, None]  # (i, j) -> (target, i)
        gfp.scatter_add(term_y.reshape(d * m, k), flat, cmat[idx], ys.T, jgrid)
        term_y = term_y.transpose(2, 0, 1)
    else:
        ls = a.left_stack()[idx].astype(np.float64)
        term_y = np.einsum("iab,tb->tai", ls, ys.astype(np.float64)).astype(INT)
    lhs -= term_r
    lhs -= term_y
    return (lhs % p).reshape(k, d * m)


class _ParamSpace:
    """Dense or generator-valued parametrization of derivation candidates."""

    def __init__(self, a: Algebra, dense: bool):
        self.algebra = a
        self.dense = dense
        d = a.dim
        if dense:
            self.nv = d * d
            self.phi = None
        else:
            pres = a.presentation
            if pres is None:
                raise Hh1LieError("algebra has no generator presentation")
            self.pres = pres
            self.nv = len(pres.gen_vectors) * d
            self.phi = self._build_phi()

    def _build_phi(self) -> np.ndarray:
        """(dim*dim, nv) matrix of the map from generator values to F."""
        a, pres = self.algebra, self.pres
        d, p = a.dim, a.p
        coef = np.zeros((d, d, self.nv), dtype=INT)
        for k, t in pres.base_gen:
            coef[:, k, t * d : (t + 1) * d] = np.eye(d, dtype=INT)
        appliers = []
        for g in pres.gen_vectors:
            rg = a.right_mult_matrix(g)
            appliers.append((rg, _column_monomial(rg)))
        for target, parent, t in pres.steps:
            # F[:, target] = R_gen F[:, parent] + L_parent v_t
            rg, colmono = appliers[t]
            block = coef[:, parent, :]
            if colmono is not None:
                rows, coefs = colmono
                out = np.zeros((d, self.nv), dtype=INT)
                coef[:, target, :] = gfp.scatter_add(out, rows, coefs, block) % p
            else:
                coef[:, target, :] = matmul(rg, block, p)
            coef[:, target, t * d : (t + 1) * d] = (
                coef[:, target, t * d : (t + 1) * d] + a.basis_left_matrix(parent)
            ) % p
        return coef.reshape(d * d, self.nv)

    def to_matrices(self, cand: np.ndarray) -> np.ndarray:
        d = self.algebra.dim
        if self.dense:
            return cand.reshape(-1, d, d)
        return matmul(cand, self.phi.T, self.algebra.p).reshape(-1, d, d)

    def phi_slice(self, k: int) -> np.ndarray:
        """(d, nv) coefficient block of F[:, k]."""
        d = self.algebra.dim
        if self.dense:
            out = np.zeros((d, d * d), dtype=INT)
            out[np.arange(d), np.arange(d) * d + k] = 1
            return out
        return self.phi.reshape(d, d, self.nv)[:, k, :]

    def unit_rows(self) -> np.ndarray:
        """Equation rows of F(1) = 0."""
        a = self.algebra
        out = np.zeros((a.dim, self.nv), dtype=INT)
        for k in np.nonzero(a.unit)[0]:
            out = (out + int(a.unit[k]) * self.phi_slice(int(k))) % a.p
        return out

    def gen_pair_rows(self, i: int, svec: np.ndarray, rs: np.ndarray) -> np.ndarray:
        """Equation rows of F(e_i s) - F(e_i) s - e_i F(s) = 0."""
        a = self.algebra
        d, p = a.dim, a.p
        prod = rs[:, i]  # e_i s
        out = np.zeros((d, self.nv), dtype=INT)
        for k in np.nonzero(prod)[0]:
            out = (out + int(prod[k]) * self.phi_slice(int(k))) % p
        out = (out - matmul(rs, self.phi_slice(i), p)) % p
        li = a.basis_left_matrix(i)
        acc = np.zeros((d, self.nv), dtype=INT)
        for j in np.nonzero(svec)[0]:
            acc = (acc + int(svec[j]) * self.phi_slice(int(j))) % p
        out = (out - matmul(li, acc, p)) % p
        return out


def _constraint_generators(a: Algebra, dense: bool):
    """Vectors s whose pair blocks (e_i, s) span the Leibniz system."""
    d = a.dim
    if dense or a.presentation is None:
        vecs = []
        for j in range(d):
            e = np.zeros(d, dtype=INT)
            e[j] = 1
            vecs.append(e)
        return vecs
    return [normalize(g, a.p) for g in a.presentation.gen_vectors]


def _narrow_block(a, fstack, resid_fn, p):
    """Shrink the stack until resid_fn vanishes on it (left-kernel steps)."""
    d = a.dim
    while fstack.shape[0]:
        resid = resid_fn(fstack)
        nzc = np.nonzero(resid.any(axis=0))[0]
        if nzc.size == 0:
            break
        take = nzc[: max(2 * fstack.shape[0], 64)]
        lk = gfp.left_kernel(resid[:, take], p)
        if lk.shape[0] == 0:
            return np.zeros((0, d, d), dtype=INT)
        fstack = matmul(lk, fstack.reshape(fstack.shape[0], -1), p).reshape(-1, d, d)
    return fstack


def _seed_indices(d: int, count: int) -> list[int]:
    idxs = sorted(range(d), key=lambda i: ((i * 2654435761) & 0xFFFF, i))
    return idxs[:count]


def _solve_derivations(a: Algebra, dense: bool) -> np.ndarray:
    """Canonical basis (rows of vec(F), RREF) of Der(A)."""
    d, p = a.dim, a.p
    space = _ParamSpace(a, dense)
    gens = _constraint_generators(a, dense)
    rmats = [a.right_mult_matrix(s) for s in gens]

    # seed: unit rows plus a deterministic spread of (e_i, s) blocks
    rows = [space.unit_rows()]
    n_blocks = max(1, (space.nv + space.nv // 4) // (d * len(gens)) + 1)
    for i in _seed_indices(d, n_blocks):
        for svec, rs in zip(gens, rmats):
            rows.append(space.gen_pair_rows(i, svec, rs))
    cand = gfp.kernel(np.vstack(rows), p)
    fstack = space.to_matrices(cand)

    # narrowing: once a block holds it keeps holding on every smaller space,
    # so one completed pass over the constraint blocks is exact.  Partial
    # column chunks keep each residual evaluation small while the stack is
    # still large.
    fstack = _narrow_block(a, fstack, lambda fs: matmul(fs, a.unit, p), p)
    chunk = max(16, min(d, 4096 // max(d, 1)))
    for svec, rs in zip(gens, rmats):
        for start in range(0, d, chunk):
            cols = np.arange(start, min(d, start + chunk))
            fstack = _narrow_block(
                a,
                fstack,
                lambda fs, s=svec, r=rs, c=cols: _gen_block_residual(a, fs, s, r, c),
                p,
            )
    vecs = fstack.reshape(-1, d * d)
    basis = gfp.row_space(vecs, p)
    stack = basis.reshape(-1, d, d)
    # honesty check on the canonical basis
    if matmul(stack, a.unit, p).any():
        raise Hh1LieError("derivation solver produced a map with f(1) != 0")
    for svec, rs in zip(gens, rmats):
        if _gen_block_residual(a, stack, svec, rs).any():
            raise Hh1LieError("derivation solver produced a non-derivation")
    if d <= DENSE_SOLVER_LIMIT:
        for i in range(d):
            if _pair_block_residual(a, stack, i).any():
                raise Hh1LieError("derivation solver failed the all-pairs check")
    return basis


def derivation_space(a: Algebra, method: str = "auto") -> list[Derivation]:
    """Basis of Der(A), deterministic via RREF pivots.

    method: "dense" solves over all dim^2 unknowns with one block per
    basis element (the oracle path), "generator" over generator values
    (requires a presentation), "auto" picks dense for small algebras and
    the generator path otherwise.
    """
    if method == "auto":
        if a.dim <= DENSE_SOLVER_LIMIT:
            method = "dense"
        elif a.presentation is not None:
            method = "generator"
        else:
            raise Hh1LieError(
                f"dimension {a.dim} needs a generator presentation for the derivation solver"
            )
    if method not in ("dense", "generator"):
        raise ValueError(f"unknown method {method!r}")
    # the algebra is immutable, so the solved basis is cached on it
    if method not in a._derivation_cache:
        a._derivation_cache[method] = _solve_derivations(a, dense=(method == "dense"))
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
    der_sub = Subspace(p, d * d, np.vstack([f.vec() for f in ders]))
    ider_sub = Subspace(p, d * d, np.vstack([f.vec() for f in iders]))
    h = [named_outer(desc, 0, j, algebra) for j in desc.outer_exponents()]
    h_mat = np.vstack([f.vec() for f in h])
    h_resid = _reduce_rows(ider_sub, h_mat)
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


def _reduce_rows(sub: Subspace, mat: np.ndarray) -> np.ndarray:
    """Residuals of the rows of mat after eliminating the subspace basis."""
    return sub.reduce_rows(mat)


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
        self._ider_sub = (
            Subspace(p, d * d, np.vstack([f.vec() for f in ider_basis]))
            if ider_basis
            else Subspace.zero(d * d, p)
        )
        self._der_sub = (
            Subspace(p, d * d, np.vstack([f.vec() for f in der_basis]))
            if der_basis
            else Subspace.zero(d * d, p)
        )
        if self.dim:
            comp_rows = np.vstack([f.vec() for f in complement_basis])
            resid = _reduce_rows(self._ider_sub, comp_rows)
            red, rank, piv = rref(resid, p)
            if rank != self.dim:
                raise Hh1LieError("complement representatives are dependent modulo IDer")
            # class coordinates w.r.t. the residuals equal those w.r.t. the
            # representatives, since each residual is inner-equivalent to it
            self._resid_rows = resid
            self._resid_piv = list(piv)
            self._resid_solver = gfp.inverse(resid[:, self._resid_piv], p)
        else:
            self._resid_rows = np.zeros((0, d * d), dtype=INT)
            self._resid_piv = []
            self._resid_solver = np.zeros((0, 0), dtype=INT)
        self.bracket_table, self.pmap_table = self._tables(self.complement_basis)
        self._verify_representative_independence(seed)

    def project_rows(self, mat: np.ndarray) -> np.ndarray:
        """Class coordinates for a stack of vectorized derivation matrices."""
        rv = _reduce_rows(self._ider_sub, mat)
        if not self.dim:
            if rv.any():
                raise ValueError("matrix is not in IDer + complement")
            return np.zeros((mat.shape[0], 0), dtype=INT)
        coeffs = matmul(rv[:, self._resid_piv], self._resid_solver, self.p)
        if ((rv - matmul(coeffs, self._resid_rows, self.p)) % self.p).any():
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
    der_sub = (
        Subspace(p, d * d, np.vstack([f.vec() for f in ders]))
        if ders
        else Subspace.zero(d * d, p)
    )
    ider_sub = (
        Subspace(p, d * d, np.vstack([f.vec() for f in iders]))
        if iders
        else Subspace.zero(d * d, p)
    )
    if iders and _reduce_rows(der_sub, np.vstack([f.vec() for f in iders])).any():
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
        resid = _reduce_rows(ider_sub, h_mat)
        _, rank, _ = rref(resid, p)
        if rank != len(reps):
            raise Hh1LieError("weight derivations do not complement IDer")
        if _reduce_rows(der_sub, h_mat).any():
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
