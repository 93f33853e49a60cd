"""Derivations, inner derivations and the first Hochschild cohomology.

HH1(A, A) is realized as Der_E(A)/ad(C), relative to the complete set E of
orthogonal idempotents the algebra carries (``Algebra.idempotents``): Der_E
is the derivations that vanish on E and C = sum_i e_i A e_i.  E is
separable, so Der = Der_E + IDer with Der_E cap IDer = ad(C), and the
quotients agree as restricted Lie algebras (Gerstenhaber-Schack, J. Pure
Appl. Algebra 43, 1986; Happel, LNM 1404, 1989).  The reported dimensions
follow: dim Der = dim Der_E + d - dim C, and dim IDer = d - dim Z(A), where
Z(A), inside C, is the kernel of ad on C.  Smash products carry
E = {u_lambda}; every other algebra carries E = {1}, the one-block case of
the same route, where C = W = A and the quotient is Der(A)/IDer(A) itself.
All of Der is read off the same solve as Der_E + ad(A) (``derivation_space``),
so no algebra is solved twice.

Derivations are solved exactly as the null space of the Leibniz system
f(e_i e_j) = f(e_i) e_j + e_i f(e_j).  The unknowns are the values of f on
the algebra's generators, or on every basis vector when it names none,
restricted relative to E: a generator in E gets none (f(u_lambda) = 0, or
f(1) = 0 for a generator equal to 1), and the value on any other generator
lies in W, the blocks e_s A e_t that the generators outside E meet (x
splits into its parts u_lambda x, and W is the sum of their blocks
u_lambda A u_(lambda - 1)).  f is phi of them:
``Extender`` (phi) derives from the table how each basis element is
reached from the generators, and is the only code that extends a map from
generator values, through one scatter plan of its terms (``Extender.on``).
The solver enforces f(1) = 0 together with the pairs (e_i, s) for every
basis element e_i and generator s, which implies the full system: by
induction on word length, f(a w s) = f(a w) s + a w f(s) extends Leibniz
from words w to w s.  The system is built sparse in int64 from the cells
phi reaches, and deduplicated.  Its kernel is taken one block at a time:
the blocks are the components of the unknowns that one row or one vec(F)
cell of phi links, so their kernels sorted by pivot are the whole system's
RREF kernel, and the same loop reads Der_E's d^2 RREF pivots on each
block's own cells.
``_leibniz_failure`` is the only Leibniz checker.  It joins a stack's
nonzero entries with the table terms into the residuals F(e_i s) - F(e_i) s
- e_i F(s), exact in int64, and sums them by one merge mod p; the honesty
check feeds it the entries phi reaches, so it builds no d x d map.

Der_E, ad(C), the complement and the HH1 tables stay in the solver's
coordinates, the values on the generators (at most |S| d numbers per map,
against d^2 for the matrix).  The tables read the representatives only on
the W x W cells, W the span of the basis vectors those values reach,
which every map in Der_E keeps; d x d matrices are built only for the
seeded checks and on request.

For smash-product algebras the distinguished outer derivations (zero on
every idempotent u_lambda, sending x to u_lambda x^(j p^r + 1), built as
phi of those values) and the inner derivations ad(u_lambda x^j) are
available by name, and the complement of ad(C) inside Der_E is the span of
the weight derivations with lambda = 0, cross-validated against the
pivot-chosen complement.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gfp
from .algebras import Algebra, SmashDescriptor
from .errors import DimensionMismatch, Hh1LieError, WellDefinednessFailure
from .gfp import INT, STREAM_CELLS, Subspace, matmul, normalize, rref

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
        """Leibniz rule on every basis pair, checked as in ``_leibniz_failure``."""
        return _leibniz_failure(self.algebra, self.matrix[None, :, :]) is None

    def __repr__(self):
        return f"Derivation(dim={self.algebra.dim}, p={self.algebra.p})"


# -- the Leibniz checker -------------------------------------------------------


def _leibniz_failure(a: Algebra, fstack: np.ndarray):
    """The first check some map of the stack fails, or None if every map is a derivation.

    The one Leibniz checker, for ``is_derivation``, ``named_outers`` and the seeded closure property; the
    honesty check calls its core on the entries phi reaches.  The maps' entries must lie in [0, p).
    """
    t, row, col = np.nonzero(fstack)
    return _entries_failure(a, (t, row, col, fstack[t, row, col]))


def _entries_failure(a: Algebra, entries):
    """``_leibniz_failure`` of the maps with nonzero entries (t, a, i, v), F_t[a, i] = v, sorted by t.

    f(1) = 0, then Leibniz against every generator of ``a.generating_set()``,
    which implies every basis pair by induction on word length on an
    associative table, then, for named generators and d <= DENSE_SOLVER_LIMIT,
    against every basis vector, which catches an unvalidated non-associative table.
    """
    if _values(a, entries, a.unit[None])[0].size:
        return "produced a map with f(1) != 0"
    table = _table_by_j(a)
    if _fails(a, entries, np.stack(a.generating_set()), table):
        return "produced a non-derivation"
    if a.generators is not None and a.dim <= DENSE_SOLVER_LIMIT:
        if _fails(a, entries, np.eye(a.dim, dtype=INT), table):
            return "failed the all-pairs check"
    return None


def _table_by_j(a: Algebra):
    """The table terms e_i e_j = c e_k sorted by j, and where each j's run starts: (ptr, i, k, c)."""
    ci, cj, ck, cc = a.structure_constants()
    order = np.argsort(cj, kind="stable")
    return np.searchsorted(cj[order], np.arange(a.dim + 1)), ci[order], ck[order], cc[order]


def _values(a: Algebra, entries, elements):
    """F_t(s) = sum_j s_j F_t(e_j) for each map t and row s of an (m, d) stack, merged by (t d + coordinate) m + s."""
    t, row, col, val = entries
    js, es = np.nonzero(elements.T)  # the elements on each basis vector j
    k, at = gfp.expand(col, np.searchsorted(js, np.arange(a.dim + 1)))
    return gfp.merge((t[k] * a.dim + row[k]) * len(elements) + es[at], val[k] * elements[es[at], js[at]], a.p)


def _fails(a: Algebra, entries, elements, table) -> bool:
    """Whether some map fails Leibniz against some row of an (m, d) stack: some residual entry is not = 0 mod p."""
    return any(gfp.merge(keys, vals, a.p)[0].size for keys, vals in _residual_terms(a, entries, elements, table))


def _residual_terms(a: Algebra, entries, elements, table):
    """The residuals F(e_i s) - F(e_i) s - e_i F(s) of the maps against the rows s of an (m, d) stack, as terms.

    Unmerged (key, value), key ((t d + coordinate) d + i) m + s, so each
    part's keys run in the order of the maps.  Each part is one
    ``gfp.expand`` join of the entries: with the right terms e_x s = c e_y
    (the ``table`` terms on supp s) by column y for F(e_x s) and by row x
    for F(e_x) s, and with the table terms by F(s)_j for e_i F(s).
    Each term is a product of two numbers in [0, p), so the sums are exact.
    A block holds whole maps whose joins have about STREAM_CELLS / 16 terms
    (a costlier map goes alone), so a join and its merge hold about as many
    cells as a block of the dense residual did.
    """
    d, (ptr, ti, tk, tc) = a.dim, table
    js, es = np.nonzero(elements.T)
    term, at = gfp.expand(js, ptr)
    s, x, y, c = es[term], ti[at], tk[at], gfp.mod(tc[at] * elements[es[term], js[term]], a.p)
    by_y, by_x = np.argsort(y, kind="stable"), np.argsort(x, kind="stable")
    yptr, xptr = (np.searchsorted(key, np.arange(d + 1)) for key in (y[by_y], x[by_x]))
    t, row, col, _ = entries
    m = len(elements)
    cost = np.diff(yptr)[col] + np.diff(xptr)[row] + np.count_nonzero(elements, axis=0)[col] * (1 + np.diff(ptr)[row])
    first = np.flatnonzero(np.diff(t, prepend=-1))  # each map's first entry
    block = (np.cumsum(cost) - cost)[first] // max(1, STREAM_CELLS // 16)
    cuts = np.r_[first[np.flatnonzero(np.diff(block, prepend=-1))], t.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t, row, col, val = part = tuple(e[lo:hi] for e in entries)
        k, at = gfp.expand(col, yptr)  # entry (t, a, y): + c v at (t, a, x, s)
        at = by_y[at]
        keys, vals = [((t[k] * d + row[k]) * d + x[at]) * m + s[at]], [val[k] * c[at]]
        k, at = gfp.expand(row, xptr)  # entry (t, x, i): - c v at (t, y, i, s)
        at = by_x[at]
        keys.append(((t[k] * d + y[at]) * d + col[k]) * m + s[at])
        vals.append(-val[k] * c[at])
        fkey, fval = _values(a, part, elements)
        (ft, fj), fs = np.divmod(fkey // m, d), fkey % m
        k, at = gfp.expand(fj, ptr)  # F_t(s)_j: - c F_t(s)_j at (t, k, i, s) for e_i e_j = c e_k
        keys.append(((ft[k] * d + tk[at]) * d + ti[at]) * m + fs[k])
        vals.append(-fval[k] * tc[at])
        yield np.concatenate(keys), np.concatenate(vals)


# -- phi: maps from their generator values ----------------------------------------
#
# The unknowns are the values of F on a generating set: v[t * d + b] is the
# e_b coordinate of F(g_t).  vec(F)[x * d + k] is the e_x coordinate of
# F(e_k), a sparse linear map phi of v.  Sparse matrices are int64 triplets
# (row, column, coefficient), reduced mod p before any two are multiplied.


def _phi(a: Algebra, gens: np.ndarray, slots: np.ndarray):
    """phi as triplets (vec(F) index, unknown, coefficient), sorted, and its steps.

    The unknowns are the value coordinates t * d + b listed in ``slots``, in
    order; every other value coordinate is zero.  The steps (target, parent,
    t) are found breadth-first from the table.  A generator g_t that is a
    basis vector e_k gives F(e_k) = v_t.  A one-term product e_parent g_t =
    e_target, taken the first time the target is reached, gives F(e_target)
    = R_(g_t) F(e_parent) + L_parent v_t.  F is zero on a lone unit, and any
    other basis element left unreached raises.
    """
    d, p = a.dim, a.p
    unknown = np.full(gens.shape[0] * d, -1)  # the unknown of each value coordinate, -1 off the slots
    unknown[slots] = np.arange(slots.size)
    nv = max(slots.size, 1)
    ci, cj, ck, cc = a.structure_constants()
    lptr = np.searchsorted(ci, np.arange(d + 1))  # e_parent e_b = c e_k, by parent
    right = []  # R_g by columns: R_g[x, b] for x in rows[ptr[b] : ptr[b + 1]]
    single = np.full((len(gens), d), -1)  # single[t, b] = target if e_b g_t = e_target
    for t, g in enumerate(gens):
        b, x, c = a.right_terms(g)
        key, val = gfp.merge(b * d + x, c, p)
        ptr = np.searchsorted(key // d, np.arange(d + 1))
        right.append((ptr, key % d, val))
        one = np.flatnonzero(np.diff(ptr) == 1)
        one = one[val[ptr[one]] == 1]
        single[t, one] = key[ptr[one]] % d
    single = single.T.tolist()
    empty = np.zeros(0, dtype=INT)
    cols = [None] * d  # F(e_k) as (coordinate, unknown, coefficient)
    queue, steps = [], []
    for t, g in enumerate(gens):
        k = np.flatnonzero(g)
        if k.size == 1 and g[k[0]] == 1 and cols[k[0]] is None:
            on = np.flatnonzero(unknown[t * d : (t + 1) * d] >= 0)
            cols[k[0]] = (on, unknown[t * d + on], np.ones(on.size, dtype=INT))
            queue.append(int(k[0]))
    unit = np.flatnonzero(a.unit)
    if unit.size == 1 and cols[unit[0]] is None:
        cols[unit[0]] = (empty, empty, empty)
    for parent in queue:  # the queue grows as it is read
        for t, target in enumerate(single[parent]):
            if target < 0 or cols[target] is not None:
                continue
            rows, unk, val = cols[parent]
            ptr, r_rows, r_vals = right[t]
            term, pos = gfp.expand(rows, ptr)
            lo, hi = lptr[parent], lptr[parent + 1]
            u = unknown[t * d + cj[lo:hi]]
            on = u >= 0
            key, val = gfp.merge(
                np.concatenate([r_rows[pos] * nv + unk[term], ck[lo:hi][on] * nv + u[on]]),
                np.concatenate([r_vals[pos] * val[term], cc[lo:hi][on]]),
                p,
            )
            cols[target] = (key // nv, key % nv, val)
            queue.append(target)
            steps.append((target, parent, t))
    missing = [k for k, col in enumerate(cols) if col is None]
    if missing:
        k = missing[0]
        raise Hh1LieError(f"the generators do not reach basis element {k} ({a.labels[k]})")
    key, val = gfp.merge(
        np.concatenate([(rows * d + k) * nv + unk for k, (rows, unk, _) in enumerate(cols)]),
        np.concatenate([val for _, _, val in cols]),
        p,
    )
    return (key // nv, key % nv, val), steps


class Extender:
    """phi along a generating set: rows of generator values to the d x d maps they extend to.

    The only code that extends a map from its values on generators: the
    derivation solver, the named complement, the weight derivations of
    ``named_outers`` and the monomial derivations of the Proposition 2.2
    witness all go through it.  It reads only the generators and the table,
    never a solved Der(A).  The unknowns are the value coordinates t * d + b
    in ``slots`` (every one by default); phi(v) is a derivation iff v extends
    to one, and ``_leibniz_failure`` decides.  phi is held as its triplets,
    sorted by vec(F) cell, and one ``gfp.scatter_plan`` of them onto the
    ``cells`` it reaches; ``on`` applies phi on any sorted set of cells.
    """

    def __init__(self, a: Algebra, gens, slots=None):
        d, p = a.dim, a.p
        self.algebra, self.p = a, p
        self.gens = np.stack([normalize(g, p).reshape(-1) for g in gens])
        self.width = self.gens.shape[0] * d  # every value coordinate
        self.slots = np.arange(self.width) if slots is None else np.asarray(slots, dtype=INT)
        self.nv = self.slots.size
        self.triplets, self.steps = _phi(a, self.gens, self.slots)
        fe, unk, val = self.triplets
        self.cells = fe[np.flatnonzero(np.diff(fe, prepend=-1))]  # the cells phi reaches: each one's first triplet
        self.plan = gfp.scatter_plan(np.searchsorted(self.cells, fe), val, unk)  # onto the positions in ``cells``
        self._block = max(1, STREAM_CELLS // (d * d))

    def on(self, rows, cells=None) -> np.ndarray:
        """phi of (n, nv) rows of generator values on the sorted vec(F) ``cells``, every one by default: (n, |cells|).

        The plan reaches ``self.cells``; phi is zero off them.  On other ``cells`` a plan is built from each
        cell's run of phi's triplets, which are sorted by cell, so phi of a block costs only its own terms.
        """
        size, reached = self.algebra.dim**2, cells is not None and np.array_equal(cells, self.cells)
        if not reached and (cells is None or len(cells) == size):  # all d^2 sorted cells are the default
            out = np.zeros((np.shape(rows)[0], size), dtype=INT)
            out[:, self.cells] = self.on(rows, self.cells)
            return out
        plan = self.plan
        if not reached:
            fe, unk, val = self.triplets
            ptr = np.searchsorted(fe, np.add.outer(cells, [0, 1]).ravel())  # cell n's run is ptr[2n] : ptr[2n + 1]
            at, pos = gfp.expand(2 * np.arange(len(cells)), ptr)
            plan = gfp.scatter_plan(at, val[pos], unk[pos])
        rows_t = np.ascontiguousarray(np.asarray(rows).T, dtype=INT)
        return np.ascontiguousarray(gfp.scatter_new((len(cells), rows_t.shape[1]), plan, rows_t, p=self.p).T)

    def matrices(self, rows) -> np.ndarray:
        """phi of each of (n, nv) rows of generator values: the (n, d, d) stack of maps."""
        d = self.algebra.dim
        return self.on(rows).reshape(-1, d, d)

    def gen_coords(self, mats) -> np.ndarray:
        """g(F) = (F s)_s for each map F of a stack, on the slots: rows of nv values."""
        d = self.algebra.dim
        vals = matmul(np.asarray(mats).reshape(-1, d, d), self.gens.T, self.p)
        vals = np.ascontiguousarray(vals.transpose(0, 2, 1)).reshape(-1, self.width)
        return vals if self.nv == self.width else vals[:, self.slots]

    def slot(self, t: int, b: int) -> int:
        """The unknown holding coordinate b of the value on generator t; raises if it is no slot."""
        at = int(np.searchsorted(self.slots, t * self.algebra.dim + b))
        if at == self.nv or self.slots[at] != t * self.algebra.dim + b:
            raise Hh1LieError(f"coordinate {b} of the value on generator {t} is not an unknown")
        return at

    def is_phi_of(self, mats, rows) -> bool:
        """Whether the maps (entries reduced mod p) equal phi(rows), a block at a time."""
        mats = np.asarray(mats).reshape(-1, self.algebra.dim**2)
        step = self._block
        blocks = range(0, rows.shape[0], step)
        return all(np.array_equal(self.on(rows[s : s + step]), mats[s : s + step]) for s in blocks)


def _relative_slots(a: Algebra, gens: np.ndarray) -> np.ndarray:
    """The value coordinates t * d + b of the unknowns relative to E = ``a.idempotents``.

    A generator in E gets none, since F vanishes on E.  Every other
    generator gets the basis vectors b of W, the blocks e_s A e_t that the
    generators outside E meet.  For F in Der_E, F(e_s g e_t) = e_s F(g) e_t,
    so F(g) lies in the blocks g meets, and the Leibniz pairs with E keep
    the rest of W at zero.  Der_E is then the kernel of the Leibniz system
    in these unknowns, provided every idempotent is a generator (checked)
    or 1, whose F(1) = 0 is an equation of the system.  With E = {1} there
    is one block, so W = A: a generator equal to 1 gets no unknowns, and
    every other generator gets all d.
    """
    d = a.dim
    left, right = a.peirce
    block = left * d + right
    in_e = np.array([any(np.array_equal(g, e) for e in a.idempotents) for g in gens])
    if not all(any(np.array_equal(g, e) for g in gens) or np.array_equal(e, a.unit) for e in a.idempotents):
        raise Hh1LieError("every idempotent of E must be a generator")
    window = np.flatnonzero(np.isin(block, block[gens[~in_e].any(axis=0)]))
    return (np.flatnonzero(~in_e)[:, None] * d + window).ravel()


def extender(a: Algebra) -> Extender:
    """phi along ``a.generating_set()``, relative to ``a.idempotents``, built once per algebra and cached on it."""
    if "phi" not in a._derivation_cache:
        gens = np.stack([normalize(g, a.p).reshape(-1) for g in a.generating_set()])
        a._derivation_cache["phi"] = Extender(a, gens, _relative_slots(a, gens))
    return a._derivation_cache["phi"]


# -- the derivation solver ------------------------------------------------------


def _leibniz_terms(phi: Extender):
    """Triplets (equation, unknown, coefficient) of the Leibniz system in phi's unknowns, not yet merged.

    Equation x < d is coordinate x of F(1) = 0, and equation
    d + (t * d + i) * d + x is coordinate x of F(e_i s) - F(e_i) s - e_i F(s)
    for s = gens[t].  Each term joins a table term with a triplet of phi,
    found by the column or the row of its vec(F) cell, so only the cells
    phi reaches are visited.
    """
    a, nv, p, d = phi.algebra, phi.nv, phi.p, phi.algebra.dim
    fe, unk, val = phi.triplets
    row, col = np.divmod(fe, d)  # fe is sorted, so each row of F is a run
    by_col = np.argsort(col, kind="stable")
    crow, cunk, cval = row[by_col], unk[by_col], val[by_col]  # and so is each column of this copy
    rptr, cptr = (np.searchsorted(key, np.arange(d + 1)) for key in (row, col[by_col]))
    ci, cj, ck, cc = a.structure_constants()

    def value(s):  # F(s) = sum_y s_y F(e_y): (coordinate, unknown, coefficient), merged
        ys = np.flatnonzero(s)
        term, at = gfp.expand(ys, cptr)
        key, coef = gfp.merge(crow[at] * nv + cunk[at], s[ys[term]] * cval[at], p)
        return *np.divmod(key, nv), coef

    parts = [value(a.unit)]
    for t, s in enumerate(phi.gens):
        base = d + t * d * d
        i, k, c = a.right_terms(s)
        term, at = gfp.expand(k, cptr)  # F(e_i s): c F[x, k] in coordinate x
        parts.append((base + i[term] * d + crow[at], cunk[at], c[term] * cval[at]))
        term, at = gfp.expand(i, rptr)  # F(e_x) s: c F[i, x] in coordinate k
        parts.append((base + col[at] * d + k[term], unk[at], -c[term] * val[at]))
        j, fu, fs = value(s)
        term, at = gfp.expand(cj, np.searchsorted(j, np.arange(d + 1)))  # e_i F(s): c F(s)_j in coordinate k
        parts.append((base + ci[term] * d + ck[term], fu[at], -cc[term] * fs[at]))
    return [np.concatenate([part[n] for part in parts]) for n in range(3)]


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
    code = col * p + gfp.mod(vals * np.repeat(inv[which], lengths), p)
    empty = np.zeros(0, dtype=INT)
    rows, codes, n = [empty], [empty], 0
    for length in np.flatnonzero(np.bincount(lengths)):
        block = code[start[lengths == length][:, None] + np.arange(length)]
        block = block[np.lexsort(block.T[::-1])]  # sorted as rows, then the repeats dropped
        block = block[np.r_[True, (block[1:] != block[:-1]).any(axis=1)]]
        rows.append(np.repeat(np.arange(n, n + block.shape[0]), length))
        codes.append(block.ravel())
        n += block.shape[0]
    code = np.concatenate(codes)
    return np.concatenate(rows), code // p, gfp.mod(code, p)


def _leibniz_rows(phi: Extender):
    """The distinct rows of the Leibniz system in the unknowns of phi, as ``_distinct_rows`` gives them."""
    eq, unk, coef = _leibniz_terms(phi)
    keys, vals = gfp.merge(eq * phi.nv + unk, coef, phi.p)
    return _distinct_rows(keys, vals, phi.nv, phi.p)


def _span_echelon(rows, cols, vals, nv: int, p: int) -> np.ndarray:
    """RREF basis of the span of sparse rows sorted by row, STREAM_CELLS cells at a time.

    Each block of rows is densified and added by ``Subspace.extend``, so at
    most rank + STREAM_CELLS / nv dense rows are held at once.
    """
    span, step = Subspace.zero(nv, p), max(1, STREAM_CELLS // max(nv, 1))
    n = int(rows.max(initial=-1)) + 1
    for first in range(0, n, step):
        lo, hi = np.searchsorted(rows, [first, first + step])
        part = np.zeros((min(step, n - first), nv), dtype=INT)
        part[rows[lo:hi] - first, cols[lo:hi]] = vals[lo:hi]
        span = span.extend(part)
    return span.basis


def _links(rows, cols, fe, unk):
    """Each term's unknown and its row's or cell's first unknown, over the distinct rows and phi's triplets."""
    return np.r_[cols, unk], np.r_[cols[np.searchsorted(rows, rows)], unk[np.searchsorted(fe, fe)]]


def _components(nv: int, rows, cols, fe, unk) -> np.ndarray:
    """The block of each unknown: the components of the unknowns one distinct row or one cell of phi links.

    Each round lowers the roots of a link's two ends to the smaller one,
    then jumps every label to its root, until no link joins two labels.
    A root is the least unknown of its block, and numbers the blocks.
    """
    links, label = _links(rows, cols, fe, unk), np.arange(nv)
    ends = [label[end] for end in links]
    while not np.array_equal(*ends):
        for end in ends:
            np.minimum.at(label, end, np.minimum(*ends))
        while not np.array_equal(label[label], label):  # each label jumps to its root
            label = label[label]
        ends = [label[end] for end in links]
    return np.searchsorted(np.flatnonzero(label == np.arange(nv)), label)


def _kernel_by_block(phi: Extender, rows, cols, vals):
    """Der_g in canonical form, one block of ``_components`` at a time: (K, pivots, M).

    K is the RREF kernel of the sparse rows (sorted by row), and column i of
    M is column pivots[i] of phi(K), for its vec(F) RREF pivots, so M^-1 K
    is g of Der's canonical basis.  No row and no cell of phi meets two
    blocks (checked), so block b's kernel K_b is that of its own rows, and
    one rref of phi(K_b) on its own cells (k_b x cells_b int64) gives its
    pivots.  Sorted, the blocks' rows and pivots are the whole ones.
    """
    (fe, unk, _), p, nv = phi.triplets, phi.p, phi.nv
    block = _components(nv, rows, cols, fe, unk)
    if not np.array_equal(*(block[end] for end in _links(rows, cols, fe, unk))):
        raise Hh1LieError("a Leibniz row or a cell of phi meets two blocks")
    n = int(block.max(initial=-1)) + 1
    first = np.flatnonzero(np.diff(fe, prepend=-1))  # each cell's first triplet
    keys = block, block[cols], block[unk[first]]  # the block of each unknown, term and cell
    # each block's positions in their order, and where its run starts and ends
    cuts = [(np.argsort(k, kind="stable"), np.r_[0, np.bincount(k, minlength=n).cumsum()]) for k in keys]
    empty = np.zeros(0, dtype=INT)
    kers, pivots, cells = [np.zeros((0, nv), dtype=INT)], [empty], [empty]  # no unknowns, no blocks
    for b in range(n):
        own, sel, reached = (order[ptr[b] : ptr[b + 1]] for order, ptr in cuts)
        local = np.unique(rows[sel], return_inverse=True)[1]
        ker = gfp.kernel(_span_echelon(local, np.searchsorted(own, cols[sel]), vals[sel], own.size, p), p)
        kers.append(np.zeros((ker.shape[0], nv), dtype=INT))
        kers[-1][:, own] = ker
        pivots.append(own[np.argmax(ker != 0, axis=1)])
        reached = fe[first[reached]]  # the cells of phi(K_b), sorted
        rank, piv = rref(phi.on(kers[-1], reached), p)[1:]  # one block's image is alive at a time
        if rank < ker.shape[0]:
            raise Hh1LieError("phi maps distinct solved generator values to one map")
        cells.append(reached[piv])
    ker = np.concatenate(kers)[np.argsort(np.concatenate(pivots))]
    cells = np.sort(np.concatenate(cells))
    return ker, cells.tolist(), phi.on(ker, cells)


class DerivationSpace:
    """Der_E(A) and ad(C) in generator coordinates, for E = ``a.idempotents``.

    With E = {1} these are Der(A) and IDer(A), by the same code: C = A.
    A derivation F in Der_E is held as g(F) = (F s)_s, its values on the
    generators s, on the unknowns of ``phi`` (the algebra's cached
    ``Extender``): at most nv = |S| * d numbers, where F itself has d^2.
    ``phi`` maps them back to vec(F); ``matrices``, ``gen_coords`` and
    ``is_phi_of`` are its methods.  Der_g is the kernel of the Leibniz
    system, eliminated one block of its own components at a time
    (``_kernel_by_block``).  ``basis`` holds g of the canonical basis of
    Der_E(A), the RREF rows in vec(F) coordinates, and ``pivots`` their
    vec(F) pivot columns, both read from the same blocks, so every seeded
    draw over the canonical basis is the one the d^2 form gives.

    The Leibniz rule and g(phi(y)) = y are verified on the canonical basis.
    Hence a map X lies in Der_E(A) iff g(X) lies in Der_g and X = phi(g(X)).
    ``centralizer`` lists the basis vectors of C = sum_i e_i A e_i, and
    ``window`` those of W, the span of the basis vectors the values reach.
    """

    def __init__(self, a: Algebra):
        p, d = a.p, a.dim
        self.algebra, self.p = a, p
        self.phi = phi = extender(a)
        self.nv = phi.nv
        self.matrices, self.gen_coords, self.is_phi_of = phi.matrices, phi.gen_coords, phi.is_phi_of
        ker, self.pivots, self._m = _kernel_by_block(phi, *_leibniz_rows(phi))
        self.der = Subspace(p, self.nv, ker)
        self.basis = matmul(gfp.inverse(self._m, p), ker, p)
        left, right = a.peirce
        self.centralizer = np.flatnonzero(left == right)
        # the slots run over W once for each generator outside E: the layout ``generator_tables`` reads
        self.window = np.flatnonzero(np.bincount(phi.slots % d, minlength=d))
        self._inner = None
        self._verify()

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _verify(self):
        """Leibniz and g(phi(y)) = y on the canonical basis's entries on the cells phi reaches, a block at a time."""
        phi, d = self.phi, self.algebra.dim
        step = max(1, STREAM_CELLS // max(phi.cells.size, 1))
        parts = [(np.zeros(0, dtype=INT),) * 4]
        for s in range(0, self.dim, step):
            image = phi.on(self.basis[s : s + step], phi.cells)
            t, at = np.nonzero(image)
            parts.append((t + s, *np.divmod(phi.cells[at], d), image[t, at]))
        entries = tuple(np.concatenate(part) for part in zip(*parts))
        failure = _entries_failure(self.algebra, entries)
        if failure:
            raise Hh1LieError(f"derivation solver {failure}")
        t, unk = np.nonzero(self.basis)
        s, b = np.divmod(phi.slots[unk], d)
        got = _values(self.algebra, entries, phi.gens)  # g(F_t): (F_t g_s)_b at (t d + b) |S| + s
        want = gfp.merge((t * d + b) * len(phi.gens) + s, self.basis[t, unk], self.p)
        if not all(np.array_equal(x, y) for x, y in zip(got, want)):
            raise Hh1LieError("generator values do not determine the solved maps")

    def member_values(self, mats, sub: Subspace = None):
        """g of each map of the stack if every one lies in Der_E(A), else None; with sub, in the part g maps to sub."""
        mats = normalize(mats, self.p)
        rows = self.gen_coords(mats)
        return rows if not (sub or self.der).reduce_rows(rows).any() and self.is_phi_of(mats, rows) else None

    def contains(self, mats, sub: Subspace = None) -> bool:
        """Whether every map of the stack lies in Der_E(A); with sub, in the part g maps into sub."""
        return self.member_values(mats, sub) is not None

    def relative(self, mats) -> np.ndarray:
        """F - ad(sum_i F(e_i) e_i) for each map F of a (n, d, d) stack.

        For a derivation F it vanishes on E, so it lies in Der_E, and it
        differs from F by an inner derivation (E is separable).  With
        E = {1} the shift is ad F(1), zero on a derivation.
        """
        a, p = self.algebra, self.p
        shift = np.zeros((mats.shape[0], a.dim), dtype=INT)
        for e in a.idempotents:
            x, y, c = a.right_terms(e)  # F(e_i) e_i, by the terms of R_(e_i)
            gfp.scatter_add(shift.T, y, c, matmul(mats, e, p).T, x)
        return gfp.mod(mats - a.ad_matrices(shift), p)

    def on_window(self, rows) -> np.ndarray:
        """phi of rows of generator values on the W x W cells, (n, |W|, |W|); raises if a map sends W off W."""
        phi, d, w = self.phi, self.algebra.dim, self.window
        row, col = np.divmod(phi.cells, d)
        off = np.isin(col, w) & ~np.isin(row, w)  # the reached cells that would send W off W
        if off.any() and phi.on(rows, row[off] * d + col[off]).any():
            raise Hh1LieError("W is not stable under the representatives")
        return phi.on(rows, (w[:, None] * d + w).ravel()).reshape(len(rows), w.size, w.size)

    def inner(self):
        """ad(C): g of its canonical basis, their positions in ``basis``, and their span.

        g(ad c) = (c s - s c)_s is summed from the table terms for the basis
        vectors c of C, with no d x d map; with E = {1}, C = A and ad(C) =
        IDer(A).  ad c is a derivation of the validated table that vanishes
        on E and keeps each block, so it lies in Der_E, and a derivation is
        fixed by its values on the generators, which phi's steps prove
        generate A; its values are checked to lie in Der_g.  The RREF pivots
        of ad(C) are among those of Der_E, so the RREF of the coordinates of
        the ad c in the canonical basis of Der_E is the canonical basis of
        ad(C).
        """
        if self._inner is None:
            a, p = self.algebra, self.p
            escape = Hh1LieError("inner derivations escape the derivation space")
            ad = self.der.coords_rows(_ad_values(a, self.phi, self.centralizer), escape)
            # y = y[Q] K over the pivots Q of the kernel K, and K = M basis
            red, rank, piv = rref(matmul(ad, self._m, p), p)
            rows = matmul(red[:rank], self.basis, p)
            self._inner = rows, piv, Subspace.from_vectors(rows, p, self.nv)
        return self._inner


def _ad_values(a: Algebra, phi: Extender, basis) -> np.ndarray:
    """g(ad e_c) = (e_c s - s e_c)_s for the basis vectors c in ``basis``, on phi's unknowns.

    Each product is summed from the table terms (e_c, s) and (s, e_c), and
    each nonzero sum is written at its slot; a sum off the slots raises.
    """
    d, p = a.dim, a.p
    i, j, k, c = a.structure_constants()
    row = np.full(d, -1)
    row[basis] = np.arange(len(basis))
    keys, vals = [], []
    for t, s in enumerate(phi.gens):
        for mine, other, sign in ((i, j, 1), (j, i, -1)):  # e_c s on the terms (c, j); s e_c on (i, c)
            n = np.flatnonzero((row[mine] >= 0) & (s[other] != 0))
            keys.append(row[mine[n]] * phi.width + t * d + k[n])
            vals.append(sign * c[n] * s[other[n]])
    key, val = gfp.merge(np.concatenate(keys), np.concatenate(vals), p)
    row, col = np.divmod(key, phi.width)
    if not np.isin(col, phi.slots).all():
        raise Hh1LieError("inner derivations escape the derivation space")
    out = np.zeros((len(basis), phi.nv), dtype=INT)
    out[row, np.searchsorted(phi.slots, col)] = val
    return out


def _derivation_space(a: Algebra) -> DerivationSpace:
    """The solved Der_E(A), cached on the algebra; see ``derivation_space``."""
    if a.generators is None and a.dim > DENSE_SOLVER_LIMIT:
        raise Hh1LieError(
            f"dimension {a.dim} needs a generator presentation for the derivation solver"
        )
    # the algebra is immutable, so the solved space is cached on it
    if "der" not in a._derivation_cache:
        a._derivation_cache["der"] = DerivationSpace(a)
    return a._derivation_cache["der"]


def derivation_space(a: Algebra) -> list[Derivation]:
    """Basis of Der(A), deterministic via RREF pivots, as d x d maps.

    Read off the one relative solve: Der = Der_E + ad(A), and ad(C) lies in
    Der_E, so Der is spanned by the canonical basis of Der_E and the ad e_b
    for the basis vectors b off C; with E = {1} there are none.  The
    solver's unknowns are the values of f on ``a.generating_set()``: the
    algebra's generators, or with none, every basis vector, which is
    allowed up to dimension DENSE_SOLVER_LIMIT.
    """
    space, d = _derivation_space(a), a.dim
    off = gfp.complement(d, space.centralizer)
    rows = np.vstack([space.matrices(space.basis), a.ad_matrices(np.eye(d, dtype=INT)[off])])
    return [Derivation(a, m.reshape(d, d)) for m in gfp.row_space(rows.reshape(-1, d * d), a.p)]


def inner_derivations(a: Algebra) -> list[Derivation]:
    """Canonical basis of span{ad e_i}."""
    d = a.dim
    basis = gfp.row_space(a.ad_matrices(np.eye(d, dtype=INT)).reshape(d, d * d), a.p)
    return [Derivation(a, row.reshape(d, d)) for row in basis]


# -- named derivations on smash products ----------------------------------------


def named_inner(desc: SmashDescriptor, lam: int, j: int, algebra: Algebra = None) -> Derivation:
    """The inner derivation ad(u_lambda x^j)."""
    from .algebras import smash_product

    if algebra is None:
        algebra, _ = smash_product(desc.p, desc.n, desc.r)
    if not 0 <= j <= desc.x_bound - 1:
        raise IndexError(f"x-exponent {j} out of range")
    return Derivation(algebra, algebra.ad_matrices(gfp.basis_vector(algebra.dim, desc.index(lam, j)))[0])


def named_outer(desc: SmashDescriptor, lam: int, j: int, algebra: Algebra = None) -> Derivation:
    """The weight derivation killing every u_mu with x -> u_lambda x^(j p^r + 1); see ``named_outers``."""
    return named_outers(desc, [(lam, j)], algebra)[0]


def named_outers(desc: SmashDescriptor, pairs, algebra: Algebra = None) -> list[Derivation]:
    """The weight derivations g_(lambda, j), one per pair, by one phi call and one Leibniz check.

    phi of their values along ``desc.generators``, the algebra's own phi
    when it carries those generators; no Der solve.  The maps are then
    validated, and a failure means some values extend to no derivation: the
    maps are re-checked one at a time, so the error names the first.
    """
    from .algebras import smash_product

    if algebra is None:
        algebra, _ = smash_product(desc.p, desc.n, desc.r)
    gens = desc.generators
    phi = extender(algebra) if algebra.generators is gens else Extender(algebra, gens)
    maps = phi.matrices(_weight_values(desc, phi, pairs))
    if _leibniz_failure(algebra, maps):
        lam, j = next(pair for pair, m in zip(pairs, maps) if _leibniz_failure(algebra, m[None]))
        raise WellDefinednessFailure(
            f"Leibniz extension of the weight derivation (lambda={lam % desc.n_chars}, j={j}) failed"
        )
    return [Derivation(algebra, m) for m in maps]


def _weight_values(desc: SmashDescriptor, phi: Extender, pairs) -> np.ndarray:
    """g of the weight derivations g_(lambda, j) on phi's unknowns: zero on every u_mu, x -> u_lambda x^(j p^r + 1)."""
    values = np.zeros((len(pairs), phi.nv), dtype=INT)
    for row, (lam, j) in zip(values, pairs):
        exp = j * desc.p**desc.r + 1
        if not 0 <= exp <= desc.x_bound - 1:
            raise IndexError(f"weight exponent {j} maps to x^{exp}, out of range")
        row[phi.slot(desc.n_chars, desc.index(lam, exp))] = 1  # F(x): x is the last generator
    return values


# -- HH1 ------------------------------------------------------------------------


def generator_tables(mats, values, p: int, coords_rows):
    """Bracket and p-map tables of maps X_i from their values g(X_i) = (X_i s)_s on generators s.

    bracket[i, j] holds the ``coords_rows`` of g([X_i, X_j]) = X_i g(X_j) - X_j g(X_i), and
    pmap[i] of g(X_i^p) = X_i^(p-1) g(X_i): d^2 |S| per entry, no d x d product.
    Derivations, and so their brackets and p-th powers, are fixed by their
    values.  X_i g(X_j) is one product; it and the pairs i < j go in blocks
    of about 2^18 cells.
    """
    mats = normalize(mats, p)
    h, d = mats.shape[0], mats.shape[-1]
    if d == 0:  # W is empty when every generator lies in E, and so is every value
        return np.zeros((h, h, h), dtype=INT), np.zeros((h, h), dtype=INT)
    m = np.shape(values)[-1] // d
    vals = normalize(values, p).reshape(h * m, d)  # row (j, t) is X_j s_t
    xt = np.ascontiguousarray(mats.transpose(2, 0, 1)).reshape(d, h * d)  # column block i is X_i^T
    prod = np.empty((h * m, h * d), dtype=INT)
    step = max(1, STREAM_CELLS // max(h * m * d, 1)) * d
    for s in range(0, h * d, step):
        prod[:, s : s + step] = matmul(vals, xt[:, s : s + step], p)
    prod = prod.reshape(h, m, h, d)  # prod[j, t, i] is X_i X_j s_t
    bracket = np.zeros((h, h, h), dtype=INT)
    first, second = np.triu_indices(h, 1)
    step = max(1, STREAM_CELLS // max(m * d, 1))
    for s in range(0, first.size, step):
        i, j = first[s : s + step], second[s : s + step]
        comm = gfp.mod(prod[j, :, i] - prod[i, :, j], p)  # g([X_i, X_j])
        bracket[i, j] = coords_rows(comm.reshape(i.size, m * d))
    bracket[second, first] = gfp.mod(-bracket[first, second], p)
    power = prod[np.arange(h), :, np.arange(h)]  # g(X_i^2)
    for _ in range(p - 2):
        power = matmul(power, mats.transpose(0, 2, 1), p)
    return bracket, coords_rows(power.reshape(h, m * d))


class HH1Presentation:
    """Der_E = ad(C) + complement, with bracket and p-map on classes; with E = {1}, Der = IDer + complement.

    Der_E and ad(C) stay in the generator coordinates of ``space``.  The
    complement is given by its representatives' generator values in
    ``space``, checked to lie in Der_g; ``complement_basis`` builds the maps
    on request.  ``project_rows`` maps a stack of derivations to their
    class coordinates.  dim_der and dim_ider are those of Der(A) and
    IDer(A), read off the solved spaces (see the module).  The tables come
    from the representatives' values and their restrictions to W, checked
    to keep W, and are verified to be independent of the representatives
    by re-deriving them after seeded shifts drawn from ad(C).
    """

    def __init__(self, space: DerivationSpace, values, labels, seed=0):
        self.algebra = a = space.algebra
        self.space = space
        self.complement_labels = labels
        self.p = p = space.p
        inner_rows, _, ider = space.inner()
        d, dim_c = a.dim, space.centralizer.size
        self.dim_der = space.dim + d - dim_c
        self.dim_ider = d - dim_c + inner_rows.shape[0]  # d - dim Z(A), with Z(A) the kernel of ad on C
        self._values = normalize(values, p)
        if space.der.reduce_rows(self._values).any():
            raise Hh1LieError("complement representatives escape Der")
        self.dim = self._values.shape[0]
        self._reps = space.on_window(self._values)
        # class coordinates: coordinates in the representatives modulo ad(C)
        not_in = ValueError("matrix is not in IDer + complement")
        self._classes = gfp.OrderedBasis(self._values, p, ider, not_in)
        self.bracket_table, self.pmap_table = generator_tables(self._reps, self._values, p, self._classes.coords_rows)
        self._verify_representative_independence(seed)

    @functools.cached_property
    def complement_basis(self) -> list[Derivation]:
        """The complement representatives as maps, built from their values."""
        return [Derivation(self.algebra, m) for m in self.space.matrices(self._values)]

    def project_rows(self, stack) -> np.ndarray:
        """Class coordinates of each derivation of a stack of d x d maps, or of vec(F) rows."""
        d = self.algebra.dim
        rows = self.space.member_values(self.space.relative(normalize(stack, self.p).reshape(-1, d, d)))
        if rows is None:
            raise ValueError("matrix is not in IDer + complement")
        return self._classes.coords_rows(rows)

    def _verify_representative_independence(self, seed, trials=4):
        """Re-derive the tables after seeded shifts from ad(C); seed may be a Generator."""
        inner_rows, space = self.space.inner()[0], self.space
        if self.dim == 0 or inner_rows.shape[0] == 0:
            return
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            coeffs = rng.integers(0, self.p, size=(self.dim, inner_rows.shape[0]))
            shifts = matmul(coeffs, inner_rows, self.p)  # their values: no gen_coords per trial
            reps = self._reps + space.on_window(shifts)
            btab, ptab = generator_tables(reps, self._values + shifts, self.p, self._classes.coords_rows)
            if not (np.array_equal(btab, self.bracket_table) and np.array_equal(ptab, self.pmap_table)):
                raise Hh1LieError("bracket or p-map table depends on the representatives")

    def to_report_dict(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "dim_der": self.dim_der,
            "dim_ider": self.dim_ider,
            "dim_hh1": self.dim,
            "bracket_table": self.bracket_table.tolist(),
            "pmap_table": self.pmap_table.tolist(),
            "complement_labels": list(self.complement_labels),
        }


def hh1(a: Algebra, seed: int = 0) -> HH1Presentation:
    """HH1(A, A) as a deterministic presentation Der_E = ad(C) + complement, for E = ``a.idempotents``.

    For smash products the complement is the span of the named weight
    derivations with lambda = 0, given by their generator values and
    cross-validated against the pivot-chosen complement; otherwise the
    complement is pivot-chosen.
    """
    space = _derivation_space(a)
    ider_piv = space.inner()[1]
    pivot_comp = [i for i in range(space.dim) if i not in set(ider_piv)]
    if a.descriptor is not None:
        desc = a.descriptor
        reps = _weight_values(desc, space.phi, [(0, j) for j in desc.outer_exponents()])
        labels = [f"g[0,{j}]" for j in desc.outer_exponents()]
        # the presentation checks that they lie in Der_E and are independent modulo ad(C)
        if len(ider_piv) + len(reps) != space.dim or len(pivot_comp) != len(reps):
            raise Hh1LieError("weight complement has the wrong dimension")
    else:
        reps = space.basis[pivot_comp]
        labels = [f"h{i}" for i in range(len(reps))]
    pres = HH1Presentation(space, reps, labels, seed=seed)
    if a.descriptor is not None and pivot_comp:
        # projection equality: the pivot complement must project bijectively
        _, rank, _ = rref(pres._classes.coords_rows(space.basis[pivot_comp]), a.p)
        if rank != len(pivot_comp):
            raise Hh1LieError("pivot complement does not project onto the weight complement")
    return pres
