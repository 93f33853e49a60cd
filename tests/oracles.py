"""Test-local oracles: direct forms of operations the package computes another way.

The package keeps one name per job and no entry point that its pipelines
do not reach.  The tests still want the single-element and per-pair forms,
written from the definitions, to compare the batched kernels against.
"""

import itertools

import numpy as np

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie import lie as lielib
from hh1lie.errors import Hh1LieError, InfiniteDimensionalQuotient
from hh1lie.gfp import INT, Subspace, matmul, normalize, rref
from hh1lie.hochschild import DENSE_SOLVER_LIMIT, STREAM_CELLS


def mult_terms(a, i, j):
    """Terms (k, c) of e_i e_j, read from the structure constants."""
    ci, cj, ck, cc = a.structure_constants()
    sel = (ci == i) & (cj == j)
    return tuple(zip(ck[sel].tolist(), cc[sel].tolist()))


def bracket_vec(L, x, y):
    """[x, y] = sum_(i, j) x_i y_j [b_i, b_j] in GF(p)^dim."""
    x, y = normalize(x, L.p).reshape(-1), normalize(y, L.p).reshape(-1)
    return np.einsum("i,j,ijk->k", x, y, L.bracket) % L.p


def is_p_nilpotent_element(L, x) -> bool:
    """Whether x^[p^(dim+1)] = 0, one ``jacobson_p_power`` at a time."""
    x = normalize(x, L.p).reshape(-1)
    for _ in range(L.dim + 1):
        x = lielib.jacobson_p_power(L, x)
    return not x.any()


def element_analysis(L, x) -> dict:
    """Toral / p-nilpotent status and the Fitting parts of the p-map on the p-envelope of x."""
    p = L.p
    x = normalize(x, p).reshape(-1)
    px = lielib.jacobson_p_power(L, x)
    if not x.any():
        zero = np.zeros(L.dim, dtype=INT)
        return {
            "is_toral": False,
            "is_p_nilpotent": True,
            "semisimple_part": zero,
            "nilpotent_part": zero.copy(),
        }
    env, phi = lielib.p_envelope(L, x)
    phi_n = gfp.mat_pow(phi, env.dim, p)
    # Fitting: the nil part lies in ker phi^m, the invertible part in its image
    ker, img = gfp.kernel(phi_n, p), Subspace.from_vectors(phi_n.T, p, env.dim)
    fitting = gfp.OrderedBasis(ker, p, img, Hh1LieError("Fitting decomposition failed"))
    xc = env.coords_rows(x[None])[0]
    nil_c = matmul(fitting.coords_rows(xc[None]), ker, p)[0]
    nil_part = matmul(nil_c, env.basis, p)
    ss_part = matmul((xc - nil_c) % p, env.basis, p)
    return {
        "is_toral": bool(np.array_equal(px, x)),
        "is_p_nilpotent": not ss_part.any(),  # x^[p^m] = 0 iff x lies in the nil part
        "semisimple_part": ss_part,
        "nilpotent_part": nil_part,
    }


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: rows [A|A], [B|0]; left-zero rows carry the intersection."""
    n = a.ambient
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n, a.p)
    top = np.hstack([a.basis, a.basis])
    bot = np.hstack([b.basis, np.zeros_like(b.basis)])
    red, rank, _ = rref(np.vstack([top, bot]), a.p)
    rows = [red[i, n:] for i in range(rank) if not red[i, :n].any()]
    return Subspace.from_vectors(rows, a.p, n)


def quotient_basis(a: Subspace, b: Subspace) -> list:
    """The rows of a's canonical basis whose pivots are not pivots of a & b."""
    inter_pivots = set(intersection(a, b).pivots)
    return [row.copy() for row, piv in zip(a.basis, a.pivots) if piv not in inter_pivots]


def old_coords(sub, v):
    """Subspace.coords as it was: the pivot entries, then a membership check."""
    v = np.asarray(v, dtype=INT).reshape(-1) % sub.p
    coeffs = v[list(sub.pivots)]
    if ((v - coeffs @ sub.basis) % sub.p).any():
        raise ValueError("vector is not in the subspace")
    return coeffs


def old_p_envelope(L, x):
    """The p-envelope of x and the p-map on it, one ``jacobson_p_power`` at a time."""
    x = np.asarray(x, dtype=INT) % L.p
    chain, span = [x], Subspace.from_vectors([x], L.p, L.dim)
    while True:
        nxt = lielib.jacobson_p_power(L, chain[-1])
        if span.contains_vector(nxt):
            break
        chain.append(nxt)
        span = span.sum(Subspace.from_vectors([nxt], L.p, L.dim))
    phi = np.zeros((span.dim, span.dim), dtype=INT)
    for t in range(span.dim):
        phi[:, t] = old_coords(span, lielib.jacobson_p_power(L, span.basis[t]))
    return span, phi


def old_gen_block_residual(a, fstack, svec, reduce=True):
    """``hochschild._gen_block_residual`` before the planned checker, verbatim but for ``reduce``.

    Three zero-filled (d, k, d) scatters, two added back through transposes,
    and every entry reduced; ``reduce=False`` returns the exact integers.
    """
    d, p = a.dim, a.p
    svec = normalize(svec, p)
    k = fstack.shape[0]
    x, y, c = a.right_terms(svec)
    # F(e_x s) = sum c F(e_y): column x gathers columns y, held as (i, t, coordinate)
    lhs = gfp.scatter_add(np.zeros((d, k, d), dtype=INT), x, c, fstack.transpose(2, 0, 1), y)
    # F(e_i) s = R_s F(e_i): row y gathers rows x, held as (coordinate, t, i)
    res = gfp.scatter_add(np.zeros((d, k, d), dtype=INT), y, -c, fstack.transpose(1, 0, 2), x)
    res += lhs.transpose(2, 1, 0)
    # e_i F(s): each term e_i e_j = c e_k adds c F(s)_j to coordinate k
    ys = (fstack @ svec) % p  # (k, d)
    ci, cj, ck, cc = a.structure_constants()
    term_y = np.zeros((d * d, k), dtype=INT)  # (coordinate * d + i, t)
    gfp.scatter_add(term_y, ck * d + ci, cc, ys.T, cj)
    res -= term_y.reshape(d, d, k).transpose(0, 2, 1)
    if reduce:
        res %= p
    return res.transpose(1, 0, 2)


def old_fails_leibniz(a, fstack, gens) -> bool:
    """``hochschild._fails_leibniz`` before the planned checker, kept verbatim."""
    return any(
        old_gen_block_residual(a, fstack[t : t + 8], s).any()
        for s in gens
        for t in range(0, fstack.shape[0], 8)
    )


def old_leibniz_failure(a, fstack):
    """``hochschild._leibniz_failure`` before the planned checker, on ``old_fails_leibniz``."""
    if matmul(fstack, a.unit, a.p).any():
        return "produced a map with f(1) != 0"
    if old_fails_leibniz(a, fstack, a.generating_set()):
        return "produced a non-derivation"
    if a.generators is not None and a.dim <= DENSE_SOLVER_LIMIT:
        if old_fails_leibniz(a, fstack, np.eye(a.dim, dtype=INT)):
            return "failed the all-pairs check"
    return None


def quiver_algebra_from_pairs(q, p, max_paths=400):
    """A bound quiver algebra with its ideal spanned from the definition, or None.

    The coordinates are every path of length <= L, longest first, and the
    ideal is spanned by u rho v over every relation rho and every pair of
    paths u, v with |u| + |rho| + |v| <= L.  L grows until every path of
    length L lies in the ideal, up to the builder's cap.  A product is the
    concatenation reduced modulo the ideal.  Returns None once more than
    ``max_paths`` paths are listed.
    """
    arrows = {a: (s, t) for a, s, t in q.arrows}

    def end(pth):
        return arrows[pth[1][-1]][1] if pth[1] else pth[0]

    cap = max(2 * len(q.arrows) * max((len(rel[0][1]) for rel in q.relations), default=1), 6)
    paths = [(v, ()) for v in q.vertices]
    for length in range(1, cap + 1):
        last = [pth for pth in paths if len(pth[1]) == length - 1]
        top = [(s, w + (a,)) for s, w in last for a in arrows if arrows[a][0] == end((s, w))]
        paths += top
        if len(paths) > max_paths:
            return None
        paths.sort(key=lambda pth: (-len(pth[1]), pth))
        coord = {pth: i for i, pth in enumerate(paths)}
        by_len = [[pth for pth in paths if len(pth[1]) == n] for n in range(length + 1)]
        rows = []
        for rel in q.relations:
            first = rel[0][1]
            room = length - len(first)  # |u| + |v| <= room
            for lu, lv in itertools.product(range(room + 1), repeat=2):
                for u, v in itertools.product(by_len[lu], by_len[lv] if lu + lv <= room else ()):
                    if end(u) == arrows[first[0]][0] and v[0] == arrows[first[-1]][1]:
                        row = np.zeros(len(paths), dtype=INT)
                        for c, path in rel:
                            row[coord[u[0], u[1] + tuple(path) + v[1]]] += c
                        rows.append(row)
        ideal = Subspace.from_vectors(rows, p, len(paths))
        if all(coord[pth] in ideal.pivots for pth in top):
            break
    else:
        raise InfiniteDimensionalQuotient(f"no saturation up to path length {cap}")
    basis = [pth for pth in paths if coord[pth] not in ideal.pivots]
    basis.sort(key=lambda pth: (len(pth[1]), pth))
    free = [coord[pth] for pth in basis]
    mult = {}
    for (i, (s, w)), (j, (t, v)) in itertools.product(enumerate(basis), repeat=2):
        if t == end((s, w)) and (s, w + v) in coord:
            prod = ideal.reduce_vector(gfp.basis_vector(len(paths), coord[s, w + v]))
            assert not np.delete(prod, free).any(), "reduction escaped the chosen basis"
            mult[i, j] = [(k, c) for k, c in enumerate(prod[free]) if c]
    unit = np.zeros(len(basis), dtype=INT)
    unit[[basis.index((v, ())) for v in q.vertices]] = 1
    rad = [gfp.basis_vector(len(basis), basis.index((s, (a,)))) for a, s, _ in q.arrows]
    labels = [f"e{s}" if not w else "*".join(w) for s, w in basis]
    return alg.Algebra(p, labels, mult, unit, radical_gens=rad, name=f"quiver(p={p},dim={len(basis)})")


def whole(a):
    """The table of ``a`` carrying E = {1}, whose derivation solve is all of Der; ``a`` itself when it carries E = {1}.

    ``Algebra.without_idempotents`` as it was, verbatim but for the name: an
    unvalidated copy that keeps the generators and the descriptor.
    """
    if len(a.idempotents) == 1:
        return a
    return alg.Algebra(
        a.p,
        a.labels,
        a.structure_constants(),
        a.unit,
        radical_gens=a.radical_gens,
        counit=a.counit,
        name=a.name,
        descriptor=a.descriptor,
        generators=a.generators,
        validate=False,
    )


def bare(a):
    """The table of ``a`` with no generators and E = {1}, solved on every basis vector.

    That is how a block was solved before it named its parent's generators.
    """
    return alg.Algebra(a.p, a.labels, a.structure_constants(), a.unit, name=a.name)


def old_stream_pivots(space, ker):
    """``hochschild.DerivationSpace._stream_pivots`` before the per-block pivots, verbatim but for ``space``.

    vec(F) pivots of the RREF of phi(ker), and M whose column i is column P_i.
    A lazy-column RREF: the columns of phi(ker) are built in vec(F) order,
    STREAM_CELLS cells at a time, until the rank reaches dim Der.  A column
    is a pivot iff it is independent of the columns before it, whose span in
    GF(p)^k grows by ``Subspace.extend``; the canonical basis is M^-1 phi(ker).
    """
    d, p, k = space.algebra.dim, space.p, ker.shape[0]
    fe, unk, val = space.phi.triplets
    ker_t = np.ascontiguousarray(ker.T)
    step = max(1, STREAM_CELLS // max(k, 1))
    span, pivots, cols = Subspace.zero(k, p), [], []
    for start in range(0, d * d, step):
        if len(pivots) == k:
            break
        lo, hi = np.searchsorted(fe, [start, start + step])
        block = np.zeros((min(step, d * d - start), k), dtype=INT)
        gfp.scatter_add(block, fe[lo:hi] - start, val[lo:hi], ker_t, unk[lo:hi])
        red = span.reduce_rows(block)  # reduces the block mod p too
        live = np.flatnonzero(red.any(axis=1))  # most residuals are zero once the rank nears k
        new = live[rref(red[live].T, p)[2]].tolist()
        if new:
            pivots += [start + c for c in new]
            cols.append(block[new] % p)
            span = span.extend(red[new])
    if len(pivots) < k:
        raise Hh1LieError("phi maps distinct solved generator values to one map")
    return pivots, np.vstack(cols).T if cols else np.zeros((0, 0), dtype=INT)


def old_inner(space):
    """``hochschild.DerivationSpace.inner`` as it was for E = {1}, verbatim but for ``space``.

    ad(A) = IDer(A) from the d x d maps ad e_i, a block at a time, each
    checked to be phi of its generator values, then canonicalized as the
    package does: (rows, pivots in ``space.basis``, span).
    """
    a, p = space.algebra, space.p
    ad = []
    for s in range(0, a.dim, space._block):
        # ad e_i for i from s on: rows s, s + 1, ... of the identity
        mats = a.ad_matrices(np.eye(min(space._block, a.dim - s), a.dim, s, dtype=INT))
        rows = space.gen_coords(mats)
        if space.der.reduce_rows(rows).any() or not space.is_phi_of(mats, rows):
            raise Hh1LieError("inner derivations escape the derivation space")
        ad.append(rows)
    ad = np.vstack(ad)
    # y = y[Q] K over the pivots Q of the kernel K, and K = M basis
    red, rank, piv = rref(matmul(ad[:, list(space.der.pivots)], space._m, p), p)
    rows = matmul(red[:rank], space.basis, p)
    return rows, piv, Subspace.from_vectors(rows, p, space.nv)


def old_graph_max_commuting_torus(L, torals):
    """``lie._max_commuting_torus`` as it was with the n x n commuting graph, verbatim but for its size limit.

    commute[s, t] says ad(reps_s) reps_t = 0.  The depth-first search, its
    ``seen`` spans and its rank bound are those of the package's search.
    """
    p, d = L.p, L.dim
    if not len(torals):
        return []
    reps = lielib._projectivize(torals, p)
    n = len(reps)
    # commute[s, t] <=> ad(reps_s) reps_t = 0, in row blocks of about 2^18 bracket entries
    ads, rows = L.ad(reps).reshape(n * d, d), max(1, (1 << 18) // (n * d)) * d
    brackets = (matmul(ads[s : s + rows], reps.T, p) for s in range(0, n * d, rows))
    commute = ~np.vstack([b.reshape(-1, d, n).any(axis=1) for b in brackets])
    best, seen = [], set()

    def extend(span: Subspace, chosen, cand):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        key = span.basis.tobytes()
        if key in seen:
            return
        seen.add(key)
        resid = span.reduce_rows(reps[cand])
        outside = resid.any(axis=1)
        if span.dim + rref(resid[outside], p)[1] <= len(best):
            return
        for pos in np.flatnonzero(outside):
            t, later = cand[pos], cand[pos + 1 :]
            later = later[commute[t, later]]
            if span.dim + 1 + len(later) > len(best):  # else even the count bounds the branch
                extend(span.extend(reps[t]), chosen + [reps[t]], later)

    extend(Subspace.zero(d, p), [], np.arange(n))
    return best


def old_leibniz_terms(a, gens, consts):
    """``hochschild._leibniz_terms`` before it joined phi's cells, verbatim: (equation, vec(F) index, coefficient).

    Equation x < d is coordinate x of F(1) = 0, and equation
    d + (t * d + i) * d + x is coordinate x of F(e_i s) - F(e_i) s - e_i F(s)
    for s = gens[t].  Each term below is one structure constant
    e_i e_j = c e_k, broadcast over a free index: (|S| + 1) d^2 terms and more.
    """
    d = a.dim
    ci, cj, ck, cc = consts
    ar = np.arange(d)
    u = np.flatnonzero(a.unit)
    parts = [np.broadcast_arrays(ar[:, None], ar[:, None] * d + u, a.unit[u])]
    for t, s in enumerate(gens):
        base = d + t * d * d
        i, k, c = (col[:, None] for col in a.right_terms(s))
        ys = np.flatnonzero(s)
        parts += [
            np.broadcast_arrays(base + i * d + ar, ar * d + k, c),  # F(e_i s): c s_j F[x, k]
            np.broadcast_arrays(base + ar * d + k, i * d + ar, -c),  # F(e_x) s: c s_j F[i, x]
            np.broadcast_arrays(  # e_i F(s): c s_y F[j, y] in coordinate k
                base + ci[:, None] * d + ck[:, None], cj[:, None] * d + ys, -cc[:, None] * s[ys]
            ),
        ]
    return [np.concatenate([part[n].ravel() for part in parts]) for n in range(3)]


def old_leibniz_rows(phi):
    """``hochschild._leibniz_rows`` as it was: the broadcast terms composed with phi through a (d^2 + 1) pointer."""
    a = phi.algebra
    fe, unk, val = phi.triplets
    eq, ent, coef = old_leibniz_terms(a, list(phi.gens), a.structure_constants())
    term, pos = gfp.expand(ent, np.searchsorted(fe, np.arange(a.dim**2 + 1)))
    keys, vals = gfp.merge(eq[term] * phi.nv + unk[pos], gfp.mod(coef[term], a.p) * val[pos], a.p)
    return hoch._distinct_rows(keys, vals, phi.nv, a.p)


def torus_weights(a, gens):
    """``hochschild._torus_weights`` as it was, verbatim: W (m x d), the canonical basis of the torus weights.

    w is a weight when w_i + w_j = w_k on every term e_i e_j = ... + c e_k
    and w is constant on the support of every generator.  Each row w of W is
    the diagonal derivation e_b -> w_b e_b, so W grades A by GF(p)^m with
    every generator homogeneous.
    """
    d, p = a.dim, a.p
    ci, cj, ck, _ = a.structure_constants()
    g, b = np.nonzero(gens)
    first = np.argmax(gens != 0, axis=1)
    eq = np.r_[np.arange(ci.size).repeat(3), ci.size + np.arange(b.size).repeat(2)]
    var = np.r_[np.c_[ci, cj, ck].ravel(), np.c_[b, first[g]].ravel()]
    coef = np.r_[np.tile([1, 1, -1], ci.size), np.tile([1, -1], b.size)]
    keys, vals = gfp.merge(eq * d + var, coef, p)
    return gfp.kernel(hoch._span_echelon(*hoch._distinct_rows(keys, vals, d, p), d, p), p)


def unknown_weights(a, gens):
    """(m, |S| d): the weight w_b - w_(g_t) of each value coordinate t * d + b, for W = ``torus_weights``."""
    w = torus_weights(a, gens)
    weight = gfp.mod(w[:, None, :] - w[:, np.argmax(gens != 0, axis=1), None], a.p)
    return weight.reshape(w.shape[0], gens.size)
