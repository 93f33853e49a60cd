"""Restricted Lie algebras over GF(p): structure, tori, recognition.

A :class:`RestrictedLie` stores bracket structure constants and the
p-map images of the basis.  The p-map of arbitrary elements is expanded
with the Jacobson summands by one batched evaluator, which a single
element goes through as a one-row stack; construction verifies
antisymmetry, the Jacobi identity and ad(x^[p]) = ad(x)^p on the basis.

Analyses: derived / lower central series, solvability, nilpotency,
simplicity (adjoint irreducibility via Norton's kernel-spin test on one
seeded stream, with explicit witnesses), toral and p-nilpotent elements,
greedy maximal tori with exhaustive certification at enumerable sizes,
trigonalizability, and fingerprints that recognize the derivation
algebras of truncated polynomial rings, sl2 and gl2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import gfp
from .algebras import truncated_polynomial
from .errors import DimensionMismatch, Hh1LieError, RestrictednessViolation
from .gfp import INT, STREAM_CELLS, Subspace, check_prime, matmul, normalize, rref
from .hochschild import HH1Presentation, generator_tables, hh1

ENUM_LIMIT = 10**6
ENUM_LIMIT_SLOW = 20_000
NORTON_ROUNDS = 400  # seeded words, then as many mixed elements, in the Norton stream
TORUS_ROUNDS = 60  # seeded centralizer draws per greedy torus step


class RestrictedLie:
    """Lie algebra over GF(p) with a p-map given on the basis."""

    def __init__(self, p, bracket, pmap_basis, labels=None, validate=True):
        self.p = check_prime(p)
        self.bracket = normalize(bracket, self.p)
        self.dim = self.bracket.shape[0] if self.bracket.ndim == 3 else 0
        if self.bracket.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch("bracket tensor must be (dim, dim, dim)")
        self.pmap_basis = normalize(pmap_basis, self.p).reshape(self.dim, self.dim)
        self.labels = list(labels) if labels is not None else [f"b{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise DimensionMismatch("label count does not match dimension")
        self._admats = self._lie_gens = self._pmap_census = None
        self._tori = {}  # seed -> TorusReport, for int seeds
        if validate:
            self.validate()

    # -- basic operations --------------------------------------------------

    def ad(self, x) -> np.ndarray:
        """Matrix of y -> [x, y], or the stack of them for a stack of elements x."""
        x, d = normalize(x, self.p), self.dim
        rows = matmul(x, self.bracket.reshape(d, d * d), self.p)  # [., j, k]: e_k in [x, b_j]
        return rows.reshape(x.shape[:-1] + (d, d)).swapaxes(-1, -2)

    def ad_basis(self) -> np.ndarray:
        """The (dim, dim, dim) stack of ad(b_i), built once."""
        if self._admats is None:
            self._admats = np.ascontiguousarray(self.bracket.transpose(0, 2, 1))
        return self._admats

    def validate(self):
        p, d = self.p, self.dim
        c = self.bracket
        # the first failing row i reports [b_i, b_i] before any pair (i, j)
        square = c[np.arange(d), np.arange(d)].any(axis=1)
        asym = ((c + c.transpose(1, 0, 2)) % p).any(axis=2)
        bad = np.flatnonzero(square | asym.any(axis=1))
        if bad.size:
            i = int(bad[0])
            if square[i]:
                raise Hh1LieError(f"[b{i}, b{i}] != 0")
            raise Hh1LieError(f"bracket not antisymmetric at ({i}, {int(np.argmax(asym[i]))})")
        # [b_i, [b_j, b_k]] + [b_k, [b_i, b_j]] + [b_j, [b_k, b_i]] for a slice of
        # first indices i at a time, about 2^18 cells, so no d^4 array is held.
        # With t[i, j, k] = [b_k, [b_i, b_j]] and antisymmetry, the last two
        # terms are t[i, j, k] - t[i, k, j].  The sum is alternating, so the
        # first failing triple has i < j < k: j and k run past the slice start.
        step = max(1, STREAM_CELLS // max(d**3, 1))
        for i0 in range(0, d, step):
            block, rest = c[i0 : i0 + step], c[i0 + 1 :]
            b, m = block.shape[0], rest.shape[0]
            ct = rest.transpose(1, 0, 2).reshape(d, m * d)
            t = matmul(block[:, i0 + 1 :].reshape(b * m, d), ct, p).reshape(b, m, m, d)
            jac = matmul(rest[:, i0 + 1 :].reshape(m * m, d), block, p).reshape(b, m, m, d)
            jac = (jac + t - t.transpose(0, 2, 1, 3)) % p
            if jac.any():
                i, j, k = (int(x) for x in np.argwhere(jac.any(axis=3))[0])
                raise Hh1LieError(f"Jacobi identity fails at triple {(i0 + i, i0 + 1 + j, i0 + 1 + k)}")
        powers = gfp.mat_pow(self.ad_basis(), p, p)
        bad = np.flatnonzero((self.ad(self.pmap_basis) != powers).any(axis=(1, 2)))
        if bad.size:
            raise RestrictednessViolation(f"ad(b{bad[0]}^[p]) != ad(b{bad[0]})^p")

    def to_json_dict(self) -> dict:
        ijk = np.argwhere(self.bracket)  # C order: sorted by (i, j, k)
        return {
            "p": self.p,
            "labels": list(self.labels),
            "bracket": np.column_stack([ijk, self.bracket[tuple(ijk.T)]]).tolist(),
            "pmap": self.pmap_basis.tolist(),
        }

    def __repr__(self):
        return f"RestrictedLie(dim={self.dim}, p={self.p})"


def from_hh1(h: HH1Presentation) -> RestrictedLie:
    """The restricted Lie algebra carried by an HH1 presentation."""
    return RestrictedLie(
        h.p, h.bracket_table, h.pmap_table, labels=h.complement_labels
    )


# -- Jacobson p-map --------------------------------------------------------------


def _jacobson_batch(L: RestrictedLie, xs: np.ndarray) -> np.ndarray:
    """x^[p] for every row of xs (entries in [0, p)), via the Jacobson summands.

    Peeling coordinate c off x = u + v, with u = x_c b_c and v = (0, ..., 0,
    x_{c+1}, ..., x_{d-1}), gives (u+v)^[p] = x_c b_c^[p] + v^[p] + sum s_i(u, v),
    where i s_i(u, v) is the coefficient of t^(i-1) in ad(t u + v)^(p-1)(u).
    The summands vanish unless u and v are both nonzero, so column c works
    only on its live rows: x_c != 0 and some later entry nonzero.  int64
    products, reduced mod p after each.
    """
    p, d = L.p, L.dim
    out = matmul(xs, L.pmap_basis, p)
    nonzero = xs != 0
    live = np.zeros_like(nonzero)
    live[:, :-1] = np.logical_or.accumulate(nonzero[:, :0:-1], axis=1)[:, ::-1]
    live &= nonzero
    cols = np.flatnonzero(live.any(axis=0))
    if not cols.size:
        return out
    inv = np.array([gfp.inv_mod(s, p) for s in range(1, p)], dtype=INT)
    for c in cols:
        rows = slice(None) if live[:, c].all() else np.flatnonzero(live[:, c])
        x = xs[rows]
        xc = x[:, c, None, None]
        ad_v = (x[:, c + 1 :] @ L.bracket[c + 1 :].reshape(-1, d * d)).reshape(-1, d, d) % p
        poly = np.zeros((x.shape[0], p, d), dtype=INT)  # t-coefficients of ad(t u + v)^k (u)
        poly[:, 0, c] = x[:, c]
        for k in range(1, p):  # only the first k coefficients can be nonzero
            shifted = poly[:, :k] @ L.bracket[c] % p * xc  # [u, .]
            poly[:, :k] = poly[:, :k] @ ad_v  # [v, .]
            poly[:, 1 : k + 1] += shifted
            poly[:, : k + 1] %= p
        out[rows] = (out[rows] + inv @ poly[:, : p - 1]) % p
    return out


def jacobson_p_power(L: RestrictedLie, x) -> np.ndarray:
    """x^[p] for an arbitrary element: the one-row case of _jacobson_batch."""
    return _jacobson_batch(L, normalize(x, L.p).reshape(1, -1))[0]


def _p_nilpotent_rows(L: RestrictedLie, xs: np.ndarray) -> np.ndarray:
    """Whether x^[p^(dim+1)] = 0, for every row x of the (n, dim) stack xs."""
    ys = normalize(xs, L.p)
    for _ in range(L.dim + 1):
        if not ys.any():
            break
        ys = _jacobson_batch(L, ys)
    return ~ys.any(axis=1)


# -- series and predicates --------------------------------------------------------


def _pairwise_brackets(L: RestrictedLie, a, b) -> np.ndarray:
    """[a_s, b_t] = b_t ad(a_s)^T for every pair of rows (entries reduced mod p), as (s, t, dim)."""
    return matmul(b, L.ad(a).swapaxes(1, 2), L.p)


def _bracket_span(L: RestrictedLie, s1: Subspace, s2: Subspace) -> Subspace:
    rows = _pairwise_brackets(L, s1.basis, s2.basis).reshape(s1.dim * s2.dim, L.dim)
    return Subspace(L.p, L.dim, gfp.row_space(rows, L.p))


def _is_lie_nilpotent(L: RestrictedLie, sub: Subspace) -> bool:
    """Whether the subalgebra sub is nilpotent: [sub, [sub, ... sub]] reaches 0 within dim + 1 steps."""
    term = sub
    for _ in range(L.dim + 1):
        if term.dim == 0:
            return True
        term = _bracket_span(L, sub, term)
    return term.dim == 0


def _is_ideal(L: RestrictedLie, sub: Subspace) -> bool:
    """Whether [b_i, v] lies in sub for every basis element b_i and v in sub."""
    rows = _pairwise_brackets(L, np.eye(L.dim), sub.basis).reshape(-1, L.dim)
    return not sub.reduce_rows(rows).any()


def center_of(L: RestrictedLie) -> Subspace:
    """Solutions of [b_i, x] = 0 for every basis element b_i."""
    return _centralizer(L, np.eye(L.dim, dtype=INT))


def series_and_predicates(L: RestrictedLie) -> dict:
    """Derived and lower central series with the standard predicates."""
    full = Subspace.full(L.dim, L.p)
    derived = [full]
    while True:
        nxt = _bracket_span(L, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
    lower = [full]
    while True:
        nxt = _bracket_span(L, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    return {
        "derived_series": derived,
        "lower_central_series": lower,
        "center": center_of(L),
        "is_abelian": len(derived) > 1 and derived[1].dim == 0 or L.dim == 0,
        "is_solvable": derived[-1].dim == 0,
        "is_nilpotent": lower[-1].dim == 0,
    }


# -- simplicity via kernel-spin irreducibility test -------------------------------


def _spin_operator(mats) -> np.ndarray:
    """The (d, m*d) operator whose row product lists a row's m images."""
    return mats.transpose(2, 0, 1).reshape(mats.shape[2], -1)


def _spin(op: np.ndarray, starts, p: int, known=()) -> Subspace:
    """Smallest subspace containing the start rows and stable under the matrices of op.

    Each round applies op only to the rows the previous round added (the
    span's rows on its new pivots after ``Subspace.extend``), and a full
    span stops at once.

    ``known`` holds rows proved to spin to the whole space under op: a span
    holding one of them spins to the whole space, which returns at once.  A
    proper invariant subspace holds none, so proper results never change.
    """
    dim = op.shape[0]
    known = np.reshape(known, (-1, dim))
    span = Subspace.zero(dim, p).extend(np.reshape(starts, (-1, dim)))
    new = span.basis
    while len(new) and span.dim < dim:
        if len(known) and not span.reduce_rows(known).any(axis=1).all():
            return Subspace.full(dim, p)
        grown = span.extend(matmul(new, op, p).reshape(-1, dim))
        new = grown.basis[np.isin(grown.pivots, span.pivots, invert=True)]
        span = grown
    return span


def _lie_generators(L: RestrictedLie) -> list[int]:
    """Basis indices, chosen greedily in basis order, that generate L as a Lie algebra.

    The subalgebra generated by a set S is the spin of S under ad(S), since
    right-normed brackets of elements of S span it.  Built once.
    """
    if L._lie_gens is None:
        mats, gens = L.ad_basis(), []
        span = Subspace.zero(L.dim, L.p)
        for i in range(L.dim):
            e = gfp.basis_vector(L.dim, i)
            if not span.contains_vector(e):
                gens.append(i)
                span = _spin(_spin_operator(mats[gens]), span.extend(e).basis, L.p)
        L._lie_gens = gens
    return L._lie_gens


def _random_env_element(mats, p, rng) -> np.ndarray:
    """Seeded random element of the unital algebra generated by the matrices."""
    d = mats[0].shape[0]
    theta = np.zeros((d, d), dtype=INT)
    n_words = int(rng.integers(2, 5))
    for _ in range(n_words):
        word = np.eye(d, dtype=INT)
        for _ in range(int(rng.integers(1, 4))):
            word = matmul(word, mats[int(rng.integers(0, len(mats)))], p)
        theta = (theta + int(rng.integers(1, p)) * word) % p
    return theta


def _mixed_element(mats, p, rng) -> np.ndarray:
    """Parker's mixed element ab + a + bab, for seeded random combinations a and b of the matrices."""
    m = len(mats)
    a, b = matmul(rng.integers(0, p, size=(2, m)), mats.reshape(m, -1), p).reshape((2,) + mats.shape[1:])
    ab = matmul(a, b, p)
    return (ab + a + matmul(b, ab, p)) % p


def _envelope_candidates(mats, p: int, seed: int):
    """The matrices, then NORTON_ROUNDS seeded words in them, then as many mixed elements, lazily."""
    rng = np.random.default_rng(seed)
    words = (_random_env_element(mats, p, rng) for _ in range(NORTON_ROUNDS))
    return itertools.chain(mats, words, (_mixed_element(mats, p, rng) for _ in range(NORTON_ROUNDS)))


def adjoint_invariant_subspace(L: RestrictedLie, seed: int = 0):
    """A proper nonzero ad-invariant subspace (an ideal), or None if irreducible.

    Norton-style decision: for a singular element theta of the enveloping
    algebra, either some kernel vector spins to a proper submodule
    (reducible, with witness), or every kernel vector spins to the whole
    space and some transpose-kernel vector spins to the whole dual space
    (irreducible).  Answers are certified by the returned witness or by
    that spin certificate; the seeded search is Las-Vegas.

    theta runs over the one stream ``_envelope_candidates``, whose mixed
    elements have nullity 1 far more often than its words.  No kernel is
    searched exhaustively: a stream that ends undecided raises Hh1LieError.

    Each probed kernel vector that spins to all of L is kept, and later
    spins stop once they reach one (see ``_spin``): only full spins end
    early, so the witness and verdict do not change.  The dual keeps none.
    """
    d, p = L.dim, L.p
    if d == 0:
        return None
    if not L.bracket.any():
        # abelian: every line is an ideal
        return Subspace.from_vectors([gfp.basis_vector(d, 0)], p, d)
    mats = L.ad_basis()
    # ad of a Lie generating set spans ad(L) under commutators, so it has
    # the same invariant subspaces, in the dual too; the spins are unchanged
    gen_mats = mats[_lie_generators(L)]
    op, op_t = _spin_operator(gen_mats), _spin_operator(gen_mats.transpose(0, 2, 1))
    known = []  # probed vectors whose spin under op is all of L

    def dual_side(theta):
        """None if the first transpose-kernel vector u spins to the full dual,
        else the perp of its proper dual submodule.

        theta is singular, so u exists, and its spin has dimension 1..d: a
        proper spin has a proper nonzero perp.
        """
        span_t = _spin(op_t, gfp.left_kernel(theta, p)[0], p)
        if span_t.dim == d:
            return None
        return Subspace.from_vectors(gfp.kernel(span_t.basis, p), p, d)

    for theta in _envelope_candidates(mats, p, seed):
        ker = gfp.kernel(theta, p)
        nullity = ker.shape[0]
        if nullity == 0 or nullity == d:
            continue
        # probe a few kernel vectors; the conclusive certificate is the nullity-1 case
        for v in ker[:3]:
            span = _spin(op, v, p, known)
            if span.dim < d:
                return span
            known.append(v)
        if nullity == 1:
            # Norton: the kernel line and one transpose-kernel vector decide
            return dual_side(theta)
    raise Hh1LieError("irreducibility test did not reach a decision")


def is_simple(L: RestrictedLie, seed: int = 0) -> bool:
    """Nonabelian with irreducible adjoint representation.

    One-dimensional (and all abelian) algebras are not simple by
    convention.  A reducible verdict is backed by an explicit ideal,
    re-verified before returning.
    """
    if not L.bracket.any():  # abelian, including dim 0
        return False
    witness = adjoint_invariant_subspace(L, seed=seed)
    if witness is None:
        return True
    if witness.dim in (0, L.dim):
        raise Hh1LieError("invalid invariant-subspace witness")
    if not _is_ideal(L, witness):
        raise Hh1LieError("witness subspace is not an ideal")
    return False


def _all_vectors_batch(p: int, dim: int, start: int = 0, stop: int = None) -> np.ndarray:
    """Rows start to stop (default: all p^dim) of the coordinate vectors, row n the base-p digits of n."""
    idx = np.arange(start, p**dim if stop is None else stop)
    out = np.zeros((idx.size, dim), dtype=INT)
    for c in range(dim):
        out[:, c] = idx % p
        idx = idx // p
    return out


# -- tori ---------------------------------------------------------------------------


def p_envelope(L: RestrictedLie, x) -> tuple[Subspace, np.ndarray]:
    """Span of x, x^[p], x^[p^2], ... and the matrix of the p-map on it.

    The envelope is abelian, and over GF(p) the p-map is additive and
    fixes scalars, hence acts linearly on the envelope.  The one-row case
    of ``_p_envelopes``.
    """
    return _p_envelopes(L, np.reshape(x, (1, -1)))[0]


def _p_envelopes(L: RestrictedLie, xs) -> list[tuple[Subspace, np.ndarray]]:
    """``p_envelope`` of each row of xs, one batched p-power step at a time until every span closes."""
    p, d = L.p, L.dim
    xs = normalize(xs, p).reshape(-1, d)
    spans = [Subspace.from_vectors(x[None], p, d) for x in xs]
    live, nxt = np.arange(len(xs)), xs
    while live.size:
        nxt = _jacobson_batch(L, nxt)
        grow = np.array([not spans[i].contains_vector(v) for i, v in zip(live, nxt)], dtype=bool)
        live, nxt = live[grow], nxt[grow]
        for i, v in zip(live, nxt):
            spans[i] = spans[i].extend(v)
    images = _jacobson_batch(L, np.vstack([s.basis for s in spans]))
    ends = np.cumsum([s.dim for s in spans])[:-1]
    return [(s, s.coords_rows(im).T) for s, im in zip(spans, np.split(images, ends))]


@dataclass
class TorusReport:
    """Certificate of a torus: basis, per-element torality, commutation proofs."""

    basis: list
    dim: int
    certificates: list
    maximality_status: str

    def to_json_dict(self) -> dict:
        """The report as fresh JSON values: changing them leaves the report as it is."""
        return {
            "basis": [[int(x) for x in v] for v in self.basis],
            "dim": self.dim,
            "certificates": [dict(c) for c in self.certificates],
            "maximality_status": self.maximality_status,
        }

    def copy(self) -> TorusReport:
        certs = [dict(c) for c in self.certificates]
        return replace(self, basis=[t.copy() for t in self.basis], certificates=certs)


def _toral_fixed_points(L: RestrictedLie, env: Subspace, phi: np.ndarray) -> list[np.ndarray]:
    """Nonzero fixed points of the p-map inside an abelian envelope."""
    m = env.dim
    fixed = gfp.kernel((phi - np.eye(m, dtype=INT)) % L.p, L.p)
    return [matmul(c, env.basis, L.p) for c in fixed]


def _centralizer(L: RestrictedLie, vectors) -> Subspace:
    """Solutions of [v, x] = 0 for every given vector v: the kernel of the stacked ad(v)."""
    n, d = len(vectors), L.dim
    ads = L.ad(np.reshape(vectors, (n, d)))
    return Subspace.from_vectors(gfp.kernel(ads.reshape(n * d, d), L.p), L.p, d)


def _pmap_enumeration(L: RestrictedLie):
    """Chunks (vs, xs, ys) covering GF(p)^dim, or None past the enumeration limit.

    Row n of ys encodes vs[n]^[p] as row n of xs encodes vs[n].  With trivial
    centre ad is injective, so x is encoded by ad(x)^T and x^[p] by
    (ad(x)^T)^p, which vectorizes; otherwise by themselves, through
    _jacobson_batch.  One chunk's arrays are released before the next is built.
    """
    d, p = L.dim, L.p
    total = p**d
    if total > ENUM_LIMIT:
        return None
    by_ad = center_of(L).dim == 0
    if not by_ad and total > ENUM_LIMIT_SLOW:
        return None
    chunk = max(1, STREAM_CELLS // max(1, d * d))

    def chunks():
        for start in range(0, total, chunk):
            vs = _all_vectors_batch(p, d, start, min(start + chunk, total))
            if not by_ad:
                yield vs, vs, _jacobson_batch(L, vs)
                continue
            # ad(x)^T and its p-th power, reduced in place; at most three chunk-sized
            # arrays live, and C order, so the rows handed out are views
            ads = np.einsum("vi,ijk->vjk", vs, L.bracket)
            ads %= p
            pw = ads
            for _ in range(p - 1):
                pw = pw @ ads
                pw %= p
            yield vs, ads.reshape(len(vs), -1), pw.reshape(len(vs), -1)
            del ads, pw  # released before the next chunk is built

    return chunks()


def _pmap_census(L: RestrictedLie):
    """(toral elements as an (n, dim) array, nullcone count) from one enumeration, both None past its limit.

    Built once: the torus certificate and the fingerprint both read it.
    """
    if L._pmap_census is None:
        chunks = _pmap_enumeration(L)
        if chunks is None:
            L._pmap_census = (None, None)
        else:
            torals, nullcone = [], 0
            for vs, xs, ys in chunks:
                torals.append(vs[(xs == ys).all(axis=1) & vs.any(axis=1)])
                nullcone += int((~ys.any(axis=1)).sum())
                del vs, xs, ys  # one chunk alive at a time
            L._pmap_census = (np.vstack(torals), nullcone)
    return L._pmap_census


def _projectivize(vectors, p) -> np.ndarray:
    """One row per line, scaled to a leading 1, in order of first appearance."""
    mat = np.array(vectors, dtype=np.int16)  # int16 as p <= 317: up to p^dim rows come in
    inv = np.array([0] + [gfp.inv_mod(c, p) for c in range(1, p)])
    scaled = (np.arange(p) * inv[:, None] % p).astype(np.int16)  # [c, x] = x / c
    mat = scaled[mat[np.arange(len(mat)), (mat != 0).argmax(axis=1)][:, None], mat]
    rows = mat.view(np.dtype((np.void, mat.itemsize * mat.shape[1])))[:, 0]  # one opaque key per row
    return mat[np.sort(np.unique(rows, return_index=True)[1])].astype(INT)


def _max_commuting_torus(L: RestrictedLie, torals) -> list[np.ndarray]:
    """A basis of pairwise-commuting toral elements whose span has maximum dimension.

    It is the first such basis the depth-first search reaches, the least
    in index order: indices increase along a branch, and a span met again
    is not searched twice.  A branch is skipped when its span and its
    candidates have rank at most len(best), and the branch at a line t when
    dim C_L(t) is, as a torus holding t lies in C_L(t): nothing in either
    is longer.  No prefix of the least basis is skipped, so the result is
    unchanged.  dim C_L(t) is dim - rank ad(t), by ``gfp.ranks`` in chunks
    of about 2^18 cells; the lines that commute with t are found only for
    the t that pass.  At worst (every dim C_L(t) above len(best)) that takes
    the time of an n x n commuting graph, not its memory; ENUM_LIMIT bounds n.
    """
    p, d = L.p, L.dim
    if not len(torals):
        return []
    reps = _projectivize(torals, p)
    step = max(1, STREAM_CELLS // (d * d))
    cdim = d - np.concatenate([gfp.ranks(L.ad(reps[s : s + step]), p) for s in range(0, len(reps), step)])
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
            if cdim[t] <= len(best):
                continue
            later = later[~matmul(L.ad(reps[t]), reps[later].T, p).any(axis=0)]
            if span.dim + 1 + len(later) > len(best):  # else even the count bounds the branch
                extend(span.extend(reps[t]), chosen + [reps[t]], later)

    extend(Subspace.zero(d, p), [], np.arange(len(reps)))
    return best


def greedy_maximal_torus(L: RestrictedLie, seed: int = 0) -> TorusReport:
    """Grow a torus greedily; certify exhaustively when p^dim is enumerable.

    Scans the centralizer of the current torus (basis sweep, then seeded
    random sweep) for elements with a toral fixed point in the semisimple
    part of their p-envelope.  The greedy dimension is a lower bound for
    the maximal toral rank; exhaustive enumeration upgrades the status to
    exhaustively-certified and overrides the greedy result if larger.

    For an int seed the report is built once per seed and stored on L; each
    call gets its own copy.
    """
    if not isinstance(seed, int):  # a Generator or None: nothing to key the report by
        return _torus_report(L, seed)
    if seed not in L._tori:
        L._tori[seed] = _torus_report(L, seed)
    return L._tori[seed].copy()


def _torus_report(L: RestrictedLie, seed) -> TorusReport:
    p, d = L.p, L.dim
    rng = np.random.default_rng(seed)
    torus, span = [], Subspace.zero(d, p)

    def next_toral():
        """A toral element outside the torus's span, from its centralizer, or None."""
        cent = _centralizer(L, torus)
        draws = [rng.integers(0, p, size=cent.dim) for _ in range(TORUS_ROUNDS)]
        cands = np.vstack([cent.basis, matmul(np.reshape(draws, (TORUS_ROUNDS, cent.dim)), cent.basis, p)])
        cands = cands[span.reduce_rows(cands).any(axis=1)]  # zero draws lie in every span
        for s in range(0, len(cands), 8):  # envelopes 8 candidates at a time, in order
            for env, phi in _p_envelopes(L, cands[s : s + 8]):
                for t in _toral_fixed_points(L, env, phi):
                    if not span.contains_vector(t):
                        return t
        return None

    while (t := next_toral()) is not None:
        torus.append(t)
        span = span.extend(t)

    status = "greedy-maximal"
    torals = _pmap_census(L)[0]
    if torals is not None:
        exhaustive = _max_commuting_torus(L, torals)
        if len(exhaustive) > len(torus):
            torus = exhaustive
        status = "exhaustively-certified"
    basis = np.array(torus, dtype=INT).reshape(len(torus), d)
    toral = (_jacobson_batch(L, basis) == basis).all(axis=1)
    commutes = ~_pairwise_brackets(L, basis, basis).any(axis=(1, 2))
    certs = [{"toral": bool(a), "commutes": bool(b)} for a, b in zip(toral, commutes)]
    if not all(c["toral"] and c["commutes"] for c in certs):
        raise Hh1LieError("torus certificate failed re-verification")
    return TorusReport([t.copy() for t in torus], len(torus), certs, status)


def is_trigonalizable(L: RestrictedLie) -> bool:
    """Solvable with p-nilpotent derived subalgebra (the operational criterion)."""
    preds = series_and_predicates(L)
    if not preds["is_solvable"]:
        return False
    derived = preds["derived_series"][1] if len(preds["derived_series"]) > 1 else Subspace.zero(L.dim, L.p)
    return _is_lie_nilpotent(L, derived) and bool(_p_nilpotent_rows(L, derived.basis).all())


# -- models and fingerprints --------------------------------------------------------


_WITT_CACHE: dict = {}


def witt(p: int, n: int) -> RestrictedLie:
    """Derivation algebra of k[x_1..x_n]/(x_i^p), via the cohomology pipeline."""
    key = (p, n)
    if key not in _WITT_CACHE:
        algebra = truncated_polynomial(p, (1,) * n)
        _WITT_CACHE[key] = from_hh1(hh1(algebra))
    return _WITT_CACHE[key]


def lie_from_matrices(p: int, mats, labels) -> RestrictedLie:
    """Restricted Lie algebra spanned by matrices, closed under [ , ] and M^p."""
    p = check_prime(p)
    mats = normalize(mats, p)
    values = mats.transpose(0, 2, 1).reshape(len(mats), -1)  # g(X) = X^T: the basis generates
    not_closed = Hh1LieError("span is not closed under the required operations")
    basis = gfp.OrderedBasis(values, p, error=not_closed)
    return RestrictedLie(p, *generator_tables(mats, values, p, basis.coords_rows), labels=labels)


def sl2(p: int) -> RestrictedLie:
    e = [[0, 1], [0, 0]]
    h = [[1, 0], [0, p - 1]]
    f = [[0, 0], [1, 0]]
    return lie_from_matrices(p, [e, h, f], ["e", "h", "f"])


def gl2(p: int) -> RestrictedLie:
    e = [[0, 1], [0, 0]]
    h = [[1, 0], [0, p - 1]]
    f = [[0, 0], [1, 0]]
    i2 = [[1, 0], [0, 1]]
    return lie_from_matrices(p, [e, h, f, i2], ["e", "h", "f", "id"])


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary used to recognize model algebras."""

    dim: int
    derived_dims: tuple
    lower_central_dims: tuple
    dim_center: int
    is_simple: bool
    mu_greedy: int
    nullcone_count: object  # int, or None when not enumerable

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "derived_dims": list(self.derived_dims),
            "lower_central_dims": list(self.lower_central_dims),
            "dim_center": self.dim_center,
            "is_simple": self.is_simple,
            "mu_greedy": self.mu_greedy,
            "nullcone_count": self.nullcone_count,
        }


def fingerprint(L: RestrictedLie, seed: int = 0) -> Fingerprint:
    preds = series_and_predicates(L)
    return Fingerprint(
        dim=L.dim,
        derived_dims=tuple(s.dim for s in preds["derived_series"]),
        lower_central_dims=tuple(s.dim for s in preds["lower_central_series"]),
        dim_center=preds["center"].dim,
        is_simple=is_simple(L, seed=seed),
        mu_greedy=greedy_maximal_torus(L, seed=seed).dim,
        nullcone_count=_pmap_census(L)[1],
    )


def same_fingerprint(L1: RestrictedLie, L2: RestrictedLie, seed: int = 0) -> bool:
    return fingerprint(L1, seed=seed) == fingerprint(L2, seed=seed)


# -- abelian unipotent witness -------------------------------------------------------


@dataclass
class Prop22Witness:
    n_ideal: Subspace
    quotient: RestrictedLie
    lie: RestrictedLie
    presentation: HH1Presentation


def prop22_witness(p: int, exponents) -> Prop22Witness:
    """p-nilpotent ideal of HH1 of a truncated polynomial ring, with quotient.

    The ideal is spanned by the classes of the monomial derivations
    x^alpha d/dx_k with some alpha_i >= p.  Verifies: ideal property,
    p-nilpotency (p-nilpotent basis and nilpotent as a Lie algebra),
    closure under the p-map, and that the quotient has the fingerprint of
    the derivation algebra of the elementary abelian case.
    """
    p = check_prime(p)
    exponents = tuple(int(a) for a in exponents)
    if any(a < 1 for a in exponents):
        raise ValueError("exponents must be >= 1")
    algebra = truncated_polynomial(p, exponents)
    pres = hh1(algebra)
    L = from_hh1(pres)
    n_vars, d = len(exponents), algebra.dim
    # x^alpha d/dx_k is phi of F(x_k) = x^alpha, zero on the other variables;
    # the generators are the variables in order, the basis the monomials alpha
    monos = itertools.product(*[range(p**a) for a in exponents])
    slots = [k * d + i for i, alpha in enumerate(monos) if max(alpha) >= p for k in range(n_vars)]
    values = np.zeros((len(slots), pres.space.nv), dtype=INT)
    values[np.arange(len(slots)), slots] = 1
    mats = pres.space.phi.matrices(values).reshape(len(slots), d * d)
    n_ideal = Subspace.from_vectors(pres.project_rows(mats[mats.any(axis=1)]), p, L.dim)
    # ideal and p-map closure on the basis
    if not _is_ideal(L, n_ideal):
        raise Hh1LieError("witness subspace is not an ideal")
    nilpotent = _p_nilpotent_rows(L, n_ideal.basis)
    closed = ~n_ideal.reduce_rows(_jacobson_batch(L, n_ideal.basis)).any(axis=1)
    for nil, close in zip(nilpotent, closed):  # the first failing basis vector
        if not nil:
            raise Hh1LieError("witness ideal has a non-p-nilpotent basis element")
        if not close:
            raise Hh1LieError("witness ideal is not closed under the p-map")
    if not _is_lie_nilpotent(L, n_ideal):
        raise Hh1LieError("witness ideal is not nilpotent as a Lie algebra")
    quotient = _quotient_lie(L, n_ideal)
    if not same_fingerprint(quotient, witt(p, n_vars)):
        raise Hh1LieError("quotient by the witness ideal is not the expected model")
    return Prop22Witness(n_ideal, quotient, L, pres)


def structure_on(L: RestrictedLie, reps: np.ndarray, coords_rows, labels=None) -> RestrictedLie:
    """The restricted Lie algebra on the span of the rows reps: a subalgebra or a quotient.

    Its bracket and p-map tables are the coordinates, by ``coords_rows``, of
    the pairwise brackets and the p-th powers of the rows.
    """
    m = reps.shape[0]
    brackets = _pairwise_brackets(L, reps, reps).reshape(m * m, L.dim)
    coords = coords_rows(np.vstack([brackets, _jacobson_batch(L, reps)]))
    return RestrictedLie(L.p, coords[: m * m].reshape(m, m, m), coords[m * m :], labels=labels)


def _quotient_lie(L: RestrictedLie, ideal: Subspace) -> RestrictedLie:
    """L / ideal for a restricted ideal (p-map closed, verified by caller).

    The basis is the classes that ``Subspace.quotient`` chooses.
    """
    reps, coords_rows = ideal.quotient()
    return structure_on(L, reps, coords_rows, [f"q{i}" for i in range(reps.shape[0])])
