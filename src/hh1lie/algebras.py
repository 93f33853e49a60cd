"""Finite-dimensional associative unital algebras over GF(p) by structure constants.

An :class:`Algebra` stores a labelled basis and the full multiplication
table.  Constructors for the algebra families used throughout the package
live here (truncated polynomial rings, smash products u_lambda x^j, bound
quiver algebras, trivial extensions, the solvable restricted enveloping
algebra with relations t x = x t + x), together with center, commutator /
radical checks, block decomposition and the symmetric-form search.  The
smash, truncated and u0(b) constructors name the paper's generators
(``Algebra.generators``); how each basis element is reached from them is
derived from the table in ``hochschild``.  The smash constructor also names
its complete set of orthogonal idempotents E = {u_lambda}
(``Algebra.idempotents``).  A block names the images of its parent's
generators and E when the derivation solver can start from them
(``block_decomposition``); every other algebra carries E = {1}.

Every constructed algebra is validated: associativity on all basis
triples, the two-sided unit law on all basis elements, and that E is
orthogonal, sums to 1 and splits the basis (``Algebra.peirce``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import gfp
from .errors import (
    AssociativityViolation,
    CounitViolation,
    DimensionMismatch,
    IdempotentViolation,
    InfiniteDimensionalQuotient,
    JsonFormatError,
    NonSplitCenter,
    RadicalInvalid,
    RadicalUnavailable,
    UnitViolation,
)
from .gfp import INT, STREAM_CELLS, Subspace, check_dim, check_prime, matmul, normalize, rref

@dataclass(frozen=True)
class SmashDescriptor:
    """Index data of the smash-product basis u_lambda x^j.

    lambda runs over Z/(p^r), j over 0..p^n-1, and the distinguished
    character alpha is the residue 1 mod p^r (a basis convention; any
    generator of Z/(p^r) gives an isomorphic table).
    """

    p: int
    n: int
    r: int
    alpha: int = 1

    @property
    def n_chars(self) -> int:
        return self.p**self.r

    @property
    def x_bound(self) -> int:
        return self.p**self.n

    def index(self, lam: int, j: int) -> int:
        lam %= self.n_chars
        if not 0 <= j < self.x_bound:
            raise IndexError(f"x-exponent {j} out of range 0..{self.x_bound - 1}")
        return lam * self.x_bound + j

    def label(self, lam: int, j: int) -> str:
        if j == 0:
            return f"u{lam}"
        if j == 1:
            return f"u{lam}*x"
        return f"u{lam}*x^{j}"

    def x_vector(self) -> np.ndarray:
        """Coordinates of x = sum_lambda u_lambda x."""
        v = np.zeros(self.n_chars * self.x_bound, dtype=INT)
        for lam in range(self.n_chars):
            v[self.index(lam, 1)] = 1
        return v

    def outer_exponents(self) -> list[int]:
        """Valid weight exponents j with 0 <= j*p^r + 1 <= p^n - 1."""
        pr = self.p**self.r
        return [j for j in range(self.x_bound) if j * pr + 1 <= self.x_bound - 1]

    @functools.cached_property
    def generators(self) -> tuple:
        """The smash generators: u_0, ..., u_(p^r - 1), then x.

        Built once per descriptor, so an algebra built from it carries this
        very tuple.
        """
        dim = self.n_chars * self.x_bound
        units = tuple(gfp.basis_vector(dim, self.index(lam, 0)) for lam in range(self.n_chars))
        return units + (self.x_vector(),)


class Algebra:
    """Associative unital algebra over GF(p) with labelled basis.

    Immutable after construction.  The table is held only as its structure
    constants, arrays (i, j, k, c) with one entry per term e_i e_j = ... + c e_k,
    sorted by (i, j, k), and every product reads them.  ``mult`` is the four
    arrays of raw terms, where terms on one (i, j, k) are summed mod p, or maps
    a basis pair (i, j) to a tuple of (k, c) terms.  ``idempotents`` is the set
    E that derivations are solved relative to, (unit,) unless given.
    """

    def __init__(
        self,
        p,
        labels,
        mult,
        unit,
        radical_gens=None,
        counit=None,
        name=None,
        descriptor=None,
        generators=None,
        idempotents=None,
        validate=True,
    ):
        self.p = check_prime(p)
        self.labels = list(labels)
        self.dim = check_dim(len(self.labels), error=DimensionMismatch)
        self.unit = normalize(unit, self.p).reshape(-1)
        if self.unit.shape[0] != self.dim:
            raise DimensionMismatch("unit vector length does not match basis size")
        self.name = name or f"algebra(dim={self.dim},p={self.p})"
        self.descriptor = descriptor
        self.generators = generators
        self.idempotents = (self.unit,) if idempotents is None else tuple(normalize(e, self.p) for e in idempotents)
        self._consts = self._constants(mult)
        self.radical_gens = (
            None
            if radical_gens is None
            else [normalize(g, self.p).reshape(-1) for g in radical_gens]
        )
        self.counit = None if counit is None else normalize(counit, self.p).reshape(-1)
        self._derivation_cache: dict = {}
        if validate:
            self.validate()

    # -- table plumbing ----------------------------------------------------

    def _constants(self, mult):
        """Sorted arrays (i, j, k, c): terms on one (i, j, k) summed mod p, zero sums dropped."""
        d, p = self.dim, self.p
        if isinstance(mult, dict):
            terms = [(i, j, int(k), int(c) % p) for (i, j), ts in mult.items() for k, c in ts]
            mult = np.array(terms, dtype=INT).reshape(-1, 4).T
        i, j, k, c = (np.asarray(x, dtype=INT).reshape(-1) for x in mult)
        bad = np.flatnonzero(((i < 0) | (i >= d)) | ((j < 0) | (j >= d)) | ((k < 0) | (k >= d)))
        if bad.size:
            b = bad[0]
            raise DimensionMismatch(f"term e{k[b]} of basis pair ({i[b]}, {j[b]}) out of range")
        key, c = gfp.merge((i * d + j) * d + k, c, p)
        i, key = np.divmod(key, d * d)
        consts = (i, *np.divmod(key, d), c)
        for arr in consts:
            arr.setflags(write=False)
        return consts

    def structure_constants(self):
        """Arrays (i, j, k, c) of every term e_i e_j = ... + c e_k, sorted; read-only."""
        return self._consts

    def _scatter(self, size: int, index, coef) -> np.ndarray:
        out = np.zeros(size, dtype=INT)
        np.add.at(out, index, coef)  # exact in int64; a one-shot sum has no scatter plan to reuse
        return gfp.mod(out, self.p)

    def mul_vec(self, u, v) -> np.ndarray:
        """Product of two coordinate vectors."""
        u = normalize(u, self.p).reshape(-1)
        v = normalize(v, self.p).reshape(-1)
        i, j, k, c = self._consts
        return self._scatter(self.dim, k, c * u[i] * v[j])

    def element_power(self, v, k: int) -> np.ndarray:
        out = self.unit.copy()
        for _ in range(k):
            out = self.mul_vec(out, v)
        return out

    @functools.cached_property
    def _product_plans(self) -> dict:
        """Scatter plans of L_v, R_v and ad v = L_v - R_v, built once from the table terms.

        A term e_i e_j = c e_k adds c v_i to L_v[k, j] and c v_j to R_v[k, i];
        terms on one (cell, coordinate of v) are summed mod p first.
        """
        d, (i, j, k, c) = self.dim, self._consts
        # each term's (cell, coordinate of v, coefficient)
        ad = (np.r_[k, k] * d + np.r_[j, i], np.r_[i, j], np.r_[c, -c])
        terms = {"L": (k * d + j, i, c), "R": (k * d + i, j, c), "ad": ad}
        merged = {name: gfp.merge(cell * d + v, coef, self.p) for name, (cell, v, coef) in terms.items()}
        return {name: gfp.scatter_plan(key // d, coef, key % d) for name, (key, coef) in merged.items()}

    def _mult_matrices(self, name: str, stack) -> np.ndarray:
        """The matrix of plan ``name`` ("L", "R" or "ad") for every row of a stack: (n, d, d)."""
        stack, plan = normalize(stack, self.p).reshape(-1, self.dim), self._product_plans[name]
        out = gfp.scatter_new((self.dim**2, stack.shape[0]), plan, np.ascontiguousarray(stack.T), p=self.p)
        return np.ascontiguousarray(out.T).reshape(-1, self.dim, self.dim)

    def ad_matrices(self, stack) -> np.ndarray:
        """ad v = L_v - R_v, the matrix of x -> v x - x v, for every row v of a stack: (n, d, d)."""
        return self._mult_matrices("ad", stack)

    def left_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> v * x for an element v (coordinate vector)."""
        return self._mult_matrices("L", v)[0]

    def right_terms(self, v):
        """Terms (x, y, c) of R_v, the map x -> x * v: R_v[y, x] is the sum of c over them.

        One term per table term e_x e_j = c' e_y with v_j != 0, with c = c' v_j
        reduced mod p; terms on one (y, x) are not summed.
        """
        v = normalize(v, self.p).reshape(-1)
        i, j, k, c = self._consts
        sel = np.flatnonzero(v[j])
        return i[sel], k[sel], gfp.mod(c[sel] * v[j[sel]], self.p)

    def right_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> x * v for an element v (coordinate vector)."""
        return self._mult_matrices("R", v)[0]

    def generating_set(self) -> tuple:
        """The generators derivations are solved and checked on: the algebra's own, or every basis vector."""
        return self.generators or tuple(np.eye(self.dim, dtype=INT))

    @functools.cached_property
    def peirce(self) -> np.ndarray:
        """(left, right): basis vector e_b lies in e_left[b] A e_right[b], for E = ``idempotents``; checked once.

        E must sum to 1, be orthogonal idempotents, e_s e_t = delta_st e_s,
        and split the basis: e_s e_b is e_b for one s and 0 for the others,
        and so is e_b e_t for one t.  The products e_s e_b and e_b e_s are
        summed from the table terms on the support of e_s, and e_s e_t from
        them.  With E = {1} every basis vector lies in 1 A 1.
        """
        d, p, m = self.dim, self.p, len(self.idempotents)
        if m == 1:
            return np.zeros((2, d), dtype=INT)
        e = np.stack(self.idempotents)
        if not np.array_equal(gfp.mod(e.sum(axis=0), p), self.unit):
            raise IdempotentViolation("the idempotents do not sum to 1")
        es, eb = np.nonzero(e)  # the entries of E, by idempotent
        ev, by_b = e[es, eb], np.argsort(eb, kind="stable")
        i, j, k, c = self._consts
        by_j = np.argsort(j, kind="stable")
        q, n = gfp.expand(eb, np.searchsorted(i, np.arange(d + 1)))  # e_s e_b from the terms (i, b), i in supp e_s
        left = gfp.merge((es[q] * d + j[n]) * d + k[n], ev[q] * c[n], p)
        q, n = gfp.expand(eb, np.searchsorted(j[by_j], np.arange(d + 1)))  # e_b e_s from the terms (b, j)
        right = gfp.merge((es[q] * d + i[by_j[n]]) * d + k[by_j[n]], ev[q] * c[by_j[n]], p)
        # e_s e_t = sum over b of e_t[b] e_s e_b
        s, b, to = left[0] // (d * d), left[0] // d % d, left[0] % d
        q, at = gfp.expand(b, np.searchsorted(eb[by_b], np.arange(d + 1)))
        key, val = gfp.merge((s[q] * m + es[by_b[at]]) * d + to[q], left[1][q] * ev[by_b[at]], p)
        if not (np.array_equal(key, (es * m + es) * d + eb) and np.array_equal(val, ev)):
            raise IdempotentViolation("the idempotents are not orthogonal idempotents")
        sides = np.zeros((2, d), dtype=INT)
        for side, (key, val) in enumerate((left, right)):
            s, b, to = key // (d * d), key // d % d, key % d
            wrong = np.bincount(b[(to != b) | (val != 1)], minlength=d) + (np.bincount(b, minlength=d) != 1)
            if wrong.any():
                b0 = int(np.argmax(wrong > 0))
                raise IdempotentViolation(f"basis element {b0} ({self.labels[b0]}) lies in no e_i A e_j")
            sides[side, b] = s
        return sides

    # -- validation ---------------------------------------------------------

    def validate(self):
        self._validate_unit()
        self._validate_assoc()
        self.peirce  # raises IdempotentViolation on a set E that does not split A
        if self.counit is not None:
            self._validate_counit()

    def _validate_unit(self):
        """1 e_i = e_i = e_i 1 on every basis element; the first failing i is reported.

        From the table terms: 1 e_j - e_j sums under keys (j, k), e_i 1 - e_i under (d + i, k).
        """
        d, u, diag = self.dim, self.unit, np.arange(self.dim)
        i, j, k, c = self._consts
        keys = np.r_[j * d + k, (d + i) * d + k, diag * (d + 1), (d + diag) * d + diag]
        key, _ = gfp.merge(keys, np.r_[c * u[i], c * u[j], np.full(2 * d, -1)], self.p)
        if key.size:
            raise UnitViolation(int((key // d % d).min()))

    def _validate_assoc(self):
        """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, as one sparse join.

        The left side joins the terms (i, j, t) and (t, k, s) on t, the right
        side (i, u, s) and (j, k, u) on u.  Keyed by (i, j, k, s), their
        difference is summed mod p, and its smallest nonzero key names the
        smallest failing triple.  Blocks of the first index i hold both sides
        at once, about 2^20 join terms each.
        """
        d, p = self.dim, self.p
        ci, cj, ck, cc = self._consts
        by_k = np.argsort(ck, kind="stable")
        first = np.searchsorted(ci, np.arange(d + 1))  # terms (t, ., .) at first[t]:first[t + 1]
        third = np.searchsorted(ck[by_k], np.arange(d + 1))  # terms (., ., u) in by_k order
        size = np.diff(first)[ck] + np.diff(third)[cj]  # join terms of each term, both sides
        at = np.r_[0, np.cumsum(size)][first]  # join terms before each first index
        i0 = 0
        while i0 < d:
            i1 = max(i0 + 1, int(np.searchsorted(at, at[i0] + (1 << 20), "right")) - 1)
            lo, hi = first[i0], first[i1]
            a, pos = gfp.expand(ck[lo:hi], first)  # (i, j, t) (t, k, s)
            a += lo
            left = ((ci[a] * d + cj[a]) * d + cj[pos]) * d + ck[pos], cc[a] * cc[pos]
            b, pos = gfp.expand(cj[lo:hi], third)  # (i, u, s) (j, k, u)
            b, pos = b + lo, by_k[pos]
            right = ((ci[b] * d + ci[pos]) * d + cj[pos]) * d + ck[b], -cc[b] * cc[pos]
            key, _ = gfp.merge(np.r_[left[0], right[0]], np.r_[left[1], right[1]], p)
            if key.size:
                raise AssociativityViolation(*(int(x) for x in np.unravel_index(key[0] // d, (d,) * 3)))
            i0 = i1

    def _validate_counit(self):
        """counit(1) = 1 and counit(e_i e_j) = counit(e_i) counit(e_j); the first failing pair is reported."""
        eps, d, p = self.counit, self.dim, self.p
        if int(eps @ self.unit) % p != 1:
            raise CounitViolation("counit(1) != 1")
        i, j, k, c = self._consts
        # counit(e_i e_j) is lhs on the pairs listed and 0 off them, where a pair
        # fails iff both lie in the support: first in the first short support row
        pair, lhs = gfp.merge(i * d + j, c * eps[k], p)
        row, col = np.divmod(pair, d)
        bad = pair[lhs != gfp.mod(eps[row] * eps[col], p)]
        supp = np.flatnonzero(eps)
        on_supp = pair[(eps[row] != 0) & (eps[col] != 0)]
        short = supp[np.bincount(on_supp // d, minlength=d)[supp] < supp.size]
        if short.size:
            r = short[0]
            bad = np.r_[bad, r * d + supp[~np.isin(supp, on_supp[on_supp // d == r] % d)][0]]
        if bad.size:
            r, s = divmod(int(bad.min()), d)
            raise CounitViolation(f"counit not multiplicative at ({r}, {s})")

    # -- serialization -------------------------------------------------------

    def mult_triples(self) -> list[list[int]]:
        return np.stack(self.structure_constants(), axis=1).tolist()

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "labels": list(self.labels),
            "unit": [int(x) for x in self.unit],
            "mult": self.mult_triples(),
            "radical_gens": None
            if self.radical_gens is None
            else [[int(x) for x in g] for g in self.radical_gens],
            "counit": None if self.counit is None else [int(x) for x in self.counit],
        }

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim}, p={self.p})"


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def make_algebra(p, labels, mult, unit, radical_gens=None, counit=None, name=None) -> Algebra:
    """Build and validate an algebra from an explicit structure-constant table.

    ``mult`` maps (i, j) to an iterable of (k, c) terms, or is the arrays
    (i, j, k, c) of the terms e_i e_j = ... + c e_k.  Raises
    AssociativityViolation / UnitViolation when the table is not an
    associative unital algebra.
    """
    return Algebra(
        p,
        labels,
        mult,
        unit,
        radical_gens=radical_gens,
        counit=counit,
        name=name,
    )


def _json_ints(value, what: str, length: int) -> list[int]:
    """A JSON list of ``length`` integers (booleans excluded), else JsonFormatError."""
    if not (
        isinstance(value, list)
        and len(value) == length
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise JsonFormatError(f"{what} must be a list of {length} integers, got {value!r:.80}")
    return value


def algebra_from_json_dict(data: dict) -> Algebra:
    """Inverse of :meth:`Algebra.to_json_dict`; validates the table.

    Every malformed document raises JsonFormatError: a missing field, a
    field of the wrong JSON type or length, an index out of range, a p that
    is not an odd prime in the supported range (``gfp.check_prime``), or a
    table that is not a unital algebra.
    """
    if not isinstance(data, dict):
        raise JsonFormatError("an algebra document must be a JSON object")
    for key in ("p", "labels", "unit", "mult"):
        if key not in data:
            raise JsonFormatError(f"missing field {key!r}")
    p, labels, triples = data["p"], data["labels"], data["mult"]
    if isinstance(p, bool) or not isinstance(p, int):
        raise JsonFormatError(f"p must be an integer, got {p!r:.80}")
    try:
        p = check_prime(p)
    except ValueError as exc:
        raise JsonFormatError(str(exc)) from exc
    if not isinstance(labels, list) or not labels or not all(isinstance(lbl, str) for lbl in labels):
        raise JsonFormatError("labels must be a nonempty list of strings")
    if not isinstance(triples, list):
        raise JsonFormatError("mult must be a list of [i, j, k, c] entries")
    dim = len(labels)
    # reduced mod p here, in Python ints, so no coefficient overflows int64
    unit = [x % p for x in _json_ints(data["unit"], "unit", dim)]
    mult: dict = {}
    for entry in triples:
        i, j, k, c = _json_ints(entry, "a mult entry [i, j, k, c]", 4)
        if not all(0 <= t < dim for t in (i, j, k)):
            raise JsonFormatError(f"mult entry {entry} out of range")
        mult.setdefault((i, j), []).append((k, c % p))
    gens, counit, name = data.get("radical_gens"), data.get("counit"), data.get("name")
    if gens is not None:
        if not isinstance(gens, list):
            raise JsonFormatError("radical_gens must be a list of vectors")
        gens = [[x % p for x in _json_ints(g, "a radical generator", dim)] for g in gens]
    if counit is not None:
        counit = [x % p for x in _json_ints(counit, "counit", dim)]
    if name is not None and not isinstance(name, str):
        raise JsonFormatError("name must be a string")
    try:
        return make_algebra(p, labels, mult, unit, radical_gens=gens, counit=counit, name=name)
    except ValueError as exc:
        raise JsonFormatError(str(exc)) from exc


# -- constructors -------------------------------------------------------------


def truncated_polynomial(p, exponents) -> Algebra:
    """k[X_1..X_n] / (X_i^(p^a_i)), local commutative, counit = evaluation at 0."""
    p = check_prime(p)
    exponents = tuple(int(a) for a in exponents)
    if len(exponents) < 1 or any(a < 1 for a in exponents):
        raise ValueError(f"exponents must be integers >= 1, got {exponents}")
    check_dim(p, sum(exponents))
    bounds = [p**a for a in exponents]
    basis = list(itertools.product(*[range(b) for b in bounds]))
    index = {mono: i for i, mono in enumerate(basis)}
    dim = len(basis)

    def label(mono):
        parts = []
        for v, e in enumerate(mono):
            if e == 1:
                parts.append(f"x{v + 1}")
            elif e > 1:
                parts.append(f"x{v + 1}^{e}")
        return "*".join(parts) if parts else "1"

    # x^a x^b = x^(a + b) unless an exponent overflows; the index is mixed radix, so it adds
    monos = np.array(basis).reshape(dim, -1)
    i, j = np.nonzero((monos[:, None] + monos[None, :] < bounds).all(axis=2))
    unit = np.zeros(dim, dtype=INT)
    unit[index[tuple(0 for _ in exponents)]] = 1
    counit = unit.copy()
    gens = []
    for v in range(len(exponents)):
        g = np.zeros(dim, dtype=INT)
        mono = tuple(1 if w == v else 0 for w in range(len(exponents)))
        g[index[mono]] = 1
        gens.append(g)

    return Algebra(
        p,
        [label(m) for m in basis],
        (i, j, i + j, np.ones_like(i)),
        unit,
        radical_gens=gens,
        counit=counit,
        name=f"trunc(p={p},exps={','.join(map(str, exponents))})",
        generators=tuple(gens),
    )


def smash_product(p, n, r) -> tuple[Algebra, SmashDescriptor]:
    """Smash product with basis u_lambda x^j.

    Relations: u_lambda u_mu = delta u_lambda, x^(p^n) = 0 and
    u_lambda x = x u_(lambda - alpha); the unit is sum_lambda u_lambda.
    """
    p = check_prime(p)
    n, r = int(n), int(r)
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    dim = check_dim(p, n + r)
    desc = SmashDescriptor(p, n, r)
    nc, xb = desc.n_chars, desc.x_bound

    # (u_lam x^a)(u_mu x^b) = [lam == mu + a*alpha] u_lam x^(a+b), zero once a + b >= p^n:
    # for each i = (lam, a) one mu, and b < p^n - a, so the terms come sorted by (i, j)
    lam, a = np.divmod(np.arange(dim), xb)
    count = xb - a
    i = np.repeat(np.arange(dim), count)
    b = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    j = ((lam - a * desc.alpha) % nc * xb)[i] + b
    unit = np.zeros(dim, dtype=INT)
    for l0 in range(nc):
        unit[desc.index(l0, 0)] = 1
    rad = [gfp.basis_vector(dim, desc.index(l0, 1)) for l0 in range(nc)]
    labels = [desc.label(l0, j0) for l0 in range(nc) for j0 in range(xb)]

    alg = Algebra(
        p,
        labels,
        (i, j, i + b, np.ones_like(i)),
        unit,
        radical_gens=rad,
        name=f"smash(p={p},n={n},r={r})",
        descriptor=desc,
        generators=desc.generators,
        idempotents=desc.generators[:nc],
    )
    return alg, desc


def u0_borel(p, n) -> Algebra:
    """Algebra on x^b t^a with t x = x t + x, x^(p^n) = 0, t^p = t."""
    p = check_prime(p)
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    dim = check_dim(p, n + 1)
    xb = p**n

    def idx(b, a):
        return b * p + a

    terms = []  # raw; the constructor sums the terms on one (i, j, k) mod p
    for b, a, c, d_ in itertools.product(range(xb), range(p), range(xb), range(p)):
        if b + c >= xb:
            continue
        # t^a x^c = x^c (t + c)^a, then t^(k+d) with t^p = t
        for k in range(a + 1):
            e = k + d_ if k + d_ < p else k + d_ - (p - 1)
            terms.append((idx(b, a), idx(c, d_), idx(b + c, e), math.comb(a, k) * pow(c, a - k, p) % p))
    labels = []
    for b in range(xb):
        for a in range(p):
            xpart = "1" if b == 0 else ("x" if b == 1 else f"x^{b}")
            tpart = "" if a == 0 else ("t" if a == 1 else f"t^{a}")
            labels.append(xpart if not tpart else (tpart if b == 0 else f"{xpart}*{tpart}"))
    unit = np.zeros(dim, dtype=INT)
    unit[idx(0, 0)] = 1
    xvec = np.zeros(dim, dtype=INT)
    xvec[idx(1, 0)] = 1
    tvec = np.zeros(dim, dtype=INT)
    tvec[idx(0, 1)] = 1
    return Algebra(
        p,
        labels,
        np.array(terms, dtype=INT).reshape(-1, 4).T,
        unit,
        radical_gens=[xvec],
        name=f"u0borel(p={p},n={n})",
        generators=(xvec, tvec),
    )


def split_semisimple(p, m) -> Algebra:
    """GF(p)^m with the coordinatewise product."""
    p = check_prime(p)
    m = check_dim(int(m))
    if m < 1:
        raise ValueError("need m >= 1")
    unit = np.ones(m, dtype=INT)
    counit = None
    if m == 1:
        counit = np.ones(1, dtype=INT)
    return Algebra(
        p,
        [f"e{i + 1}" for i in range(m)],
        (np.arange(m),) * 3 + (unit,),
        unit,
        radical_gens=[],
        counit=counit,
        name=f"gf{p}^{m}",
    )


# -- quivers -------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverPresentation:
    """Bound quiver: vertices, labelled arrows and homogeneous admissible relations.

    Arrows are (label, source, target); paths compose left to right, so a
    path p: a -> b followed by q: b -> c is written p q.  A relation is a
    list of (coefficient, [arrow labels]) pairs whose paths are parallel
    and of one length >= 2, so the ideal they generate is graded by length.
    """

    vertices: tuple
    arrows: tuple  # (label, source, target)
    relations: tuple = ()

    def __post_init__(self):
        """Vertices, arrows and relations are checked here, so an error names the bad one."""
        verts = self.vertices
        if not verts or not all(isinstance(v, str) for v in verts) or len(set(verts)) < len(verts):
            raise ValueError("vertices must be a nonempty list of distinct strings")
        ends = {}
        for label, *arrow in self.arrows:
            if not isinstance(label, str) or label in ends:
                raise ValueError(f"arrow label {label!r} is not a string, or not distinct")
            for end, v in zip(("source", "target"), arrow):
                if v not in verts:
                    raise ValueError(f"arrow {label!r} has {end} {v!r}, which is not a vertex")
            ends[label] = arrow
        for rel in self.relations:
            for coeff, path in rel:
                if not isinstance(path, (list, tuple)):
                    raise ValueError(f"relation path {path!r} is not a list of arrow labels")
                if len(path) < 2:
                    raise ValueError("relations must be admissible (length >= 2 paths)")
                if any(not isinstance(lbl, str) or lbl not in ends for lbl in path):
                    raise ValueError(f"relation path {path} has an unknown arrow")
                if any(ends[s][1] != ends[t][0] for s, t in zip(path, path[1:])):
                    raise ValueError(f"relation path {path} is not composable")
                if (ends[path[0]][0], ends[path[-1]][1]) != (ends[rel[0][1][0]][0], ends[rel[0][1][-1]][1]):
                    raise ValueError(f"relation paths {rel[0][1]} and {path} are not parallel")
                if len(path) != len(rel[0][1]):
                    raise ValueError(f"relation paths {rel[0][1]} and {path} differ in length")
            if not rel:
                raise ValueError("a relation needs at least one term")


def kronecker_quiver() -> QuiverPresentation:
    return QuiverPresentation(("1", "2"), (("x", "1", "2"), ("y", "1", "2")))


def tkr_quiver() -> QuiverPresentation:
    """Two vertices, arrows both ways, with the commutation and zero relations."""
    return QuiverPresentation(
        ("1", "2"),
        (("x1", "1", "2"), ("y1", "1", "2"), ("x2", "2", "1"), ("y2", "2", "1")),
        (
            (((1, ["x1", "y2"]), (-1, ["y1", "x2"]))),
            (((1, ["y2", "x1"]), (-1, ["x2", "y1"]))),
            (((1, ["x2", "x1"]),)),
            (((1, ["x1", "x2"]),)),
            (((1, ["y1", "y2"]),)),
            (((1, ["y2", "y1"]),)),
        ),
    )


def quiver_algebra(q: QuiverPresentation, p) -> Algebra:
    """Path algebra of a bound quiver modulo its relations, built one path length at a time.

    The relations are homogeneous, so the ideal is graded: I_n is spanned by
    the length-n relations and by a x and x a, for arrows a and rows x of
    I_(n-1), over the length-n paths.  Lengths are added until one lies in
    its I_n.  The basis is the paths off the pivots, in (length, path) order;
    a product is the concatenation reduced modulo its I_n.  Raises
    InfiniteDimensionalQuotient when a length has over 1024 paths, or when
    none up to max(6, 2 * arrows * longest relation) lies in its I_n.
    """
    p = check_prime(p)
    arrows = {a: (s, t) for a, s, t in q.arrows}
    cap = max(2 * len(arrows) * max((len(rel[0][1]) for rel in q.relations), default=1), 6)
    max_paths = 1024  # paths of one length: one I_n, dense, takes at most 8 MiB

    def end(pth):
        return arrows[pth[1][-1]][1] if pth[1] else pth[0]

    # a path is (source vertex, (arrow labels...)); degrees[n] is (the length-n paths, I_n)
    paths = sorted((v, ()) for v in q.vertices)
    degrees = [(paths, Subspace.zero(len(paths), p))]
    while degrees[-1][1].dim < len(paths):
        prev, below = degrees[-1]
        if len(degrees) > cap:
            raise InfiniteDimensionalQuotient(
                f"no saturation up to path length {cap}; quotient is infinite-dimensional"
            )
        paths = sorted((s, w + (a,)) for s, w in prev for a in arrows if arrows[a][0] == end((s, w)))
        if len(paths) > max_paths:
            raise InfiniteDimensionalQuotient(f"more than {max_paths} paths of length {len(degrees)}")
        col = {pth: i for i, pth in enumerate(paths)}
        rels = [rel for rel in q.relations if len(rel[0][1]) == len(degrees)]
        rows = [np.zeros((len(rels), len(paths)), dtype=INT)]
        for r, rel in enumerate(rels):
            for c, w in rel:
                rows[0][r, col[arrows[w[0]][0], tuple(w)]] += c % p
        for a, (a_src, a_tgt) in arrows.items():
            # a x and x a, from a w and w a; a product that is not a path goes to the dropped last column
            left = [(a_src, (a,) + w) if s == a_tgt else None for s, w in prev]
            for moved in (left, [(s, w + (a,)) for s, w in prev]):
                block = np.zeros((below.dim, len(paths) + 1), dtype=INT)
                block[:, [col.get(pth, -1) for pth in moved]] = below.basis
                rows.append(block[block[:, :-1].any(axis=1), :-1])
        degrees.append((paths, Subspace.from_vectors(np.vstack(rows), p, len(paths))))

    basis, forms = [], {}  # forms: each path's basis offset and coordinates, modulo its I_n
    for paths, ideal in degrees:
        free = gfp.complement(len(paths), ideal.pivots)
        coords = ideal.reduce_rows(np.eye(len(paths), dtype=INT))[:, free]
        forms.update((pth, (len(basis), row)) for pth, row in zip(paths, coords))
        basis += [paths[f] for f in free]
    mult = {}
    for (i, (s, w)), (j, (t, v)) in itertools.product(enumerate(basis), repeat=2):
        if t == end((s, w)) and (s, w + v) in forms:
            off, row = forms[s, w + v]
            mult[i, j] = [(off + k, row[k]) for k in np.flatnonzero(row)]
    # the basis starts with the vertices, and I_1 = 0, so every arrow is a basis path
    return Algebra(
        p,
        [f"e{s}" if not w else "*".join(w) for s, w in basis],
        mult,
        (np.arange(len(basis)) < len(q.vertices)).astype(INT),
        radical_gens=[gfp.basis_vector(len(basis), basis.index((s, (a,)))) for a, (s, _) in arrows.items()],
        name=f"quiver(p={p},dim={len(basis)})",
    )


def trivial_extension(a: Algebra) -> Algebra:
    """A + A* with (a,f)(b,g) = (ab, a.g + f.b); the dual copy squares to zero.

    Bimodule convention: (a.f)(b) = f(b a) and (f.a)(b) = f(a b).
    """
    d, p = a.dim, a.p
    dim = 2 * d
    # from e_i e_j = c e_k: e_j . f_k gets c f_i, and f_k . e_i gets c f_j
    i, j, k, c = a.structure_constants()
    mult = np.concatenate([[i, j, k, c], [j, d + k, d + i, c], [d + k, i, d + j, c]], axis=1)
    unit = np.concatenate([a.unit, np.zeros(d, dtype=INT)])
    labels = list(a.labels) + [f"{lbl}*" for lbl in a.labels]
    rad = None
    if a.radical_gens is not None:
        rad = [np.concatenate([g, np.zeros(d, dtype=INT)]) for g in a.radical_gens]
        for j in range(d):
            g = np.zeros(dim, dtype=INT)
            g[d + j] = 1
            rad.append(g)
    counit = None
    if a.counit is not None:
        counit = np.concatenate([a.counit, np.zeros(d, dtype=INT)])
    return Algebra(
        p,
        labels,
        mult,
        unit,
        radical_gens=rad,
        counit=counit,
        name=f"trivext({a.name})",
    )


# -- structural computations ---------------------------------------------------


def center(a: Algebra) -> Subspace:
    """The common kernel of ad(e_i) = L_i - R_i, narrowed one basis element at a time."""
    d, p = a.dim, a.p
    cand = np.eye(d, dtype=INT)
    for i in range(d):
        # [e_i, z] = (L_i - R_i) z on the candidate rows z; keep the combinations killing it
        resid = matmul(cand, a.ad_matrices(gfp.basis_vector(d, i))[0].T, p)
        if resid.any():
            cand = matmul(gfp.left_kernel(resid, p), cand, p)
    return Subspace.from_vectors(cand, p, d)


def _pairwise_products(a: Algebra, u, v) -> np.ndarray:
    """u_s v_t for every pair of rows (entries reduced mod p), as (s, t, dim).

    For a block of rows of u, about 2^18 cells, the left-multiplication
    matrices come from the algebra's L plan and are applied to all of v in
    one batched matmul.
    """
    d = a.dim
    u, v = np.asarray(u).reshape(-1, d), np.asarray(v).reshape(-1, d)
    out = np.zeros((u.shape[0], v.shape[0], d), dtype=INT)
    step = max(1, STREAM_CELLS // (d * max(d, v.shape[0])))
    for s in range(0, out.shape[0], step):
        out[s : s + step] = matmul(v, a._mult_matrices("L", u[s : s + step]).transpose(0, 2, 1), a.p)
    return out


def commutator_subspace(a: Algebra) -> Subspace:
    prods = _pairwise_products(a, np.eye(a.dim, dtype=INT), np.eye(a.dim, dtype=INT))
    return Subspace.from_vectors((prods - prods.transpose(1, 0, 2)).reshape(-1, a.dim), a.p, a.dim)


def _ideal_closure(a: Algebra, gens) -> Subspace:
    span, eye = Subspace.from_vectors(gens, a.p, a.dim), np.eye(a.dim, dtype=INT)
    new = span.basis
    while len(new):
        # every v e_b and e_b v for the rows v the last round added
        prods = [_pairwise_products(a, new, eye), _pairwise_products(a, eye, new)]
        grown = span.extend(np.vstack([x.reshape(-1, a.dim) for x in prods]))
        new = grown.basis[np.isin(grown.pivots, span.pivots, invert=True)]
        span = grown
    return span


def _span_products(a: Algebra, s1: Subspace, s2: Subspace) -> Subspace:
    prods = _pairwise_products(a, s1.basis, s2.basis)
    return Subspace.from_vectors(prods.reshape(-1, a.dim), a.p, a.dim)


def _is_nilpotent_ideal(a: Algebra, j: Subspace) -> bool:
    power = j
    for _ in range(a.dim + 1):
        if power.dim == 0:
            return True
        power = _span_products(a, power, j)
    return False


def _algebra_on(a: Algebra, reps: np.ndarray, coords_rows, unit, labels, name, generators=None, idempotents=None):
    """The algebra on the span of the rows reps, a subalgebra or a quotient of A.

    Its table is the coordinates, by ``coords_rows``, of the pairwise
    products of the rows, and its unit is the coordinates of ``unit``; it
    names the ``generators`` and ``idempotents`` given, in its coordinates.
    """
    m = reps.shape[0]
    table = coords_rows(_pairwise_products(a, reps, reps).reshape(m * m, a.dim)).reshape(m, m, m)
    s, t, k = np.nonzero(table)
    mult, unit = (s, t, k, table[s, t, k]), coords_rows(unit[None])[0]
    return Algebra(a.p, labels, mult, unit, name=name, generators=generators, idempotents=idempotents)


def _quotient_algebra(a: Algebra, j: Subspace) -> Algebra:
    """A/J on the basis of classes that ``Subspace.quotient`` chooses."""
    reps, coords_rows = j.quotient()
    labels = [f"q{i}" for i in range(reps.shape[0])]
    return _algebra_on(a, reps, coords_rows, a.unit, labels, f"{a.name}/J")


def _frobenius_matrix(q: Algebra) -> np.ndarray:
    """Matrix of z -> z^p on a commutative algebra (columns are basis images)."""
    cols = []
    for i in range(q.dim):
        cols.append(q.element_power(gfp.basis_vector(q.dim, i), q.p))
    return np.stack(cols, axis=1)


def _split_primitive_idempotents(q: Algebra) -> list[np.ndarray]:
    """Complete orthogonal primitive idempotents of a commutative algebra.

    Requires the semisimple quotient to split over GF(p): the fixed space
    of the Frobenius map must have dimension equal to dim(Q/nilradical).
    Raises NonSplitCenter otherwise.
    """
    p, d = q.p, q.dim
    frob = _frobenius_matrix(q)
    e = 1
    while p**e < d + 1:
        e += 1
    frob_e = gfp.mat_pow(frob, e, p)
    nilrad = gfp.kernel(frob_e, p)
    n_ss = d - nilrad.shape[0]
    fixed = gfp.kernel(frob - np.eye(d, dtype=INT), p)
    if fixed.shape[0] != n_ss:
        raise NonSplitCenter(
            f"Frobenius-fixed space has dim {fixed.shape[0]}, semisimple rank is {n_ss}"
        )
    # split the identity by eigencomponents inside the fixed subalgebra {z : z^p = z}; that is
    # reduced, so GF(p)^m, and the components are idempotent with no lift through the nilradical
    components = [q.unit.copy()]
    for z in fixed:
        refined = []
        for comp in components:
            zc = q.mul_vec(z, comp)
            for c0 in range(p):
                # projector onto the (z = c0) eigencomponent of comp
                proj = comp.copy()
                for c1 in range(p):
                    if c1 == c0:
                        continue
                    proj = gfp.mod(q.mul_vec(proj, zc - c1 * comp) * gfp.inv_mod(c0 - c1, p), p)
                if proj.any():
                    refined.append(proj)
        components = refined
    return components


def commutator_and_radical_checks(a: Algebra) -> dict:
    """Commutator span, verified radical J, J^2, and commutator <= J^2 status.

    The radical is taken from the constructor data (counit kernel in the
    local case, or the ideal closure of the supplied generators) and then
    verified: J nilpotent, A/J split semisimple with a complete set of
    orthogonal primitive idempotents.
    """
    p, d = a.p, a.dim
    if a.counit is not None:
        j = Subspace.from_vectors(gfp.kernel(a.counit.reshape(1, -1), p), p, d)
    elif a.radical_gens is not None:
        j = _ideal_closure(a, a.radical_gens)
    else:
        raise RadicalUnavailable("algebra carries neither a counit nor radical generators")
    if not _is_nilpotent_ideal(a, j):
        raise RadicalInvalid("provided radical is not nilpotent")
    q = _quotient_algebra(a, j)
    comm_q = commutator_subspace(q)
    if comm_q.dim != 0:
        raise RadicalInvalid("A/J is not commutative; split verification unsupported")
    idems = _split_primitive_idempotents(q)
    if len(idems) != q.dim:
        raise RadicalInvalid("A/J is not split semisimple")
    comm = commutator_subspace(a)
    j2 = _span_products(a, j, j)
    return {
        "commutator": comm,
        "J": j,
        "J_squared": j2,
        "lemma21_holds": j2.contains(comm),
    }


def _block_presentation(a: Algebra, sub: Subspace, proj: np.ndarray):
    """The generators and idempotents of the block on ``sub``: the images s e of A's, in its coordinates.

    ``proj`` is x -> e x e = x e.  phi starts its search only at basis
    vectors with coefficient 1, so the images are named only when every
    nonzero one is such a basis vector; zeros and repeats are dropped.  The
    nonzero images of E are named too when A's E is not {1}.  They split
    the block: x e lies in the e_s A e_t of a basis vector x, these blocks
    of A have disjoint supports, so each row of the canonical basis of
    e A e lies in one of them.  Otherwise the block names neither, and its
    E is {1}.
    """
    if not a.generators:
        return None, None
    many = len(a.idempotents) > 1
    named = [*a.generators, *(a.idempotents if many else ())]
    images = sub.coords_rows(matmul(np.stack(named), proj.T, a.p))
    live = images[images.any(axis=1)]
    if not live.size or (live.sum(axis=1) != 1).any() or (live > 1).any():
        return None, None
    gens = tuple(np.eye(sub.dim, dtype=INT)[list(dict.fromkeys(np.argmax(live, axis=1).tolist()))])
    idems = images[len(a.generators) :]
    return gens, tuple(idems[idems.any(axis=1)]) if many else None


def block_decomposition(a: Algebra) -> list[tuple[np.ndarray, Algebra]]:
    """Primitive central idempotents and their corner algebras e A e.

    The center's nilradical is the kernel of z -> z^(p^e) (a linear map on
    a commutative algebra).  The idempotents are split by eigenprojectors
    inside the Frobenius-fixed subalgebra {z : z^p = z}.  That subalgebra
    is reduced and split, so GF(p)^m, and its projectors are idempotent
    with no lifting through the nilradical.

    If S generates A, the images s e generate e A e as a unital algebra
    with unit e, since x -> x e is a homomorphism onto it.  Each block
    names them, and the images of E, when phi can start from them
    (``_block_presentation``), so ``hh1`` solves it on them.  With one
    block, e = 1 and the block is A on the same basis, with A's generators.
    """
    p, d = a.p, a.dim
    z = center(a)
    # the center as an algebra in its own coordinates
    zalg = _algebra_on(a, z.basis, z.coords_rows, a.unit, [f"z{i}" for i in range(z.dim)], "Z")
    blocks = []
    for ez in _split_primitive_idempotents(zalg):
        evec = matmul(ez, z.basis, p)
        proj = matmul(a.left_mult_matrix(evec), a.right_mult_matrix(evec), p)
        sub = Subspace.from_vectors(proj.T, p, d)
        labels, name = [a.labels[c] for c in sub.pivots], f"block({a.name})"
        gens, idems = _block_presentation(a, sub, proj)
        blocks.append((evec, _algebra_on(a, sub.basis, sub.coords_rows, evec, labels, name, gens, idems)))
    return blocks


def symmetric_form_search(a: Algebra, trials: int = 64, seed: int = 0):
    """Search for a nondegenerate symmetric associative bilinear form.

    On a unital algebra these forms are exactly B(x, y) = lam(x y) for the
    functionals lam vanishing on [A, A] (Skowronski-Yamagata, Frobenius
    Algebras I, Ch. IV).  Samples ``trials`` elements of that space with the
    seeded generator and returns the Gram matrix lam(e_i e_j) of the first
    nondegenerate form, or None when no sample is nondegenerate (which is
    inconclusive by design).
    """
    d, p = a.dim, a.p
    lams = gfp.kernel(commutator_subspace(a).basis, p)
    i, j, k, c = a.structure_constants()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        lam = matmul(rng.integers(0, p, size=lams.shape[0]), lams, p)
        bmat = a._scatter(d * d, i * d + j, c * lam[k]).reshape(d, d)
        _, rank, _ = rref(bmat, p)
        if rank == d:
            return bmat
    return None
