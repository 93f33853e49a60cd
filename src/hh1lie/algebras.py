"""Finite-dimensional associative unital algebras over GF(p) by structure constants.

An :class:`Algebra` stores a labelled basis and the full multiplication
table.  Constructors for the algebra families used throughout the package
live here (truncated polynomial rings, smash products u_lambda x^j, bound
quiver algebras, trivial extensions, the solvable restricted enveloping
algebra with relations t x = x t + x), together with center, commutator /
radical checks, block decomposition and the symmetric-form search.

Every constructed algebra is validated: associativity on all basis
triples and the two-sided unit law on all basis elements.
"""

from __future__ import annotations

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
    InfiniteDimensionalQuotient,
    JsonFormatError,
    NonSplitCenter,
    RadicalInvalid,
    RadicalUnavailable,
    UnitViolation,
)
from .gfp import INT, Subspace, check_prime, matmul, normalize, rref

# Dense validation / dense derivation solving is restricted to small
# algebras; everything larger ships a monomial table or a presentation.
DENSE_DIM_LIMIT = 64


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


@dataclass(frozen=True)
class Presentation:
    """Generator data used by the generator-based derivation solver.

    A derivation is determined by its values on the generators.  Each
    basis element is either the unit (where every derivation vanishes),
    the value slot of a generator, or ``parent * generator`` for an
    earlier basis element, which extends any candidate by the Leibniz
    rule.
    """

    gen_vectors: tuple  # tuple of coordinate vectors, one per generator
    base_zero: tuple  # basis indices where derivations vanish (the unit)
    base_gen: tuple  # (basis_index, generator_slot) pairs
    steps: tuple  # (target, parent, generator_slot), topologically ordered


class Algebra:
    """Associative unital algebra over GF(p) with labelled basis.

    Immutable after construction.  ``mult`` maps a basis pair (i, j) to a
    tuple of (k, c) terms meaning e_i e_j = sum c e_k.  When every product
    of basis elements is a scalar multiple of a single basis element the
    table is also held as index/coefficient arrays, which all heavy
    computations use.
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
        presentation=None,
        validate=True,
        _monomial=None,
    ):
        self.p = check_prime(p)
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.unit = normalize(unit, self.p).reshape(-1)
        if self.unit.shape[0] != self.dim:
            raise DimensionMismatch("unit vector length does not match basis size")
        self.name = name or f"algebra(dim={self.dim},p={self.p})"
        self.descriptor = descriptor
        self.presentation = presentation
        if _monomial is not None:
            self._kmat, self._cmat = _monomial
            self._mult = None
        else:
            self._mult = self._clean_mult(mult)
            self._kmat, self._cmat = self._detect_monomial()
        self.radical_gens = (
            None
            if radical_gens is None
            else [normalize(g, self.p).reshape(-1) for g in radical_gens]
        )
        self.counit = None if counit is None else normalize(counit, self.p).reshape(-1)
        self._lstack = None
        self._rstack = None
        self._derivation_cache: dict = {}
        if validate:
            self.validate()

    # -- table plumbing ----------------------------------------------------

    def _clean_mult(self, mult) -> dict:
        clean = {}
        for (i, j), terms in mult.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise DimensionMismatch(f"basis pair ({i}, {j}) out of range")
            acc: dict[int, int] = {}
            for k, c in terms:
                c = int(c) % self.p
                if c:
                    acc[int(k)] = (acc.get(int(k), 0) + c) % self.p
            cleaned = tuple(sorted((k, c) for k, c in acc.items() if c))
            if cleaned:
                clean[(i, j)] = cleaned
        return clean

    def _detect_monomial(self):
        kmat = np.zeros((self.dim, self.dim), dtype=np.int32)
        cmat = np.zeros((self.dim, self.dim), dtype=INT)
        for (i, j), terms in self._mult.items():
            if len(terms) > 1:
                return None, None
            k, c = terms[0]
            kmat[i, j] = k
            cmat[i, j] = c
        return kmat, cmat

    @property
    def is_monomial(self) -> bool:
        return self._kmat is not None

    def mult_terms(self, i: int, j: int):
        """Terms (k, c) of e_i e_j."""
        if self._mult is not None:
            return self._mult.get((i, j), ())
        c = int(self._cmat[i, j])
        return ((int(self._kmat[i, j]), c),) if c else ()

    def mul_basis(self, i: int, j: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=INT)
        for k, c in self.mult_terms(i, j):
            v[k] = (v[k] + c) % self.p
        return v

    def mul_vec(self, u, v) -> np.ndarray:
        """Product of two coordinate vectors."""
        u = normalize(u, self.p).reshape(-1)
        v = normalize(v, self.p).reshape(-1)
        out = np.zeros(self.dim, dtype=INT)
        if self.is_monomial:
            ui, vj = np.nonzero(u)[0], np.nonzero(v)[0]
            grid = np.ix_(ui, vj)
            weights = u[ui][:, None] * v[vj][None, :] * self._cmat[grid]
            return gfp.scatter_add(out, self._kmat[grid], weights) % self.p
        for i in np.nonzero(u)[0]:
            for j in np.nonzero(v)[0]:
                for k, c in self.mult_terms(int(i), int(j)):
                    out[k] += u[i] * v[j] * c
        return out % self.p

    def element_power(self, v, k: int) -> np.ndarray:
        out = self.unit.copy()
        for _ in range(k):
            out = self.mul_vec(out, v)
        return out

    def left_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> v * x for an element v (coordinate vector)."""
        v = normalize(v, self.p).reshape(-1)
        out = np.zeros((self.dim, self.dim), dtype=INT)
        if self.is_monomial:
            # column b receives sum_i v_i c_{ib} at row k_{ib}
            flat = self._kmat * self.dim + np.arange(self.dim)[None, :]
            gfp.scatter_add(out.reshape(-1), flat, v[:, None] * self._cmat)
            return out % self.p
        for i in np.nonzero(v)[0]:
            for b in range(self.dim):
                for k, c in self.mult_terms(int(i), b):
                    out[k, b] += v[i] * c
        return out % self.p

    def right_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> x * v for an element v (coordinate vector)."""
        v = normalize(v, self.p).reshape(-1)
        out = np.zeros((self.dim, self.dim), dtype=INT)
        if self.is_monomial:
            # column b receives sum_j c_{bj} v_j at row k_{bj}
            flat = self._kmat * self.dim + np.arange(self.dim)[:, None]
            gfp.scatter_add(out.reshape(-1), flat, self._cmat * v[None, :])
            return out % self.p
        for j in np.nonzero(v)[0]:
            for b in range(self.dim):
                for k, c in self.mult_terms(b, int(j)):
                    out[k, b] += v[j] * c
        return out % self.p

    def basis_left_matrix(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=INT)
        e[i] = 1
        return self.left_mult_matrix(e)

    def basis_right_matrix(self, j: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=INT)
        e[j] = 1
        return self.right_mult_matrix(e)

    def left_stack(self) -> np.ndarray:
        """All left-multiplication matrices, cached; small dimensions only."""
        if self._lstack is None:
            if self.dim > DENSE_DIM_LIMIT:
                raise DimensionMismatch("dense operator stack requested for large algebra")
            self._lstack = np.stack([self.basis_left_matrix(i) for i in range(self.dim)])
        return self._lstack

    def right_stack(self) -> np.ndarray:
        if self._rstack is None:
            if self.dim > DENSE_DIM_LIMIT:
                raise DimensionMismatch("dense operator stack requested for large algebra")
            self._rstack = np.stack([self.basis_right_matrix(j) for j in range(self.dim)])
        return self._rstack

    def monomial_tables(self):
        return (self._kmat, self._cmat) if self.is_monomial else None

    def structure_constants(self):
        """Arrays (i, j, k, c) of every term e_i e_j = ... + c e_k, sorted; cached, read-only."""
        if "consts" not in self._derivation_cache:
            if self.is_monomial:
                i, j = np.nonzero(self._cmat)
                consts = i, j, self._kmat[i, j].astype(INT), self._cmat[i, j]
            else:
                terms = sorted((i, j, k, c) for (i, j), ts in self._mult.items() for k, c in ts)
                consts = tuple(np.array(terms, dtype=INT).reshape(-1, 4).T)
            for arr in consts:
                arr.setflags(write=False)
            self._derivation_cache["consts"] = consts
        return self._derivation_cache["consts"]

    def presentation_right_mats(self) -> list[np.ndarray]:
        """Right-multiplication matrices of the presentation generators, cached."""
        key = "_pres_right_mats"
        if key not in self._derivation_cache:
            if self.presentation is None:
                raise DimensionMismatch("algebra has no generator presentation")
            self._derivation_cache[key] = [
                self.right_mult_matrix(g) for g in self.presentation.gen_vectors
            ]
        return self._derivation_cache[key]

    # -- validation ---------------------------------------------------------

    def validate(self):
        self._validate_unit()
        if self.is_monomial:
            self._validate_assoc_monomial()
        elif self.dim <= DENSE_DIM_LIMIT:
            self._validate_assoc_dense()
        else:
            raise DimensionMismatch(
                f"cannot validate a non-monomial table of dimension {self.dim}"
            )
        if self.counit is not None:
            self._validate_counit()

    def _validate_unit(self):
        for i in range(self.dim):
            e = np.zeros(self.dim, dtype=INT)
            e[i] = 1
            if not np.array_equal(self.mul_vec(self.unit, e), e):
                raise UnitViolation(i)
            if not np.array_equal(self.mul_vec(e, self.unit), e):
                raise UnitViolation(i)

    def _validate_assoc_monomial(self):
        """(e_i e_j) e_k = e_i (e_j e_k) on every triple where a side can be nonzero.

        The left side needs c_ij != 0 and the right side c_jk != 0, so
        {c_ij != 0} x k and i x {c_jk != 0} hold every failure.  Each is walked
        in lexicographic order; the smaller first failure is reported.
        """
        d, p, kmat, cmat = self.dim, self.p, self._kmat, self._cmat
        pi, pj = np.nonzero(cmat)
        cij, kij = cmat[pi, pj], kmat[pi, pj]
        bad = []

        def failures(c2, k2, c3, k3):
            c2, c3 = c2 % p, c3 % p
            return np.argwhere((c2 != c3) | ((c2 != 0) & (k2 != k3)))

        # rows: pairs (i, j) with c_ij != 0; columns: every k
        step = max(1, (1 << 19) // max(d, 1))
        for s in range(0, pi.size, step):
            i, j, ij = pi[s : s + step, None], pj[s : s + step], kij[s : s + step]
            jk = kmat[j]
            c2 = cij[s : s + step, None] * cmat[ij]
            hit = failures(c2, kmat[ij], cmat[j] * cmat[i, jk], kmat[i, jk])
            if hit.size:
                bad.append((int(pi[s + hit[0, 0]]), int(pj[s + hit[0, 0]]), int(hit[0, 1])))
                break
        # rows: every i; columns: pairs (j, k) with c_jk != 0
        step = max(1, (1 << 19) // max(pi.size, 1))
        for s in range(0, d, step):
            i = np.arange(s, min(d, s + step))[:, None]
            ij = kmat[i, pi]
            c2 = cmat[i, pi] * cmat[ij, pj]
            hit = failures(c2, kmat[ij, pj], cij * cmat[i, kij], kmat[i, kij])
            if hit.size:
                bad.append((s + int(hit[0, 0]), int(pi[hit[0, 1]]), int(pj[hit[0, 1]])))
                break
        if bad:
            raise AssociativityViolation(*min(bad))

    def _validate_assoc_dense(self):
        d, p = self.dim, self.p
        ls = self.left_stack().astype(np.float64)
        # (e_i e_j) e_k = R_k(m_ij); e_i (e_j e_k) = L_i(m_jk)
        m = np.stack([[self.mul_basis(i, j) for j in range(d)] for i in range(d)])
        rs = self.right_stack().astype(np.float64)
        lhs = np.einsum("kab,ijb->ijka", rs, m.astype(np.float64)).astype(INT) % p
        rhs = np.einsum("iab,jkb->ijka", ls, m.astype(np.float64)).astype(INT) % p
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere((lhs != rhs).any(axis=3))[0]
            raise AssociativityViolation(int(bad[0]), int(bad[1]), int(bad[2]))

    def _validate_counit(self):
        eps = self.counit
        if int(eps @ self.unit % self.p) != 1:
            raise CounitViolation("counit(1) != 1")
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = 0
                for k, c in self.mult_terms(i, j):
                    lhs += c * int(eps[k])
                if lhs % self.p != int(eps[i]) * int(eps[j]) % self.p:
                    raise CounitViolation(f"counit not multiplicative at ({i}, {j})")

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

    ``mult`` maps (i, j) to an iterable of (k, c) terms.  Raises
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

    kmat = np.zeros((dim, dim), dtype=np.int32)
    cmat = np.zeros((dim, dim), dtype=INT)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            s = tuple(x + y for x, y in zip(a, b))
            if all(x < bnd for x, bnd in zip(s, bounds)):
                kmat[i, j] = index[s]
                cmat[i, j] = 1
    unit = np.zeros(dim, dtype=INT)
    unit[index[tuple(0 for _ in exponents)]] = 1
    counit = unit.copy()
    gens = []
    for v in range(len(exponents)):
        g = np.zeros(dim, dtype=INT)
        mono = tuple(1 if w == v else 0 for w in range(len(exponents)))
        g[index[mono]] = 1
        gens.append(g)

    # generator presentation: every monomial is parent * x_v for the first
    # variable with a positive exponent
    steps = []
    for mono in sorted(basis, key=sum):
        if sum(mono) == 0:
            continue
        v = next(w for w, e in enumerate(mono) if e > 0)
        parent = tuple(e - 1 if w == v else e for w, e in enumerate(mono))
        steps.append((index[mono], index[parent], v))
    pres = Presentation(
        gen_vectors=tuple(gens),
        base_zero=(index[tuple(0 for _ in exponents)],),
        base_gen=(),
        steps=tuple(steps),
    )

    return Algebra(
        p,
        [label(m) for m in basis],
        {},
        unit,
        radical_gens=gens,
        counit=counit,
        name=f"trunc(p={p},exps={','.join(map(str, exponents))})",
        presentation=pres,
        _monomial=(kmat, cmat),
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
    desc = SmashDescriptor(p, n, r)
    nc, xb = desc.n_chars, desc.x_bound
    dim = nc * xb

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
    cmat = nonzero.astype(INT)

    unit = np.zeros(dim, dtype=INT)
    for l0 in range(nc):
        unit[desc.index(l0, 0)] = 1
    rad = []
    for l0 in range(nc):
        g = np.zeros(dim, dtype=INT)
        g[desc.index(l0, 1)] = 1
        rad.append(g)
    labels = [desc.label(l0, j0) for l0 in range(nc) for j0 in range(xb)]

    # presentation: unknowns are the values on each u_lambda and on x
    base_gen = tuple((desc.index(l0, 0), l0) for l0 in range(nc))
    gen_vectors = [np.zeros(dim, dtype=INT) for _ in range(nc)]
    for l0 in range(nc):
        gen_vectors[l0][desc.index(l0, 0)] = 1
    gen_vectors.append(desc.x_vector())
    steps = tuple(
        (desc.index(l0, j0), desc.index(l0, j0 - 1), nc)
        for j0 in range(1, xb)
        for l0 in range(nc)
    )
    pres = Presentation(
        gen_vectors=tuple(gen_vectors), base_zero=(), base_gen=base_gen, steps=steps
    )

    alg = Algebra(
        p,
        labels,
        {},
        unit,
        radical_gens=rad,
        name=f"smash(p={p},n={n},r={r})",
        descriptor=desc,
        presentation=pres,
        _monomial=(kmat, cmat),
    )
    return alg, desc


def u0_borel(p, n) -> Algebra:
    """Algebra on x^b t^a with t x = x t + x, x^(p^n) = 0, t^p = t."""
    p = check_prime(p)
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    xb = p**n
    dim = xb * p

    def idx(b, a):
        return b * p + a

    mult: dict = {}
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
                    terms = tuple(sorted((t, v) for t, v in acc.items() if v))
                    if terms:
                        mult[(idx(b, a), idx(c, d_))] = terms
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

    steps = []
    for b in range(xb):
        for a in range(p):
            if a >= 1:
                steps.append((idx(b, a), idx(b, a - 1), 1))
            elif b >= 1:
                steps.append((idx(b, 0), idx(b - 1, 0), 0))
    pres = Presentation(
        gen_vectors=(xvec, tvec),
        base_zero=(idx(0, 0),),
        base_gen=(),
        steps=tuple(sorted(steps)),
    )
    return Algebra(
        p,
        labels,
        mult,
        unit,
        radical_gens=[xvec],
        name=f"u0borel(p={p},n={n})",
        presentation=pres,
    )


def split_semisimple(p, m) -> Algebra:
    """GF(p)^m with the coordinatewise product."""
    p = check_prime(p)
    m = int(m)
    if m < 1:
        raise ValueError("need m >= 1")
    kmat = np.zeros((m, m), dtype=np.int32)
    cmat = np.zeros((m, m), dtype=INT)
    for i in range(m):
        kmat[i, i] = i
        cmat[i, i] = 1
    unit = np.ones(m, dtype=INT)
    counit = None
    if m == 1:
        counit = np.ones(1, dtype=INT)
    return Algebra(
        p,
        [f"e{i + 1}" for i in range(m)],
        {},
        unit,
        radical_gens=[],
        counit=counit,
        name=f"gf{p}^{m}",
        _monomial=(kmat, cmat),
    )


# -- quivers -------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverPresentation:
    """Bound quiver: vertices, labelled arrows and admissible relations.

    Arrows are (label, source, target); paths compose left to right, so a
    path p: a -> b followed by q: b -> c is written p q.  A relation is a
    list of (coefficient, [arrow labels]) pairs whose paths are parallel
    and of length >= 2.
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
                if len(path) < 2:
                    raise ValueError("relations must be admissible (length >= 2 paths)")
                if any(not isinstance(lbl, str) or lbl not in ends for lbl in path):
                    raise ValueError(f"relation path {path} has an unknown arrow")
                if any(ends[s][1] != ends[t][0] for s, t in zip(path, path[1:])):
                    raise ValueError(f"relation path {path} is not composable")
                if (ends[path[0]][0], ends[path[-1]][1]) != (ends[rel[0][1][0]][0], ends[rel[0][1][-1]][1]):
                    raise ValueError(f"relation paths {rel[0][1]} and {path} are not parallel")
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
    """Path algebra of a bound quiver modulo its relations.

    Path saturation detects finite dimensionality: path enumeration stops
    at the first length where every path of that length reduces to shorter
    ones modulo the relation ideal; exceeding the cap (twice the number of
    arrows times the longest relation degree, at least 6) raises.
    """
    p = check_prime(p)
    arrow_by_label = {a[0]: a for a in q.arrows}
    max_rel = max((max(len(path) for _, path in rel) for rel in q.relations), default=1)
    cap = max(2 * len(q.arrows) * max_rel, 6)
    max_paths = 200_000

    # paths be length: a path is (source_vertex, (arrow labels...))
    paths_by_len: list[list[tuple]] = [[(v, ()) for v in q.vertices]]
    while len(paths_by_len) <= cap:
        prev = paths_by_len[-1]
        nxt = []
        for src, word in prev:
            end = arrow_by_label[word[-1]][2] if word else src
            for lbl, a_src, _ in q.arrows:
                if a_src == end:
                    nxt.append((src, word + (lbl,)))
        paths_by_len.append(nxt)
        total = sum(len(ps) for ps in paths_by_len)
        if total > max_paths:
            raise InfiniteDimensionalQuotient("path count exceeds enumeration bound")

        all_paths = [pth for ps in paths_by_len for pth in ps]
        # longest-first coordinate order so that RREF pivots eliminate long paths
        all_paths.sort(key=lambda pth: (-len(pth[1]), pth))
        coord = {pth: i for i, pth in enumerate(all_paths)}
        ncols = len(all_paths)
        length = len(paths_by_len) - 1

        # two-sided ideal generated by the relations, up to current length
        rows = []
        for rel in q.relations:
            rel_src = arrow_by_label[rel[0][1][0]][1]
            rel_tgt = arrow_by_label[rel[0][1][-1]][2]
            rel_len = len(rel[0][1])
            for lsrc, lword in all_paths:
                lend = arrow_by_label[lword[-1]][2] if lword else lsrc
                if lend != rel_src:
                    continue
                for rsrc, rword in all_paths:
                    if rsrc != rel_tgt:
                        continue
                    if len(lword) + rel_len + len(rword) > length:
                        continue
                    vec = np.zeros(ncols, dtype=INT)
                    for coeff, path in rel:
                        full = (lsrc, lword + tuple(path) + rword)
                        vec[coord[full]] = (vec[coord[full]] + coeff) % p
                    if vec.any():
                        rows.append(vec)
        if rows:
            ideal, rank, piv = rref(np.vstack(rows), p)
            ideal = ideal[:rank]
            piv_set = set(piv)
        else:
            ideal = np.zeros((0, ncols), dtype=INT)
            piv_set = set()

        # saturated when every maximal-length path coordinate is a pivot
        top = [coord[pth] for pth in paths_by_len[-1]]
        if top and all(c in piv_set for c in top):
            basis_paths = [pth for pth in all_paths if coord[pth] not in piv_set]
            if any(len(w) >= length for _, w in basis_paths):
                continue  # a long path survived; enumerate further
            return _finish_quiver_algebra(q, p, arrow_by_label, basis_paths, ideal, coord, all_paths)
        if not paths_by_len[-1]:
            basis_paths = [pth for pth in all_paths if coord[pth] not in piv_set]
            return _finish_quiver_algebra(q, p, arrow_by_label, basis_paths, ideal, coord, all_paths)
    raise InfiniteDimensionalQuotient(
        f"no saturation up to path length {cap}; quotient is infinite-dimensional"
    )


def _finish_quiver_algebra(q, p, arrow_by_label, basis_paths, ideal, coord, all_paths):
    # order basis classes by (length, lexicographic) for readable labels
    basis_paths = sorted(basis_paths, key=lambda pth: (len(pth[1]), pth))
    bindex = {pth: i for i, pth in enumerate(basis_paths)}
    dim = len(basis_paths)
    free_cols = [coord[pth] for pth in basis_paths]

    def reduce_coord_vec(vec):
        """Reduce modulo the ideal RREF; remainder lives on basis columns."""
        vec = vec.copy()
        for row in ideal:
            piv = int(np.nonzero(row)[0][0])
            if vec[piv]:
                vec = (vec - vec[piv] * row) % p
        out = np.zeros(dim, dtype=INT)
        for spot in np.nonzero(vec)[0]:
            pth = all_paths[int(spot)]
            if pth not in bindex:
                raise InfiniteDimensionalQuotient("reduction escaped the chosen basis")
            out[bindex[pth]] = vec[spot]
        return out

    mult: dict = {}
    for i, (s1, w1) in enumerate(basis_paths):
        e1 = arrow_by_label[w1[-1]][2] if w1 else s1
        for j, (s2, w2) in enumerate(basis_paths):
            if s2 != e1:
                continue
            concat = (s1, w1 + w2)
            if concat in coord:
                vec = np.zeros(len(all_paths), dtype=INT)
                vec[coord[concat]] = 1
                prod = reduce_coord_vec(vec)
            else:
                # longer than anything enumerated: saturation makes it zero
                prod = np.zeros(dim, dtype=INT)
            terms = tuple((int(k), int(c)) for k, c in enumerate(prod) if c)
            if terms:
                mult[(i, j)] = terms

    def plabel(pth):
        src, word = pth
        return f"e{src}" if not word else "*".join(word)

    unit = np.zeros(dim, dtype=INT)
    for v in q.vertices:
        unit[bindex[(v, ())]] = 1
    rad = []
    for lbl, src, _ in q.arrows:
        g = np.zeros(dim, dtype=INT)
        g[bindex[(src, (lbl,))]] = 1
        rad.append(g)
    return Algebra(
        p,
        [plabel(pth) for pth in basis_paths],
        mult,
        unit,
        radical_gens=rad,
        name=f"quiver(p={p},dim={dim})",
    )


def trivial_extension(a: Algebra) -> Algebra:
    """A + A* with (a,f)(b,g) = (ab, a.g + f.b); the dual copy squares to zero.

    Bimodule convention: (a.f)(b) = f(b a) and (f.a)(b) = f(a b).
    """
    d, p = a.dim, a.p
    dim = 2 * d
    mult: dict = {}
    for i in range(d):
        for j in range(d):
            terms = a.mult_terms(i, j)
            if terms:
                mult[(i, j)] = terms
            # e_i . f_j = sum_k [e_k e_i]_j f_k ; f_j . e_i = sum_k [e_i e_k]_j f_k
            left_terms = []
            right_terms = []
            for k in range(d):
                for tgt, c in a.mult_terms(k, i):
                    if tgt == j:
                        left_terms.append((d + k, c))
                for tgt, c in a.mult_terms(i, k):
                    if tgt == j:
                        right_terms.append((d + k, c))
            if left_terms:
                mult[(i, d + j)] = tuple(sorted(left_terms))
            if right_terms:
                mult[(d + j, i)] = tuple(sorted(right_terms))
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


def _narrow_candidates(cand: np.ndarray, resid_fn, p: int) -> np.ndarray:
    """Shrink a candidate row space until ``resid_fn`` vanishes on it.

    resid_fn(C) must return a (k, m) residual matrix, linear in the rows
    of C.  The loop keeps the left kernel of bounded column subsamples,
    which only ever removes rows violating the constraints.
    """
    while cand.shape[0]:
        resid = resid_fn(cand) % p
        nzc = np.nonzero(resid.any(axis=0))[0]
        if nzc.size == 0:
            break
        take = nzc[: max(2 * cand.shape[0], 64)]
        lk = gfp.left_kernel(resid[:, take], p)
        cand = matmul(lk, cand, p) if lk.shape[0] else np.zeros((0, cand.shape[1]), dtype=INT)
    return cand


def center(a: Algebra) -> Subspace:
    """Solution space of [z, e_i] = 0 for all basis elements e_i.

    Narrowing only ever shrinks the candidate space, so one completed
    pass over all basis constraints is exact.
    """
    d, p = a.dim, a.p
    cand = np.eye(d, dtype=INT)
    for i in range(d):
        if cand.shape[0] == 0:
            break
        m = (a.basis_left_matrix(i) - a.basis_right_matrix(i)) % p
        # [e_i, z] = (L_i - R_i) z, evaluated on the candidate rows
        cand = _narrow_candidates(cand, lambda c, m=m: matmul(c, m.T, p), p)
    return Subspace.from_vectors(cand, p, d)


def _pairwise_products(a: Algebra, u, v) -> np.ndarray:
    """u_s v_t for every pair of rows (entries reduced mod p), as (s, t, dim).

    For a block of rows of u, about 2^18 cells, the left-multiplication
    matrices are scattered from the structure constants and applied to all
    of v in one batched matmul; every sum stays below dim (p-1)^2 < 2^53.
    """
    d, p = a.dim, a.p
    i, j, k, c = a.structure_constants()
    u_t = np.asarray(u, dtype=INT).reshape(-1, d).T
    v = np.asarray(v, dtype=np.float64).reshape(-1, d)
    out = np.zeros((u_t.shape[1], v.shape[0], d), dtype=INT)
    step = max(1, (1 << 18) // (d * max(d, v.shape[0])))
    for s in range(0, out.shape[0], step):
        # row j d + k, column s: the coefficient of e_k in u_s e_j
        left = np.zeros((d * d, min(step, out.shape[0] - s)), dtype=INT)
        gfp.scatter_add(left, j * d + k, c, np.ascontiguousarray(u_t[:, s : s + step]), i)
        left = (left % p).T.reshape(-1, d, d).astype(np.float64)
        out[s : s + step] = (v @ left).astype(INT) % p
    return out


def commutator_subspace(a: Algebra) -> Subspace:
    prods = _pairwise_products(a, np.eye(a.dim, dtype=INT), np.eye(a.dim, dtype=INT))
    return Subspace.from_vectors((prods - prods.transpose(1, 0, 2)).reshape(-1, a.dim), a.p, a.dim)


def _ideal_closure(a: Algebra, gens) -> Subspace:
    span, eye = Subspace.from_vectors(gens, a.p, a.dim), np.eye(a.dim, dtype=INT)
    while True:
        # the span with every v e_b and e_b v
        prods = [_pairwise_products(a, span.basis, eye), _pairwise_products(a, eye, span.basis)]
        rows = np.vstack([span.basis] + [x.reshape(-1, a.dim) for x in prods])
        grown = Subspace.from_vectors(rows, a.p, a.dim)
        if grown.dim == span.dim:
            return grown
        span = grown


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


def _algebra_on(a: Algebra, reps: np.ndarray, coords_rows, unit, labels, name) -> Algebra:
    """The algebra on the span of the rows reps, a subalgebra or a quotient of A.

    Its table is the coordinates, by ``coords_rows``, of the pairwise
    products of the rows, and its unit is the coordinates of ``unit``.
    """
    m = reps.shape[0]
    table = coords_rows(_pairwise_products(a, reps, reps).reshape(m * m, a.dim)).reshape(m, m, m)
    mult: dict = {}
    for s, t, k in zip(*np.nonzero(table)):
        mult.setdefault((int(s), int(t)), []).append((int(k), int(table[s, t, k])))
    return make_algebra(a.p, labels, mult, coords_rows(unit[None])[0], name=name)


def _quotient_algebra(a: Algebra, j: Subspace) -> Algebra:
    """A/J on the classes of the unit vectors off J's pivots.

    A class's coordinates are its residual modulo J on those columns.
    """
    free = np.setdiff1d(np.arange(a.dim), j.pivots)
    labels = [f"q{i}" for i in range(free.size)]
    reps, coords_rows = np.eye(a.dim, dtype=INT)[free], lambda rows: j.reduce_rows(rows)[:, free]
    return _algebra_on(a, reps, coords_rows, a.unit, labels, f"{a.name}/J")


def _frobenius_matrix(q: Algebra) -> np.ndarray:
    """Matrix of z -> z^p on a commutative algebra (columns are basis images)."""
    cols = []
    for i in range(q.dim):
        e = np.zeros(q.dim, dtype=INT)
        e[i] = 1
        cols.append(q.element_power(e, q.p))
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
    fixed = gfp.kernel((frob - np.eye(d, dtype=INT)) % p, p)
    if fixed.shape[0] != n_ss:
        raise NonSplitCenter(
            f"Frobenius-fixed space has dim {fixed.shape[0]}, semisimple rank is {n_ss}"
        )
    # split the identity inside the fixed algebra by eigencomponents
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
                    proj = q.mul_vec(proj, (zc - c1 * comp) % p) * gfp.inv_mod(c0 - c1, p) % p
                if proj.any():
                    refined.append(proj)
        components = refined
    # lift through the nilradical: Newton iteration e <- 3e^2 - 2e^3
    idems = []
    for comp in components:
        evec = comp
        for _ in range(d + 2):
            sq = q.mul_vec(evec, evec)
            if np.array_equal(sq, evec):
                break
            cube = q.mul_vec(sq, evec)
            evec = (3 * sq - 2 * cube) % p
        else:
            raise NonSplitCenter("idempotent lifting did not converge")
        idems.append(evec)
    return idems


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


def block_decomposition(a: Algebra) -> list[tuple[np.ndarray, Algebra]]:
    """Primitive central idempotents and their corner algebras e A e.

    The center's nilradical is the kernel of z -> z^(p^e) (a linear map on
    a commutative algebra); idempotents are split in Z/J(Z) and lifted by
    the Newton step e <- 3e^2 - 2e^3.
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
        blocks.append((evec, _algebra_on(a, sub.basis, sub.coords_rows, evec, labels, name)))
    return blocks


def symmetric_form_search(a: Algebra, trials: int = 64, seed: int = 0):
    """Search for a nondegenerate symmetric associative bilinear form.

    Solves B(ab, c) = B(a, bc), B(a, b) = B(b, a) exactly, then samples
    ``trials`` elements of the solution space with the seeded generator.
    Returns the first nondegenerate form as a (dim, dim) matrix, or None
    when no sample is nondegenerate (which is inconclusive by design).
    """
    d, p = a.dim, a.p
    nv = d * d

    def rows_for_triples(triples):
        rows = np.zeros((len(triples), nv), dtype=INT)
        for r, (i, j, k) in enumerate(triples):
            for tgt, c in a.mult_terms(i, j):
                rows[r, tgt * d + k] = (rows[r, tgt * d + k] + c) % p
            for tgt, c in a.mult_terms(j, k):
                rows[r, i * d + tgt] = (rows[r, i * d + tgt] - c) % p
        return rows

    cand = np.eye(nv, dtype=INT)
    sym = np.zeros((d * (d - 1) // 2, nv), dtype=INT)
    r = 0
    for i in range(d):
        for j in range(i + 1, d):
            sym[r, i * d + j] = 1
            sym[r, j * d + i] = p - 1
            r += 1
    cand = _narrow_candidates(cand, lambda c: matmul(c, sym.T, p), p)
    triples = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
    chunk = max(1, 4096 // max(d, 1))
    for start in range(0, len(triples), chunk * d):
        block = rows_for_triples(triples[start : start + chunk * d])
        cand = _narrow_candidates(cand, lambda c, b=block: matmul(c, b.T, p), p)
        if cand.shape[0] == 0:
            return None
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = rng.integers(0, p, size=cand.shape[0])
        bmat = matmul(coeffs, cand, p).reshape(d, d)
        _, rank, _ = rref(bmat, p)
        if rank == d:
            return bmat
    return None
