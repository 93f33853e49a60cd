"""Exact linear algebra over the prime field GF(p), p an odd prime, 3 <= p <= 317.

Matrices are numpy int64 arrays with entries reduced mod p.  Except for
``scatter_add`` and ``scatter_apply``, which add into ``out``, functions
never mutate inputs and return fresh arrays.  Row spaces are kept in reduced
row echelon form, which is unique over a field, so two equal subspaces always
store identical bases.  ``Subspace.extend`` is the one incremental echelon:
every span that grows under appended rows grows through it.

Sparse sums are key and value arrays: ``merge`` sums the values on equal keys
mod p, and ``expand`` lists the entries of rows stored CSR-style.  Scatters
(sums of coefficients times source rows into target rows) have one layering
code, ``scatter_plan``: a plan is built once per term list and applied by
``scatter_apply`` to as many sources as share it; ``scatter_add`` is one
plan applied once.

Coordinates have one primitive, ``coords_rows``: on a ``Subspace`` they are a
stack's entries on the canonical pivots, and an ``OrderedBasis`` (rows in a
fixed order, optionally modulo a Subspace) maps those through a pivot inverse
built once.  Both raise on a row that is not a member.

Products have one primitive, ``_product``, the only floating-point code in
the package: ``matmul`` runs it once, and ``mat_pow`` once per square and
product, keeping the powers in the product type between steps.  On entries
in [0, p) each partial sum of k products, in any order and with FMA, is an
integer below k (p-1)^2, so BLAS is exact in float32 while that is below
2^24 and in float64 below 2^53; ``product_type`` picks by that bound
(delayed reduction: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008, where
FFLAS picks float32 by it too).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, Hh1LieError

INT = np.int64

# Supported range: dimension up to MAX_DIM (one dense int64 matrix is then
# 2 GiB) and p up to P_MAX, where a contraction of MAX_DIM^2 terms is exact.
MAX_DIM = 1 << 14
P_MAX = 317
EXACT32 = 1 << 24  # float32 sums of integers are exact below this
EXACT = 1 << 53  # and float64 sums below this
STREAM_CELLS = 1 << 18  # int64 cells per block of a computation streamed in blocks


def is_prime(n: int) -> bool:
    """Trial division; callers bound n first (see check_prime)."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def check_prime(p: int) -> int:
    """Validate the global characteristic: an odd prime with 3 <= p <= P_MAX.

    The range is checked first, so a huge p is rejected at once.
    """
    p = int(p)
    if not 3 <= p <= P_MAX or not is_prime(p):
        raise ValueError(f"p must be an odd prime with 3 <= p <= {P_MAX}, got {p}")
    return p


def check_dim(base: int, exp: int = 1, error=ValueError) -> int:
    """The algebra dimension base^exp if it is at most MAX_DIM, else ``error``.

    Constructors call it before they allocate.  A large exponent is rejected
    before the power is formed (base >= 2 there).
    """
    if (exp >= MAX_DIM.bit_length() and base > 1) or base**exp > MAX_DIM:
        shown = base if exp == 1 else f"{base}^{exp}"
        raise error(f"dimension {shown} exceeds the supported maximum {MAX_DIM}")
    return base**exp


def normalize(a, p: int) -> np.ndarray:
    """Return ``a`` as an int64 array with entries reduced mod p."""
    return np.asarray(a, dtype=INT) % p


def basis_vector(dim: int, i: int) -> np.ndarray:
    """The i-th standard basis vector of length dim."""
    v = np.zeros(dim, dtype=INT)
    v[i] = 1
    return v


def complement(n: int, idx) -> np.ndarray:
    """The sorted indices 0 <= i < n that are not in idx (by a mask: np.setdiff1d imports numpy.ma)."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(idx, dtype=INT)] = False
    return np.flatnonzero(keep)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, -1, p)


def product_type(k: int, p: int) -> type:
    """The type ``matmul`` sums k terms in: float32 if k (p-1)^2 < 2^24, float64 if < 2^53, else it raises."""
    bound = k * (p - 1) ** 2
    if bound >= EXACT:
        raise DimensionMismatch(f"a contraction of {k} terms mod {p} is not exact in float64")
    return np.float32 if bound < EXACT32 else np.float64


def _product(a: np.ndarray, b: np.ndarray, ftype: type, p: int) -> np.ndarray:
    """``a @ b mod p`` for operands already in ``ftype``: one BLAS product, reduced once.

    A float32 sum is below 2^24, so it fits int32, and numpy divides ints by
    a scalar far faster than it takes %.  The result is int32 or int64.
    """
    out = (a @ b).astype(np.int32 if ftype is np.float32 else INT)
    out -= out // p * p
    return out


def matmul(a, b, p: int) -> np.ndarray:
    """Exact ``a @ b mod p`` for entries in [0, p), stacks broadcast as by ``@``; reduced int64.

    The product runs in ``product_type(k, p)`` for the contraction length k,
    which raises DimensionMismatch before it when k (p-1)^2 >= 2^53.
    """
    a, b = np.asarray(a), np.asarray(b)
    k = a.shape[-1]
    if k != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionMismatch(f"matmul shapes {a.shape} x {b.shape}")
    ftype = product_type(k, p)
    return _product(np.asarray(a, dtype=ftype), np.asarray(b, dtype=ftype), ftype, p).astype(INT, copy=False)


def scatter_plan(index, coef, take=None) -> list:
    """Layers (index, coef, take) of the sum ``out[index[r]] += coef[r] * src[take[r]]``.

    Zero-coefficient terms are dropped.  Layer t holds the t-th term of every
    target, so no target repeats within a layer and one fancy-index ``+=``
    adds each of its terms.  ``take`` defaults to the position of the term.
    A plan is built once and applied by ``scatter_apply`` to any source.
    """
    coef = np.asarray(coef).reshape(-1)
    keep = np.flatnonzero(coef)
    index = np.asarray(index).reshape(-1)[keep]
    take = keep if take is None else np.asarray(take).reshape(-1)[keep]
    order = np.argsort(index, kind="stable")
    rank = np.empty_like(keep)  # position of each term among those on its target
    rank[order] = np.arange(keep.size) - np.searchsorted(index[order], index[order])
    layers = (np.flatnonzero(rank == t) for t in range(int(rank.max(initial=-1)) + 1))
    return [(index[sel], coef[keep[sel]], take[sel]) for sel in layers]


def scatter_apply(out: np.ndarray, plan: list, src=None, axis: int = 0) -> np.ndarray:
    """Exact ``out[index] += coef * src[take]`` along ``axis`` for each layer of a ``scatter_plan``, in place.

    ``src`` defaults to ones: each layer then adds its coefficients.
    """
    target = np.moveaxis(out, axis, 0)  # a view: the adds land in ``out``
    for index, coef, take in plan:
        vals = coef
        if src is not None:
            vals = np.moveaxis(src, axis, 0)[take]
            vals *= coef.reshape((-1,) + (1,) * (vals.ndim - 1))
        target[index] += vals
    return out


def scatter_add(out: np.ndarray, index, coef, src=None, take=None) -> np.ndarray:
    """Exact ``out[index[r]] += coef[r] * src[take[r]]`` along axis 0, in place: one plan, applied once."""
    return scatter_apply(out, scatter_plan(index, coef, take), src)


def merge(keys: np.ndarray, vals: np.ndarray, p: int):
    """Sum vals over equal keys mod p: sorted distinct keys and nonzero sums."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order] % p
    if keys.size == 0:
        return keys, vals
    start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, start) % p
    return keys[start][sums != 0], sums[sums != 0]


def expand(rows: np.ndarray, ptr: np.ndarray):
    """(term, position) for every entry ptr[r] <= position < ptr[r + 1] of r = rows[term]."""
    lo = ptr[rows]
    counts = ptr[rows + 1] - lo
    term = np.repeat(np.arange(rows.size), counts)
    return term, np.arange(term.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def mat_pow(a, k: int, p: int) -> np.ndarray:
    """k-th power mod p of a square matrix, or of each in a stack, by square-and-multiply; reduced int64.

    Each square and product is one ``_product`` step, as in ``matmul``, and
    stays in the product type between steps.
    """
    base = normalize(a, p)
    n = base.shape[-1]
    if base.ndim < 2 or base.shape[-2] != n:
        raise DimensionMismatch(f"mat_pow expects square matrices, got shape {base.shape}")
    ftype = product_type(n, p)
    out, base = None, base.astype(ftype)
    while k > 0:
        if k & 1:
            out = base if out is None else _product(out, base, ftype, p).astype(ftype)
        k >>= 1
        if k:
            base = _product(base, base, ftype, p).astype(ftype)
    return np.broadcast_to(np.eye(n, dtype=INT), base.shape).copy() if out is None else out.astype(INT)


def rref(a, p: int):
    """Reduced row echelon form over GF(p).

    Returns ``(R, rank, pivots)`` where R is the unique RREF of ``a``,
    rank is the number of nonzero rows and pivots lists their pivot
    columns in increasing order.

    Only columns that are nonzero in ``a`` are visited, since row operations
    keep a zero column zero, and the walk ends once every row below the last
    pivot is zero.  Rows are checked for zero only when an elimination
    touches them.
    """
    # a fresh array, so it is reduced in place; C order keeps row operations contiguous
    a = np.ascontiguousarray(normalize(a, p))
    if a.ndim != 2:
        raise DimensionMismatch(f"rref expects a 2d array, got shape {a.shape}")
    r = 0
    pivots: list[int] = []
    live = int(a.any(axis=1).sum())  # nonzero rows at index >= r
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if not live:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        # rows from r on are zero left of c, so only columns c: change
        piv = int(a[r, c])
        if piv != 1:
            a[r, c:] = a[r, c:] * inv_mod(piv, p) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        live -= 1
        if other.size:
            upd = (a[other, c:] - a[other, c, None] * a[r, c:]) % p
            a[other, c:] = upd
            live -= int(np.count_nonzero(~upd.any(axis=1) & (other > r)))
        pivots.append(c)
        r += 1
    return a, r, pivots


def ranks(stack, p: int) -> np.ndarray:
    """The rank of every matrix of an (n, r, c) stack, by forward elimination one column at a time.

    A column's pivot in each matrix is its first nonzero row not yet a
    pivot, and it clears that column from the rows not yet pivots.
    """
    a = normalize(stack, p)
    if a.ndim != 3:
        raise DimensionMismatch(f"ranks expects an (n, r, c) stack, got shape {a.shape}")
    n, r, c = a.shape
    free = np.ones((n, r), dtype=bool)  # rows not yet a pivot
    inv = np.array([0] + [inv_mod(x, p) for x in range(1, p)], dtype=INT)
    for j in range(c):
        live = (a[:, :, j] != 0) & free
        m = np.flatnonzero(live.any(axis=1))
        if not m.size:
            continue
        top = live[m].argmax(axis=1)
        free[m, top] = False
        pivot = a[m, top, j:] * inv[a[m, top, j]][:, None] % p
        a[m, :, j:] = (a[m, :, j:] - (a[m, :, j] * free[m])[:, :, None] * pivot[:, None]) % p
    return r - free.sum(axis=1)


def row_space(a, p: int) -> np.ndarray:
    """Canonical basis (RREF rows, zero rows dropped) of the row space."""
    red, rank, _ = rref(a, p)
    return red[:rank]


def kernel(a, p: int) -> np.ndarray:
    """Canonical RREF basis of the right null space, one row per basis vector."""
    a = normalize(a, p)
    if a.ndim != 2:
        raise DimensionMismatch("kernel expects a 2d array")
    red, rank, pivots = rref(a, p)
    free = complement(a.shape[1], pivots)
    basis = np.zeros((free.size, a.shape[1]), dtype=INT)
    basis[:, pivots] = -red[:rank, free].T % p
    basis[np.arange(free.size), free] = 1
    return row_space(basis, p) if free.size else basis


def left_kernel(a, p: int) -> np.ndarray:
    """Canonical basis of ``{x : x @ a == 0}``."""
    return kernel(normalize(a, p).T, p)


def inverse(a, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises if singular."""
    a = normalize(a, p)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch("inverse expects a square matrix")
    aug = np.hstack([a, np.eye(n, dtype=INT)])
    red, rank, _ = rref(aug, p)
    if rank < n or not np.array_equal(red[:, :n], np.eye(n, dtype=INT)):
        raise ZeroDivisionError("matrix is singular over GF(p)")
    return red[:, n:]


class Subspace:
    """A subspace of GF(p)^n in canonical (RREF-basis) form.

    Immutable; two Subspace objects are equal iff they are equal as sets,
    which by canonicity is entrywise equality of the stored bases.
    """

    __slots__ = ("p", "ambient", "basis", "pivots", "_free", "_basis_op")

    def __init__(self, p: int, ambient: int, basis: np.ndarray, _pivots=None):
        self.p = p
        self.ambient = int(ambient)
        self.basis = basis
        if _pivots is None:
            _pivots = [int(np.nonzero(row)[0][0]) for row in basis]
        self.pivots = tuple(_pivots)
        self._free = self._basis_op = None

    def reduce_rows(self, mat: np.ndarray) -> np.ndarray:
        """Residuals of the rows of mat after eliminating the basis rows.

        The basis is the identity on its pivots, so a residual is zero there,
        and elimination changes only the other columns where the basis is
        nonzero: it multiplies on those alone.
        """
        mat = normalize(mat, self.p)
        if mat.shape[-1] != self.ambient:
            raise DimensionMismatch("vector length does not match ambient dimension")
        if self.dim == 0:
            return mat
        pivots = list(self.pivots)
        if self._basis_op is None:  # built once, in the type matmul picks, so it reads it without a copy
            support = self.basis.any(axis=0)
            support[pivots] = False
            self._free = np.flatnonzero(support)
            self._basis_op = self.basis[:, self._free].astype(product_type(self.dim, self.p))
        on = mat[:, self._free] - matmul(mat[:, pivots], self._basis_op, self.p)
        mat[:, pivots], mat[:, self._free] = 0, on % self.p
        return mat

    @classmethod
    def from_vectors(cls, vectors, p: int, ambient: int) -> "Subspace":
        mat = normalize(vectors, p) if len(vectors) else np.zeros((0, ambient), dtype=INT)
        if mat.ndim != 2 or mat.shape[1] != ambient:
            raise DimensionMismatch(f"vectors of shape {mat.shape[1:]} in ambient dimension {ambient}")
        return cls.zero(ambient, p).extend(mat)

    @classmethod
    def zero(cls, ambient: int, p: int) -> "Subspace":
        return cls(p, ambient, np.zeros((0, ambient), dtype=INT), [])

    @classmethod
    def full(cls, ambient: int, p: int) -> "Subspace":
        return cls(p, ambient, np.eye(ambient, dtype=INT), list(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_compatible(self, other: "Subspace"):
        if self.ambient != other.ambient or self.p != other.p:
            raise DimensionMismatch(
                f"subspaces of GF({self.p})^{self.ambient} and GF({other.p})^{other.ambient}"
            )

    def reduce_vector(self, v) -> np.ndarray:
        """Remainder of v after eliminating the basis rows; 0 iff v is a member."""
        return self.reduce_rows(np.reshape(v, (1, -1)))[0]

    def contains_vector(self, v) -> bool:
        return not self.reduce_vector(v).any()

    def coords_rows(self, mat, error: Exception = None) -> np.ndarray:
        """Coordinates of each row of a stack in the canonical basis: the entries on the pivots.

        If some row is not a member, raises a copy of ``error``, by default
        ValueError("vector is not in the subspace").
        """
        mat = normalize(mat, self.p)
        if self.reduce_rows(mat).any():
            error = error or ValueError("vector is not in the subspace")
            raise type(error)(*error.args)
        return mat[:, list(self.pivots)]

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not self.reduce_rows(other.basis).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.p})"

    def extend(self, rows) -> "Subspace":
        """The span of this subspace and the rows (one row, or a stack of them).

        Rows go 2 * ambient at a time, as rref costs rows x rank x ambient, and only their
        residuals are eliminated: they are zero on the old pivots, so one back-substitution
        clears the old rows there, and sorting by pivot gives the RREF.
        """
        rows, span, step = np.atleast_2d(rows), self, max(2 * self.ambient, 1)
        for start in range(0, len(rows), step):
            res = span.reduce_rows(rows[start : start + step])
            new, rank, new_pivots = rref(res[res.any(axis=1)], self.p)
            if rank:
                old = (span.basis - matmul(span.basis[:, new_pivots], new[:rank], self.p)) % self.p
                pivots = list(span.pivots) + new_pivots
                order = np.argsort(pivots)
                span = Subspace(self.p, self.ambient, np.vstack([old, new[:rank]])[order], sorted(pivots))
        return span

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.extend(other.basis)

    def quotient(self):
        """The ambient space modulo this subspace: (reps, coords_rows).

        The classes of reps, the unit vectors off the pivots, are the basis,
        and ``coords_rows`` maps a stack of vectors to their classes'
        coordinates, the residuals on those columns.
        """
        free = complement(self.ambient, self.pivots)
        return np.eye(self.ambient, dtype=INT)[free], lambda rows: self.reduce_rows(rows)[:, free]


class OrderedBasis:
    """Independent rows in a fixed order, optionally modulo a canonical Subspace.

    The rows are reduced modulo ``modulo`` and their span S is kept in
    canonical form.  A member's coordinates in the rows are its canonical
    coordinates in S times the inverse of the rows on S's pivots, which is
    built once.  Raises Hh1LieError on dependent rows, and a copy of
    ``error`` on a row outside S + ``modulo`` (see Subspace.coords_rows).
    """

    def __init__(self, rows, p: int, modulo: Subspace = None, error: Exception = None):
        self.modulo = modulo or Subspace.zero(np.shape(rows)[1], p)
        rows = self.modulo.reduce_rows(rows)
        self.span, self.error = Subspace.from_vectors(rows, p, rows.shape[1]), error
        if self.span.dim != rows.shape[0]:
            raise Hh1LieError("basis rows are linearly dependent")
        self._solver = inverse(rows[:, list(self.span.pivots)], p)

    def coords_rows(self, mat) -> np.ndarray:
        """Coordinates of each row of a stack in the basis rows, modulo ``modulo``."""
        residual = self.modulo.reduce_rows(mat)
        return matmul(self.span.coords_rows(residual, self.error), self._solver, self.span.p)

