"""HH1 in generator coordinates against the d^2 pipeline it replaced.

The oracle below is a copy of the earlier d^2 form of ``hh1``: Der as the
RREF of the solved maps in vec(F) coordinates, IDer as the RREF of the ad
e_i, the pivot complement read off both, and the tables projected on
d^2-column subspaces.  Only the kernel of the Leibniz system is shared.
"""

import numpy as np
import pytest

from hh1lie import algebras as alg
from hh1lie import gfp
from hh1lie import hochschild as hoch
from hh1lie.algebras import Presentation
from hh1lie.gfp import INT, Subspace


def d2_derivations(a):
    """Canonical RREF basis of Der(A) in vec(F) coordinates, as rows."""
    d, p = a.dim, a.p
    if a.presentation is not None:
        pres, rmats = a.presentation, a.presentation_right_mats()
    else:
        eye = np.eye(d, dtype=INT)
        pres = Presentation(tuple(eye), (), tuple((k, k) for k in range(d)), ())
        rmats = [a.right_mult_matrix(e) for e in eye]
    space = hoch.DerivationSpace(a, pres, rmats)
    ker, (fe, unk, val) = space.der.basis, space._phi
    fvecs = np.zeros((d * d, ker.shape[0]), dtype=INT)
    gfp.scatter_add(fvecs, fe, val, np.ascontiguousarray(ker.T), unk)
    return gfp.row_space(fvecs.T % p, p)


def d2_hh1(a):
    """The d^2 presentation: dims, bases, complement, labels and tables."""
    p, d = a.p, a.dim
    der = Subspace.from_vectors(d2_derivations(a), p, d * d)
    ad = np.vstack([((a.basis_left_matrix(i) - a.basis_right_matrix(i)) % p).reshape(-1) for i in range(d)])
    ider = Subspace.from_vectors(ad, p, d * d)
    assert not der.reduce_rows(ider.basis).any()
    pivots = set(ider.pivots)
    pivot_comp = np.array([row for row, c in zip(der.basis, der.pivots) if c not in pivots], dtype=INT)
    pivot_comp = pivot_comp.reshape(-1, d * d)
    if a.descriptor is not None:
        exps = a.descriptor.outer_exponents()
        reps = np.vstack([hoch.named_outer(a.descriptor, 0, j, a).vec() for j in exps])
        labels = [f"g[0,{j}]" for j in exps]
    else:
        reps, labels = pivot_comp, [f"h{i}" for i in range(len(pivot_comp))]
    h = reps.shape[0]
    btab, ptab = np.zeros((h, h, h), dtype=INT), np.zeros((h, h), dtype=INT)
    if h:
        resid = ider.reduce_rows(reps)
        _, rank, piv = gfp.rref(resid, p)
        assert rank == h
        solver = gfp.inverse(resid[:, piv], p)
        stack = reps.reshape(h, d, d)
        comm = np.stack([(x @ y - y @ x) % p for x in stack for y in stack]).reshape(h * h, -1)
        powers = np.stack([gfp.mat_pow(x, p, p) for x in stack]).reshape(h, -1)
        rv = ider.reduce_rows(np.vstack([comm, powers]))
        coords = rv[:, piv] @ solver % p
        assert not ((rv - coords @ resid) % p).any()
        btab, ptab = coords[: h * h].reshape(h, h, h), coords[h * h :]
    return {
        "der": der.basis,
        "der_pivots": list(der.pivots),
        "ider": ider.basis,
        "pivot_comp": pivot_comp,
        "reps": reps,
        "labels": labels,
        "btab": btab,
        "ptab": ptab,
    }


CASES = {
    "smash-3-2-1": lambda: alg.smash_product(3, 2, 1)[0],
    "smash-5-2-1": lambda: alg.smash_product(5, 2, 1)[0],
    "u0borel-3-2": lambda: alg.u0_borel(3, 2),
    "trunc-3-2-1": lambda: alg.truncated_polynomial(3, (2, 1)),
    "trunc-5-2": lambda: alg.truncated_polynomial(5, (2,)),
    "trivext-5": lambda: alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), 5)),
    "quiver-7": lambda: alg.quiver_algebra(alg.tkr_quiver(), 7),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hh1_matches_the_d2_pipeline(case):
    a = CASES[case]()
    want = d2_hh1(a)
    h = hoch.hh1(a)
    space = h.space
    d2 = a.dim**2
    assert space.nv == (d2 if a.presentation is None else len(a.presentation.gen_vectors) * a.dim)
    assert (h.dim_der, h.dim_ider, h.dim) == (
        len(want["der"]),
        len(want["ider"]),
        len(want["reps"]),
    )
    assert space.pivots == want["der_pivots"]
    assert np.array_equal(np.vstack([f.vec() for f in h.der_basis]).reshape(-1, d2), want["der"])
    ider = np.array([f.vec() for f in h.ider_basis], dtype=INT).reshape(-1, d2)
    assert np.array_equal(ider, want["ider"])
    comp = [i for i in range(space.dim) if i not in set(space.inner()[1])]
    assert np.array_equal(space.matrices(space.basis[comp]).reshape(-1, d2), want["pivot_comp"])
    reps = np.array([f.vec() for f in h.complement_basis], dtype=INT).reshape(-1, d2)
    assert np.array_equal(reps, want["reps"])
    assert h.complement_labels == want["labels"]
    assert np.array_equal(h.bracket_table, want["btab"])
    assert np.array_equal(h.pmap_table, want["ptab"])
    # g is the identity on the generator-coordinate basis after phi
    assert np.array_equal(space.gen_coords(space.matrices(space.basis)), space.basis)


def test_derivation_space_is_the_d2_canonical_basis():
    for build in (CASES["smash-3-2-1"], CASES["trivext-5"]):
        a = build()
        got = np.array([f.vec() for f in hoch.derivation_space(a)], dtype=INT)
        assert np.array_equal(got, d2_derivations(a))


def test_streamed_pivots_do_not_depend_on_the_block_size(monkeypatch):
    a = alg.smash_product(3, 2, 1)[0]
    want = d2_derivations(a)
    for cells in (1, 27, 1 << 10):
        monkeypatch.setattr(hoch, "STREAM_CELLS", cells)
        space = hoch.DerivationSpace(a, a.presentation, a.presentation_right_mats())
        assert np.array_equal(space.matrices(space.basis).reshape(len(want), -1), want)
