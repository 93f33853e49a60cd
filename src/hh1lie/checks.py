"""Registered verification suite behind the ``reproduce`` CLI command.

Each check certifies one structural identity of the algebras built by
this package (multiplication rules of the smash product, inner and outer
derivation formulas, the bracket and p-map tables on first cohomology,
trigonalizability and toral rank, block decompositions, the trivial
extension of the Kronecker algebra).  Check ids are stable tokens used in
reports; a failing check carries a counterexample payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import algebras as alg
from . import gfp
from . import hochschild as hoch
from . import lie as lielib
from .errors import Hh1LieError
from .gfp import INT, Subspace


class CheckFailure(Exception):
    def __init__(self, payload):
        self.payload = payload
        super().__init__(str(payload))


@dataclass
class CheckResult:
    check_id: str
    status: str  # pass | fail | skipped
    details: dict
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class SuiteContext:
    p: int
    seed: int = 0
    inject_fault: str | None = None
    _cache: dict = field(default_factory=dict)

    def _once(self, key, build):
        """build(), made once per suite under key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def smash(self, n, r):
        return self._once(("smash", self.p, n, r), lambda: alg.smash_product(self.p, n, r))

    def faulty_smash(self, n, r):
        """Smash table with the zero product u_0 x * u_0 given a stray u_0 term (negative control)."""
        a, desc = alg.smash_product(self.p, n, r)
        stray = (desc.index(0, 1), desc.index(0, 0), desc.index(0, 0), 1)
        bad = alg.Algebra(
            a.p,
            a.labels,
            [np.r_[x, t] for x, t in zip(a.structure_constants(), stray)],
            a.unit,
            radical_gens=a.radical_gens,
            name=a.name + "+fault",
            descriptor=desc,
            generators=a.generators,
            idempotents=a.idempotents,
            validate=False,
        )
        return bad, desc

    def trunc(self, exps):
        return self._once(("trunc", self.p, tuple(exps)), lambda: alg.truncated_polynomial(self.p, exps))

    def hh1_of(self, key, builder):
        return self._once(("hh1", key), lambda: hoch.hh1(builder(), seed=self.seed))

    def lie(self, h):
        """from_hh1(h), built and validated once per presentation, so its tori are certified once."""
        return self._once(("lie", id(h)), lambda: (h, lielib.from_hh1(h)))[1]  # h is kept: ids stay unique

    def smash_hh1(self, n, r):
        return self.hh1_of((self.p, "smash", n, r), lambda: self.smash(n, r)[0])

    def weight_derivations(self, n, r) -> dict:
        """g_(lambda, j) of smash(n, r) by (lambda, j), each built and validated once.

        The lambda = 0 ones are the complement representatives of its HH1.
        """
        a, desc = self.smash(n, r)
        exps = desc.outer_exponents()
        zero = {(0, j): g0 for j, g0 in zip(exps, self.smash_hh1(n, r).complement_basis)}
        pairs = [(lam, j) for lam in range(1, desc.n_chars) for j in exps]
        return self._once(
            ("g", self.p, n, r), lambda: zero | dict(zip(pairs, hoch.named_outers(desc, pairs, a)))
        )

    def kronecker(self):
        return self._once(("kr", self.p), lambda: alg.quiver_algebra(alg.kronecker_quiver(), self.p))

    def tkr(self):
        return self._once(("tkr", self.p), lambda: alg.trivial_extension(self.kronecker()))

    def tkr_hh1(self):
        return self.hh1_of((self.p, "tkr"), self.tkr)

    def u0borel_blocks(self):
        """u0borel(p, 1) and its block decomposition."""
        def build():
            ub = alg.u0_borel(self.p, 1)
            return ub, alg.block_decomposition(ub)

        return self._once(("u0borel-blocks", self.p), build)

    def u0borel_block_hh1(self):
        return self.hh1_of((self.p, "u0borel-block"), lambda: self.u0borel_blocks()[1][0][1])

    def prop22_witness(self):
        """The Proposition 2.2 witness for one variable of exponent 2."""
        return self._once(("prop22", self.p), lambda: lielib.prop22_witness(self.p, (2,)))


# -- individual checks ------------------------------------------------------------


def check_lemma_2_1(ctx: SuiteContext) -> dict:
    """Commutators land in J^2 and a symmetric form exists, on local algebras."""
    detail = {}
    dual = alg.trivial_extension(alg.split_semisimple(ctx.p, 1))
    for a in [ctx.trunc((1,)), ctx.trunc((2,)), ctx.trunc((1, 1)), dual]:
        checks = alg.commutator_and_radical_checks(a)
        form = alg.symmetric_form_search(a, trials=64, seed=ctx.seed)
        detail[a.name] = {"lemma21_holds": checks["lemma21_holds"], "form_found": form is not None}
        if not checks["lemma21_holds"] or form is None:
            raise CheckFailure({"case": a.name, **detail[a.name]})
    return detail


def check_prop_2_2(ctx: SuiteContext) -> dict:
    """p-nilpotent ideal with Jacobson-Witt quotient for one truncated variable."""
    p = ctx.p
    wit = ctx.prop22_witness()
    detail = {
        "dim_hh1": wit.lie.dim,
        "dim_ideal": wit.n_ideal.dim,
        "quotient_dim": wit.quotient.dim,
    }
    if wit.lie.dim != p * p or wit.n_ideal.dim != p * p - p:
        raise CheckFailure(detail)
    torus_n = _torus_of_ideal(wit)
    detail["mu_ideal"] = torus_n
    if torus_n != 0:
        raise CheckFailure(detail)
    mu_l = lielib.greedy_maximal_torus(wit.lie, seed=ctx.seed)
    detail["mu_L"] = mu_l.dim
    detail["mu_L_status"] = mu_l.maximality_status
    if mu_l.dim != 1:
        raise CheckFailure(detail)
    return detail


def _torus_of_ideal(wit) -> int:
    """Maximal toral rank inside the witness ideal.

    p-nilpotency already forces 0 (a toral element is never p-nilpotent);
    enumeration corroborates when feasible.
    """
    L, ideal = wit.lie, wit.n_ideal
    sub = lielib.structure_on(L, ideal.basis, ideal.coords_rows)
    if L.p**sub.dim <= lielib.ENUM_LIMIT_SLOW:
        torals = lielib._pmap_census(sub)[0]
        if len(torals):
            return len(lielib._max_commuting_torus(sub, torals))
    return 0 if lielib._p_nilpotent_rows(L, ideal.basis).all() else -1


def check_prop_2_3(ctx: SuiteContext) -> dict:
    """Simplicity of Der(B_n) for truncated exponents 1, non-simplicity beyond."""
    p = ctx.p
    detail = {}
    ns = (1, 2) if p == 3 else (1,)
    for n in ns:
        w = lielib.witt(p, n)
        simple = lielib.is_simple(w, seed=ctx.seed)
        detail[f"witt({p},{n})"] = {"dim": w.dim, "simple": simple}
        if w.dim != n * p**n or not simple:
            raise CheckFailure(detail)
    wit = ctx.prop22_witness()
    simple = lielib.is_simple(wit.lie, seed=ctx.seed)
    witness = lielib.adjoint_invariant_subspace(wit.lie, seed=ctx.seed)
    detail["mixed(2,)"] = {
        "simple": simple,
        "witness_ideal_dim": None if witness is None else witness.dim,
    }
    if simple or witness is None or not 0 < witness.dim < wit.lie.dim:
        raise CheckFailure(detail)
    return detail


def _lemma_3_1_products(a: alg.Algebra, desc: alg.SmashDescriptor):
    """u_lambda x, (u_lambda x) u_mu and x u_mu for every lambda and mu, summed from table terms.

    u_lambda x is column u_lambda of R_x, and the products by every u_mu
    are one scatter over the terms of the R_(u_mu), the table terms
    e_i u_mu = ... + c e_k: (nc, d), then (nc, nc, d) indexed [lambda, mu],
    then (nc, d).
    """
    d, p, nc = a.dim, a.p, desc.n_chars
    char = np.full(d, -1)  # lambda of each u_lambda, -1 off them
    char[[desc.index(lam, 0) for lam in range(nc)]] = np.arange(nc)
    xvec = desc.x_vector()
    x, y, c = a.right_terms(xvec)  # e_x x = ... + c e_y
    on = char[x] >= 0
    src = np.zeros((d, nc + 1), dtype=INT)  # columns: u_lambda x, then x
    np.add.at(src, (y[on], char[x[on]]), c[on])
    src[:, :nc] = gfp.mod(src[:, :nc], p)
    src[:, nc] = xvec
    i, j, k, c = a.structure_constants()
    on = char[j] >= 0
    plan = gfp.scatter_plan(char[j[on]] * d + k[on], c[on], i[on])
    out = gfp.scatter_new((nc * d, nc + 1), plan, src, p=p).reshape(nc, d, nc + 1)  # [mu, k, column of src]
    return src[:, :nc].T, out[:, :, :nc].transpose(2, 0, 1), out[:, :, nc]


def check_lemma_3_1(ctx: SuiteContext) -> dict:
    """u_lambda x u_mu = [lambda == mu+alpha] x u_mu and u_lambda x = x u_(lambda-alpha).

    Every pair is checked at once, and the first failure in the order of
    the loop over lambda, each mu and then the shift, is reported.
    """
    p = ctx.p
    detail = {}
    for n in (1, 2):
        for r in (1, 2):
            if ctx.inject_fault == "lemma-3.1" and (n, r) == (1, 1):
                a, desc = ctx.faulty_smash(n, r)
            else:
                a, desc = ctx.smash(n, r)
            nc, params = desc.n_chars, {"p": p, "n": n, "r": r}
            ulx, got, xu = _lemma_3_1_products(a, desc)
            lam = np.arange(nc)
            hit = (lam[:, None] - lam - desc.alpha) % nc == 0  # [lambda, mu]: want x u_mu there, else 0
            bad = np.where(hit, (got != xu).any(axis=2), got.any(axis=2))
            flags = np.c_[bad, (ulx != xu[(lam - desc.alpha) % nc]).any(axis=1)]  # then the shift
            if flags.any():
                lam0, mu0 = divmod(int(np.argmax(flags)), nc + 1)
                if mu0 == nc:
                    raise CheckFailure({"params": params, "lambda": lam0})
                got0, want0 = got[lam0, mu0].tolist(), (xu[mu0] * hit[lam0, mu0]).tolist()
                raise CheckFailure({"params": params, "lambda": lam0, "mu": mu0, "got": got0, "want": want0})
            detail[f"(p={p},n={n},r={r})"] = "all pairs"
    return detail


def check_lemma_3_2(ctx: SuiteContext) -> dict:
    """ad(u_lambda x^j) formulas, exhaustively over the index ranges."""
    p = ctx.p
    detail = {}
    for n in (1, 2):
        for r in (1, 2):
            if p ** (n + r) > 256:
                detail[f"(p={p},n={n},r={r})"] = "skipped (dimension)"
                continue
            a, desc = ctx.smash(n, r)
            nc, xb, dim = desc.n_chars, desc.x_bound, a.dim
            mu, step = np.arange(nc), max(1, hoch.STREAM_CELLS // dim**2)
            probes = np.c_[np.eye(dim, dtype=INT)[:, mu * xb], desc.x_vector()]  # u_0, ..., then x
            for s in range(0, dim, step):
                # ad(u_lam x^j) on every u_mu and on x, for the elements i = index(lam, j) of a chunk
                i = np.arange(s, min(dim, s + step))
                (lam, j), t = np.divmod(i, xb), np.arange(i.size)
                got = gfp.matmul(a.ad_matrices(np.eye(i.size, dim, s, dtype=INT)), probes, p)
                # d(u_mu) = (delta_{mu+j*alpha,lam} - delta_{mu,lam}) u_lam x^j
                want = np.zeros_like(got)
                hit = (mu + j[:, None] * desc.alpha - lam[:, None]) % nc == 0
                want[t[:, None], i[:, None], mu] = hit.astype(INT) - (mu == lam[:, None])
                # d(x) = (u_lam - u_(lam+alpha)) x^(j+1), zero iff j = p^n - 1
                up = j + 1 < xb
                want[t[up], i[up] + 1, nc] = 1
                want[t[up], (lam[up] + desc.alpha) % nc * xb + j[up] + 1, nc] = p - 1
                want = gfp.mod(want, p)
                bad, on_u = (got != want).any(axis=1), got.any(axis=1)
                # each element's failures in the order they are checked: per mu, then on x
                per_mu = np.stack([bad[:, :nc], (j % p**r == 0)[:, None] & on_u[:, :nc]], axis=2)
                flags = np.c_[per_mu.reshape(i.size, 2 * nc), bad[:, nc], on_u[:, nc] == (j == xb - 1)]
                if flags.any():
                    t0, slot = divmod(int(np.argmax(flags)), 2 * nc + 2)
                    lam0, j0 = int(lam[t0]), int(j[t0])
                    if slot < 2 * nc and slot % 2 == 0:
                        raise CheckFailure({"params": (p, n, r), "lambda": lam0, "j": j0, "mu": slot // 2})
                    if slot <= 2 * nc:
                        case = "p^r | j" if slot < 2 * nc else "d(x)"
                        raise CheckFailure({"params": (p, n, r), "case": case, "lambda": lam0, "j": j0})
                    raise CheckFailure({"params": (p, n, r), "case": "d(x)=0 iff j=p^n-1", "j": j0})
            detail[f"(p={p},n={n},r={r})"] = "all indices"
    return detail


def _criterion3_params(p):
    return [(1, 1), (2, 1), (1, 2)] if p == 3 else [(1, 1), (2, 1)]


def check_lemma_3_3(ctx: SuiteContext) -> dict:
    """Every derivation is inner plus a combination of the weight derivations.

    Read relative to E = {u_lambda}: Der = Der_E + IDer with Der_E cap IDer =
    ad(C), and the weight derivations lie in Der_E, so IDer and them span Der
    iff ad(C) and them span Der_E, and the span has dimension dim IDer plus
    their rank modulo ad(C).
    """
    p = ctx.p
    detail = {}
    for n, r in _criterion3_params(p):
        h = ctx.smash_hh1(n, r)
        g_mats = np.stack([g.matrix for g in ctx.weight_derivations(n, r).values()])
        # g is injective on Der_E, so ranks in generator coordinates are the ranks of the maps
        resid = h.space.inner()[2].reduce_rows(h.space.gen_coords(g_mats))
        _, extra, _ = gfp.rref(resid, p)
        span_dim = h.dim_ider + extra
        detail[f"(p={p},n={n},r={r})"] = {"span_dim": span_dim, "dim_der": h.dim_der}
        if span_dim != h.dim_der:
            raise CheckFailure(detail)
    return detail


def check_lemma_3_4(ctx: SuiteContext) -> dict:
    """The weight derivations are well-defined derivations with the stated values."""
    p = ctx.p
    detail = {}
    for n, r in _criterion3_params(p):
        a, desc = ctx.smash(n, r)
        xvec = desc.x_vector()
        count = 0
        # each g is a validated derivation: lambda = 0 in the solved space, the rest by named_outers
        for (lam, j), g in ctx.weight_derivations(n, r).items():
            for mu in range(desc.n_chars):
                if g(gfp.basis_vector(a.dim, desc.index(mu, 0))).any():
                    raise CheckFailure({"params": (p, n, r), "case": "g(u)", "lambda": lam})
            want = gfp.basis_vector(a.dim, desc.index(lam, j * p**r + 1))
            if not np.array_equal(g(xvec), want):
                raise CheckFailure({"params": (p, n, r), "case": "g(x)", "lambda": lam, "j": j})
            count += 1
        detail[f"(p={p},n={n},r={r})"] = {"validated": count}
    return detail


def check_lemma_3_5(ctx: SuiteContext) -> dict:
    """H = {g_(0,j)} is a complement of IDer in Der, with the expected size.

    Read off the generator-coordinate spaces of the presentation, Der_E and
    ad(C) = Der_E cap IDer: H lies in Der_E, and Der = Der_E + IDer, so H
    complements IDer in Der iff it complements ad(C) in Der_E.  Also
    confirms that g_(0,j) - g_(i alpha,j), which lies in Der_E, is inner,
    that is, lies in ad(C), for every i.
    """
    p = ctx.p
    detail = {}
    for n, r in _criterion3_params(p):
        desc = ctx.smash(n, r)[1]
        h, g = ctx.smash_hh1(n, r), ctx.weight_derivations(n, r)
        space, inner = h.space, h.space.inner()[2]
        h_mats = np.stack([f.matrix for f in h.complement_basis])
        h_rows = space.gen_coords(h_mats)
        h_rank = gfp.rref(inner.reduce_rows(h_rows), p)[1]
        diffs = [
            gfp.mod(g0.matrix - g[i, j].matrix, p)
            for j, g0 in zip(desc.outer_exponents(), h.complement_basis)
            for i in range(1, desc.n_chars)
        ]
        report = {"p": p, "n": n, "r": r, "h_size": h.dim, "dim_der": h.dim_der, "dim_ider": h.dim_ider}
        report["independent"] = gfp.rref(h_rows, p)[1] == h.dim
        report["trivial_intersection"] = h_rank == h.dim
        report["spans"] = space.contains(h_mats) and h.dim_ider + h.dim == h.dim_der and h_rank == h.dim
        report["shifted_differences_inner"] = space.contains(np.stack(diffs), inner)
        flags = ("independent", "trivial_intersection", "spans", "shifted_differences_inner")
        report["ok"] = all(report[k] for k in flags)
        expected_h = p ** (n - r) if n >= r else 1
        detail[f"(p={p},n={n},r={r})"] = report
        if not report["ok"] or report["h_size"] != expected_h:
            raise CheckFailure(report)
        if report["dim_der"] != report["dim_ider"] + report["h_size"]:
            raise CheckFailure(report)
    return detail


def check_lemma_3_6(ctx: SuiteContext) -> dict:
    """[g_(0,i), g_(0,j)] = (j - i) g_(0,i+j), zero past the index range."""
    p = ctx.p
    detail = {}
    for n, r in _criterion3_params(p):
        h = ctx.smash_hh1(n, r)
        hdim = h.dim
        for i in range(hdim):
            for j in range(hdim):
                want = np.zeros(hdim, dtype=INT)
                if i + j < hdim:
                    want[i + j] = (j - i) % p
                if not np.array_equal(h.bracket_table[i, j], want):
                    raise CheckFailure(
                        {
                            "params": (p, n, r),
                            "i": i,
                            "j": j,
                            "got": h.bracket_table[i, j].tolist(),
                            "want": want.tolist(),
                        }
                    )
        detail[f"(p={p},n={n},r={r})"] = f"table {hdim}x{hdim}"
    return detail


def check_lemma_3_7(ctx: SuiteContext) -> dict:
    """g_(0,0)^[p] = g_(0,0) and g_(0,j)^[p] = 0 for j != 0."""
    p = ctx.p
    detail = {}
    for n, r in _criterion3_params(p):
        h = ctx.smash_hh1(n, r)
        want = np.zeros((h.dim, h.dim), dtype=INT)
        if h.dim:
            want[0, 0] = 1
        if not np.array_equal(h.pmap_table, want):
            raise CheckFailure(
                {"params": (p, n, r), "got": h.pmap_table.tolist(), "want": want.tolist()}
            )
        detail[f"(p={p},n={n},r={r})"] = "p-map table"
    return detail


def check_thm_3_8(ctx: SuiteContext) -> dict:
    """L(A(n,r)) is trigonalizable with a one-dimensional certified torus at g_(0,0)."""
    p = ctx.p
    detail = {}
    for n, r in _criterion3_params(p):
        L = ctx.lie(ctx.smash_hh1(n, r))
        trig = lielib.is_trigonalizable(L)
        torus = lielib.greedy_maximal_torus(L, seed=ctx.seed)
        g0 = np.zeros(L.dim, dtype=INT)
        g0[0] = 1
        torus_is_g0 = torus.dim == 1 and Subspace.from_vectors(
            [torus.basis[0]], p, L.dim
        ) == Subspace.from_vectors([g0], p, L.dim)
        detail[f"(p={p},n={n},r={r})"] = {
            "trigonalizable": trig,
            "mu": torus.dim,
            "status": torus.maximality_status,
            "torus_is_g00_class": torus_is_g0,
        }
        if not trig or torus.dim != 1 or torus.maximality_status != "exhaustively-certified":
            raise CheckFailure(detail)
        if not torus_is_g0:
            raise CheckFailure(detail)
    return detail


def check_lemma_3_9(ctx: SuiteContext) -> dict:
    """The quotient by the witness ideal is the one-variable Jacobson-Witt algebra."""
    p = ctx.p
    wit = ctx.prop22_witness()
    fq = lielib.fingerprint(wit.quotient, seed=ctx.seed)
    fw = lielib.fingerprint(lielib.witt(p, 1), seed=ctx.seed)
    detail = {"quotient": fq.to_json_dict(), "witt": fw.to_json_dict()}
    if fq != fw:
        raise CheckFailure(detail)
    return detail


def check_cor_3_10(ctx: SuiteContext) -> dict:
    """Solvability of the cohomology matches non-nilpotency of the input."""
    _, blocks = ctx.u0borel_blocks()
    detail = {"u0borel_blocks": len(blocks)}
    if len(blocks) != 1:
        raise CheckFailure(detail)
    lb = ctx.lie(ctx.u0borel_block_hh1())
    preds = lielib.series_and_predicates(lb)
    torus = lielib.greedy_maximal_torus(lb, seed=ctx.seed)
    detail["borel_case"] = {"solvable": preds["is_solvable"], "mu": torus.dim}
    if not preds["is_solvable"] or torus.dim != 1:
        raise CheckFailure(detail)
    wit = ctx.prop22_witness()
    predsn = lielib.series_and_predicates(wit.lie)
    torus_n = lielib.greedy_maximal_torus(wit.lie, seed=ctx.seed)
    detail["nilpotent_case"] = {
        "solvable": predsn["is_solvable"],
        "mu": torus_n.dim,
        "status": torus_n.maximality_status,
    }
    if predsn["is_solvable"] or torus_n.dim != 1:
        raise CheckFailure(detail)
    return detail


def check_blocks(ctx: SuiteContext) -> dict:
    """Block decompositions: idempotent laws, block counts, block cohomology."""
    p = ctx.p
    detail = {}
    ss = alg.split_semisimple(p, 3)
    blocks = alg.block_decomposition(ss)
    detail["split_semisimple"] = {"blocks": len(blocks), "dims": [b.dim for _, b in blocks]}
    if len(blocks) != 3 or any(b.dim != 1 for _, b in blocks):
        raise CheckFailure(detail)
    ub, ub_blocks = ctx.u0borel_blocks()
    detail["u0borel"] = {"blocks": len(ub_blocks)}
    if len(ub_blocks) != 1:
        raise CheckFailure(detail)
    for a, blks in ((ss, blocks), (ub, ub_blocks)):
        z = alg.center(a)
        total = np.zeros(a.dim, dtype=INT)
        for i, (e, _) in enumerate(blks):
            if not z.contains_vector(e):
                raise CheckFailure({"case": a.name, "issue": "idempotent not central"})
            if not np.array_equal(a.mul_vec(e, e), e):
                raise CheckFailure({"case": a.name, "issue": "not idempotent"})
            for j2, (e2, _) in enumerate(blks):
                if i != j2 and a.mul_vec(e, e2).any():
                    raise CheckFailure({"case": a.name, "issue": "not orthogonal"})
            total = gfp.mod(total + e, p)
        if not np.array_equal(total, a.unit):
            raise CheckFailure({"case": a.name, "issue": "idempotents do not sum to 1"})
    lb, ls = ctx.lie(ctx.u0borel_block_hh1()), ctx.lie(ctx.smash_hh1(1, 1))
    same = lielib.fingerprint(lb, seed=ctx.seed) == lielib.fingerprint(ls, seed=ctx.seed)
    detail["u0borel_block_matches_smash"] = same
    if not same:
        raise CheckFailure(detail)
    return detail


def check_lemma_4_1(ctx: SuiteContext) -> dict:
    """Cohomology of the Kronecker trivial extension: gl2, torus of rank 2."""
    p = ctx.p
    te = ctx.tkr()
    h = ctx.tkr_hh1()
    L = ctx.lie(h)
    detail = {"dim_hh1": L.dim}
    if L.dim != 4:
        raise CheckFailure(detail)
    preds = lielib.series_and_predicates(L)
    detail["center_dim"] = preds["center"].dim
    derived = preds["derived_series"][1]
    detail["derived_dim"] = derived.dim
    if preds["center"].dim != 1 or derived.dim != 3:
        raise CheckFailure(detail)
    dsub = lielib.structure_on(L, derived.basis, derived.coords_rows)
    detail["derived_simple"] = lielib.is_simple(dsub, seed=ctx.seed)
    if not detail["derived_simple"]:
        raise CheckFailure(detail)
    torus = lielib.greedy_maximal_torus(L, seed=ctx.seed)
    detail["mu"] = torus.dim
    detail["status"] = torus.maximality_status
    if torus.dim != 2 or torus.maximality_status != "exhaustively-certified":
        raise CheckFailure(detail)
    # the projection onto the dual half is an outer derivation with d^[p] = d
    d = te.dim // 2
    proj = np.zeros((te.dim, te.dim), dtype=INT)
    for i in range(d, te.dim):
        proj[i, i] = 1
    dproj = hoch.Derivation(te, proj, validate=True)
    cls = h.project_rows(dproj.matrix[None])[0]
    detail["projection_class_nonzero"] = bool(cls.any())
    pcls = lielib.jacobson_p_power(L, cls)
    detail["projection_toral"] = bool(np.array_equal(pcls, cls))
    if not cls.any() or not np.array_equal(pcls, cls):
        raise CheckFailure(detail)
    kr = ctx.kronecker()
    lk = lielib.from_hh1(hoch.hh1(kr, seed=ctx.seed))
    detail["kr_dim_hh1"] = lk.dim
    same = lielib.fingerprint(lk, seed=ctx.seed) == lielib.fingerprint(
        lielib.sl2(p), seed=ctx.seed
    )
    detail["kr_matches_sl2"] = same
    if lk.dim != 3 or not same:
        raise CheckFailure(detail)
    gl = lielib.gl2(p)
    detail["tkr_matches_gl2"] = lielib.fingerprint(L, seed=ctx.seed) == lielib.fingerprint(
        gl, seed=ctx.seed
    )
    if not detail["tkr_matches_gl2"]:
        raise CheckFailure(detail)
    return detail


def check_thm_4_2_mu(ctx: SuiteContext) -> dict:
    """Stored complexity constants equal the computed maximal toral ranks."""
    p = ctx.p
    expected = []
    for n, r in _criterion3_params(p):
        L = ctx.lie(ctx.smash_hh1(n, r))
        expected.append((f"smash(p={p},n={n},r={r})", 1, lielib.greedy_maximal_torus(L, seed=ctx.seed).dim))
    wit = ctx.prop22_witness()
    expected.append(
        (f"trunc(p={p},exps=2)", 1, lielib.greedy_maximal_torus(wit.lie, seed=ctx.seed).dim)
    )
    Lt = ctx.lie(ctx.tkr_hh1())
    expected.append(("tkr", 2, lielib.greedy_maximal_torus(Lt, seed=ctx.seed).dim))
    detail = {name: {"expected_cx": cx, "computed_mu": mu} for name, cx, mu in expected}
    bad = [name for name, cx, mu in expected if cx != mu]
    if bad:
        raise CheckFailure({"mismatches": bad, **detail})
    return detail


def check_properties(ctx: SuiteContext) -> dict:
    """Seeded property suites, 100 trials each, on all of Der = Der_E + IDer."""
    p = ctx.p
    rng = np.random.default_rng(ctx.seed)
    h = ctx.smash_hh1(2, 1)
    sm, space = h.algebra, h.space
    trials = 100
    d = sm.dim
    # Der = Der_E + ad(a) over the a off C, a direct sum of dim_der: each
    # draw F = phi(c basis) + ad(a) is one uniform derivation
    off = gfp.complement(d, space.centralizer)

    def drawn(c):
        a = np.zeros((c.shape[0], d), dtype=INT)
        a[:, off] = c[:, space.dim :]
        return gfp.mod(space.matrices(gfp.matmul(c[:, : space.dim], space.basis, p)) + sm.ad_matrices(a), p)

    # closure under bracket and p-th power, and [f, ad a] = ad f(a); coefficients
    # are drawn up front, maps built and validated 8 trials at a time to bound
    # memory, by the one Leibniz checker
    c1 = rng.integers(0, p, size=(trials, h.dim_der))
    c2 = rng.integers(0, p, size=(trials, h.dim_der))
    for s in range(0, trials, 8):
        fs, gs = drawn(c1[s : s + 8]), drawn(c2[s : s + 8])
        brs = gfp.mod(gfp.matmul(fs, gs, p) - gfp.matmul(gs, fs, p), p)
        failure = hoch._leibniz_failure(sm, np.vstack([brs, gfp.mat_pow(fs, p, p)]))
        if failure:
            prop = "closure (unit value)" if "f(1)" in failure else "closure under bracket / p-power"
            raise CheckFailure({"property": prop})
        avecs = np.stack([rng.integers(0, p, size=d) for _ in fs])  # one draw per map, in turn
        ada = sm.ad_matrices(avecs)
        lhs = gfp.mod(gfp.matmul(fs, ada, p) - gfp.matmul(ada, fs, p), p)
        if not np.array_equal(lhs, sm.ad_matrices(gfp.matmul(fs, avecs[:, :, None], p))):
            raise CheckFailure({"property": "[f, ad a] = ad f(a)"})
    # representative independence of the tables, drawing from the same generator
    try:
        h._verify_representative_independence(rng, trials)
    except Hh1LieError:
        raise CheckFailure({"property": "representative independence"})
    # Jacobson p-map vs composition oracle on the cohomology of the smash, 8 trials at a time
    L = ctx.lie(h)
    comp_mats = np.stack([f.matrix.reshape(-1) for f in h.complement_basis])
    xs = np.array([rng.integers(0, p, size=L.dim) for _ in range(trials)], dtype=INT)
    for s in range(0, trials, 8):
        x = xs[s : s + 8]
        via_comp = h.project_rows(gfp.mat_pow(gfp.matmul(x, comp_mats, p).reshape(-1, d, d), p, p))
        bad = (via_comp != lielib._jacobson_batch(L, x)).any(axis=1)
        if bad.any():
            raise CheckFailure({"property": "jacobson vs composition", "x": x[np.argmax(bad)].tolist()})
    # structural identities hold on every constructed Lie algebra: validation
    # runs in the RestrictedLie constructor; re-run explicitly here
    for Lx in (L, lielib.witt(p, 1), lielib.sl2(p), lielib.gl2(p)):
        Lx.validate()
    return {"trials": trials, "suites": 5}


CHECKS = [
    ("lemma-2.1", check_lemma_2_1),
    ("prop-2.2", check_prop_2_2),
    ("prop-2.3", check_prop_2_3),
    ("lemma-3.1", check_lemma_3_1),
    ("lemma-3.2", check_lemma_3_2),
    ("lemma-3.3", check_lemma_3_3),
    ("lemma-3.4", check_lemma_3_4),
    ("lemma-3.5", check_lemma_3_5),
    ("lemma-3.6", check_lemma_3_6),
    ("lemma-3.7", check_lemma_3_7),
    ("thm-3.8", check_thm_3_8),
    ("lemma-3.9", check_lemma_3_9),
    ("cor-3.10", check_cor_3_10),
    ("cor-3.10-blocks", check_blocks),
    ("lemma-4.1", check_lemma_4_1),
    ("thm-4.2-mu", check_thm_4_2_mu),
    ("properties-seeded", check_properties),
]


def run_suite(p: int = 3, seed: int = 0, inject_fault: str | None = None) -> list[CheckResult]:
    ctx = SuiteContext(p=p, seed=seed, inject_fault=inject_fault)
    results = []
    for check_id, fn in CHECKS:
        start = time.monotonic()
        try:
            details = fn(ctx)
            status = "pass"
        except CheckFailure as exc:
            details = {"counterexample": exc.payload}
            status = "fail"
        except Exception as exc:  # unexpected: report, never crash the suite
            details = {"error": f"{type(exc).__name__}: {exc}"}
            status = "fail"
        elapsed = int((time.monotonic() - start) * 1000)
        results.append(CheckResult(check_id, status, details, elapsed))
    return results


def render_markdown(results: list[CheckResult]) -> str:
    lines = ["| check | status | ms |", "|---|---|---|"]
    for r in results:
        lines.append(f"| {r.check_id} | {r.status} | {r.elapsed_ms} |")
    return "\n".join(lines) + "\n"
