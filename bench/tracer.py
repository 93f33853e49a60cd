"""Span tracing of the hh1lie layers, installed from outside the package.

``installed`` wraps the public functions of each module (``gfp``, ``algebras``,
``hochschild``, ``lie``, ``checks`` and the serializers the CLI calls) and
rebinds every module-level name that refers to a wrapped function, so a call
made through ``from .gfp import matmul`` in ``hochschild`` is recorded just
like one made through ``gfp.matmul``.  The package source is not modified.

A span is ``[name, start, end, parent, job, size, error]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``job`` the id of the
benchmark job, ``size`` an optional work count (cells, flops, algebra key,
...) and ``error`` is 1 when an exception first left this layer through the
span.  Spans are kept in memory and written out
once, when the traced process ends.  ``layer_metrics`` turns the spans of a
workload into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

CHECK_IDS = (
    "lemma-2.1",
    "prop-2.2",
    "prop-2.3",
    "lemma-3.1",
    "lemma-3.2",
    "lemma-3.3",
    "lemma-3.4",
    "lemma-3.5",
    "lemma-3.6",
    "lemma-3.7",
    "thm-3.8",
    "lemma-3.9",
    "cor-3.10",
    "cor-3.10-blocks",
    "lemma-4.1",
    "thm-4.2-mu",
    "properties-seeded",
)


# -- work counts attached to spans ------------------------------------------------


def _rref_cells(args, kwargs, result):
    return math.prod(np.shape(args[0]))


def _matmul_flops(args, kwargs, result):
    a, b = np.shape(args[0]), np.shape(args[1])
    m = math.prod(a[:-1])
    n = math.prod(b[1:])
    return 2 * m * a[-1] * n


def _validated_dim(args, kwargs, result):
    return args[0].dim


def _torus_enum_vectors(args, kwargs, result):
    if result is not None and result.maximality_status == "exhaustively-certified":
        return args[0].p ** args[0].dim
    return 0


def _hh1_algebra_key(args, kwargs, result):
    """Content digest of the algebra, so that rebuilt copies count as one."""
    a = args[0] if args else kwargs["a"]
    h = hashlib.sha1(f"{a.p}|{a.labels}|{a.unit.tolist()}".encode())
    h.update(repr(a.mult_triples()).encode())
    return h.hexdigest()


# -- the tracer -------------------------------------------------------------------


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        layer = name.split(".", 1)[0]
        spans, stack, job = self.spans, self._stack, self.job
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, job, None, 0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                seen = getattr(exc, "_bench_layers", ())
                if layer not in seen:
                    span[6] = 1
                    try:
                        exc._bench_layers = (*seen, layer)
                    except AttributeError:
                        pass
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if size is not None:
                    span[5] = size(args, kwargs, result)

        traced.__bench_original__ = fn
        return traced


def _hooks(pkg):
    """(span name, owner, attribute, size) for every traced entry point."""
    gfp, alg, hoch, lie, checks = pkg.gfp, pkg.algebras, pkg.hochschild, pkg.lie, pkg.checks
    hooks = [
        ("gfp.rref", gfp, "rref", _rref_cells),
        ("gfp.kernel", gfp, "kernel", None),
        ("gfp.kernel", gfp, "left_kernel", None),
        ("gfp.kernel", gfp, "row_space", None),
        ("gfp.matmul", gfp, "matmul", _matmul_flops),
        ("gfp.mat_pow", gfp, "mat_pow", None),
        ("algebras.validate", alg.Algebra, "validate", _validated_dim),
        ("hochschild.der", hoch, "derivation_space", None),
        ("hochschild.ider", hoch, "inner_derivations", None),
        ("hochschild.presentation", hoch.HH1Presentation, "__init__", None),
        ("hochschild.hh1", hoch, "hh1", _hh1_algebra_key),
        ("lie.validate", lie.RestrictedLie, "validate", None),
        ("lie.series", lie, "series_and_predicates", None),
        ("lie.simple", lie, "is_simple", None),
        ("lie.torus", lie, "greedy_maximal_torus", _torus_enum_vectors),
        ("lie.fingerprint", lie, "fingerprint", None),
        ("lie.jacobson", lie, "jacobson_p_power", None),
        ("lie.prop22", lie, "prop22_witness", None),
        ("cli.serialize", alg, "dumps_canonical", None),
        ("cli.serialize", hoch.HH1Presentation, "to_report_dict", None),
        ("cli.serialize", checks.CheckResult, "to_json_dict", None),
    ]
    for ctor in (
        "truncated_polynomial",
        "smash_product",
        "u0_borel",
        "split_semisimple",
        "quiver_algebra",
        "trivial_extension",
        "algebra_from_json_dict",
        "make_algebra",
    ):
        hooks.append(("algebras.build", alg, ctor, None))
    for cls in (alg.Algebra, lie.RestrictedLie, lie.TorusReport, lie.Fingerprint):
        hooks.append(("cli.serialize", cls, "to_json_dict", None))
    return hooks


@contextmanager
def installed(tracer: Tracer):
    """Wrap every hook for the duration of the block, then restore."""
    import hh1lie.checks
    import hh1lie.cli  # noqa: F401  (binds its names before they are patched)

    pkg = sys.modules["hh1lie"]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hh1lie"]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for name, owner, attr, size in _hooks(pkg):
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, size)
        patch(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for mod in modules:
            if mod is not owner and mod.__dict__.get(attr) is original:
                patch(mod, attr, wrapped)
    checks = hh1lie.checks.CHECKS  # the suite calls the functions it holds
    registered = list(checks)
    checks[:] = [(cid, tracer.wrap(f"checks.{cid}", fn)) for cid, fn in registered]
    try:
        yield tracer
    finally:
        checks[:] = registered
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# -- spans -> per-layer metrics ------------------------------------------------------

# span name -> metric reporting the span's summed self time
SELF_TIME = {
    "gfp.rref": "gfp.rref_s",
    "gfp.kernel": "gfp.kernel_s",
    "gfp.matmul": "gfp.matmul_s",
    "gfp.mat_pow": "gfp.mat_pow_s",
    "algebras.build": "algebras.build_s",
    "algebras.validate": "algebras.validate_s",
    "hochschild.der": "hochschild.der_s",
    "hochschild.ider": "hochschild.ider_s",
    "hochschild.presentation": "hochschild.presentation_s",
    "hochschild.hh1": "hochschild.hh1_self_s",
    "lie.validate": "lie.validate_s",
    "lie.series": "lie.series_s",
    "lie.simple": "lie.simple_s",
    "lie.torus": "lie.torus_s",
    "lie.fingerprint": "lie.nullcone_s",
    "lie.jacobson": "lie.jacobson_s",
    "lie.prop22": "lie.prop22_s",
    "cli.serialize": "cli.serialize_s",
    **{f"checks.{cid}": f"checks.{cid}_s" for cid in CHECK_IDS},
}
# span name -> metric counting its calls (a recursive call is not counted again)
CALLS = {
    "gfp.rref": "gfp.rref_calls",
    "gfp.matmul": "gfp.matmul_calls",
    "gfp.mat_pow": "gfp.mat_pow_calls",
    "algebras.validate": "algebras.validate_calls",
    "hochschild.der": "hochschild.der_calls",
    "hochschild.hh1": "hochschild.hh1_calls",
    "lie.series": "lie.series_calls",
    "lie.jacobson": "lie.jacobson_calls",
    "lie.prop22": "lie.prop22_calls",
}
# span name -> metric summing its size
SIZES = {
    "gfp.rref": "gfp.rref_cells",
    "gfp.matmul": "gfp.matmul_flops",
    "lie.torus": "lie.torus_enum_vectors",
}
ERRORS = {"algebras": "algebras.errors", "hochschild": "hochschild.errors", "lie": "lie.errors"}

UNITS = {
    **{m: "s" for m in SELF_TIME.values()},
    **{m: "count" for m in CALLS.values()},
    "gfp.rref_cells": "cells",
    "gfp.matmul_flops": "flop",
    "lie.torus_enum_vectors": "count",
    "algebras.max_dim": "dim",
    "hochschild.hh1_distinct_ratio": "ratio",
    **{m: "count" for m in ERRORS.values()},
    "trace.overhead_s": "s",
}


def layer_metrics(jobs: list[list[list]]) -> dict:
    """Per-layer metrics over the spans of every job of one traced pass."""
    out = {m: 0.0 if unit == "s" else 0 for m, unit in UNITS.items() if m != "trace.overhead_s"}
    hh1_keys = []
    for spans in jobs:
        covered = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent, _, size, error), inner in zip(spans, covered):
            if name in SELF_TIME:
                out[SELF_TIME[name]] += (end - start) - inner
            if name in CALLS and (parent < 0 or spans[parent][0] != name):
                out[CALLS[name]] += 1
            if name in SIZES:
                out[SIZES[name]] += size
            if name == "algebras.validate":
                out["algebras.max_dim"] = max(out["algebras.max_dim"], size)
            if name == "hochschild.hh1":
                hh1_keys.append(size)
            layer = name.split(".", 1)[0]
            if error and layer in ERRORS:
                out[ERRORS[layer]] += 1
    if hh1_keys:
        out["hochschild.hh1_distinct_ratio"] = len(set(hh1_keys)) / len(hh1_keys)
    return out
