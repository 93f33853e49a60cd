"""Command line interface.

Subcommands:
  build       construct a named algebra and emit its canonical JSON
  hh1         compute the first-cohomology report, the induced restricted
              Lie algebra and its fingerprint
  reproduce   run the registered verification suite

Exit codes: 0 success, 1 check failure, 2 usage error, 3 input validation
or computation error, running out of memory included.  Output is
deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from . import algebras as alg
from . import hochschild as hoch
from . import lie as lielib
from .algebras import dumps_canonical
from .errors import Hh1LieError, JsonFormatError
from .gfp import check_prime

EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3


def _parse_exps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))  # int("") raises: no empty field
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse exponent list {text!r}")


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hh1lie",
        description="Exact GF(p) algebra constructions, derivations and first cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_flags(p):
        p.add_argument(
            "--kind",
            choices=["smash", "trunc", "quiver", "trivext", "u0borel", "json"],
            required=True,
            help="algebra family to build",
        )
        p.add_argument("--p", type=int, default=3, help="odd prime, 3 <= p <= 317 (default 3)")
        p.add_argument("--n", type=int, help="x-height parameter (smash, u0borel)")
        p.add_argument("--r", type=int, help="character group height (smash)")
        p.add_argument("--exps", type=_parse_exps, help="truncation exponents, e.g. '2' or '1,1'")
        p.add_argument("--file", help="input JSON (kind=json, or a quiver presentation)")
        p.add_argument("--json", dest="json_out", help="write output JSON to a file")

    b = sub.add_parser("build", help="build an algebra and print its JSON")
    add_algebra_flags(b)

    h = sub.add_parser("hh1", help="first cohomology report for an algebra")
    add_algebra_flags(h)
    h.add_argument("--seed", type=_parse_seed, default=0)

    r = sub.add_parser("reproduce", help="run the verification suite")
    r.add_argument("--p", type=int, default=3, choices=[3, 5])
    r.add_argument("--seed", type=_parse_seed, default=0)
    r.add_argument("--json", dest="json_out", help="write the JSON report to a file")
    r.add_argument("--md", dest="md_out", help="write the markdown table to a file")
    r.add_argument("--inject-fault", help=argparse.SUPPRESS)
    return parser


def _coefficient(c) -> int:
    """A relation coefficient: a JSON integer, booleans excluded, as ``algebras._json_ints`` reads them."""
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"relation coefficient {c!r} is not an integer")
    return c


def _load_quiver(path: str) -> alg.QuiverPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        relations = tuple(
            tuple((_coefficient(c), pth) for c, pth in rel) for rel in data.get("relations", [])
        )
        return alg.QuiverPresentation(
            tuple(data["vertices"]),
            tuple((a[0], a[1], a[2]) for a in data["arrows"]),
            relations,
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise JsonFormatError(f"bad quiver presentation: {exc}") from exc


def _build_algebra(args, parser) -> alg.Algebra:
    """The algebra the flags name; ``main`` reports a ValueError from here as a usage error."""
    p = check_prime(args.p)
    if args.kind == "smash":
        if args.n is None or args.r is None:
            parser.error("--kind smash needs --n and --r")
        a, _ = alg.smash_product(p, args.n, args.r)
        return a
    if args.kind == "trunc":
        if not args.exps:
            parser.error("--kind trunc needs --exps")
        return alg.truncated_polynomial(p, args.exps)
    if args.kind == "u0borel":
        if args.n is None:
            parser.error("--kind u0borel needs --n")
        return alg.u0_borel(p, args.n)
    if args.kind == "quiver":
        pres = _load_quiver(args.file) if args.file else alg.tkr_quiver()
        return alg.quiver_algebra(pres, p)
    if args.kind == "trivext":
        return alg.trivial_extension(alg.quiver_algebra(alg.kronecker_quiver(), p))
    # kind == json
    if not args.file:
        parser.error("--kind json needs --file")
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return alg.algebra_from_json_dict(data)


def _hh1_payload(a: alg.Algebra, seed: int) -> dict:
    pres = hoch.hh1(a, seed=seed)
    L = lielib.from_hh1(pres)
    return {
        "report": pres.to_report_dict(),
        "lie": L.to_json_dict(),
        "fingerprint": lielib.fingerprint(L, seed=seed).to_json_dict(),
    }


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(*paths):
    """Raise the OSError that writing each path would raise; no file is created or truncated."""
    for path in filter(None, paths):
        if os.path.exists(path):
            os.close(os.open(path, os.O_WRONLY))  # neither O_CREAT nor O_TRUNC
            continue
        parent = os.path.dirname(path) or "."
        try:
            if not stat.S_ISDIR(os.stat(parent).st_mode):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
            if not os.access(parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        except OSError as exc:  # reported on the path, as open() reports it
            raise type(exc)(exc.errno, exc.strerror, path) from None


def _run(args, parser) -> int:
    if args.command in ("build", "hh1"):
        try:
            a = _build_algebra(args, parser)
        except ValueError as exc:  # a bad flag value exits 2, an unreadable file 3
            if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
                raise
            parser.error(str(exc))
        _check_writable(args.json_out)  # flags first: a bad flag still exits 2
        payload = a.to_json_dict() if args.command == "build" else _hh1_payload(a, args.seed)
        _emit(dumps_canonical(payload), args.json_out)
        return 0
    _check_writable(args.md_out, args.json_out)
    from . import checks as checkmod  # only the suite needs it, so hh1 and build skip its import
    results = checkmod.run_suite(p=args.p, seed=args.seed, inject_fault=args.inject_fault)
    md = checkmod.render_markdown(results)
    sys.stdout.write(md)
    if args.md_out:
        _emit(md, args.md_out)
    if args.json_out:
        _emit(dumps_canonical([r.to_json_dict() for r in results]), args.json_out)
    failures = [r for r in results if r.status == "fail"]
    for r in failures:
        print(f"FAIL {r.check_id}: {json.dumps(r.details, sort_keys=True)[:400]}", file=sys.stderr)
    return EXIT_CHECK_FAILURE if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, parser)
    except (Hh1LieError, ValueError, OSError) as exc:  # an unwritable output path too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MemoryError as exc:  # numpy's failed allocations raise a subclass
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
