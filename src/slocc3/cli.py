"""Command-line surface: one subcommand per library operation.

Every randomized command takes an explicit --seed and produces byte-identical
output when repeated with the same arguments.  Three commands can answer
"not decided": detpoly-equiv, product-count and range-compare.  Such a
verdict exits 0 by default with the verdict in the payload; their --strict
maps it to exit 4 so scripts can distinguish "not decided" from "decided".
No other command has --strict.

Exit codes: 0 success, 1 usage error, 2 parse or format error,
3 numeric failure, 4 inconclusive verdict under --strict (those three only).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import catalog as cat
from .density import density_to_json, reduced_density
from .detpoly import det_poly, detpoly_equiv_test
from .ket import parse_ket, print_ket
from .product_range import range_criterion_compare, range_product_count
from .rank import classify_2mn, rank_interval
from .tensor import (
    matrix_from_json,
    tensor_from_json,
    tensor_to_json,
)
from .transforms import apply_slocc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

PARTY_SETS = {"A": [0], "B": [1], "C": [2], "AB": [0, 1], "AC": [0, 2], "BC": [1, 2]}


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(message)


def _parse_dims(text: str):
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad dims {text!r}; expected e.g. 2,2,2") from None
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"bad dims {text!r}; expected three positive integers")
    return dims


def _parse_complex(text: str) -> complex:
    try:
        val = complex(text.strip().replace("i", "j"))
        if cmath.isfinite(val):  # nan and overflowing values such as 1e309 fail
            return val
    except ValueError:
        pass
    raise ValueError(f"bad complex number {text!r}")


def _parse_cvector(text: str) -> np.ndarray:
    return np.array([_parse_complex(p) for p in text.split(",")], dtype=complex)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_tensor(args, ket_attr="ket", dims_attr="dims", file_attr="file"):
    """Tensor from the command's ket and dims options or its JSON file; the
    messages name the command's own flags (``file`` is the positional file)."""
    ket_flag, dims_flag, file_flag = ("--" + a.replace("_", "-")
                                      for a in (ket_attr, dims_attr, file_attr))
    ket = getattr(args, ket_attr, None)
    path = getattr(args, file_attr, None)
    if ket is not None:
        dims = getattr(args, dims_attr, None)
        if dims is None:
            raise ValueError(f"{ket_flag} requires {dims_flag}")
        return parse_ket(ket, _parse_dims(dims))
    if path is not None:
        return tensor_from_json(_read_text(path))
    source = "a tensor JSON file" if file_attr == "file" else file_flag
    raise ValueError(f"provide either {ket_flag} with {dims_flag} or {source}")


def _emit(args, json_doc, text_lines, inconclusive=False) -> int:
    """Print the output format asked for and return the exit code: 4 for an
    ``inconclusive`` verdict under --strict, else 0.  ``json_doc`` and
    ``text_lines`` are zero-argument callables, so only that format is built."""
    if args.output == "json":
        print(json_doc())
    else:
        for line in text_lines():
            print(line)
    return EXIT_INCONCLUSIVE if inconclusive and args.strict else EXIT_OK


def _add_common(p, restarts=None, strict=False):
    """--output; --seed and --restarts for a randomized command (one with a
    ``restarts`` default); --strict for one whose verdict can be inconclusive."""
    p.add_argument("--output", choices=("json", "text"), default="text")
    if strict:
        p.add_argument("--strict", action="store_true",
                       help="exit 4 on inconclusive verdicts")
    if restarts is not None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=restarts,
                       help="random starts (default: %(default)s)")


def _add_tensor_source(p):
    p.add_argument("--ket", help="state in ket notation")
    p.add_argument("--dims", help="party dims, e.g. 2,2,2")
    p.add_argument("file", nargs="?", help="tensor JSON file ('-' for stdin)")


def _positive(args, name):
    val = getattr(args, name.replace("-", "_"), None)
    # written so that NaN, which compares false with everything, fails
    if val is not None and not 0 < val < float("inf"):
        raise ValueError(f"--{name} must be positive and finite")


def build_parser() -> _Parser:
    parser = _Parser(prog="slocc3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a ket expression into tensor JSON")
    p.add_argument("--ket", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--normalize", action="store_true")
    _add_common(p)

    p = sub.add_parser("print", help="print a tensor as a canonical ket string")
    _add_tensor_source(p)
    p.add_argument("--precision", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("rank", help="tensor rank interval with certificates")
    _add_tensor_source(p)
    p.add_argument("--tol-als", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=2000)
    _add_common(p, restarts=32)

    p = sub.add_parser("detpoly", help="determinant polynomial of an n x n x 3 tensor")
    _add_tensor_source(p)
    _add_common(p)

    p = sub.add_parser("detpoly-equiv",
                       help="necessary-condition equivalence test on two tensors")
    p.add_argument("t1", help="first tensor JSON file")
    p.add_argument("t2", help="second tensor JSON file")
    p.add_argument("--tol-equiv", type=float, default=1e-8,
                   help="bound on the residual |c*(f1 o G) - f2|^2 / |f2|^2, in [0, 1]; "
                        "1e-8 is a relative coefficient distance of 1e-4")
    _add_common(p, restarts=64, strict=True)

    p = sub.add_parser("ptrace", help="reduced density matrix of a pure state")
    _add_tensor_source(p)
    p.add_argument("--traced", required=True, choices=sorted(PARTY_SETS))
    _add_common(p)

    p = sub.add_parser("product-count",
                       help="product vectors in the range of a reduced density")
    _add_tensor_source(p)
    p.add_argument("--traced", required=True, choices=("A", "B", "C"))
    p.add_argument("--tol-minor", type=float, default=1e-7)
    _add_common(p, restarts=16, strict=True)

    p = sub.add_parser("range-compare",
                       help="range-criterion comparison of two states")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--traced", required=True, choices=("A", "B", "C"))
    p.add_argument("--tol-minor", type=float, default=1e-7)
    _add_common(p, restarts=16, strict=True)

    p = sub.add_parser("slocc-apply", help="apply one matrix per party")
    _add_tensor_source(p)
    p.add_argument("--a", required=True, help="matrix JSON file for party A")
    p.add_argument("--b", required=True, help="matrix JSON file for party B")
    p.add_argument("--c", required=True, help="matrix JSON file for party C")
    _add_common(p)

    p = sub.add_parser("classify2mn", help="classify a 2 x M x N tensor")
    _add_tensor_source(p)
    _add_common(p)

    p = sub.add_parser("catalog", help="list, get or build canonical states")
    p.add_argument("action", choices=("list", "get", "build"))
    p.add_argument("id", nargs="?")
    _add_common(p)

    p = sub.add_parser("lhrgm", help="low-to-high canonical state constructors")
    p.add_argument("--kind", required=True, choices=cat.LHRGM_KINDS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base-ket", help="base state in ket notation")
    p.add_argument("--base-file", help="base tensor JSON file")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--chi", help="comma list of complex coefficients")
    _add_common(p)

    p = sub.add_parser("build335", help="3 x 3 x 5 normal-form builder")
    p.add_argument("--psi-ket", help="2 x n x p state in ket notation")
    p.add_argument("--psi-dims", help="dims of psi, e.g. 2,3,4")
    p.add_argument("--psi-file", help="psi tensor JSON file")
    p.add_argument("--alpha", default="0,0,0,0,0")
    p.add_argument("--beta", default="0,0,0,0,0")
    p.add_argument("--gamma", default="0,0,0,0,0")
    _add_common(p)

    return parser


def _run(args) -> int:
    for name in ("tol-als", "max-iter", "restarts", "tol-equiv", "tol-minor", "precision"):
        _positive(args, name)
    cmd = args.command

    if cmd == "parse":
        t = parse_ket(args.ket, _parse_dims(args.dims), normalize=args.normalize)
        return _emit(args, lambda: tensor_to_json(t),
                     lambda: [f"dims: {t.shape}", f"state: {print_ket(t)}"])

    if cmd == "print":
        t = _load_tensor(args)
        text = print_ket(t, precision=args.precision)
        return _emit(args, lambda: json.dumps({"ket": text}), lambda: [text])

    if cmd == "rank":
        t = _load_tensor(args)
        interval = rank_interval(
            t,
            restarts=args.restarts,
            max_iter=args.max_iter,
            seed=args.seed,
            tol=args.tol_als,
        )
        return _emit(args, interval.to_json, lambda: [
            f"rank interval: [{interval.lower}, {interval.upper}]",
            f"lower bound: {interval.certificate_lower}",
            f"upper bound: {interval.certificate_upper.detail}, "
            f"residual {interval.certificate_upper.residual:.3e}",
            f"caveat: {interval.caveat}",
        ])

    if cmd == "detpoly":
        t = _load_tensor(args)
        f = det_poly(t)
        return _emit(args, f.to_json, lambda: [f.to_text()])

    if cmd == "detpoly-equiv":
        t1 = tensor_from_json(_read_text(args.t1))
        t2 = tensor_from_json(_read_text(args.t2))
        verdict = detpoly_equiv_test(
            t1, t2,
            restarts=args.restarts,
            seed=args.seed,
            tol=args.tol_equiv,
        )
        residual = [] if verdict.residual is None else [f"residual: {verdict.residual:.6e}"]
        return _emit(args, verdict.to_json,
                     lambda: [f"verdict: {verdict.kind}", *residual, verdict.detail],
                     inconclusive=verdict.kind == "NoCandidateFound")

    if cmd == "ptrace":
        t = _load_tensor(args)
        traced = PARTY_SETS[args.traced]
        rho = reduced_density(t, t.shape, traced)
        kept = [d for i, d in enumerate(t.shape) if i not in traced]
        return _emit(args, lambda: density_to_json(rho, kept), lambda: [
            f"reduced density on parties "
            f"{[p for p in 'ABC' if PARTY_SETS[p][0] not in traced]}",
            np.array_str(np.round(rho, 6)),
        ])

    if cmd == "product-count":
        t = _load_tensor(args)
        report = range_product_count(
            t, args.traced, tol=args.tol_minor,
            starts=args.restarts, seed=args.seed,
        )
        return _emit(args, report.to_json, lambda: [
            f"independent product vectors: {report.independent_count}",
            f"exactness: {report.exactness}"
            + (" (continuum)" if report.continuum else ""),
        ], inconclusive=report.exactness == "LowerBound")

    if cmd == "range-compare":
        t1 = tensor_from_json(_read_text(args.t1))
        t2 = tensor_from_json(_read_text(args.t2))
        verdict = range_criterion_compare(
            t1, t2, args.traced, tol=args.tol_minor,
            starts=args.restarts, seed=args.seed,
        )
        return _emit(args, lambda: json.dumps({"verdict": verdict}),
                     lambda: [f"verdict: {verdict}"], inconclusive=verdict == "Inconclusive")

    if cmd == "slocc-apply":
        t = _load_tensor(args)
        a = matrix_from_json(_read_text(args.a))
        b = matrix_from_json(_read_text(args.b))
        c = matrix_from_json(_read_text(args.c))
        out = apply_slocc(t, a, b, c)
        return _emit(args, lambda: tensor_to_json(out), lambda: [print_ket(out, precision=12)])

    if cmd == "classify2mn":
        t = _load_tensor(args)
        res = classify_2mn(t)
        lines = [
            f"class: {res.entry.id if res.matched else 'NoMatch'}",
            f"compressed dims: {res.compressed_dims}",
            res.detail,
        ]
        if res.matched:
            lines.insert(1, f"representative: {res.entry.ket_text}")
        return _emit(args, res.to_json, lambda: lines)

    if cmd == "catalog":
        if args.action == "list":
            entries = cat.catalog_list()
            return _emit(args, lambda: json.dumps([json.loads(e.to_json()) for e in entries]),
                         lambda: [f"{e.id:12s} {str(e.system):12s} {e.ket_text}" for e in entries])
        if args.id is None:
            raise ValueError(f"catalog {args.action} requires an id")
        try:
            entry = cat.catalog_get(args.id)
        except KeyError as exc:
            raise _UsageExit(exc.args[0]) from None
        if args.action == "get":
            return _emit(args, entry.to_json, lambda: [
                f"id: {entry.id}", f"system: {entry.system}",
                f"ket: {entry.ket_text}", f"rank_note: {entry.rank_note}",
            ])
        t = entry.build()
        return _emit(args, lambda: tensor_to_json(t), lambda: [print_ket(t)])

    if cmd == "lhrgm":
        if args.base_ket is not None:
            if args.kind == "omega1":
                base_dims = (2, args.m - 1, args.n - 2)
            else:
                base_dims = (2, args.m - 1, args.n - 1)
            base = parse_ket(args.base_ket, base_dims)
        elif args.base_file is not None:
            base = tensor_from_json(_read_text(args.base_file))
        else:
            raise ValueError("provide --base-ket or --base-file")
        chi = _parse_cvector(args.chi) if args.chi else None
        out = cat.lhrgm_build(
            args.kind, args.m, args.n, base,
            a=_parse_complex(args.a), b=_parse_complex(args.b), chi=chi,
        )
        return _emit(args, lambda: tensor_to_json(out), lambda: [print_ket(out)])

    # build335, the last subcommand; the parser requires one
    out = cat.build_335(
        _load_tensor(args, "psi_ket", "psi_dims", "psi_file"),
        _parse_cvector(args.alpha),
        _parse_cvector(args.beta),
        _parse_cvector(args.gamma),
    )
    return _emit(args, lambda: tensor_to_json(out), lambda: [print_ket(out)])


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:
        # argparse --help and friends
        return EXIT_OK
    except (OSError, ValueError) as exc:
        # an unreadable path; bad JSON and ket syntax errors are ValueErrors
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
