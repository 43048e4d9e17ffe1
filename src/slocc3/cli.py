"""Command-line surface: one subcommand per library operation.

Every randomized command takes an explicit --seed and produces byte-identical
output when repeated with the same arguments.  Inconclusive verdicts exit 0
by default with the verdict in the payload; --strict maps them to exit 4 so
scripts can distinguish "not decided" from "decided".

Exit codes: 0 success, 1 usage error, 2 parse or format error,
3 numeric failure, 4 inconclusive verdict under --strict.
"""

from __future__ import annotations

import argparse
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
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValueError(f"bad complex number {text!r}") from None


def _parse_cvector(text: str) -> np.ndarray:
    return np.array([_parse_complex(p) for p in text.split(",")], dtype=complex)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_tensor(args, ket_attr="ket", dims_attr="dims", file_attr="file"):
    ket = getattr(args, ket_attr, None)
    path = getattr(args, file_attr, None)
    if ket is not None:
        dims = getattr(args, dims_attr, None)
        if dims is None:
            raise ValueError("--ket requires --dims")
        return parse_ket(ket, _parse_dims(dims))
    if path is not None:
        return tensor_from_json(_read_text(path))
    raise ValueError("provide either --ket with --dims or a tensor JSON file")


def _emit(args, json_doc: str, text_lines):
    if args.output == "json":
        print(json_doc)
    else:
        for line in text_lines:
            print(line)


def _add_common(p, randomized=False):
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 on inconclusive verdicts")
    if randomized:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=None)


def _add_tensor_source(p):
    p.add_argument("--ket", help="state in ket notation")
    p.add_argument("--dims", help="party dims, e.g. 2,2,2")
    p.add_argument("file", nargs="?", help="tensor JSON file ('-' for stdin)")


def _positive(args, name):
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None and val <= 0:
        raise ValueError(f"--{name} must be positive")
    return val


def _restarts(args, default: int) -> int:
    val = _positive(args, "restarts")
    return default if val is None else val


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
    _add_common(p, randomized=True)

    p = sub.add_parser("detpoly", help="determinant polynomial of an n x n x 3 tensor")
    _add_tensor_source(p)
    _add_common(p)

    p = sub.add_parser("detpoly-equiv",
                       help="necessary-condition equivalence test on two tensors")
    p.add_argument("t1", help="first tensor JSON file")
    p.add_argument("t2", help="second tensor JSON file")
    p.add_argument("--tol-equiv", type=float, default=1e-8)
    _add_common(p, randomized=True)

    p = sub.add_parser("ptrace", help="reduced density matrix of a pure state")
    _add_tensor_source(p)
    p.add_argument("--traced", required=True, choices=sorted(PARTY_SETS))
    _add_common(p)

    p = sub.add_parser("product-count",
                       help="product vectors in the range of a reduced density")
    _add_tensor_source(p)
    p.add_argument("--traced", required=True, choices=("A", "B", "C"))
    p.add_argument("--tol-minor", type=float, default=1e-7)
    _add_common(p, randomized=True)

    p = sub.add_parser("range-compare",
                       help="range-criterion comparison of two states")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--traced", required=True, choices=("A", "B", "C"))
    p.add_argument("--tol-minor", type=float, default=1e-7)
    _add_common(p, randomized=True)

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
    cmd = args.command

    if cmd == "parse":
        t = parse_ket(args.ket, _parse_dims(args.dims), normalize=args.normalize)
        _emit(args, tensor_to_json(t),
              [f"dims: {t.shape}", f"state: {print_ket(t)}"])
        return EXIT_OK

    if cmd == "print":
        t = _load_tensor(args)
        text = print_ket(t, precision=args.precision)
        _emit(args, json.dumps({"ket": text}), [text])
        return EXIT_OK

    if cmd == "rank":
        t = _load_tensor(args)
        _positive(args, "tol-als")
        interval = rank_interval(
            t,
            restarts=_restarts(args, 32),
            max_iter=_positive(args, "max-iter"),
            seed=args.seed,
            tol=args.tol_als,
        )
        _emit(args, interval.to_json(), [
            f"rank interval: [{interval.lower}, {interval.upper}]",
            f"lower bound: {interval.certificate_lower}",
            f"upper bound: {interval.certificate_upper.detail}, "
            f"residual {interval.certificate_upper.residual:.3e}",
            f"caveat: {interval.caveat}",
        ])
        return EXIT_OK

    if cmd == "detpoly":
        t = _load_tensor(args)
        f = det_poly(t)
        _emit(args, f.to_json(), [f.to_text()])
        return EXIT_OK

    if cmd == "detpoly-equiv":
        t1 = tensor_from_json(_read_text(args.t1))
        t2 = tensor_from_json(_read_text(args.t2))
        _positive(args, "tol-equiv")
        verdict = detpoly_equiv_test(
            t1, t2,
            restarts=_restarts(args, 64),
            seed=args.seed,
            tol=args.tol_equiv,
        )
        lines = [f"verdict: {verdict.kind}"]
        if verdict.residual is not None:
            lines.append(f"residual: {verdict.residual:.6e}")
        lines.append(verdict.detail)
        _emit(args, verdict.to_json(), lines)
        if args.strict and verdict.kind == "NoCandidateFound":
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if cmd == "ptrace":
        t = _load_tensor(args)
        traced = PARTY_SETS[args.traced]
        rho = reduced_density(t, t.shape, traced)
        kept = [d for i, d in enumerate(t.shape) if i not in traced]
        _emit(args, density_to_json(rho, kept), [
            f"reduced density on parties "
            f"{[p for p in 'ABC' if PARTY_SETS[p][0] not in traced]}",
            np.array_str(np.round(rho, 6)),
        ])
        return EXIT_OK

    if cmd == "product-count":
        t = _load_tensor(args)
        _positive(args, "tol-minor")
        report = range_product_count(
            t, args.traced, tol=args.tol_minor,
            starts=_restarts(args, 16), seed=args.seed,
        )
        _emit(args, report.to_json(), [
            f"independent product vectors: {report.independent_count}",
            f"exactness: {report.exactness}"
            + (" (continuum)" if report.continuum else ""),
        ])
        if args.strict and report.exactness == "LowerBound":
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if cmd == "range-compare":
        t1 = tensor_from_json(_read_text(args.t1))
        t2 = tensor_from_json(_read_text(args.t2))
        _positive(args, "tol-minor")
        verdict = range_criterion_compare(
            t1, t2, args.traced, tol=args.tol_minor,
            starts=_restarts(args, 16), seed=args.seed,
        )
        _emit(args, json.dumps({"verdict": verdict}), [f"verdict: {verdict}"])
        if args.strict and verdict == "Inconclusive":
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if cmd == "slocc-apply":
        t = _load_tensor(args)
        a = matrix_from_json(_read_text(args.a))
        b = matrix_from_json(_read_text(args.b))
        c = matrix_from_json(_read_text(args.c))
        out = apply_slocc(t, a, b, c)
        _emit(args, tensor_to_json(out), [print_ket(out, precision=12)])
        return EXIT_OK

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
        _emit(args, res.to_json(), lines)
        return EXIT_OK

    if cmd == "catalog":
        if args.action == "list":
            entries = cat.catalog_list()
            doc = json.dumps([json.loads(e.to_json()) for e in entries])
            _emit(args, doc, [f"{e.id:12s} {str(e.system):12s} {e.ket_text}"
                              for e in entries])
            return EXIT_OK
        if args.id is None:
            raise ValueError(f"catalog {args.action} requires an id")
        entry = cat.catalog_get(args.id)
        if args.action == "get":
            _emit(args, entry.to_json(), [
                f"id: {entry.id}", f"system: {entry.system}",
                f"ket: {entry.ket_text}", f"rank_note: {entry.rank_note}",
            ])
        else:
            t = entry.build()
            _emit(args, tensor_to_json(t), [print_ket(t)])
        return EXIT_OK

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
        _emit(args, tensor_to_json(out), [print_ket(out)])
        return EXIT_OK

    if cmd == "build335":
        if args.psi_ket is not None:
            if args.psi_dims is None:
                raise ValueError("--psi-ket requires --psi-dims")
            psi = parse_ket(args.psi_ket, _parse_dims(args.psi_dims))
        elif args.psi_file is not None:
            psi = tensor_from_json(_read_text(args.psi_file))
        else:
            raise ValueError("provide --psi-ket with --psi-dims or --psi-file")
        out = cat.build_335(
            psi,
            _parse_cvector(args.alpha),
            _parse_cvector(args.beta),
            _parse_cvector(args.gamma),
        )
        _emit(args, tensor_to_json(out), [print_ket(out)])
        return EXIT_OK

    raise ValueError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:
        # argparse --help and friends
        return EXIT_OK
    try:
        return _run(args)
    except (OSError, ValueError) as exc:
        # an unreadable path; bad JSON and ket syntax errors are ValueErrors
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
