"""Command-line interface.

Subcommands: angle, decode, verify, bench, mindist.  In json mode (the
default) a single document is written to stdout and diagnostics go to
stderr; json keys are stable API, plain mode is for humans.

Exit codes: 0 success, 1 usage or input error (an input too large to
allocate included), 2 verification failure, enumeration/suite guard
violation or a violated unique-decoding assertion, 3 decode landed beyond
the unique decoding radius.  Every error is one ``error:`` line on
stderr, never a traceback; output cut short by a reader that closed
stdout is an error too (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .angle import argmin_scalar, is_max_angle
from .codes import (
    LinearCode,
    angular_decode,
    make_code,
    make_repetition_code,
    make_rs_code,
    min_distance,
    projective_list_decode,
)
from .errors import EnumerationTooLarge, FqAngleError, SuiteTooLarge, UniqueDecodingViolated
from .experiments import (
    _check_work,
    angle_vs_dist_census,
    bench_angle,
    verify_angular_decoding,
    verify_metric_axioms,
    verify_oracle_equivalence,
    verify_projective_descent,
)
from .gf import Field, field_from_order, make_field
from .vectors import format_vector, hamming_distance, parse_vector, scalar_mul

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BEYOND_RADIUS = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def integer(text: str) -> int:
    """An integer option: after stripping, an optional leading - and then
    ASCII decimal digits only; int() alone would also take "1_0", "+1" and
    non-ASCII digits.  argparse names this function in its error line."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def _add_code_args(p: argparse.ArgumentParser, n_help: str = "code length"):
    p.add_argument("--code", choices=["rs", "rep", "file"], default="rs")
    p.add_argument("--code-file", type=Path, help="generator matrix, one row per line")
    p.add_argument("--n", type=integer, help=n_help)
    p.add_argument("--k", type=integer, help="code dimension (rs)")


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=integer, help="field order, a prime power <= 65536")
    common.add_argument("--p", type=integer, help="field characteristic (alternative to --q)")
    common.add_argument("--m", type=integer, default=1, help="extension degree (with --p)")
    common.add_argument("--format", choices=["json", "plain"], default="json")
    parser = _Parser(prog="fqangle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("angle", parents=[common], help="angle between two nonzero vectors")
    pa.add_argument("--u", required=True, help="comma-separated encodings")
    pa.add_argument("--v", required=True)
    pa.add_argument("--verbose", action="store_true", help="trace every scalar's distance")
    pa.set_defaults(run=cmd_angle)

    pd = sub.add_parser("decode", parents=[common], help="angular decoding of a received word")
    _add_code_args(pd)
    pd.add_argument("--u", required=True)
    pd.add_argument("--rho", type=integer, help="list decode within angle < rho instead")
    pd.set_defaults(run=cmd_decode)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    _add_code_args(pv, "vector length (metric, projective, oracle) or code length (decoding, census)")
    pv.add_argument("--suite", required=True, choices=list(_SUITES))
    pv.add_argument("--trials", type=integer, default=10000,
                    help="random pairs (oracle) or samples (census); the other suites ignore it")
    pv.add_argument("--seed", type=integer, default=0,
                    help="seed of oracle, decoding and census; metric and projective ignore it")
    pv.set_defaults(run=cmd_verify)

    pb = sub.add_parser("bench", parents=[common], help="time the fast and naive algorithms")
    pb.add_argument("--n", required=True, help="length, or comma-separated lengths")
    pb.add_argument("--reps", type=integer, default=9, help="timed repetitions, >= 1; fewer than 5 run 5")
    pb.set_defaults(run=cmd_bench)

    pm = sub.add_parser("mindist", parents=[common], help="brute-force minimum distance")
    _add_code_args(pm)
    pm.set_defaults(run=cmd_mindist)

    return parser


def _field_from_args(args) -> Field:
    if args.q is not None:
        if args.p is not None:
            raise UsageError("give either --q or --p/--m, not both")
        return field_from_order(args.q)
    if args.p is not None:
        return make_field(args.p, args.m)
    raise UsageError("a field is required: --q or --p (with optional --m)")


def _code_from_args(field: Field, args) -> LinearCode:
    if args.code == "rs":
        if args.n is None or args.k is None:
            raise UsageError("--code rs requires --n and --k")
        return make_rs_code(field, args.n, args.k)
    if args.code == "rep":
        if args.n is None:
            raise UsageError("--code rep requires --n")
        return make_repetition_code(field, args.n)
    if args.code_file is None:
        raise UsageError("--code file requires --code-file")
    rows = []
    for line in args.code_file.read_text().splitlines():
        line = line.strip()
        if line:
            rows.append(parse_vector(field, line))
    return make_code(field, rows)


# ----------------------------------------------------------------------
# Subcommands: each returns (document, exit_code)
# ----------------------------------------------------------------------

def cmd_angle(args) -> tuple[dict, int]:
    field = _field_from_args(args)
    u = parse_vector(field, args.u)
    v = parse_vector(field, args.v)
    if args.verbose:  # the trace builds q - 1 multiples of n coordinates
        _check_work((field.q - 1) * len(u), f"{field.q - 1} scalars x {len(u)} positions")
    c_star, a = argmin_scalar(u, v)
    doc = {
        "angle": a,
        "argmin_c": c_star,
        "is_max": is_max_angle(u, v),
    }
    if args.verbose:
        doc["trace"] = [
            {"c": c, "distance": hamming_distance(u, scalar_mul(c, v))}
            for c in field.nonzero_elements()
        ]
    return doc, EXIT_OK


def cmd_decode(args) -> tuple[dict, int]:
    field = _field_from_args(args)
    code = _code_from_args(field, args)
    u = parse_vector(field, args.u)
    if args.rho is not None:
        hits = projective_list_decode(u, code, args.rho)
        doc = {
            "rho": args.rho,
            "list": [{"point": format_vector(pt.rep), "angle": a} for pt, a in hits],
            "list_size": len(hits),
            "min_distance": min_distance(code),
        }
        return doc, EXIT_OK
    outcome = angular_decode(u, code)
    doc = {
        "kind": outcome.kind.value,
        "best": [{"point": format_vector(pt.rep), "angle": a} for pt, a in outcome.best],
        "min_distance": outcome.min_distance,
        "radius_bound": outcome.radius_bound,
        "within_radius": outcome.unique,
    }
    return doc, EXIT_OK if outcome.unique else EXIT_BEYOND_RADIUS


def _length(args) -> int:
    if args.n is None:
        raise UsageError(f"--suite {args.suite} requires --n")
    return args.n


# suite name -> runner(field, args); names are looked up when a suite runs
_SUITES = {
    "metric": lambda field, args: verify_metric_axioms(field, _length(args)),
    "projective": lambda field, args: verify_projective_descent(field, _length(args)),
    "oracle": lambda field, args: verify_oracle_equivalence(field, _length(args), args.trials, args.seed),
    "decoding": lambda field, args: verify_angular_decoding(_code_from_args(field, args), args.seed),
    "census": lambda field, args: angle_vs_dist_census(_code_from_args(field, args), args.trials, args.seed),
}


def cmd_verify(args) -> tuple[dict, int]:
    report = _SUITES[args.suite](_field_from_args(args), args)
    return report.to_dict(), EXIT_OK if report.passed else EXIT_VERIFY


def cmd_bench(args) -> tuple[dict, int]:
    field = _field_from_args(args)
    try:
        n_values = [integer(s) for s in args.n.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse --n {args.n!r}") from None
    records = bench_angle(field, n_values, args.reps)
    return {"records": [r.to_dict() for r in records]}, EXIT_OK


def cmd_mindist(args) -> tuple[dict, int]:
    field = _field_from_args(args)
    code = _code_from_args(field, args)
    d = min_distance(code)
    doc = {
        "min_distance": d,
        "q": field.q,
        "n": code.n,
        "k": code.k,
        "singleton_bound": code.n - code.k + 1,
        "is_mds": d == code.n - code.k + 1,
    }
    if args.code == "rs" and not doc["is_mds"]:
        return doc, EXIT_VERIFY  # an RS code must meet the Singleton bound
    return doc, EXIT_OK


# ----------------------------------------------------------------------
# Rendering and entry point
# ----------------------------------------------------------------------

def _render_plain(doc: dict, out):
    for key, value in doc.items():
        if isinstance(value, list):
            print(f"{key}:", file=out)
            for item in value:
                print(f"  {item}", file=out)
        else:
            print(f"{key}: {value}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code = args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationTooLarge, SuiteTooLarge, UniqueDecodingViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (FqAngleError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.format == "json":
            print(json.dumps(doc))
        else:
            _render_plain(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
