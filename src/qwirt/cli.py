"""Command-line front end: parse slice polynomials, apply operators, run the
decomposition / regularity / sliceness suites, emit JSON or CSV reports.

Exit codes: 0 verdict pass or value emitted, 1 verdict fail, 2 error.
"""

import argparse
import csv
import io
import json
import os
import sys

from .quaternion import parse_quaternion, format_quaternion, RealArgumentError
from .expr import parse, lower, max_variable_index, ExpressionSyntaxError, ArityError
from .slicefn import format_slice
from .numeric import lift, NearRealAxisError, DepthExhaustedError, \
    DEFAULT_STEP, DEFAULT_BAND
from .almansi import spherical_components, reconstruct_symbolic, \
    check_reconstruction
from . import wirtinger

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

_FLAVORS = {"sp": "spherical", "a": "fueter", "gamma": "dirac"}

# Flags read by numeric runs only, as (Namespace attribute, flag).
_NUMERIC_FLAGS = (("seed", "--seed"), ("samples", "--samples"), ("tol", "--tol"),
                  ("fd_step", "--fd-step"), ("fd_delta", "--fd-delta"),
                  ("at", "--at"))

# Library keyword of each stencil and sampling flag's Namespace attribute.
_STENCIL = {"step": "fd_step", "band": "fd_delta"}
_SAMPLING = {"samples": "samples", "seed": "seed", "tol": "tol"}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None,
                        help="ambient variable count (default: inferred)")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    stencil = argparse.ArgumentParser(add_help=False)
    stencil.add_argument("--fd-step", type=float, default=None,
                         help="finite-difference step (default: %g)" % DEFAULT_STEP)
    stencil.add_argument("--fd-delta", type=float, default=None,
                         help="exclusion band around the real axes "
                              "(default: %g)" % DEFAULT_BAND)

    suite = argparse.ArgumentParser(add_help=False)
    suite.add_argument("--seed", type=int, default=None,
                       help="random seed (default: QWIRT_SEED or 0)")
    suite.add_argument("--samples", type=int, default=None,
                       help="number of sample points for numeric suites")
    suite.add_argument("--tol", type=float, default=None,
                       help="residual tolerance override")

    parser = argparse.ArgumentParser(
        prog="qwirt",
        description="Slice-function calculus in several quaternionic variables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True,
                   help="semicolon-separated quaternion literals, e.g. 'i;j'")

    for name in ("theta", "thetabar"):
        p = sub.add_parser(name, parents=[common, stencil],
                           help="apply the %s Wirtinger operator" % name)
        p.add_argument("expr")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--numeric", action="store_true",
                       help="evaluate the differential definition at --at")
        p.add_argument("--at", default=None)

    p = sub.add_parser("spherical", parents=[common],
                       help="spherical value or derivative in one variable")
    p.add_argument("expr")
    p.add_argument("--var", type=int, required=True)
    p.add_argument("--kind", choices=("value", "derivative"), required=True)

    p = sub.add_parser("almansi", parents=[common, stencil, suite],
                       help="component family and reconstruction residuals")
    p.add_argument("expr")
    p.add_argument("--flavor", choices=tuple(_FLAVORS), required=True)
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("check-regular", parents=[common, stencil, suite],
                       help="slice-regularity verdict")
    p.add_argument("expr")
    p.add_argument("--numeric", action="store_true")

    p = sub.add_parser("check-slice", parents=[common, stencil, suite],
                       help="strong-sliceness residuals of the lifted field")
    p.add_argument("expr")

    p = sub.add_parser("crosscheck", parents=[common, stencil, suite],
                       help="symbolic vs numeric Wirtinger agreement")
    p.add_argument("expr")
    p.add_argument("--m", type=int, default=None)

    return parser


_parser = None


def _shared_parser():
    """The parser of every ``main`` call in this process, built on the first."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def _resolve_numeric(args):
    """Refuse the numeric flags of a symbolic run, which would ignore them,
    before any work; a numeric suite run without ``--seed`` reads
    ``QWIRT_SEED``.  Every other default is the library's."""
    if args.command in ("eval", "spherical"):
        return
    if args.command == "almansi":
        numeric, mode = args.flavor != "sp", "almansi --flavor sp"
    else:
        numeric = getattr(args, "numeric", True)
        mode = "%s without --numeric" % args.command
    if not numeric:
        given = [flag for dest, flag in _NUMERIC_FLAGS
                 if getattr(args, dest, None) is not None]
        if given:
            raise ValueError("%s ignores %s" % (mode, ", ".join(given)))
        return
    env = os.environ.get("QWIRT_SEED")
    if "seed" in vars(args) and args.seed is None and env:
        args.seed = int(env)


def _given(args, keywords):
    """The library keyword arguments of the flags given on the command line,
    from a map of keyword to Namespace attribute."""
    return {keyword: getattr(args, dest) for keyword, dest in keywords.items()
            if getattr(args, dest) is not None}


def _parse_point(text, n):
    coords = [parse_quaternion(part) for part in text.split(";")]
    if len(coords) != n:
        raise ValueError("point has %d coordinates, expression needs %d"
                         % (len(coords), n))
    return tuple(coords)


def _load(args):
    node = parse(args.expr)
    inferred = max_variable_index(node)
    if args.n is not None:
        n = args.n
    elif getattr(args, "at", None):
        n = max(inferred, len(args.at.split(";")), 1)
    else:
        n = max(inferred, 1)
    return lower(node, n), n


def _lift(f, args):
    return lift(f, **_given(args, _STENCIL))


def _emit(report, fmt):
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        records = report.get("records")
        if records:
            header = sorted(records[0])
            writer.writerow(header)
            for rec in records:
                writer.writerow([rec[key] for key in header])
        else:
            writer.writerow(["key", "value"])
            for key in sorted(report):
                if key == "records":
                    continue
                writer.writerow([key, report[key]])
        sys.stdout.write(out.getvalue())
    else:
        print(json.dumps(report, indent=2, default=str))


def _cmd_eval(args):
    f, n = _load(args)
    point = _parse_point(args.at, n)
    value = f.evaluate(point)
    _emit({"value": format_quaternion(value)}, args.format)
    return EXIT_OK


def _cmd_wirtinger(args, conj):
    f, n = _load(args)
    name = "thetabar" if conj else "theta"
    if args.numeric:
        if not args.at:
            raise ValueError("--numeric evaluation needs --at")
        point = tuple(q.to_float() for q in _parse_point(args.at, n))
        field = _lift(f, args)
        op = (wirtinger.wirtinger_conj_derivative_numeric if conj
              else wirtinger.wirtinger_derivative_numeric)
        value = op(field, args.m, point)
        report = {"operator": name, "m": args.m, "realization": "numeric",
                  "value": format_quaternion(value)}
    else:
        g = (wirtinger.wirtinger_conj_derivative(f, args.m) if conj
             else wirtinger.wirtinger_derivative(f, args.m))
        report = {"operator": name, "m": args.m, "result": format_slice(g)}
    _emit(report, args.format)
    return EXIT_OK


def _cmd_spherical(args):
    f, _ = _load(args)
    g = (f.spherical_value(args.var) if args.kind == "value"
         else f.spherical_derivative(args.var))
    _emit({"operator": "spherical_%s" % args.kind, "var": args.var,
           "result": format_slice(g)}, args.format)
    return EXIT_OK


def _cmd_almansi(args):
    f, _ = _load(args)
    flavor = _FLAVORS[args.flavor]
    if flavor == "spherical":
        family = spherical_components(f, args.level)
        exact = reconstruct_symbolic(family) == f
        report = {
            "level": args.level,
            "flavor": args.flavor,
            "entries": {str(mask): family.entries[mask].to_json()
                        for mask in family.masks()},
            "reconstruction_residuals": {"symbolic_exact": exact,
                                         "max_residual": 0.0 if exact else None},
        }
        _emit(report, args.format)
        return EXIT_OK if exact else EXIT_FAIL
    result = check_reconstruction(_lift(f, args), flavor, args.level,
                                  **_given(args, _SAMPLING))
    report = {
        "level": args.level,
        "flavor": args.flavor,
        "entries": {str(mask): "numeric" for mask in range(1 << args.level)},
        "reconstruction_residuals": {key: result[key] for key in
                                     ("max_residual", "tolerance", "samples",
                                      "seed")},
    }
    _emit(report, args.format)
    return EXIT_OK if result["verdict"] else EXIT_FAIL


def _cmd_check_regular(args):
    f, _ = _load(args)
    if args.numeric:
        report = wirtinger.check_regularity_numeric(
            _lift(f, args), slice_established=True, **_given(args, _SAMPLING))
    else:
        report = wirtinger.check_regularity_symbolic(f)
    _emit(report, args.format)
    return EXIT_OK if report["verdict"] == "regular" else EXIT_FAIL


def _cmd_check_slice(args):
    f, _ = _load(args)
    report = wirtinger.check_strong_sliceness(_lift(f, args),
                                              **_given(args, _SAMPLING))
    _emit(report, args.format)
    return EXIT_OK if report["verdict"] else EXIT_FAIL


def _cmd_crosscheck(args):
    f, n = _load(args)
    indices = [args.m] if args.m is not None else range(1, min(n, 2) + 1)
    options = _given(args, {**_STENCIL, **_SAMPLING})
    reports = [wirtinger.crosscheck(f, m, **options) for m in indices]
    ok = all(rep["verdict"] for rep in reports)
    _emit({"records": reports, "verdict": ok}, args.format)
    return EXIT_OK if ok else EXIT_FAIL


_ERROR_TYPES = (
    (ExpressionSyntaxError, "syntax"),
    (ArityError, "arity"),
    (NearRealAxisError, "near-real-axis"),
    (DepthExhaustedError, "depth-exhausted"),
    (RealArgumentError, "real-argument"),
    (ZeroDivisionError, "division-by-zero"),
    (ValueError, "value"),
)


_HANDLERS = {
    "eval": _cmd_eval,
    "theta": lambda a: _cmd_wirtinger(a, conj=False),
    "thetabar": lambda a: _cmd_wirtinger(a, conj=True),
    "spherical": _cmd_spherical,
    "almansi": _cmd_almansi,
    "check-regular": _cmd_check_regular,
    "check-slice": _cmd_check_slice,
    "crosscheck": _cmd_crosscheck,
}


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        _resolve_numeric(args)
        return _HANDLERS[args.command](args)
    except Exception as exc:  # mapped to a machine-readable report
        for klass, label in _ERROR_TYPES:
            if isinstance(exc, klass):
                error = {"type": label, "message": str(exc)}
                if isinstance(exc, ExpressionSyntaxError):
                    error["offset"] = exc.offset
                print(json.dumps({"error": error}))
                return EXIT_ERROR
        raise


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
