"""Command-line front end: parse slice polynomials, apply operators, run the
decomposition / regularity / sliceness suites, emit JSON or CSV reports.

Exit codes: 0 verdict pass or value emitted, 1 verdict fail, 2 error.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

from .quaternion import parse_quaternion, format_quaternion, RealArgumentError, \
    NumberTooLongError
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
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError("QWIRT_SEED must be an integer, not %r" % env) from None


def _given(args, keywords):
    """The library keyword arguments of the flags given on the command line,
    from a map of keyword to Namespace attribute."""
    return {keyword: getattr(args, dest) for keyword, dest in keywords.items()
            if getattr(args, dest) is not None}


def _load(args):
    """The lowered expression and the ``--at`` point (None without one).

    ``--at`` is split once: n is ``--n``, or else the largest of the
    expression's highest variable index, the number of point parts and 1.
    The point's literals are parsed after lowering and counted last, so
    errors come in the order syntax, arity, point literal, point count."""
    node = parse(args.expr)
    text = getattr(args, "at", None)
    parts = () if text is None else text.split(";")
    n = args.n if args.n is not None else max(max_variable_index(node),
                                             len(parts), 1)
    f = lower(node, n)
    if text is None:
        return f, None
    point = tuple(map(parse_quaternion, parts))
    if len(point) != n:
        raise ValueError("point has %d coordinates, expression needs %d"
                         % (len(point), n))
    return f, point


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
        out = []
        _write_json(report, out, "\n")
        print("".join(out))


def _strict(value):
    """The report with each non-finite float as its string: "inf", "-inf"
    or "nan", as strict JSON has no such numbers."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


_encode_str = json.encoder.encode_basestring_ascii


def _json_scalar(value):
    """The JSON text of a value that is not a list, tuple or dict, as
    ``json.dumps(_strict(value), default=str)`` writes it; None for a
    container.  The type tests are ``json.encoder``'s, in its order, after
    a shortcut for the exact types that reports are mostly made of."""
    cls = type(value)
    if cls is str:
        return _encode_str(value)
    if cls is int:
        return int.__repr__(value)
    if cls is list or cls is dict:
        return None
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        value = _strict(value)
        return (float.__repr__(value) if isinstance(value, float)
                else _encode_str(value))
    if isinstance(value, (list, tuple, dict)):
        return None
    return _encode_str(str(value))


def _json_key(key):
    """A dict key as ``json.dumps(_strict(report))`` writes it: a str as it
    is, a float, int, bool or None key as its JSON text (``_strict`` leaves
    keys alone, so a NaN key is "NaN"); any other key is a TypeError."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError("keys must be str, int, float, bool or None, "
                            "not %s" % type(key).__name__)
        key = json.dumps(key)
    return _encode_str(key)


def _write_json(value, out, newline):
    """Append to ``out`` the text ``json.dumps(_strict(value), indent=2,
    default=str)`` gives ``value`` at the indent of ``newline``: one pass
    that writes each non-finite float as its string, and each list of
    scalars in one join."""
    text = _json_scalar(value)
    if text is not None:
        out.append(text)
        return
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            text = _json_scalar(item)
            key = (_encode_str(key) if type(key) is str
                   else _json_key(key))
            if text is None:
                out.append(sep + key + ": ")
                _write_json(item, out, inner)
            else:
                out.append(sep + key + ": " + text)
            sep = "," + inner
        out.append(newline + "}")
        return
    if not value:
        out.append("[]")
        return
    texts = [_json_scalar(item) for item in value]
    if None not in texts:
        out.append("[" + inner + ("," + inner).join(texts) + newline + "]")
        return
    sep = "[" + inner
    for item, text in zip(value, texts):
        out.append(sep)
        if text is None:
            _write_json(item, out, inner)
        else:
            out.append(text)
        sep = "," + inner
    out.append(newline + "]")


def _format_value(value):
    """A computed quaternion's literal; a non-finite one is an overflow."""
    text = format_quaternion(value)
    if not all(map(math.isfinite, value.components())):
        raise OverflowError("non-finite value %s" % text)
    return text


def _cmd_eval(args, f, point):
    return {"value": _format_value(f.evaluate(point))}, EXIT_OK


def _cmd_wirtinger(args, f, point):
    conj = args.command == "thetabar"
    if args.numeric:
        if point is None:
            raise ValueError("--numeric evaluation needs --at")
        point = tuple(q.to_float() for q in point)
        op = (wirtinger.wirtinger_conj_derivative_numeric if conj
              else wirtinger.wirtinger_derivative_numeric)
        value = op(_lift(f, args), args.m, point)
        return {"operator": args.command, "m": args.m, "realization": "numeric",
                "value": _format_value(value)}, EXIT_OK
    g = (wirtinger.wirtinger_conj_derivative(f, args.m) if conj
         else wirtinger.wirtinger_derivative(f, args.m))
    return {"operator": args.command, "m": args.m,
            "result": format_slice(g)}, EXIT_OK


def _cmd_spherical(args, f, point):
    g = (f.spherical_value(args.var) if args.kind == "value"
         else f.spherical_derivative(args.var))
    return {"operator": "spherical_%s" % args.kind, "var": args.var,
            "result": format_slice(g)}, EXIT_OK


def _cmd_almansi(args, f, point):
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
        return report, EXIT_OK if exact else EXIT_FAIL
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
    return report, EXIT_OK if result["verdict"] else EXIT_FAIL


def _cmd_check_regular(args, f, point):
    if args.numeric:
        report = wirtinger.check_regularity_numeric(
            _lift(f, args), slice_established=True, **_given(args, _SAMPLING))
    else:
        report = wirtinger.check_regularity_symbolic(f)
    return report, EXIT_OK if report["verdict"] == "regular" else EXIT_FAIL


def _cmd_check_slice(args, f, point):
    report = wirtinger.check_strong_sliceness(_lift(f, args),
                                              **_given(args, _SAMPLING))
    return report, EXIT_OK if report["verdict"] else EXIT_FAIL


def _cmd_crosscheck(args, f, point):
    indices = [args.m] if args.m is not None else range(1, min(f.n, 2) + 1)
    options = _given(args, {**_STENCIL, **_SAMPLING})
    reports = [wirtinger.crosscheck(f, m, **options) for m in indices]
    ok = all(rep["verdict"] for rep in reports)
    return {"records": reports, "verdict": ok}, EXIT_OK if ok else EXIT_FAIL


_ERROR_TYPES = (
    (ExpressionSyntaxError, "syntax"),
    (ArityError, "arity"),
    (NearRealAxisError, "near-real-axis"),
    (DepthExhaustedError, "depth-exhausted"),
    (RealArgumentError, "real-argument"),
    (ZeroDivisionError, "division-by-zero"),
    (OverflowError, "overflow"),
    (NumberTooLongError, "number-too-long"),
    (ValueError, "value"),
)


_HANDLERS = {
    "eval": _cmd_eval,
    "theta": _cmd_wirtinger,
    "thetabar": _cmd_wirtinger,
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
        f, point = _load(args)
        report, code = _HANDLERS[args.command](args, f, point)
        _emit(report, args.format)
        return code
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
