"""Output checker for the benchmark's jobs.

Each job's exit code and stdout are judged against the exact engine or an
independent path through the library:

* numeric verdicts (``check-regular --numeric``, ``almansi --flavor a``)
  must match ``is_slice_regular()`` of the exact polynomial;
* ``crosscheck``, ``almansi --flavor gamma`` and ``check-slice`` on lifted
  slice polynomials must pass;
* numeric operator values are compared with the exact slice partials at
  the same point, within the library's default tolerance for that depth;
* ``eval`` (exact stem, float result) is compared with ``lift(f)`` at the
  same point;
* symbolic ``theta``/``thetabar``/``spherical`` results are re-parsed through
  the expression language and compared with the library's operators;
* ``almansi --flavor sp`` must exit 0 with 2^level entries.

Import this module only with qwirt importable.
"""

import json
import math
import re

from qwirt import lift, parse_quaternion, parse_slice
from qwirt.wirtinger import default_tolerance

# Relative agreement required between exact eval and the float lift.
EVAL_RTOL = 1e-9

_FLOAT_COMPONENT_RE = re.compile(
    r"([+-]?)(\d+(?:\.\d*)?(?:e[+-]?\d+)?|inf|nan)?([ijk]?)")


class CheckFailure(Exception):
    """The job's output disagrees with the reference."""


def parse_float_quaternion(text):
    """Read a float quaternion as the CLI prints it, e.g. ``0.5-1e-07i+2j``."""
    comps = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
    if text == "0":
        return comps[""], 0.0, 0.0, 0.0
    pos = 0
    while pos < len(text):
        match = _FLOAT_COMPONENT_RE.match(text, pos)
        if match.end() == pos:
            raise CheckFailure("unreadable quaternion %r" % text)
        sign, number, unit = match.groups()
        value = float(number) if number else 1.0
        comps[unit] += -value if sign == "-" else value
        pos = match.end()
    return comps[""], comps["i"], comps["j"], comps["k"]


def _distance(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _float_point(text):
    return tuple(parse_quaternion(part).to_float() for part in text.split(";"))


def _exact_point(text):
    return tuple(parse_quaternion(part) for part in text.split(";"))


def _components(q):
    return tuple(float(c) for c in q.components())


def _expect_exit(rc, expected):
    if rc != expected:
        raise CheckFailure("exit code %r, expected %r" % (rc, expected))


def _ratio(residual, tolerance):
    if not math.isfinite(residual) or residual >= tolerance:
        raise CheckFailure("residual %r not below tolerance %r"
                           % (residual, tolerance))
    return residual / tolerance


def check(job, rc, out):
    """Judge one job; raise CheckFailure on a wrong output.

    Returns the share of its tolerance the job used (residual / tolerance)
    for numeric jobs expected to pass, else None.
    """
    f = parse_slice(job.expr, job.n)
    kind = job.kind
    if kind in ("check-regular", "almansi-a"):
        regular = f.is_slice_regular()
        _expect_exit(rc, 0 if regular else 1)
        report = json.loads(out)
        if not regular:
            return None
        if kind == "almansi-a":
            res = report["reconstruction_residuals"]
            return _ratio(res["max_residual"], res["tolerance"])
        if "tolerances" not in report:  # symbolic verdict
            return None
        return max(_ratio(report["residuals"][key], report["tolerances"][key])
                   for key in report["residuals"])
    if kind in ("crosscheck", "almansi-gamma", "check-slice"):
        _expect_exit(rc, 0)
        report = json.loads(out)
        if kind == "crosscheck":
            return max(_ratio(rec["max_residual"], rec["tolerance"])
                       for rec in report["records"])
        res = report.get("reconstruction_residuals", report)
        return _ratio(res["max_residual"], res["tolerance"])
    _expect_exit(rc, 0)
    report = json.loads(out)
    if kind in ("theta-1", "thetabar-1", "thetabar-3"):
        m = job.params["m"]
        op = f.slice_partial_conj if kind.startswith("thetabar") else f.slice_partial
        exact = op(m).evaluate(_exact_point(job.params["at"]))
        got = parse_float_quaternion(report["value"])
        return _ratio(_distance(got, _components(exact)), default_tolerance(m))
    if kind == "eval":
        got = parse_float_quaternion(report["value"])
        ref = _components(lift(f)(_float_point(job.params["at"])))
        scale = 1.0 + math.sqrt(sum(x * x for x in ref))
        if not _distance(got, ref) <= EVAL_RTOL * scale:
            raise CheckFailure("eval %r disagrees with lift %r" % (got, ref))
        return None
    if kind in ("theta", "thetabar", "spherical"):
        if kind == "spherical":
            expected = f.spherical_derivative(job.params["var"])
        elif kind == "theta":
            expected = f.slice_partial(job.params["m"])
        else:
            expected = f.slice_partial_conj(job.params["m"])
        if parse_slice(report["result"], job.n) != expected:
            raise CheckFailure("symbolic result differs from the library")
        return None
    if kind == "almansi-sp":
        if len(report["entries"]) != 1 << job.params["level"]:
            raise CheckFailure("almansi sp returned %d entries"
                               % len(report["entries"]))
        return None
    raise CheckFailure("no check for job kind %r" % kind)
