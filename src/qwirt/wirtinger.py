"""Wirtinger operators and the checkers built on them.

Two realizations exist side by side.  The symbolic one acts on slice
polynomials, where the operators reduce to the slice partial derivatives.
The numeric one evaluates the defining differential expression verbatim on
any smooth field: the order-(m-1) Dirac family is built first, each entry is
differentiated with the global derivative pair in x_m, and the results are
summed with the ordered negated-conjugate-coordinate products on the left.
Both operators of a pair come from one family and one stencil per entry.
On lifted slice polynomials the two realizations agree, which is exercised
by the cross-check suite.
"""

import math
import warnings
from functools import reduce

from .quaternion import Quaternion, hamilton
from .numeric import _global_pair, _tangential, _add, lift, flat_point, \
    field_point, running_worst, sweep, report_tail, check_tolerance, \
    DEFAULT_STEP, DEFAULT_BAND
from .almansi import dirac_components, dirac_levels, complement_indices, \
    _neg_conj_value
from .sampling import _sample_points

MAX_NUMERIC_INDEX = 3

# Caps the variable count of the strong-sliceness check, whose Dirac levels
# run up to n: with one sample, the worst residual of the slice polynomial
# x1+x2+x3+x4 rises by level as 2.2e-10, 5.0e-8, 2.0e-5 and 1.7e-2, over
# the default tolerance 1e-2 at level 4.
MAX_SLICENESS_VARS = 3

DEPTH1_TOL = 1e-5
DEPTH2_TOL = 1e-3


def wirtinger_derivative(f, m):
    """Symbolic realization: the slice partial derivative w.r.t. x_m."""
    return f.slice_partial(m)


def wirtinger_conj_derivative(f, m):
    """Symbolic realization: the slice partial w.r.t. the conjugate of x_m."""
    return f.slice_partial_conj(m)


def _check_index(n, m):
    """Refuse an index outside 1..n or over the cap; from 3 on, warn once at
    the caller of the public entry point that checks, before any work."""
    if not 1 <= m <= n:
        raise ValueError("operator index %d out of range 1..%d" % (m, n))
    if m > MAX_NUMERIC_INDEX:
        raise ValueError("numeric Wirtinger operators are capped at index %d"
                         % MAX_NUMERIC_INDEX)
    if m >= 3:
        warnings.warn("numeric Wirtinger operator of index %d nests %d finite "
                      "differences; double precision may be marginal" % (m, m),
                      RuntimeWarning, stacklevel=3)


def _wirtinger_pair(field, m, point):
    """The index-m operator and its conjugate from one Dirac family, at a
    flat point, as component 4-tuples."""
    if m == 1:
        return _global_pair(field, 1, point)
    family = dirac_components(field, m - 1)
    theta = thetabar = (0.0, 0.0, 0.0, 0.0)
    for mask in family.masks():
        mult = _neg_conj_value(point, complement_indices(mask, m - 1))
        plain, conj = _global_pair(family.entries[mask], m, point)
        theta = _add(theta, hamilton(mult, plain))
        thetabar = _add(thetabar, hamilton(mult, conj))
    return theta, thetabar


def wirtinger_derivative_numeric(field, m, point):
    """Numeric realization of the index-m Wirtinger operator at a point."""
    _check_index(field.n, m)
    point = field_point(point, field.n)
    return Quaternion(*_wirtinger_pair(field, m, point)[0])


def wirtinger_conj_derivative_numeric(field, m, point):
    """Numeric realization of the conjugate index-m operator at a point."""
    _check_index(field.n, m)
    point = field_point(point, field.n)
    return Quaternion(*_wirtinger_pair(field, m, point)[1])


def default_tolerance(m):
    """Default residual tolerance by operator depth: the index-1 operators
    nest one difference, deeper ones nest two or more."""
    return DEPTH1_TOL if m == 1 else DEPTH2_TOL


def _stem_magnitude(f):
    """The largest coefficient norm, from the numerators: one int division
    per term rounds as ``abs`` of the ``Fraction`` quaternion does.  Where
    the squared norm leaves the float range, the norm is the integer square
    root of the squared numerators over ``den``, exact there to well under
    an ulp; only a norm that leaves the float range itself reads ``inf``."""
    den = f.den
    scale = den * den

    def norm(w, x, y, z):
        square = w * w + x * x + y * y + z * z
        try:
            return math.sqrt(square / scale)
        except OverflowError:
            try:
                return math.isqrt(square) / den
            except OverflowError:
                return math.inf

    return max((norm(*comps) for comps in f.terms.values()), default=0.0)


def check_regularity_symbolic(f):
    """Exact kernel test: regular iff every conjugate partial has zero stem."""
    residuals = {}
    failures = []
    for m in range(1, f.n + 1):
        g = wirtinger_conj_derivative(f, m)
        residuals["thetabar_%d" % m] = _stem_magnitude(g)
        if not g.is_zero():
            failures.append("thetabar_%d" % m)
    return {
        "operator": "thetabar",
        "realization": "symbolic",
        "residuals": residuals,
        "failures": failures,
        "max_residual": max(residuals.values(), default=0.0),
        "verdict": "regular" if not failures else "not-regular",
    }


def check_regularity_numeric(field, points=None, *, samples=10, seed=0,
                             tol=None, slice_established=False):
    """Residual kernel test on a smooth field at sampled admissible points.

    Without an established sliceness certificate a below-tolerance residual
    only yields the verdict ``inconclusive``: the kernel characterization is
    claimed for (locally strongly) slice inputs.
    """
    # the verdict needs every index up to n, so n over the cap is refused
    _check_index(field.n, field.n)
    if tol is not None:
        check_tolerance(tol)
    indices = range(1, field.n + 1)
    points = _sample_points(points, samples, seed, field.n)

    def thetabar(p):
        p = flat_point(p)
        for m in indices:
            yield "thetabar_%d" % m, abs(Quaternion(*_wirtinger_pair(field, m, p)[1]))

    residuals = sweep(points, thetabar)
    tolerances = {"thetabar_%d" % m: tol if tol is not None else default_tolerance(m)
                  for m in indices}
    failures = [key for key, worst in residuals.items()
                if not worst < tolerances[key]]
    verdict = ("not-regular" if failures
               else "regular" if slice_established else "inconclusive")
    return {
        "operator": "thetabar",
        "realization": "numeric",
        "residuals": residuals,
        "tolerances": tolerances,
        "failures": failures,
        "max_residual": reduce(running_worst, residuals.values(), 0.0),
        "samples": len(points),
        "seed": seed,
        "verdict": verdict,
    }


def check_strong_sliceness(field, points=None, *, samples=5, seed=0, tol=1e-2):
    """Residuals of the sphere-tangential derivatives of every Dirac
    component: all must vanish for a (strongly) slice field.

    Records one residual per (level m, tangential variable h <= m, pair
    i < j, subset mask), maximized over the sample points.  Fields of more
    than ``MAX_SLICENESS_VARS`` variables are refused.

    The families of each point are built on the caller's field itself.
    Differentiating a level-m entry again in a variable h <= m reaches a
    few base points twice, where a displaced coordinate such as
    (v + H) - h rounds to the bits of v + h; these are read again, as a
    memo of the field costs more lookups than it saves evaluations.
    """
    if field.n > MAX_SLICENESS_VARS:
        raise ValueError("strong sliceness check is capped at %d variables"
                         % MAX_SLICENESS_VARS)
    check_tolerance(tol)
    points = _sample_points(points, samples, seed, field.n)

    def tangential(p):
        # one recursion per point: its sibling memos hold this point's
        # stencils only
        p = flat_point(p)
        for family in dirac_levels(field, field.n):
            m = family.level
            for mask in family.masks():
                entry = family.entries[mask]
                for h in range(1, m + 1):
                    for i, j in ((1, 2), (1, 3), (2, 3)):
                        yield ((m, h, i, j, mask), abs(Quaternion(
                            *_tangential(entry, h, i, j, p))))

    residuals = sweep(points, tangential)
    records = [{"m": m, "h": h, "i": i, "j": j, "mask": mask, "residual": residual}
               for (m, h, i, j, mask), residual in residuals.items()]
    return {"records": records,
            **report_tail(residuals.values(), tol, points, seed)}


def check_conjugation_identity(f, m):
    """Exact stem identity tying each operator to its conjugate through the
    conjugate slice function, in both directions."""
    first = wirtinger_derivative(f, m).conjugate() == \
        wirtinger_conj_derivative(f.conjugate(), m)
    second = wirtinger_conj_derivative(f, m).conjugate() == \
        wirtinger_derivative(f.conjugate(), m)
    return first and second


def _pair_residuals(f, m, pair, field):
    """The residuals at a point of the numeric operator pair
    ``pair(field, m, p)``, which takes flat points, against the exact
    theta_m and thetabar_m of f.  Each exact operator is compiled once; the
    points were checked to have n coordinates."""
    plain = wirtinger_derivative(f, m).evaluator()
    conj = wirtinger_conj_derivative(f, m).evaluator()

    def residuals(p):
        theta, thetabar = pair(field, m, flat_point(p))
        yield "theta_%d" % m, abs(Quaternion(*theta) - plain(p))
        yield "thetabar_%d" % m, abs(Quaternion(*thetabar) - conj(p))

    return residuals


def check_independence(f, first, points=None, *, samples=10, seed=0,
                       tol=DEPTH1_TOL):
    """For f depending only on variables first..n: the lower-index operators
    vanish exactly, and the index-``first`` operators reduce to the global
    derivatives of the raw field (checked numerically on the lift)."""
    if not f.depends_only_on(first):
        raise ValueError("function depends on a variable below %d" % first)
    check_tolerance(tol)
    points = _sample_points(points, samples, seed, f.n)
    for h in range(1, first):
        if not (wirtinger_derivative(f, h).is_zero()
                and wirtinger_conj_derivative(f, h).is_zero()):
            return False
    residuals = _pair_residuals(f, first, _global_pair, lift(f))
    # stops at the first residual over the tolerance
    return all(residual < tol for p in points for _, residual in residuals(p))


def crosscheck(f, m, points=None, *, samples=10, seed=0, tol=None,
               step=DEFAULT_STEP, band=DEFAULT_BAND):
    """Agreement of the two realizations on a slice polynomial lifted with
    the given finite-difference step and exclusion band."""
    _check_index(f.n, m)
    tolerance = tol if tol is not None else default_tolerance(m)
    check_tolerance(tolerance)
    points = _sample_points(points, samples, seed, f.n)
    residuals = sweep(points, _pair_residuals(
        f, m, _wirtinger_pair, lift(f, step=step, band=band)))
    return {"operator": "theta_%d/thetabar_%d" % (m, m),
            "realization": "symbolic-vs-numeric",
            **report_tail(residuals.values(), tolerance, points, seed)}
