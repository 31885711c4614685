"""Finite-difference realizations of the differential operators on black-box
quaternionic fields.

A field is a pure function from points of H^n to quaternions, with its
smoothness (the budget of derivative nestings), a step for the central
differences and an exclusion band around the real axes for the operators
that left-multiply by an inverted imaginary part.  All schemes are
second-order central differences; a derivative of a derived field steps by
the larger ``NESTED_STEP``, balancing truncation against cancellation.
Left multiplications by Im(x_m)^-1 and by i, j, k are applied in the
displayed order, which is load-bearing for noncommuting values.

The operators run on flat points and tuple values.  A point is the flat
tuple of its 4n components, as given, which is also the key of every memo;
a component becomes a float only where an operator calls ``float()`` on it.
A value is a component 4-tuple.  Products go through ``quaternion.hamilton``
or restate it in its operation order (the product by x_m, and the products
by i, j and k).  The unit products leave out only its multiplications by
1, as ``1 * v`` is ``v``; each ``0 * v`` stays, written ``0.0 * v`` (every
v there is a float, and int 0 converts to 0.0 exactly), since it can decide
the sign of a zero or be NaN.  Sums, negations and scalings follow the
component order of ``Quaternion`` arithmetic, inline where they sit on the
stencil path, so every value is bit for bit the one quaternion arithmetic
gives.  The public operators
take a point of quaternions through ``field_point``, which refuses a point
whose length is not the field's n, and return a quaternion.

The step is the field's: ``NumericField.step`` is the only step an
operator reads, so no operator takes one per call.  Every coordinate
partial comes from one stencil routine, ``_partials``: several coordinates
of one variable in one pass, each displaced by +h, then by -h, in the
operator's order.  Each operator checks its variable and spends its
derivative once, then calls it.  Asked for the partials of x_m times the
field too, it forms both from the same values, so the sibling entries D g
and D(x_m g) of a component family (``_negated_fueter_pair``,
``_normalized_dirac_pair``) take one stencil pass per point.  The Fueter
and spherical Dirac formulas (``_fueter_sum``, ``_dirac_sum``) are shared
by the single operators and the pairs.  ``_partials`` and the second-order
stencil of ``laplacian`` displace every coordinate by one rule,
``_moved``, which refuses a step that does not move the coordinate, or
whose displaced coordinates, as rounded, do not span twice the step; and
both refuse, through ``_stencil_scale``, a step whose scale 1 / 2h or
1 / h^2 is not finite, before any evaluation.

Every field is a ``NumericField``, with one rule for its flat form: ``flat``
is ``func.flat`` when ``func`` has one, as the compiled stem of ``lift(f)``
and every field the library builds do, else ``func`` at the point's
quaternions.  So a wrapper without ``flat`` put in place of ``func`` sees
every evaluation of its field (``functools.wraps`` would copy ``flat`` onto
it, and the wrapper would be bypassed).

Memos sit where values are shared: both fields of a sibling pair
(``_derived_pair``, the one builder of derivative fields, one compute
filling both memos).  Every suite reads the caller's field itself, with no
memo: the base points a family's stencils reach are pairwise distinct, up
to a few float coincidences when the strong-sliceness check differentiates
its entries again.  ``multiply_by_variable``, the tests' reference for the
sibling product, keeps none.
"""

import math
from functools import reduce

from .quaternion import Quaternion, hamilton, flat_point, quaternion_form

DEFAULT_STEP = 1e-3
# Outer step for differentiating an already-derived field.  Cancellation of
# the inner noise grows like (eval roundoff)/(2h inner * 2h outer) ~ 1e-10,
# while the outer truncation is h^2/6 times a third derivative, so a slightly
# enlarged outer step keeps both comfortably below the 1e-4 suite tolerances.
NESTED_STEP = 2e-3
DEFAULT_BAND = 0.1
DEFAULT_SMOOTHNESS = 16

_ZERO = (0.0, 0.0, 0.0, 0.0)


class NearRealAxisError(ValueError):
    """A point fell inside the exclusion band around a real axis."""


class DepthExhaustedError(RuntimeError):
    """The declared smoothness budget cannot absorb another derivative."""


def field_point(point, n):
    """The flat 4n-tuple of a point of H^n given as quaternions; a point of
    any other length is refused before any evaluation.  Every public
    operator takes its point through here."""
    if len(point) != n:
        raise ValueError("point has %d coordinates, expected %d"
                         % (len(point), n))
    return flat_point(point)


class NumericField:
    """A black-box function H^n -> H with a finite-difference configuration.

    ``func`` maps a tuple of n quaternions to a quaternion and must be pure.
    It may carry ``flat``, the same function from a flat 4n-tuple to a
    component 4-tuple.  The field's ``flat``, on which the operators run, is
    ``func.flat`` when there is one, else ``func`` at the point's
    quaternions.  A field built by the caller keeps no state, and every
    suite reads it without a memo; the sibling pairs of a family memoize
    their values for as long as they live, and ``multiply_by_variable``
    keeps none.  Each of them reads its parent's ``flat`` once, when it is
    built.

    n must be an int >= 1, the smoothness an int >= 0, the step finite and
    > 0, the band finite and >= 0.
    """

    __slots__ = ("func", "n", "smoothness", "step", "band")

    def __init__(self, func, n, smoothness=DEFAULT_SMOOTHNESS,
                 step=DEFAULT_STEP, band=DEFAULT_BAND):
        if type(n) is not int or n < 1:
            raise ValueError("a field needs at least one variable: n must be "
                             "an int >= 1, got %r" % (n,))
        if type(smoothness) is not int or smoothness < 0:
            raise ValueError("smoothness budget must be an int >= 0, got %r"
                             % (smoothness,))
        if not (math.isfinite(step) and step > 0):
            raise ValueError("finite-difference step must be finite and > 0, "
                             "got %r" % step)
        if not (math.isfinite(band) and band >= 0):
            raise ValueError("exclusion band must be finite and >= 0, got %r"
                             % band)
        self.func = func
        self.n = n
        self.smoothness = smoothness
        self.step = step
        self.band = band

    def __call__(self, point):
        return self.func(point)

    @property
    def flat(self):
        """The field on flat points: ``func.flat``, else ``func`` adapted."""
        func = self.func
        flat = getattr(func, "flat", None)
        if flat is None:
            def flat(point):
                return func(tuple([Quaternion(*point[k:k + 4])
                                   for k in range(0, len(point), 4)])).components()
        return flat

    def spend(self, depth=1):
        if self.smoothness < depth:
            raise DepthExhaustedError(
                "operator needs %d derivative(s), smoothness budget is %d"
                % (depth, self.smoothness))


def running_worst(worst, residual):
    """The larger of two residuals, with NaN beating every number.

    ``max(0.0, nan)`` is ``0.0``, which would let a non-finite residual pass
    a tolerance; folded with this instead, it reaches the verdict, and every
    ``residual < tol`` test then fails.
    """
    return residual if residual > worst or residual != residual else worst


def sweep(points, residuals):
    """The worst residual of each key over the points: the one loop over
    sample points of every suite.  ``residuals(point)`` yields ``(key,
    residual)`` pairs; keys keep the order in which they first appear."""
    worst = {}
    for point in points:
        for key, residual in residuals(point):
            worst[key] = running_worst(worst.get(key, 0.0), residual)
    return worst


def check_tolerance(tol):
    """Refuse a residual tolerance that is not finite and > 0: every finite
    residual passes an infinite one, and none passes zero or less."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("residual tolerance must be finite and > 0, got %r"
                         % tol)


def report_tail(residuals, tol, points, seed):
    """The closing keys of a suite report: the worst of ``residuals``, the
    tolerance, the sample count and seed, and whether the worst passed."""
    worst = reduce(running_worst, residuals, 0.0)
    return {"max_residual": worst, "tolerance": tol, "samples": len(points),
            "seed": seed, "verdict": worst < tol}


def _check_var(field, m):
    if not 1 <= m <= field.n:
        raise ValueError("variable index %d out of range 1..%d" % (m, field.n))


def _check_off_axis(field, m, point):
    k = 4 * m - 3
    x, y, z = point[k:k + 3]
    if float(x * x + y * y + z * z) < field.band * field.band:
        raise NearRealAxisError(
            "|Im(x_%d)| < %g at the requested point" % (m, field.band))


# -- values as component 4-tuples, in the operation order of Quaternion ----------


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def _scale(p, s):
    return (p[0] * s, p[1] * s, p[2] * s, p[3] * s)


def _coordinates(point, m):
    """The float components of x_m."""
    k = 4 * (m - 1)
    return (float(point[k]), float(point[k + 1]), float(point[k + 2]),
            float(point[k + 3]))


def _inverse_im(point, m, scale):
    """(Im(x_m) * scale)^-1 as ``Quaternion.inverse`` computes it: the
    conjugate times one over the squared norm, real part 0.0.  A scale of
    1.0 changes no bit."""
    _, x, y, z = _coordinates(point, m)
    x, y, z = x * scale, y * scale, z * scale
    n2 = x * x + y * y + z * z
    if n2 == 0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    r = 1.0 / n2
    return (0.0 * r, -x * r, -y * r, -z * r)


# -- operators on flat points --------------------------------------------------------


def _moved(h, m, i, v):
    """Coordinate i of x_m, which is v, displaced by +h and by -h: the one
    displacement rule of both stencils.  A step that leaves a displaced
    coordinate equal to v is refused, as every difference over it would be
    exactly 0; so is one whose displaced coordinates, as rounded, span more
    than 2^-20 away from 2h, as every difference is divided by 2h."""
    plus, minus = v + h, v + -h
    if plus == v or minus == v:
        raise ValueError("finite-difference step %s does not move coordinate "
                         "%d of x_%d, which is %s" % (h, i, m, v))
    if abs(plus - minus - 2.0 * h) > 2.0 * h * 2.0 ** -20:
        raise ValueError("finite-difference step %s spans %s, not twice the "
                         "step, at coordinate %d of x_%d, which is %s"
                         % (h, plus - minus, i, m, v))
    return plus, minus


def _stencil_scale(h, span, m, coords, point):
    """One over ``span``, the denominator of a stencil over step h in the
    coordinates ``coords`` of x_m.  A scale that is not finite, as for a
    step near the bottom of the float range, is refused before any
    evaluation; ``_moved`` has its say on every coordinate first, so a step
    that does not move one keeps that refusal."""
    scale = 1.0 / span if span else math.inf
    if scale == math.inf:
        k = 4 * (m - 1)
        for i in coords:
            _moved(h, m, i, point[k + i])
        raise ValueError("finite-difference step %s is too small: its "
                         "stencil scale 1 / %s is not finite" % (h, span))
    return scale


def _partials(field, m, coords, point, times_variable=False):
    """The central differences over the field's step in the real
    coordinates ``coords`` of x_m, in that order, each from the value at the
    point displaced by +h, then by -h (``_moved``): the one first-order
    stencil of every coordinate partial.  It checks nothing; its caller has
    checked m and spent one derivative.  The differences are scaled in place,
    in the operation order of ``_sub`` and ``_scale``.  The displaced points
    are written into one list, each coordinate set to +h, then to -h, then
    back, and read as tuples.

    With ``times_variable``, it returns the partials of the field and of
    x_m times the field, from the same field values: the product at each
    displaced point is the one ``multiply_by_variable`` forms there, from
    the float components of x_m at that point.

    ``_moved`` refuses a step before that coordinate's values are read, and
    ``_stencil_scale`` one whose scale 1 / 2h is not finite before any
    value is read."""
    h = field.step
    scale = _stencil_scale(h, 2.0 * h, m, coords, point)
    flat = field.flat
    out = []
    if times_variable:
        xm = list(_coordinates(point, m))
        products = []
    shifted = list(point)
    for i in coords:
        k = 4 * (m - 1) + i
        v = point[k]
        plus, minus = _moved(h, m, i, v)
        shifted[k] = plus
        pw, px, py, pz = flat(tuple(shifted))
        shifted[k] = minus
        mw, mx, my, mz = flat(tuple(shifted))
        shifted[k] = v
        out.append(((pw - mw) * scale, (px - mx) * scale, (py - my) * scale,
                    (pz - mz) * scale))
        if times_variable:
            # x_m times each value, in the operation order of hamilton
            xm[i] = float(plus)
            a, b, c, d = xm
            pw, px, py, pz = (a * pw - b * px - c * py - d * pz,
                              a * px + b * pw + c * pz - d * py,
                              a * py - b * pz + c * pw + d * px,
                              a * pz + b * py - c * px + d * pw)
            xm[i] = float(minus)
            a, b, c, d = xm
            mw, mx, my, mz = (a * mw - b * mx - c * my - d * mz,
                              a * mx + b * mw + c * mz - d * my,
                              a * my - b * mz + c * mw + d * mx,
                              a * mz + b * my - c * mx + d * mw)
            xm[i] = float(v)
            products.append(((pw - mw) * scale, (px - mx) * scale,
                             (py - my) * scale, (pz - mz) * scale))
    return (out, products) if times_variable else out


def _euler_sum(coords, partials):
    """The sum of x_{m_i} times the partial in x_{m_i}, i = 1, 2, 3, given
    the float components of x_m."""
    total = _ZERO
    for i, d in zip((1, 2, 3), partials):
        total = _add(total, _scale(d, coords[i]))
    return total


def _global_pair(field, m, point):
    _check_var(field, m)
    _check_off_axis(field, m, point)
    field.spend()
    d0, *rest = _partials(field, m, (0, 1, 2, 3), point)
    euler = hamilton(_inverse_im(point, m, 1.0),
                     _euler_sum(_coordinates(point, m), rest))
    return _scale(_add(d0, euler), 0.5), _scale(_sub(d0, euler), 0.5)


def _tangential(field, m, i, j, point):
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("tangential indices must be in 1..3")
    _check_var(field, m)
    coords = _coordinates(point, m)
    field.spend()
    dj, di = _partials(field, m, (j, i), point)
    return _sub(_scale(dj, coords[i]), _scale(di, coords[j]))


def _dirac_sum(x1, x2, x3, d1, d2, d3):
    """-i L_23 + j L_13 - k L_12 from the float imaginary components of x_m
    and the partials in them."""
    a1, b1, c1, e1 = d1
    a2, b2, c2, e2 = d2
    a3, b3, c3, e3 = d3
    # the products by i, j and k in the operation order of hamilton(unit, q),
    # without its multiplications by 1
    e, f, g, h = (a3 * x2 - a2 * x3, b3 * x2 - b2 * x3, c3 * x2 - c2 * x3,
                  e3 * x2 - e2 * x3)
    w, x, y, z = (0.0 * e - f - 0.0 * g - 0.0 * h,
                  0.0 * f + e + 0.0 * h - 0.0 * g,
                  0.0 * g - h + 0.0 * e + 0.0 * f,
                  0.0 * h + g - 0.0 * f + 0.0 * e)
    e, f, g, h = (a3 * x1 - a1 * x3, b3 * x1 - b1 * x3, c3 * x1 - c1 * x3,
                  e3 * x1 - e1 * x3)
    jw, jx, jy, jz = (0.0 * e - 0.0 * f - g - 0.0 * h,
                      0.0 * f + 0.0 * e + h - 0.0 * g,
                      0.0 * g - 0.0 * h + e + 0.0 * f,
                      0.0 * h + 0.0 * g - f + 0.0 * e)
    e, f, g, h = (a2 * x1 - a1 * x2, b2 * x1 - b1 * x2, c2 * x1 - c1 * x2,
                  e2 * x1 - e1 * x2)
    kw, kx, ky, kz = (0.0 * e - 0.0 * f - 0.0 * g - h,
                      0.0 * f + 0.0 * e + 0.0 * h - g,
                      0.0 * g - 0.0 * h + 0.0 * e + f,
                      0.0 * h + 0.0 * g - 0.0 * f + e)
    return (-w + jw - kw, -x + jx - kx, -y + jy - ky, -z + jz - kz)


def _fueter_sum(d0, d1, d2, d3):
    """(d0 + i d1 + j d2 + k d3) / 2 from the four coordinate partials."""
    dw, dx, dy, dz = d0
    e, f, g, h = d1
    e2, f2, g2, h2 = d2
    e3, f3, g3, h3 = d3
    # in the operation order of _add, hamilton(unit, d) and _scale, without
    # hamilton's multiplications by 1
    return ((((dw + (0.0 * e - f - 0.0 * g - 0.0 * h))
              + (0.0 * e2 - 0.0 * f2 - g2 - 0.0 * h2))
             + (0.0 * e3 - 0.0 * f3 - 0.0 * g3 - h3)) * 0.5,
            (((dx + (0.0 * f + e + 0.0 * h - 0.0 * g))
              + (0.0 * f2 + 0.0 * e2 + h2 - 0.0 * g2))
             + (0.0 * f3 + 0.0 * e3 + 0.0 * h3 - g3)) * 0.5,
            (((dy + (0.0 * g - h + 0.0 * e + 0.0 * f))
              + (0.0 * g2 - 0.0 * h2 + e2 + 0.0 * f2))
             + (0.0 * g3 - 0.0 * h3 + 0.0 * e3 + f3)) * 0.5,
            (((dz + (0.0 * h + g - 0.0 * f + 0.0 * e))
              + (0.0 * h2 + 0.0 * g2 - f2 + 0.0 * e2))
             + (0.0 * h3 + 0.0 * g3 - 0.0 * f3 + e3)) * 0.5)


# -- the public operators: points of quaternions in, a quaternion out ----------------


def coordinate_partial(field, m, i, point):
    """Central difference for the partial in the i-th real coordinate of x_m."""
    _check_var(field, m)
    if not 0 <= i <= 3:
        raise ValueError("coordinate index must be in 0..3")
    field.spend()
    point = field_point(point, field.n)
    return Quaternion(*_partials(field, m, (i,), point)[0])


def euler_operator(field, m, point):
    """Sum of x_{m_i} d/dx_{m_i} over the three imaginary coordinates."""
    point = field_point(point, field.n)
    _check_var(field, m)
    coords = _coordinates(point, m)
    field.spend()
    return Quaternion(*_euler_sum(coords,
                                  _partials(field, m, (1, 2, 3), point)))


def global_derivative(field, m, point):
    """(d/dx_{m_0} + Im(x_m)^-1 * Euler)/2; undefined inside the band."""
    return Quaternion(*_global_pair(field, m, field_point(point, field.n))[0])


def global_conj_derivative(field, m, point):
    """(d/dx_{m_0} - Im(x_m)^-1 * Euler)/2; undefined inside the band."""
    return Quaternion(*_global_pair(field, m, field_point(point, field.n))[1])


def tangential_derivative(field, m, i, j, point):
    """x_{m_i} d/dx_{m_j} - x_{m_j} d/dx_{m_i}, tangential to the spheres."""
    point = field_point(point, field.n)
    return Quaternion(*_tangential(field, m, i, j, point))


def spherical_dirac(field, m, point):
    """The spherical Dirac operator -i L_23 + j L_13 - k L_12 in x_m.

    The three tangential derivatives share one set of coordinate partials.
    """
    point = field_point(point, field.n)
    _check_var(field, m)
    _, x1, x2, x3 = _coordinates(point, m)
    field.spend()
    return Quaternion(*_dirac_sum(x1, x2, x3,
                                  *_partials(field, m, (1, 2, 3), point)))


def fueter_derivative(field, m, point):
    """The Cauchy-Riemann-Fueter operator (d0 + i d1 + j d2 + k d3)/2 in x_m."""
    point = field_point(point, field.n)
    _check_var(field, m)
    field.spend()
    return Quaternion(*_fueter_sum(*_partials(field, m, (0, 1, 2, 3), point)))


def laplacian(field, m, point):
    """Four-coordinate Laplacian in x_m by second central differences over
    the field's step, each coordinate displaced by ``_moved``.  All four are
    displaced, and the scale 1 / h^2 checked by ``_stencil_scale``, before
    the first evaluation."""
    point = field_point(point, field.n)
    _check_var(field, m)
    field.spend(2)
    h = field.step
    k = 4 * (m - 1)
    displaced = [_moved(h, m, i, point[k + i]) for i in range(4)]
    scale = _stencil_scale(h, h * h, m, range(4), point)
    flat = field.flat
    twice = _scale(flat(point), 2.0)
    total = _ZERO
    shifted = list(point)
    for i, (plus, minus) in enumerate(displaced):
        shifted[k + i] = plus
        total = _add(total, flat(tuple(shifted)))
        shifted[k + i] = minus
        total = _sub(_add(total, flat(tuple(shifted))), twice)
        shifted[k + i] = point[k + i]
    return Quaternion(*_scale(total, scale))


# -- derived fields -------------------------------------------------------------


def _derived_pair(field, m, pair):
    """The two fields of ``pair``, a function of flat points whose value is
    a pair of component 4-tuples: one derivative each of ``field`` in x_m,
    and the one place a derivative field is built.  Each spends one
    derivative of the budget now and steps by ``NESTED_STEP``, with the
    parent's band.  Each memoizes its values by the flat point: one call of
    ``pair`` fills both memos at a point, and a raised exception is stored
    in neither."""
    _check_var(field, m)
    field.spend()
    first, second = {}, {}

    def memo_first(point):
        value = first.get(point)
        if value is None:
            value, second[point] = pair(point)
            first[point] = value
        return value

    def memo_second(point):
        value = second.get(point)
        if value is None:
            first[point], value = pair(point)
            second[point] = value
        return value

    return tuple(NumericField(quaternion_form(memo), field.n,
                              field.smoothness - 1, NESTED_STEP, field.band)
                 for memo in (memo_first, memo_second))


def _negated_fueter_pair(field, m):
    """The fields of -(Cauchy-Riemann-Fueter derivative in x_m) of
    ``field`` and of ``multiply_by_variable(field, m)``, from one stencil
    pass per point: bit for bit ``-fueter_derivative`` of each."""

    def pair(point):
        partials, products = _partials(field, m, (0, 1, 2, 3), point,
                                       times_variable=True)
        w, x, y, z = _fueter_sum(*partials)
        pw, px, py, pz = _fueter_sum(*products)
        return (-w, -x, -y, -z), (-pw, -px, -py, -pz)

    return _derived_pair(field, m, pair)


def _normalized_dirac_pair(field, m):
    """The fields of (2 Im(x_m))^-1 times the spherical Dirac derivative in
    x_m of ``field`` and of ``multiply_by_variable(field, m)``, from one
    stencil pass per point: bit for bit ``(Im(x_m) * 2.0).inverse() *
    spherical_dirac`` of each.  The band is checked, and the inverse
    formed, once for both and before the stencil runs."""

    def pair(point):
        _check_off_axis(field, m, point)
        inverse = _inverse_im(point, m, 2.0)
        _, x1, x2, x3 = _coordinates(point, m)
        partials, products = _partials(field, m, (1, 2, 3), point,
                                       times_variable=True)
        return (hamilton(inverse, _dirac_sum(x1, x2, x3, *partials)),
                hamilton(inverse, _dirac_sum(x1, x2, x3, *products)))

    return _derived_pair(field, m, pair)


def multiply_by_variable(field, m):
    """Pointwise left multiplication by x_m, by ``hamilton`` on the float
    components of x_m; smooth, so the derivative budget is untouched.  It
    keeps no memo.  It is the reference of the sibling product that
    ``_partials`` forms."""
    _check_var(field, m)
    flat = field.flat

    def func(point):
        return hamilton(_coordinates(point, m), flat(point))

    return NumericField(quaternion_form(func), field.n, field.smoothness,
                        field.step, field.band)


def lift(f, smoothness=DEFAULT_SMOOTHNESS, step=DEFAULT_STEP, band=DEFAULT_BAND):
    """Wrap an exact slice function as a numeric field.

    The field's ``func`` is ``f.evaluator()``, the compiled stem that
    ``SliceFunction.evaluate`` runs too; the operators call its flat
    kernel, ``func.flat``.
    """
    return NumericField(f.evaluator(), f.n, smoothness, step, band)
