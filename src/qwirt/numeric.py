"""Finite-difference realizations of the differential operators on black-box
quaternionic fields.

A field is any pure function from points of H^n to quaternions, wrapped with
its declared smoothness (the budget of derivative nestings), a step for the
central differences, and an exclusion band around the real axes for the
operators that left-multiply by an inverted imaginary part.  All schemes are
second-order central differences with a fixed step; a nested derivative of a
derived field uses a larger outer step to balance truncation against
cancellation.  Left multiplications by Im(x_m)^-1 and by the units i, j, k
are applied exactly in the displayed order; with noncommuting values the
order is load-bearing.
"""

from functools import reduce

from .quaternion import Quaternion, I, J, K, coordinate, replace_coordinate

DEFAULT_STEP = 1e-3
# Outer step for differentiating an already-derived field.  Cancellation of
# the inner noise grows like (eval roundoff)/(2h inner * 2h outer) ~ 1e-10,
# while the outer truncation is h^2/6 times a third derivative, so a slightly
# enlarged outer step keeps both comfortably below the 1e-4 suite tolerances.
NESTED_STEP = 2e-3
DEFAULT_BAND = 0.1
DEFAULT_SMOOTHNESS = 16


class NearRealAxisError(ValueError):
    """A point fell inside the exclusion band around a real axis."""


class DepthExhaustedError(RuntimeError):
    """The declared smoothness budget cannot absorb another derivative."""


class NumericField:
    """A black-box function H^n -> H with a finite-difference configuration.

    The function must be pure: its value depends on the point alone.  A field
    built by the caller keeps no state.  Every field built by an operator of
    this package comes from ``derived``, which memoizes values by the exact
    components of the point for as long as that derived field lives (one
    component family, or one call of a checker), so nested stencils evaluate
    each point once.
    """

    __slots__ = ("func", "n", "smoothness", "step", "band")

    def __init__(self, func, n, smoothness=DEFAULT_SMOOTHNESS,
                 step=DEFAULT_STEP, band=DEFAULT_BAND):
        if not n >= 1:
            raise ValueError("a field needs at least one variable, got n=%d" % n)
        self.func = func
        self.n = n
        self.smoothness = smoothness
        self.step = step
        self.band = band

    def __call__(self, point):
        return self.func(point)

    def spend(self, depth=1):
        if self.smoothness < depth:
            raise DepthExhaustedError(
                "operator needs %d derivative(s), smoothness budget is %d"
                % (depth, self.smoothness))

    def derived(self, func, cost=1, step=NESTED_STEP):
        """A field of ``func`` that spends ``cost`` of this field's budget.

        Values are memoized by the point's components; a raised exception
        (``NearRealAxisError``, say) is never stored.
        """
        values = {}

        def memo(point):
            # one flat tuple per point: a tuple per coordinate would double
            # the memory of the keys
            key = tuple([c for q in point for c in (q.w, q.x, q.y, q.z)])
            value = values.get(key)
            if value is None:
                value = values[key] = func(point)
            return value

        return NumericField(memo, self.n, self.smoothness - cost, step, self.band)


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
    q = point[m - 1]
    if float(q.im_norm_sq()) < field.band * field.band:
        raise NearRealAxisError(
            "|Im(x_%d)| < %g at the requested point" % (m, field.band))


def _displace(point, m, i, h):
    q = replace_coordinate(point[m - 1], i, coordinate(point[m - 1], i) + h)
    return point[:m - 1] + (q,) + point[m:]


def coordinate_partial(field, m, i, point, step=None):
    """Central difference for the partial in the i-th real coordinate of x_m."""
    _check_var(field, m)
    if not 0 <= i <= 3:
        raise ValueError("coordinate index must be in 0..3")
    field.spend()
    h = field.step if step is None else step
    plus = field(_displace(point, m, i, h))
    minus = field(_displace(point, m, i, -h))
    return (plus - minus) / (2.0 * h)


def euler_operator(field, m, point):
    """Sum of x_{m_i} d/dx_{m_i} over the three imaginary coordinates."""
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for i in (1, 2, 3):
        total = total + coordinate_partial(field, m, i, point) * float(coordinate(point[m - 1], i))
    return total


def _global_derivative_pair(field, m, point):
    """The global derivative and its conjugate in x_m from one stencil."""
    _check_var(field, m)
    _check_off_axis(field, m, point)
    d0 = coordinate_partial(field, m, 0, point)
    im_inv = point[m - 1].im().to_float().inverse()
    euler = im_inv * euler_operator(field, m, point)
    return (d0 + euler) * 0.5, (d0 - euler) * 0.5


def global_derivative(field, m, point):
    """(d/dx_{m_0} + Im(x_m)^-1 * Euler)/2; undefined inside the band."""
    return _global_derivative_pair(field, m, point)[0]


def global_conj_derivative(field, m, point):
    """(d/dx_{m_0} - Im(x_m)^-1 * Euler)/2; undefined inside the band."""
    return _global_derivative_pair(field, m, point)[1]


def tangential_derivative(field, m, i, j, point):
    """x_{m_i} d/dx_{m_j} - x_{m_j} d/dx_{m_i}, tangential to the spheres."""
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("tangential indices must be in 1..3")
    xi = float(coordinate(point[m - 1], i))
    xj = float(coordinate(point[m - 1], j))
    return (coordinate_partial(field, m, j, point) * xi
            - coordinate_partial(field, m, i, point) * xj)


def spherical_dirac(field, m, point):
    """The spherical Dirac operator -i L_23 + j L_13 - k L_12 in x_m.

    The three tangential derivatives share one set of coordinate partials.
    """
    x1, x2, x3 = (float(coordinate(point[m - 1], h)) for h in (1, 2, 3))
    d1, d2, d3 = (coordinate_partial(field, m, h, point) for h in (1, 2, 3))
    l23 = d3 * x2 - d2 * x3
    l13 = d3 * x1 - d1 * x3
    l12 = d2 * x1 - d1 * x2
    return -(I * l23) + J * l13 - K * l12


def fueter_derivative(field, m, point):
    """The Cauchy-Riemann-Fueter operator (d0 + i d1 + j d2 + k d3)/2 in x_m."""
    _check_var(field, m)
    d0 = coordinate_partial(field, m, 0, point)
    d1 = coordinate_partial(field, m, 1, point)
    d2 = coordinate_partial(field, m, 2, point)
    d3 = coordinate_partial(field, m, 3, point)
    return (d0 + I * d1 + J * d2 + K * d3) * 0.5


def laplacian(field, m, point, step=None):
    """Four-coordinate Laplacian in x_m by second central differences."""
    _check_var(field, m)
    field.spend(2)
    h = field.step if step is None else step
    center = field(point)
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for i in range(4):
        plus = field(_displace(point, m, i, h))
        minus = field(_displace(point, m, i, -h))
        total = total + plus + minus - center * 2.0
    return total / (h * h)


# -- derived fields -------------------------------------------------------------


def spherical_dirac_field(field, m):
    field.spend()
    return field.derived(lambda p: spherical_dirac(field, m, p))


def fueter_derivative_field(field, m):
    field.spend()
    return field.derived(lambda p: fueter_derivative(field, m, p))


def negate_field(field):
    return field.derived(lambda p: -field(p), cost=0, step=field.step)


def multiply_by_variable(field, m, conj=False):
    """Pointwise left multiplication by x_m (or its conjugate); smooth, so
    the derivative budget is untouched."""
    _check_var(field, m)
    if conj:
        func = lambda p: p[m - 1].to_float().conjugate() * field(p)
    else:
        func = lambda p: p[m - 1].to_float() * field(p)
    return field.derived(func, cost=0, step=field.step)


def div_by_twice_im(field, m):
    """Pointwise left multiplication by (2 Im(x_m))^-1, banded at the axis."""
    _check_var(field, m)

    def func(point):
        _check_off_axis(field, m, point)
        return (point[m - 1].im().to_float() * 2.0).inverse() * field(point)

    return field.derived(func, cost=0, step=field.step)


def lift(f, smoothness=DEFAULT_SMOOTHNESS, step=DEFAULT_STEP, band=DEFAULT_BAND):
    """Wrap an exact slice function as a numeric field.

    The field evaluates through ``f.evaluator()``, the compiled stem that
    ``SliceFunction.evaluate`` runs too.
    """
    return NumericField(f.evaluator(), f.n, smoothness, step, band)
