"""Component families and the Almansi-type decompositions.

Three flavors of 2^m-entry families are built from a function, indexed by
subsets of {1..m}:

* ``spherical`` -- exact symbolic entries obtained by iterated spherical
  derivatives, defined for slice polynomials only;
* ``fueter`` -- numeric entries obtained by iterated (negated)
  Cauchy-Riemann-Fueter derivatives of any smooth field;
* ``dirac`` -- numeric entries obtained by iterated normalized spherical
  Dirac derivatives of any smooth field.

Every flavor reconstructs the original function as the ordered sum of
entries left-multiplied by products of negated conjugate coordinates over
the complementary subsets.  For slice inputs the three families agree; the
spherical/fueter agreement characterizes slice-regularity.
"""

import random
from dataclasses import dataclass, field as dataclass_field
from functools import reduce

from .quaternion import Quaternion
from .stem import bit, mask_indices
from .slicefn import SliceFunction, constant, variable, conj_variable
from .numeric import (fueter_derivative_field, spherical_dirac_field,
                      multiply_by_variable, div_by_twice_im, negate_field,
                      running_worst, sweep, report_tail)
from .sampling import respin_units, _sample_points

FLAVOR_SPHERICAL = "spherical"
FLAVOR_FUETER = "fueter"
FLAVOR_DIRAC = "dirac"


@dataclass(frozen=True)
class ComponentFamily:
    """A level-m family of components, keyed by subset masks of {1..m}.

    Numeric entries memoize every point they are evaluated at for as long
    as the family lives, so a sweep over many points builds one family per
    point.
    """

    flavor: str
    level: int
    n: int
    entries: dict = dataclass_field(repr=False)

    def __post_init__(self):
        if len(self.entries) != 1 << self.level:
            raise ValueError("family must carry exactly 2^level entries")
        for mask in self.entries:
            if not 0 <= mask < (1 << self.level):
                raise ValueError("entry mask %d outside subsets of {1..%d}"
                                 % (mask, self.level))

    @property
    def symbolic(self):
        return self.flavor == FLAVOR_SPHERICAL

    def masks(self):
        return sorted(self.entries)

    def entry_value(self, mask, point):
        entry = self.entries[mask]
        if isinstance(entry, SliceFunction):
            return entry.evaluate(point)
        return entry(point)

    def replace_entry(self, mask, entry):
        entries = dict(self.entries)
        entries[mask] = entry
        return ComponentFamily(self.flavor, self.level, self.n, entries)


def _check_level(obj_n, level):
    if not 1 <= level <= obj_n:
        raise ValueError("level %d out of range 1..%d" % (level, obj_n))


def _component_levels(flavor, f, level, times_variable, derivative):
    """Yield the families of levels 1..``level`` of one recursion from f.
    The entry g on subset K one level down gives ``derivative(g, m)`` on K
    and ``derivative(times_variable(m)(g), m)`` on K | {m} of level m, where
    ``times_variable(m)`` maps g to x_m * g."""
    _check_level(f.n, level)
    entries = {0: f}
    for m in range(1, level + 1):
        times_xm = times_variable(m)
        nxt = {}
        for mask, g in entries.items():
            nxt[mask] = derivative(g, m)
            nxt[mask | bit(m)] = derivative(times_xm(g), m)
        entries = nxt
        yield ComponentFamily(flavor, m, f.n, entries)


def spherical_components(f, level):
    """Exact symbolic family by the spherical-derivative recursion.

    The entry at subset K on level m applies, for each step j <= m, the
    spherical derivative in x_j to the previous entry, premultiplied by x_j
    exactly when j lies in K.  Entries carry no component on any subset
    meeting {1..m}, hence are constant on the product spheres of the first
    m coordinates.
    """
    return list(_component_levels(
        FLAVOR_SPHERICAL, f, level, lambda m: variable(f.n, m).__mul__,
        lambda g, m: g.spherical_derivative(m)))[-1]


def _numeric_levels(flavor, derivative, field, level):
    """The levels of a numeric recursion from a memoizing cost-0 view of the
    caller's field: sibling entries share its stencil evaluations, and the
    caller's field keeps no state."""
    return _component_levels(
        flavor, field.derived(field, cost=0, step=field.step), level,
        lambda m: lambda g: multiply_by_variable(g, m), derivative)


def fueter_components(field, level):
    """Numeric family by nested negated Cauchy-Riemann-Fueter derivatives."""
    return list(_numeric_levels(
        FLAVOR_FUETER, lambda g, m: negate_field(fueter_derivative_field(g, m)),
        field, level))[-1]


def dirac_levels(field, level):
    """Yield the Dirac families of levels 1..``level``, each built from the
    entries of the one before."""
    return _numeric_levels(
        FLAVOR_DIRAC, lambda g, m: div_by_twice_im(spherical_dirac_field(g, m), m),
        field, level)


def dirac_components(field, level):
    """Numeric family by nested normalized spherical Dirac derivatives."""
    return list(dirac_levels(field, level))[-1]


def _neg_conj_value(point, indices):
    """Ordered pointwise product of -conj(x_k) over ascending indices."""
    prod = Quaternion(1.0, 0.0, 0.0, 0.0)
    for k in indices:
        prod = prod * (-point[k - 1].to_float().conjugate())
    return prod


def complement_indices(mask, level):
    return [k for k in range(1, level + 1) if not mask & bit(k)]


def reconstruct(family, point):
    """Evaluate the decomposition sum at a point.

    Each entry value is left-multiplied by the ordered product of the
    negated conjugate coordinates over the complement of its subset inside
    {1..level}.
    """
    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for mask in family.masks():
        mult = _neg_conj_value(point, complement_indices(mask, family.level))
        total = total + mult * family.entry_value(mask, point)
    return total


def _neg_conj_monomial(n, indices):
    f = constant(n, 1)
    for k in indices:
        f = f * (-conj_variable(n, k))
    return f


def reconstruct_symbolic(family):
    """The decomposition sum as an exact slice function (spherical flavor)."""
    if not family.symbolic:
        raise ValueError("symbolic reconstruction needs a spherical family")
    total = SliceFunction.zero(family.n)
    for mask in family.masks():
        mult = _neg_conj_monomial(family.n, complement_indices(mask, family.level))
        total = total + mult * family.entries[mask]
    return total


def check_uniqueness(f, candidate):
    """True iff the candidate family reconstructs f exactly as stems.

    The decomposition with sphere-constant entries is unique, so exact
    reconstruction and entry-wise equality with the spherical family are
    equivalent; both are computed and their agreement asserted.
    """
    if not candidate.symbolic:
        raise ValueError("uniqueness checking needs a symbolic family")
    window = (1 << candidate.level) - 1
    for mask, entry in candidate.entries.items():
        if any(cmask & window for _, cmask, _ in entry.stem.coefficients()):
            raise ValueError("candidate entry %r is not constant on the "
                             "first %d spheres" % (mask_indices(mask),
                                                   candidate.level))
    reconstructs = reconstruct_symbolic(candidate) == f
    reference = spherical_components(f, candidate.level)
    matches = all(candidate.entries[mask] == reference.entries[mask]
                  for mask in reference.masks())
    assert reconstructs == matches, "decomposition uniqueness violated"
    return reconstructs


def truncated_spherical(f, selectors):
    """Iterated spherical value (0) / derivative (1) in ascending variables.

    ``selectors`` has one flag per variable 1..h-1; the result is the
    truncated derivative of f up to variable h.
    """
    if len(selectors) >= f.n:
        raise ValueError("at most n-1 selectors are meaningful")
    g = f
    for m, s in enumerate(selectors, start=1):
        if s not in (0, 1):
            raise ValueError("selectors must be 0 or 1")
        g = g.spherical_derivative(m) if s else g.spherical_value(m)
    return g


def check_zonal(family, point, rotations=8, rng=None, seed=0):
    """Deviation of each entry under random unit rotations of the first
    ``level`` coordinates, keeping all real parts and imaginary radii."""
    if rotations < 1:
        raise ValueError("rotations must be at least 1, got %d" % rotations)
    rng = rng if rng is not None else random.Random(seed)
    base = {mask: family.entry_value(mask, point) for mask in family.masks()}
    # drawn one at a time, as the sweep reaches them
    rotated = (respin_units(rng, point, family.level) for _ in range(rotations))
    per_entry = sweep(rotated, lambda p: (
        (mask, abs(family.entry_value(mask, p) - base[mask]))
        for mask in family.masks()))
    return {"rotations": rotations,
            "max_deviation": reduce(running_worst, per_entry.values(), 0.0),
            "per_entry": per_entry}


def check_reconstruction(field, flavor, level, points=None, *, samples=20,
                         seed=0, tol=1e-4):
    """Worst deviation of the ``flavor`` family's reconstruction from the
    field over sampled admissible points; ``flavor`` is ``fueter`` or
    ``dirac``."""
    components = {FLAVOR_FUETER: fueter_components,
                  FLAVOR_DIRAC: dirac_components}.get(flavor)
    if components is None:
        raise ValueError("numeric reconstruction needs flavor %r or %r, got %r"
                         % (FLAVOR_FUETER, FLAVOR_DIRAC, flavor))
    points = _sample_points(points, samples, seed, field.n)

    def residual(p):
        # one family per point: its memo holds this point's stencils only
        family = components(field, level)
        yield "reconstruction", abs(reconstruct(family, p) - field(p))

    residuals = sweep(points, residual)
    return {"flavor": flavor, "level": level,
            **report_tail(residuals.values(), tol, points, seed)}
