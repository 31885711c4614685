"""Component families and the Almansi-type decompositions.

Three flavors of 2^m-entry families are built from a function, indexed by
subsets of {1..m}:

* ``spherical`` -- exact symbolic entries obtained by iterated spherical
  derivatives, defined for slice polynomials only;
* ``fueter`` -- numeric entries obtained by iterated (negated)
  Cauchy-Riemann-Fueter derivatives of any smooth field;
* ``dirac`` -- numeric entries obtained by iterated normalized spherical
  Dirac derivatives of any smooth field.

Each flavor runs one recursion: the entry g on a subset K of {1..m-1}
gives the entries D g on K and D(x_m g) on K | {m}, D the flavor's
derivative in x_m.  A numeric flavor builds each such sibling pair from
one stencil pass per point, reading g once at each displaced point.

A family reconstructs a function as the ordered sum of its entries
left-multiplied by products of negated conjugate coordinates over the
complementary subsets.  The spherical and Dirac flavors reconstruct slice
functions (Dirac: any smooth field), the Fueter flavor slice-regular ones
only, and on slice inputs it agrees with them exactly on those.
"""

import random
from dataclasses import dataclass, field as dataclass_field
from functools import reduce

from .quaternion import Quaternion, hamilton
from .stem import bit, mask_indices
from .slicefn import SliceFunction, conj_variable, variable
from .numeric import (running_worst, sweep, report_tail, check_tolerance,
                      field_point, _add, _negated_fueter_pair,
                      _normalized_dirac_pair)
from .sampling import respin_units, _sample_points

FLAVOR_SPHERICAL = "spherical"
FLAVOR_FUETER = "fueter"
FLAVOR_DIRAC = "dirac"

# Caps the numeric levels as MAX_NUMERIC_INDEX caps the Wirtinger index: at
# level 6 the nested error of x1*...*x6 exceeds the default tolerance.
MAX_NUMERIC_LEVEL = 5


@dataclass(frozen=True)
class ComponentFamily:
    """A level-m family of components, keyed by subset masks of {1..m}.

    Numeric entries memoize every point they are evaluated at for as long
    as the family lives, so a sweep over many points builds one family per
    point.  A symbolic entry is compiled once, the first time the family
    evaluates it.
    """

    flavor: str
    level: int
    n: int
    entries: dict = dataclass_field(repr=False)
    _compiled: dict = dataclass_field(default_factory=dict, init=False,
                                      repr=False, compare=False)

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
        return Quaternion(*self.flat_value(mask, field_point(point, self.n)))

    def flat_value(self, mask, point):
        """The entry's value at a flat point, as a component 4-tuple; the
        point's length is checked by the caller."""
        entry = self.entries[mask]
        if not isinstance(entry, SliceFunction):
            return entry.flat(point)
        flat = self._compiled.get(mask)
        if flat is None:
            flat = self._compiled[mask] = entry.evaluator().flat
        return flat(point)

    def replace_entry(self, mask, entry):
        entries = dict(self.entries)
        entries[mask] = entry
        return ComponentFamily(self.flavor, self.level, self.n, entries)


def _check_level(obj_n, level):
    if not 1 <= level <= obj_n:
        raise ValueError("level %d out of range 1..%d" % (level, obj_n))


def _component_levels(flavor, f, level, pair):
    """Yield the families of levels 1..``level`` of one recursion from f.
    The entry g on subset K one level down gives the two entries of
    ``pair(g, m)`` on K and on K | {m} of level m: the derivative of g and
    that of x_m * g."""
    _check_level(f.n, level)
    entries = {0: f}
    for m in range(1, level + 1):
        nxt = {}
        for mask, g in entries.items():
            nxt[mask], nxt[mask | bit(m)] = pair(g, m)
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
        FLAVOR_SPHERICAL, f, level,
        lambda g, m: (g.spherical_derivative(m),
                      (variable(f.n, m) * g).spherical_derivative(m))))[-1]


def _numeric_levels(flavor, pair, field, level):
    """The levels of a numeric recursion from ``field.memoized()``: the
    stencils of the first level's pair reach some points more than once,
    and the caller's field keeps no state.  Each pair is one stencil pass
    per point for both siblings."""
    return _component_levels(flavor, field.memoized(), level, pair)


def fueter_components(field, level):
    """Numeric family by nested negated Cauchy-Riemann-Fueter derivatives."""
    return list(_numeric_levels(FLAVOR_FUETER, _negated_fueter_pair, field,
                                level))[-1]


def dirac_levels(field, level):
    """Yield the Dirac families of levels 1..``level``, each built from the
    entries of the one before."""
    return _numeric_levels(FLAVOR_DIRAC, _normalized_dirac_pair, field, level)


def dirac_components(field, level):
    """Numeric family by nested normalized spherical Dirac derivatives."""
    return list(dirac_levels(field, level))[-1]


def _neg_conj_value(point, indices):
    """Ordered pointwise product of -conj(x_k) over ascending indices, at a
    flat point."""
    prod = (1.0, 0.0, 0.0, 0.0)
    for k in indices:
        k = 4 * (k - 1)
        prod = hamilton(prod, (-float(point[k]), float(point[k + 1]),
                               float(point[k + 2]), float(point[k + 3])))
    return prod


def complement_indices(mask, level):
    return [k for k in range(1, level + 1) if not mask & bit(k)]


def reconstruct(family, point):
    """Evaluate the decomposition sum at a point.

    Each entry value is left-multiplied by the ordered product of the
    negated conjugate coordinates over the complement of its subset inside
    {1..level}.
    """
    point = field_point(point, family.n)
    total = (0.0, 0.0, 0.0, 0.0)
    for mask in family.masks():
        mult = _neg_conj_value(point, complement_indices(mask, family.level))
        total = _add(total, hamilton(mult, family.flat_value(mask, point)))
    return Quaternion(*total)


def reconstruct_symbolic(family):
    """The decomposition sum as an exact slice function (spherical flavor),
    in Horner form: for m = level down to 1, the entries on K and K | {m},
    K a subset of {1..m-1}, give -conj(x_m) * e_K + e_{K | {m}} on K.  Those
    are 2^level - 1 products by a coordinate factor, each a key shift in
    ``*``.  Stem products are exact and associative, so the result equals
    the sum over K of the ascending product of -conj(x_k), k not in K,
    times e_K."""
    if not family.symbolic:
        raise ValueError("symbolic reconstruction needs a spherical family")
    n, entries = family.n, family.entries
    for m in range(family.level, 0, -1):
        factor = -conj_variable(n, m)
        entries = {mask: factor * entries[mask] + entries[mask | bit(m)]
                   for mask in range(bit(m))}
    return entries[0]


def check_uniqueness(f, candidate):
    """True iff the candidate family reconstructs f exactly as stems.

    The decomposition with sphere-constant entries is unique, so exact
    reconstruction and entry-wise equality with the spherical family are
    equivalent; both are computed, and a disagreement raises
    ``RuntimeError``.
    """
    if not candidate.symbolic:
        raise ValueError("uniqueness checking needs a symbolic family")
    betas, level = candidate.n, candidate.level
    for mask, entry in candidate.entries.items():
        # a term meets a subset of {1..level} when a beta exponent there is odd
        if any(b % 2 for key in entry.terms for b in key[betas:betas + level]):
            raise ValueError("candidate entry %r is not constant on the "
                             "first %d spheres" % (mask_indices(mask),
                                                   candidate.level))
    reconstructs = reconstruct_symbolic(candidate) == f
    reference = spherical_components(f, candidate.level)
    matches = all(candidate.entries[mask] == reference.entries[mask]
                  for mask in reference.masks())
    if reconstructs != matches:
        raise RuntimeError("decomposition uniqueness violated: the candidate "
                           "%s f, but its entries %s the spherical family's"
                           % ("reconstructs" if reconstructs
                              else "does not reconstruct",
                              "equal" if matches else "differ from"))
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


def check_zonal(family, point, rotations=8, seed=0):
    """Deviation of each entry under random unit rotations of the first
    ``level`` coordinates, keeping all real parts and imaginary radii."""
    if rotations < 1:
        raise ValueError("rotations must be at least 1, got %d" % rotations)
    rng = random.Random(seed)
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
    ``dirac``, at a level of at most ``MAX_NUMERIC_LEVEL``."""
    components = {FLAVOR_FUETER: fueter_components,
                  FLAVOR_DIRAC: dirac_components}.get(flavor)
    if components is None:
        raise ValueError("numeric reconstruction needs flavor %r or %r, got %r"
                         % (FLAVOR_FUETER, FLAVOR_DIRAC, flavor))
    if level > MAX_NUMERIC_LEVEL:
        raise ValueError("numeric reconstruction is capped at level %d"
                         % MAX_NUMERIC_LEVEL)
    check_tolerance(tol)
    points = _sample_points(points, samples, seed, field.n)

    def residual(p):
        # one family per point: its memo holds this point's stencils only
        family = components(field, level)
        yield "reconstruction", abs(reconstruct(family, p) - field(p))

    residuals = sweep(points, residual)
    return {"flavor": flavor, "level": level,
            **report_tail(residuals.values(), tol, points, seed)}
