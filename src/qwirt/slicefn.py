"""Exact slice polynomials of several quaternionic variables.

A slice polynomial is induced by exactly one stem polynomial, so
``SliceFunction`` stores its stem and nothing else: a sparse map from
exponent keys (a_1, ..., a_n, b_1, ..., b_n), the exponents of the real
pairs (alpha_m, beta_m) of x_m = alpha_m + J_m*beta_m, to quaternions.  A
term lies on the subset of the m whose b_m is odd, its parity mask; parity
makes evaluation independent of the choice of unit on the real axis.

The coefficients are stored exactly on the integer lattice: one positive int
denominator ``den`` per stem and, per key, the int numerators of the four
components, in lowest terms.  ``Quaternion``s and ``Fraction``s are built
only at the boundary: ``coefficients()``, JSON and ``to_monomials``.

Example: x_1 (n=1) is {(1,0): 1, (0,1): 1} (on e{}, e{1}); its square is
{(2,0): 1, (0,2): -1, (1,1): 2} (on e{}, e{}, e{1}).  Every product is a
slice product (the pointwise product of the stems), not a pointwise product
of the functions, which is generally not a slice function.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import add, itemgetter, mul

from .quaternion import (Quaternion, ONE, LONG_DIGIT_RUN, MAX_DIGITS,
                         NUMBER_PATTERN, format_quaternion, number_text,
                         quaternion_form)
from .stem import MAX_VARS

MAX_DEGREE_PER_VARIABLE = 32
# Bounds the pairs of terms a stem product forms, which bounds its work and
# its output terms.  (x1+~x2+x3+x4+x5)^8 needs 715 * 715 = 511,225 pairs;
# (x1+~x2+x3+x4+x5+x6)^10 needs 1,365 * 1,365 = 1,863,225 and is refused.
MAX_STEM_TERMS = 1 << 20


def _check_degree_cap(degrees):
    """Refuse per-variable degrees over the cap, naming the lowest variable
    that exceeds it."""
    for m, degree in enumerate(degrees, start=1):
        if degree > MAX_DEGREE_PER_VARIABLE:
            raise ValueError("degree cap %d exceeded in variable %d"
                             % (MAX_DEGREE_PER_VARIABLE, m))


def _parity(betas):
    """The subset mask a term with these beta exponents lies on: the
    variables whose exponent is odd."""
    return sum(1 << m for m, b in enumerate(betas) if b % 2)


@lru_cache(maxsize=None)
def _packing(n):
    """How a packed key of n variables gives its parity mask: the shift to
    its beta bytes, the int of their low bits, and the mask of each pattern
    of those bits (bit 8m of the pattern is bit m of the mask)."""
    masks = {sum(1 << 8 * m for m in range(n) if s >> m & 1): s
             for s in range(1 << n)}
    return 8 * n, int.from_bytes(b"\x01" * n, "little"), masks


def _packed(f):
    """f's terms as rows ``(packed key, mask, numerators)``, a key packed
    one byte per exponent into an int, so adding keys is one int addition:
    under the degree cap no byte carries into the next."""
    shift, odd, masks = _packing(f.n)
    rows = []
    for key, comps in f.terms.items():
        packed = int.from_bytes(bytes(key), "little")
        rows.append((packed, masks[packed >> shift & odd], comps))
    return rows


def _negations(masks, right):
    """Per mask m1 of ``masks``, a list of whether e_m1 times the basis
    vector of each row of ``right`` is negated: ``basis_product``'s sign,
    odd exactly when m1 & m2 has an odd number of bits."""
    return {m1: [(m1 & m2).bit_count() & 1 for _, m2, _ in right]
            for m1 in masks}


def _stem_product(left, right):
    """The sums of the products of every pair of terms of two stems, given
    as rows ``(packed key, mask, numerators)``: a dict from each packed key
    of the product, in order of first appearance, to its four numerators.
    ``hamilton``'s formula is restated inline in its operation order, the
    ``basis_product`` sign negates, and sums that cancel to zero are kept.
    The same rows given twice are squared by ``_stem_square``.
    """
    if left is right:
        return _stem_square(left)
    negates = _negations({m1 for _, m1, _ in left}, right)
    sums = {}
    for k1, m1, (a, b, c, d) in left:
        for (k2, _, (e, f, g, h)), negate in zip(right, negates[m1]):
            w = a * e - b * f - c * g - d * h
            x = a * f + b * e + c * h - d * g
            y = a * g - b * h + c * e + d * f
            z = a * h + b * g - c * f + d * e
            if negate:
                w, x, y, z = -w, -x, -y, -z
            key = k1 + k2
            cur = sums.get(key)
            if cur is None:
                sums[key] = [w, x, y, z]
            else:
                cur[0] += w
                cur[1] += x
                cur[2] += y
                cur[3] += z
    return sums


def _stem_square(rows):
    """``_stem_product(rows, rows)``, formed over the unordered pairs of
    terms.  For q_i = (a, v) and q_j = (e, u), the pair i < j gives
    q_i q_j + q_j q_i = (2(ae - v.u), 2(au + ev)), as the cross products
    cancel, and the term i gives q_i^2 = (a^2 - |v|^2, 2av); the basis sign
    is symmetric in i and j.  Each key first appears at its smallest ordered
    pair, which has i <= j, so the keys come in ``_stem_product``'s order
    and, on ints, with its sums."""
    negates = _negations({m for _, m, _ in rows}, rows)
    doubled = [(k, (e + e, f + f, g + g, h + h))
               for k, _, (e, f, g, h) in rows]
    sums = {}
    for i, (k1, m1, (a, b, c, d)) in enumerate(rows):
        signs = negates[m1]
        f, g, h = doubled[i][1][1:]  # 2v, so that a * 2v is 2av
        w = a * a - b * b - c * c - d * d
        x, y, z = a * f, a * g, a * h
        if signs[i]:
            w, x, y, z = -w, -x, -y, -z
        key = k1 + k1
        cur = sums.get(key)
        if cur is None:
            sums[key] = [w, x, y, z]
        else:
            cur[0] += w
            cur[1] += x
            cur[2] += y
            cur[3] += z
        for (k2, (e, f, g, h)), negate in zip(doubled[i + 1:], signs[i + 1:]):
            w = a * e - b * f - c * g - d * h
            x = a * f + b * e
            y = a * g + c * e
            z = a * h + d * e
            if negate:
                w, x, y, z = -w, -x, -y, -z
            key = k1 + k2
            cur = sums.get(key)
            if cur is None:
                sums[key] = [w, x, y, z]
            else:
                cur[0] += w
                cur[1] += x
                cur[2] += y
                cur[3] += z
    return sums


def _coordinate_factor(f):
    """f's two terms as ``(key position, sign)`` pairs, in its term order,
    when f is exactly +-x_m or +-conj(x_m): denominator 1, one term on the
    unit alpha_m key and one on the unit beta_m key, real numerators +-1.
    None for any other stem."""
    if f.den != 1 or len(f.terms) != 2:
        return None
    factor = []
    for key, (w, x, y, z) in f.terms.items():
        if x or y or z or (w != 1 and w != -1) or sum(key) != 1:
            return None
        factor.append((key.index(1), w))
    if abs(factor[0][0] - factor[1][0]) != f.n:
        return None
    return factor


def _shifted(n, factor, terms, left):
    """``_stem_product`` of a coordinate factor, as ``_coordinate_factor``
    gives it, by the stem ``terms`` on its right (``left``) or on its left,
    on tuple keys and without the sums that cancel.  Each term of the factor
    adds 1 to its exponent and multiplies by its sign; the basis sign
    negates the beta_m term's product by a term whose beta_m is odd, and the
    alpha_m term (on the empty subset) negates none.  The keys come in the
    pair loop's order of first appearance: two passes, one per factor term,
    for a left factor; the factor's two terms in turn per term for a right
    one."""
    items = terms.items()
    if left:
        pairs = [(pos, sign, key, comps) for pos, sign in factor
                 for key, comps in items]
    else:
        pairs = [(pos, sign, key, comps) for key, comps in items
                 for pos, sign in factor]
    sums = {}
    for pos, sign, key, (w, x, y, z) in pairs:
        e = key[pos]
        if pos >= n and e & 1:
            sign = -sign
        if sign < 0:
            w, x, y, z = -w, -x, -y, -z
        key = key[:pos] + (e + 1,) + key[pos + 1:]
        cur = sums.get(key)
        sums[key] = (w, x, y, z) if cur is None else (
            cur[0] + w, cur[1] + x, cur[2] + y, cur[3] + z)
    return {key: comps for key, comps in sums.items() if any(comps)}


def _stem(n, den, terms, degrees=None):
    """The slice function of numerators ``terms`` over ``den``, in lowest
    terms and none all zero, and of the ``degrees`` when known."""
    f = object.__new__(SliceFunction)
    f.n, f.den, f.terms, f._degrees = n, den, terms, degrees
    return f


def _lowest(n, den, terms, degrees=None):
    """``_stem`` after one gcd pass divides out the common factor of
    ``den`` and every numerator."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(terms.values()))
        if g != 1:
            den //= g
            terms = {key: (w // g, x // g, y // g, z // g)
                     for key, (w, x, y, z) in terms.items()}
    return _stem(n, den, terms, degrees)


def _summed(n, den, rows):
    """``_lowest`` of the sums of ``(key, numerators)`` rows over ``den``,
    in order of first appearance, without the sums that cancel."""
    terms = {}
    for key, comps in rows:
        cur = terms.get(key)
        terms[key] = comps if cur is None else tuple(map(add, cur, comps))
    return _lowest(n, den, {key: comps for key, comps in terms.items()
                            if any(comps)})


def _lowered(key, pos):
    """The key with its exponent at ``pos`` lowered by one."""
    return key[:pos] + (key[pos] - 1,) + key[pos + 1:]


def _compile_stem(f):
    """Compile f's stem into its float kernels: ``flat(point)``, from the
    flat 4n-tuple of point components to a component 4-tuple, and
    ``parts(values, prods)``, the term loop ``flat`` ends in, on the list
    alpha_1, beta_1, ..., alpha_n, beta_n and the unit-product table of 2^n
    component 4-tuples by subset mask, (1.0, 0.0, 0.0, 0.0) at 0 and J_m at
    2^(m-1).  ``flat`` splits each coordinate with the operations of
    ``split_slice_components``, inline and in its order (so a square past
    the float range still raises ``OverflowError``), and writes J_m into
    the table.  ``parts`` forms each other unit product the stem uses as
    its lowest unit times the rest by ``hamilton``'s formula inline, in
    ascending mask order, and each distinct power ``values[i] ** k`` with k
    >= 2 once, after the values in its table.  A first power is read in
    place, as ``x ** 1`` is ``x``; ``x ** 2`` is kept, as it need not be
    ``x * x``.

    A coefficient is its numerators over the denominator as ints, which
    rounds as ``float(Fraction)`` does.  A unit product acts from the left
    by ``hamilton``'s formula, inline and folded into the sums, which follow
    ``Quaternion.__add__``: the value is bit for bit quaternion
    arithmetic's.  On mask 0 a term adds its coefficient times the scalar,
    with the same bits: for finite coefficients the product by (1.0, 0.0,
    0.0, 0.0) differs at most in the sign of a zero, and a sum that starts
    at 0.0 is never -0.0 under round to nearest.  (A coefficient component can be -0.0:
    -1/10^400 underflows.)
    """
    n, den = f.n, f.den
    one = (1.0, 0.0, 0.0, 0.0)
    axis_unit = (0.0, 1.0, 0.0, 0.0)
    sqrt = math.sqrt
    higher = {}

    def slot(i, k):
        if k == 1:
            return i
        return higher.setdefault((i, k), 2 * n + len(higher))

    terms = []
    plan = set()
    for key, comps in f.terms.items():
        slots = []
        mask = 0
        for m in range(n):
            a, b = key[m], key[n + m]
            if a:
                slots.append(slot(2 * m, a))
            if b:
                slots.append(slot(2 * m + 1, b))
                if b & 1:
                    mask |= 1 << m
        terms.append((slots, mask, tuple([v / den for v in comps])))
        while mask & (mask - 1):
            low = mask & -mask
            plan.add((mask, low, mask & ~low))
            mask &= ~low
    plan = sorted(plan)
    higher = list(higher)
    size = 1 << n
    coordinates = [(4 * m, 1 << m) for m in range(n)]

    def parts(values, prods):
        for mask, low, rest in plan:
            a, b, c, d = prods[low]
            e, f, g, h = prods[rest]
            prods[mask] = (a * e - b * f - c * g - d * h,
                           a * f + b * e + c * h - d * g,
                           a * g - b * h + c * e + d * f,
                           a * h + b * g - c * f + d * e)
        table = values + [values[i] ** k for i, k in higher]
        tw = tx = ty = tz = 0.0
        for slots, mask, (e, f, g, h) in terms:
            scalar = 1.0
            for slot in slots:
                scalar *= table[slot]
            if scalar == 0.0:
                continue
            if mask:
                a, b, c, d = prods[mask]
                tw = tw + (a * e - b * f - c * g - d * h) * scalar
                tx = tx + (a * f + b * e + c * h - d * g) * scalar
                ty = ty + (a * g - b * h + c * e + d * f) * scalar
                tz = tz + (a * h + b * g - c * f + d * e) * scalar
            else:
                tw = tw + e * scalar
                tx = tx + f * scalar
                ty = ty + g * scalar
                tz = tz + h * scalar
        return (tw, tx, ty, tz)

    def flat(point):
        values = []
        prods = [one] * size
        for k, unit in coordinates:
            # the operations of split_slice_components, in its order
            n2 = ((x := float(point[k + 1])) ** 2
                  + (y := float(point[k + 2])) ** 2
                  + (z := float(point[k + 3])) ** 2)
            values.append(float(point[k]))
            if n2 == 0.0:
                values.append(0.0)
                prods[unit] = axis_unit
            else:
                b = sqrt(n2)
                values.append(b)
                prods[unit] = (0.0, x / b, y / b, z / b)
        return parts(values, prods)

    return flat, parts


def _check_variable_count(n):
    """Refuse a variable count that is not an int (a bool included) in
    1..MAX_VARS."""
    if type(n) is not int or not 1 <= n <= MAX_VARS:
        raise ValueError("number of variables must be in 1..%d" % MAX_VARS)


class SliceFunction:
    """A slice polynomial, stored as its inducing stem: ``terms`` maps each
    exponent key to the int numerators, over ``den``, in lowest terms, of
    the quaternion on its parity mask.  ``SliceFunction(n, {key:
    Quaternion})`` validates its terms and refuses a float component with a
    ``TypeError``.  ``*`` is the slice product, and ``**`` squares and
    multiplies through it."""

    __slots__ = ("n", "den", "terms", "_degrees")

    def __init__(self, n, terms=None):
        _check_variable_count(n)
        rows = []
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != 2 * n:
                raise ValueError("exponent key must have length 2n")
            if not isinstance(coeff, Quaternion):
                raise TypeError("stem coefficients must be quaternions")
            comps = coeff.components()
            if any(isinstance(c, float) for c in comps):
                raise TypeError("stem coefficients must be exact (int or "
                                "Fraction components), not float")
            if any(comps):
                rows.append((key, comps))
        if any(type(e) is not int for key, _ in rows for e in key):
            raise ValueError("stem exponents must be ints")
        if any(min(key) < 0 for key, _ in rows):
            raise ValueError("negative exponent in stem term")
        # in lowest terms: a prime's highest power in the lcm of the reduced
        # denominators divides one of them, whose scaled numerator it does not
        den = math.lcm(*[c.denominator for _, comps in rows for c in comps])
        self.n = n
        self.den = den
        self.terms = {key: tuple([c.numerator * (den // c.denominator)
                                  for c in comps]) for key, comps in rows}
        self._degrees = None
        _check_degree_cap(self.degrees())

    def degrees(self):
        """Per-variable degrees: the largest a_m + b_m over the terms, from
        one pass over the key columns; all 0 for the zero stem."""
        if self._degrees is None:
            n = self.n
            if self.terms:
                columns = list(zip(*self.terms))
                self._degrees = tuple([max(map(add, columns[m], columns[n + m]))
                                       for m in range(n)])
            else:
                self._degrees = (0,) * n
        return self._degrees

    @classmethod
    def zero(cls, n):
        return cls(n)

    def is_zero(self):
        return not self.terms

    def coefficients(self):
        """Yield ``(key, mask, coeff)`` for every nonzero coefficient: the
        exponent key, the subset mask and the quaternion on that subset,
        with ``Fraction`` components."""
        n, den = self.n, self.den
        for key, comps in self.terms.items():
            yield key, _parity(key[n:]), Quaternion(*[Fraction(v, den)
                                                      for v in comps])

    def _check_compatible(self, other):
        if not isinstance(other, SliceFunction):
            raise TypeError("expected a SliceFunction")
        if other.n != self.n:
            raise ValueError("mismatched ambient variable counts")

    # -- ring operations ----------------------------------------------------
    # Results are built unvalidated: the parity of k1 + k2 is the mask that
    # basis_product gives.  Stems are polynomials over H in the central
    # indeterminates alpha_m and e_m*beta_m, which have no zero divisors, so
    # a nonzero product's degrees are the sums of its factors'.

    def __add__(self, other):
        """``_summed`` over the lcm of the denominators, of each operand's
        terms scaled to it; an operand already over it passes as it is."""
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        return _summed(self.n, den, chain(*[
            f.terms.items() if (scale := den // f.den) == 1 else [
                (key, tuple([v * scale for v in comps]))
                for key, comps in f.terms.items()] for f in (self, other)]))

    def __neg__(self):
        return _stem(self.n, self.den, {key: tuple([-v for v in comps])
                                        for key, comps in self.terms.items()},
                     self._degrees)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Slice product: the pointwise product of the inducing stems.  The
        pairs of terms multiply and sum on the numerators
        (``_stem_product``; ``f * f`` packs f once, and is squared over its
        unordered pairs), over the product of the denominators, and the
        sums that cancel are dropped.  A product by a factor that is exactly
        +-x_m or +-conj(x_m), on either side (the left one when both are),
        shifts the other factor's keys instead (``_shifted``), with the same
        terms in the same order.  A product of more pairs of terms than
        ``MAX_STEM_TERMS`` is refused before any pair is formed."""
        self._check_compatible(other)
        degrees = tuple([a + b for a, b in zip(self.degrees(), other.degrees())])
        _check_degree_cap(degrees)
        a, b = len(self.terms), len(other.terms)
        if a * b > MAX_STEM_TERMS:
            raise ValueError("stem term cap %d exceeded: a product of %d by "
                             "%d terms" % (MAX_STEM_TERMS, a, b))
        n = self.n
        factor = _coordinate_factor(self)
        if factor is not None:
            terms = _shifted(n, factor, other.terms, True)
        elif (factor := _coordinate_factor(other)) is not None:
            terms = _shifted(n, factor, self.terms, False)
        else:
            size = 2 * n
            left = _packed(self)
            right = left if other is self else _packed(other)
            terms = {tuple(key.to_bytes(size, "little")): tuple(comps)
                     for key, comps in _stem_product(left, right).items()
                     if any(comps)}
        return _lowest(n, self.den * other.den, terms,
                       degrees if terms else None)

    def __pow__(self, k):
        """The k-th slice power by square and multiply through ``*``, from
        the lowest bit of k, which takes f as it is: no ``1 * f`` product is
        formed.  The degree cap is checked for the k-th power before any
        product; the term cap is checked by each product."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be natural numbers")
        # no intermediate power exceeds the k-th, whose degrees are k times ours
        _check_degree_cap([k * d for d in self.degrees()])
        if not k:
            return constant(self.n, ONE)
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        return (self.n == other.n and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a point of H^n given as a sequence of quaternions."""
        if len(point) != self.n:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(point), self.n))
        return self.evaluator()(point)

    def evaluate_parts(self, alphas, betas, units):
        """Evaluate at given real parts, imaginary radii and units J_m, n of
        each; sequences of any other length are refused, as the kernel reads
        the values by their index."""
        lengths = (len(alphas), len(betas), len(units))
        if lengths != (self.n,) * 3:
            raise ValueError("evaluate_parts takes %d alphas, betas and units"
                             ", got %d, %d and %d" % ((self.n,) + lengths))
        values = [v for pair in zip(alphas, betas) for v in pair]
        units = [u.components() for u in units]
        prods = [(1.0, 0.0, 0.0, 0.0)] * (1 << self.n)
        for m in range(self.n):
            prods[1 << m] = units[m]
        return Quaternion(*_compile_stem(self)[1](values, prods))

    def evaluator(self):
        """The stem compiled once into a function from a sequence of
        quaternions to a quaternion.  Its ``flat`` attribute is the compiled
        kernel, the same evaluation from the flat 4n-tuple of point
        components to a component 4-tuple, which splits each coordinate by
        ``split_slice_components``; the point's length is not checked."""
        return quaternion_form(_compile_stem(self)[0])

    def spherical_value(self, m):
        """Drop every component whose subset contains m; equals the average
        (f(x) + f with x_m conjugated)/2 at every point."""
        self._check_var(m)
        bpos = self.n + m - 1
        return _lowest(self.n, self.den,
                       {key: comps for key, comps in self.terms.items()
                        if not key[bpos] % 2})

    def spherical_derivative(self, m):
        """Divide the components whose subset contains m (odd beta_m
        exponent) by beta_m and drop m: exact on the stem, and the spherical
        derivative Im(x_m)^-1 (f(x) - f with x_m conjugated)/2 whenever f is
        slice w.r.t. x_m (always for m = 1, and kept by the recursions).
        Lowering an odd beta_m exponent is one-to-one on keys, so no two
        terms merge and nothing cancels."""
        self._check_var(m)
        bpos = self.n + m - 1
        return _lowest(self.n, self.den, {_lowered(key, bpos): comps
                                          for key, comps in self.terms.items()
                                          if key[bpos] % 2})

    def is_slice_with_respect_to(self, m):
        """True when every restriction in x_m is a one-variable slice
        function: no component subset may contain m together with a smaller
        variable.  Always true for m = 1."""
        self._check_var(m)
        betas = self.n
        return not any(key[betas + m - 1] % 2
                       and any(b % 2 for b in key[betas:betas + m - 1])
                       for key in self.terms)

    def _cr_partial(self, m, conj):
        """Cauchy-Riemann partial w.r.t. variable m: half the alpha_m
        partial minus (``conj``: plus) the beta_m partial followed by the
        complex structure of m, which restores the parity the bare beta_m
        partial breaks (off K with a sign for odd b, onto K + {m} else).
        The alpha_m pass comes first, which orders the result's terms as
        the float kernel sums them; terms that cancel are dropped.  Both
        passes write one dict in place, in ``_summed``'s order: lowering
        alpha_m is one-to-one on keys, so only a beta_m term can merge, and
        only a merged sum can cancel."""
        self._check_var(m)
        n = self.n
        apos, bpos = m - 1, n + m - 1
        sign = 1 if conj else -1
        terms = {}
        for key, (w, x, y, z) in self.terms.items():
            a = key[apos]
            if a:
                terms[key[:apos] + (a - 1,) + key[apos + 1:]] = (
                    w * a, x * a, y * a, z * a)
        merged = False
        for key, (w, x, y, z) in self.terms.items():
            b = key[bpos]
            if b:
                factor = sign * (-b if b & 1 else b)
                w, x, y, z = w * factor, x * factor, y * factor, z * factor
                key = key[:bpos] + (b - 1,) + key[bpos + 1:]
                cur = terms.get(key)
                if cur is not None:
                    merged = True
                    w, x, y, z = cur[0] + w, cur[1] + x, cur[2] + y, cur[3] + z
                terms[key] = (w, x, y, z)
        if merged:
            terms = {key: comps for key, comps in terms.items() if any(comps)}
        return _lowest(n, 2 * self.den, terms)

    def slice_partial(self, m):
        """Slice partial derivative w.r.t. x_m."""
        return self._cr_partial(m, conj=False)

    def slice_partial_conj(self, m):
        """Slice partial derivative w.r.t. the conjugate of x_m."""
        return self._cr_partial(m, conj=True)

    def conjugate(self):
        """The conjugate slice function: every term on an odd-size subset
        negated."""
        n = self.n
        return _stem(n, self.den,
                     {key: tuple([-v for v in comps])
                      if _parity(key[n:]).bit_count() % 2 else comps
                      for key, comps in self.terms.items()},
                     self._degrees)

    def is_slice_regular(self):
        """True iff every conjugate slice partial vanishes identically."""
        return all(self.slice_partial_conj(m).is_zero()
                   for m in range(1, self.n + 1))

    def depends_only_on(self, first):
        """True when no exponent touches a variable below ``first``; parity
        then keeps every subset clear of those variables too."""
        n = self.n
        return not any(key[m] or key[n + m]
                       for key in self.terms for m in range(first - 1))

    def _check_var(self, m):
        if not 1 <= m <= self.n:
            raise ValueError("variable index %d out of range 1..%d" % (m, self.n))

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        """The stem as a JSON document: each term's exponents, parity mask
        and four components as ``str`` of their ``Fraction``s, written from
        the int numerators over ``den`` by one gcd each."""
        n, den = self.n, self.den

        def text(v):
            g = math.gcd(v, den)
            if g == den:
                return number_text(v // g)
            return number_text(v // g) + "/" + number_text(den // g)

        return {"n": n, "terms": [
            {"alpha_exps": list(key[:n]), "beta_exps": list(key[n:]),
             "components": [{"mask": _parity(key[n:]), "quaternion": [
                 text(v) for v in self.terms[key]]}]}
            for key in sorted(self.terms)]}

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``.  Each term lists n alpha and n beta
        exponents, appears once, and lists one component, on the parity mask
        of its exponents, with four quaternion components."""
        n = _json_field(data, "n", "stem document", object)
        _check_variable_count(n)
        terms = {}
        for index, t in enumerate(_json_field(data, "terms", "stem document")):
            where = "stem term %d" % index
            alphas = _json_field(t, "alpha_exps", where)
            betas = _json_field(t, "beta_exps", where)
            if len(alphas) != n or len(betas) != n:
                raise ValueError("stem term lists %d alpha and %d beta "
                                 "exponents, expected %d of each"
                                 % (len(alphas), len(betas), n))
            key = tuple(alphas) + tuple(betas)
            if key in terms:
                raise ValueError("stem term %r is listed twice" % (key,))
            components = _json_field(t, "components", where)
            if len(components) != 1:
                raise ValueError("stem term %r must list exactly one component"
                                 % (key,))
            where = "component of stem term %r" % (key,)
            mask = _json_field(components[0], "mask", where, object)
            if mask != _parity(betas):
                raise ValueError("stem parity violated: term %r carries mask %r"
                                 % (key, mask))
            comps = _json_field(components[0], "quaternion", where)
            if len(comps) != 4:
                raise ValueError("stem term %r lists %d quaternion components, "
                                 "expected 4" % (key, len(comps)))
            for c in comps:
                _check_json_number(c, key)
            terms[key] = Quaternion(*[Fraction(c) for c in comps])
        return cls(n, terms)

    def __repr__(self):
        return "SliceFunction(%s)" % format_slice(self)

    def __str__(self):
        return format_slice(self)


def _json_field(obj, name, where, kind=list):
    """``obj[name]``, refused with a ValueError that names the field when
    ``obj`` is not a JSON object, lacks it, or holds other than ``kind``."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError("%s has no %r field" % (where, name))
    if not isinstance(obj[name], kind):
        raise ValueError("%s field %r must be a %s, not %s" % (
            where, name, kind.__name__, type(obj[name]).__name__))
    return obj[name]


# A denominator of zeros only, as ``Fraction``'s literals write it.
_ZERO_DENOMINATOR = re.compile(r"/\s*0+(?:_0+)*\s*\Z")
# A quaternion entry as ``to_json`` writes it: a number literal of the
# expression language with an optional minus sign, in ASCII digits.
_JSON_NUMBER = re.compile(r"-?" + NUMBER_PATTERN, re.ASCII)


def _check_json_number(c, key):
    """Refuse a quaternion entry of stem term ``key`` that is not a str or
    an int (a bool or float included: stems are exact), has a run of more
    than ``MAX_DIGITS`` digits or a zero denominator, or is a str other than
    a signed number literal (no exponent, blank, ``_`` or ``+``), with a
    ValueError that names the term, before ``Fraction`` converts it."""
    if type(c) is int:
        return
    if not isinstance(c, str):
        raise ValueError("stem term %r has a quaternion component of type %s, "
                         "expected a str or an int" % (key, type(c).__name__))
    run = LONG_DIGIT_RUN.search(c)
    if run:
        raise ValueError("stem term %r has a quaternion component of %d "
                         "digits, more than the %d accepted"
                         % (key, len(run.group()), MAX_DIGITS))
    if _ZERO_DENOMINATOR.search(c):
        raise ValueError("stem term %r has a quaternion component %r with a "
                         "zero denominator" % (key, c))
    if not _JSON_NUMBER.fullmatch(c):
        raise ValueError("stem term %r has a quaternion component %r that is "
                         "not an integer, ratio or decimal with an optional "
                         "minus sign" % (key, c))


# One class serves both names: a slice polynomial is induced by exactly one
# stem.  StemPolynomial(n, {key: Quaternion}) is the documented constructor;
# perfbench/tracing.py patches StemPolynomial.__mul__ to count product terms.
StemPolynomial = SliceFunction


# -- constructors ---------------------------------------------------------------


def _as_quaternion(value):
    return value if isinstance(value, Quaternion) else Quaternion(value)


def constant(n, value):
    return SliceFunction(n, {(0,) * (2 * n): _as_quaternion(value)})


def variable(n, m):
    """The coordinate slice function x_m."""
    if not 1 <= m <= n:
        raise ValueError("variable index %d out of range 1..%d" % (m, n))
    akey = tuple(1 if i == m - 1 else 0 for i in range(2 * n))
    bkey = tuple(1 if i == n + m - 1 else 0 for i in range(2 * n))
    return _stem(n, 1, {akey: (1, 0, 0, 0), bkey: (1, 0, 0, 0)})


def conj_variable(n, m):
    """The conjugate coordinate slice function."""
    return variable(n, m).conjugate()


def monomial(n, powers, conj_powers=None, coeff=1):
    """The monomial x_1^l1 conj(x_1)^h1 ... x_n^ln conj(x_n)^hn * coeff.

    Factors multiply in ascending variable order with the plain power before
    the conjugate power, and the coefficient on the right, which is left out
    when it is 1; every product is a slice product.
    """
    powers = tuple(powers)
    conj_powers = tuple(conj_powers) if conj_powers is not None else (0,) * n
    if len(powers) != n or len(conj_powers) != n:
        raise ValueError("multi-index length must equal the variable count")
    q = _as_quaternion(coeff)
    right = constant(n, q)  # refuses a float coefficient before any product
    factors = [coordinate(n, m) ** e for m in range(1, n + 1)
               for e, coordinate in ((powers[m - 1], variable),
                                     (conj_powers[m - 1], conj_variable)) if e]
    if q != ONE or not factors:
        factors.append(right)
    return reduce(mul, factors)


# -- canonical monomial form --------------------------------------------------


@lru_cache(maxsize=None)
def _variable_expansion(a, b):
    """Expansion of alpha^a * beta^b * e^(b mod 2), scaled by 2^(a+b), over
    the per-variable monomial basis z^l conj(z)^h, as a tuple of
    ((l, h), int); every l + h is a + b."""
    out = {}
    sign = (-1) ** (b // 2)
    for s in range(a + 1):
        ca = sign * math.comb(a, s)
        for t in range(b + 1):
            lh = (s + t, a + b - s - t)
            out[lh] = out.get(lh, 0) + ca * math.comb(b, t) * (-1) ** (b - t)
    return tuple((lh, c) for lh, c in out.items() if c)


def to_monomials(f):
    """Rewrite a slice function as a map (powers, conj_powers) -> coefficient.

    The monomial family with ascending ordered variables and right
    coefficients is a basis of the slice polynomials, so the expansion is
    exact and unique.  It runs one variable at a time over the scaled
    expansions of ``_variable_expansion`` on the stem's numerators over its
    denominator D, so that a monomial of total degree T gets one
    ``Fraction`` per component over D * 2^T.  A sum that cancels in one
    pass is not expanded by the next, so the keys' order is not kept.
    """
    n = f.n
    # keys list (a_1, b_1, ..., a_n, b_n); pass m turns (a_m, b_m) into
    # (l_m, h_m), so the total degree of a key never changes
    interleave = itemgetter(*[p for m in range(n) for p in (m, n + m)])
    partial = {interleave(key): comps for key, comps in f.terms.items()}
    for i in range(0, 2 * n, 2):
        nxt = {}
        for key, (w, x, y, z) in partial.items():
            if not (w or x or y or z):
                continue
            head, tail = key[:i], key[i + 2:]
            for lh, c in _variable_expansion(key[i], key[i + 1]):
                new_key = head + lh + tail
                cur = nxt.get(new_key)
                if cur is None:
                    nxt[new_key] = [c * w, c * x, c * y, c * z]
                else:
                    cur[0] += c * w
                    cur[1] += c * x
                    cur[2] += c * y
                    cur[3] += c * z
        partial = nxt
    out = {}
    for key, comps in partial.items():
        if any(comps):
            den = f.den << sum(key)
            out[(key[0::2], key[1::2])] = Quaternion(
                *[Fraction(v, den) for v in comps])
    return out


def format_slice(f):
    """Render a slice function in the expression grammar, e.g.
    ``x1^2*x2*(1+2i) + ~x1*(k)``."""
    monos = to_monomials(f)
    if not monos:
        return "0"
    ordered = sorted(monos, key=lambda lh: (sum(lh[0]) + sum(lh[1]), lh))
    parts = []
    for powers, conj_powers in ordered:
        coeff = monos[(powers, conj_powers)]
        factors = []
        for m in range(f.n):
            for mark, e in (("x", powers[m]), ("~x", conj_powers[m])):
                if e:
                    factors.append("%s%d" % (mark, m + 1) + ("^%d" % e if e > 1 else ""))
        if not factors:
            parts.append(format_quaternion(coeff))
        elif coeff == ONE:
            parts.append("*".join(factors))
        else:
            parts.append("*".join(factors) + "*(%s)" % format_quaternion(coeff))
    return " + ".join(parts)
