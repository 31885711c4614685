"""Exact slice polynomials of several quaternionic variables.

A slice polynomial is induced by exactly one stem polynomial, so
``SliceFunction`` stores its stem and nothing else: a sparse map from
exponent vectors to quaternions.  With n variables the key is a
2n-tuple

    (a_1, ..., a_n, b_1, ..., b_n)

recording the exponents of the real pair (alpha_m, beta_m) attached to each
quaternionic variable x_m = alpha_m + J_m*beta_m.  The parity condition ties
exponents to subsets: a term carries its coefficient on the subset K of the
m whose beta_m exponent is odd, its parity mask, so one quaternion per key
holds it.  Parity is what makes evaluation independent of the choice of
unit on the real axis.

Example: the variable x_1 (n=1) is  {(1,0): 1, (0,1): 1} (on e{}, e{1}),
its square is  {(2,0): 1, (0,2): -1, (1,1): 2} (on e{}, e{}, e{1}).

All products are slice products (pointwise products of stems); a pointwise
product of slice functions is generally not a slice function and is not
offered here.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .quaternion import (Quaternion, ONE, format_quaternion, hamilton,
                         flat_point, split_slice_components)
from .stem import MAX_VARS, basis_product

MAX_DEGREE_PER_VARIABLE = 32
# Bounds the pairs of terms a stem product forms, which bounds its work and
# its output terms.  (x1+~x2+x3+x4+x5)^8 needs 715 * 715 = 511,225 pairs;
# (x1+~x2+x3+x4+x5+x6)^10 needs 1,365 * 1,365 = 1,863,225 and is refused.
MAX_STEM_TERMS = 1 << 20

_HALF = Fraction(1, 2)
# Component types of the stems that the exact loops run on integer
# numerators; exact types only, so a subclass (bool, a float subclass) takes
# the plain path.
_NUMERATOR_TYPES = frozenset((int, Fraction))


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


def _rows(f):
    """f's terms as ``(key, mask, components)`` rows, and the set of the
    components' types."""
    n = f.n
    rows = [(key, _parity(key[n:]), q.components()) for key, q in f.terms.items()]
    return rows, {type(c) for _, _, comps in rows for c in comps}


def _over_one_denominator(rows):
    """The rows with the integer numerators of their components over the
    least common denominator of all of them, and that denominator."""
    d = math.lcm(*[c.denominator for _, _, q in rows for c in q])
    return [(key, mask, tuple([c.numerator * (d // c.denominator) for c in q]))
            for key, mask, q in rows], d


def _check_term_cap(a, b):
    """Refuse a stem product of ``a`` by ``b`` terms over the pair cap."""
    if a * b > MAX_STEM_TERMS:
        raise ValueError("stem term cap %d exceeded: a product of %d by "
                         "%d terms" % (MAX_STEM_TERMS, a, b))


def _packed(rows):
    """The rows with each key packed into an int, one byte per exponent,
    so that adding keys is one int addition: no exponent of a product
    exceeds the degree cap, so no byte carries into the next."""
    return [(int.from_bytes(bytes(k), "little"), m, q) for k, m, q in rows]


def _stem_product(left, right):
    """The sums of the products of every pair of terms of two stems, given
    as rows ``(packed key, mask, components)``: a dict from each packed key
    of the product, in order of first appearance, to its four components.

    ``hamilton``'s formula is restated inline in its operation order, the
    ``basis_product`` sign negates the product, and products sum in term
    order, as ``Quaternion`` arithmetic does.  Sums that cancel to zero are
    kept.
    """
    # per mask of a left term, which right terms its product negates
    negates = {m1: [basis_product(m1, m2)[0] < 0 for _, m2, _ in right]
               for _, m1, _ in left}
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


def _unpacked(n, sums, den):
    """The slice function of ``(packed key, components)`` pairs, each
    component a numerator over ``den``, or as it is when ``den`` is None."""
    size = 2 * n
    terms = {}
    for key, comps in sums:
        if den is not None:
            comps = [Fraction(v, den) for v in comps]
        terms[tuple(key.to_bytes(size, "little"))] = Quaternion(*comps)
    return SliceFunction(n, terms, validate=False)


def _compile_stem(f):
    """Compile f's stem into a float kernel ``kernel(values, units)``.

    ``values`` lists alpha_1, beta_1, ..., alpha_n, beta_n and ``units[m-1]``
    is the imaginary unit J_m as a component 4-tuple; the kernel returns
    the value as a component 4-tuple.  Coefficients become float 4-tuples,
    and each term keeps only its factors ``(value index, exponent)`` with a
    nonzero exponent, alpha_m before beta_m in ascending m.  A plan orders
    the products of the units over every subset the stem uses: each is the
    lowest unit times the product over the remaining ones, formed in
    ascending mask order so the remainder exists.

    The unit product acts from the left on each term's coefficient by
    ``hamilton``'s formula, restated inline in its operation order and
    folded into the sums, which follow ``Quaternion.__add__``; so the value
    is bit for bit the one quaternion arithmetic gives.
    """
    n = f.n
    terms = []
    plan = set()
    for key, mask, coeff in f.coefficients():
        factors = tuple((2 * m + side, key[side * n + m])
                        for m in range(n) for side in (0, 1)
                        if key[side * n + m])
        terms.append((factors, mask, coeff.to_float().components()))
        while mask & (mask - 1):
            low = mask & -mask
            plan.add((mask, low, mask & ~low))
            mask &= ~low
    plan = sorted(plan)
    size = 1 << n

    def kernel(values, units):
        prods = [None] * size
        prods[0] = (1.0, 0.0, 0.0, 0.0)
        for m in range(n):
            prods[1 << m] = units[m]
        for mask, low, rest in plan:
            prods[mask] = hamilton(prods[low], prods[rest])
        tw = tx = ty = tz = 0.0
        for factors, mask, (e, f, g, h) in terms:
            scalar = 1.0
            for i, k in factors:
                scalar *= values[i] ** k
            if scalar == 0.0:
                continue
            a, b, c, d = prods[mask]
            tw = tw + (a * e - b * f - c * g - d * h) * scalar
            tx = tx + (a * f + b * e + c * h - d * g) * scalar
            ty = ty + (a * g - b * h + c * e + d * f) * scalar
            tz = tz + (a * h + b * g - c * f + d * e) * scalar
        return (tw, tx, ty, tz)

    return kernel


class SliceFunction:
    """A slice polynomial, stored as its inducing stem: a sparse polynomial
    in (alpha_1..alpha_n, beta_1..beta_n) with coefficients in the
    2^n-component algebra, satisfying the stem parity condition.  ``terms``
    maps each key to the quaternion on its parity mask.

    ``*`` is the slice product.  Evaluation decomposes each coordinate as
    x_m = alpha_m + J_m*beta_m with beta_m = |Im(x_m)| >= 0 and sums the
    component values with the ascending unit products on the left.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, validate=True):
        if not 1 <= n <= MAX_VARS:
            raise ValueError("number of variables must be in 1..%d" % MAX_VARS)
        self.n = n
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != 2 * n:
                raise ValueError("exponent key must have length 2n")
            if not isinstance(coeff, Quaternion):
                raise TypeError("stem coefficients must be quaternions")
            if not coeff.is_zero():
                clean[key] = coeff
        self.terms = clean
        if validate:
            if any(type(e) is not int for key in clean for e in key):
                raise ValueError("stem exponents must be ints")
            if any(min(key) < 0 for key in clean):
                raise ValueError("negative exponent in stem term")
            _check_degree_cap(self.degrees())

    def degrees(self):
        """Per-variable degrees: the largest a_m + b_m over the terms."""
        n = self.n
        return [max((key[m] + key[n + m] for key in self.terms), default=0)
                for m in range(n)]

    @classmethod
    def zero(cls, n):
        return cls(n)

    def is_zero(self):
        return not self.terms

    def coefficients(self):
        """Yield ``(key, mask, coeff)`` for every nonzero coefficient: the
        exponent key, the subset mask and the quaternion on that subset."""
        for key, coeff in self.terms.items():
            yield key, _parity(key[self.n:]), coeff

    def _check_compatible(self, other):
        if not isinstance(other, SliceFunction):
            raise TypeError("expected a SliceFunction")
        if other.n != self.n:
            raise ValueError("mismatched ambient variable counts")

    # -- ring operations ----------------------------------------------------
    # Results are built unvalidated: the parity of k1 + k2 is the mask that
    # basis_product gives, so parity is kept.  Stems are polynomials over H
    # in the central indeterminates alpha_m and e_m*beta_m, which have no zero
    # divisors, so the degrees of a product are the sums of its factors'.

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            cur = terms.get(key)
            terms[key] = coeff if cur is None else cur + coeff
        return SliceFunction(self.n, terms, validate=False)

    def __neg__(self):
        return SliceFunction(self.n, {k: -q for k, q in self.terms.items()},
                             validate=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Slice product: the pointwise product of the inducing stems.

        When both stems are exact and one holds a ``Fraction``, each goes
        over one common denominator, the pairs of terms multiply and sum on
        integer numerators (``_stem_product``), and each component of the
        result is one ``Fraction``.  Otherwise the components multiply as
        stored: all-int stems give ints, and a float gives the bits of
        quaternion arithmetic.
        """
        self._check_compatible(other)
        _check_degree_cap([a + b for a, b in zip(self.degrees(), other.degrees())])
        _check_term_cap(len(self.terms), len(other.terms))
        left, kinds_a = _rows(self)
        right, kinds_b = _rows(other)
        kinds = kinds_a | kinds_b
        lattice = Fraction in kinds and kinds <= _NUMERATOR_TYPES
        da = db = 1
        if lattice:
            # an all-int stem is its own numerators, over 1
            if Fraction in kinds_a:
                left, da = _over_one_denominator(left)
            if Fraction in kinds_b:
                right, db = _over_one_denominator(right)
        sums = _stem_product(_packed(left), _packed(right))
        return _unpacked(self.n, sums.items(), da * db if lattice else None)

    def __pow__(self, k):
        """The k-th slice power by square and multiply from the lowest bit
        of k.  The lowest set bit takes f as it is, so no ``1 * f`` product
        is formed.

        A stem that holds a ``Fraction`` goes over its common denominator d
        once, the products of the chain run on integer numerators, and each
        component of the result is one ``Fraction`` over d^k.  Otherwise the
        components multiply as stored, as in ``*``.  Each product checks the
        term cap and drops the sums that cancel to zero, as ``*`` does, so
        the terms and their order are those of the chain of ``*`` products.
        """
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be natural numbers")
        # no intermediate power exceeds the k-th, whose degrees are k times ours
        _check_degree_cap([k * d for d in self.degrees()])
        n = self.n
        if not k:
            return constant(n, ONE)
        base, kinds = _rows(self)
        lattice = Fraction in kinds and kinds <= _NUMERATOR_TYPES
        d = 1
        if lattice:
            base, d = _over_one_denominator(base)
        base = _packed(base)
        # a packed key's parity mask, looked up by the low bits of its beta
        # bytes: bit 8m of those is bit m of the mask
        shift, odd = 8 * n, int.from_bytes(b"\x01" * n, "little")
        masks = {sum(1 << 8 * m for m in range(n) if s >> m & 1): s
                 for s in range(1 << n)}

        def product(a, b):
            _check_term_cap(len(a), len(b))
            return [(key, masks[key >> shift & odd], comps)
                    for key, comps in _stem_product(a, b).items() if any(comps)]

        result = None
        bits = k
        while bits:
            if bits & 1:
                result = base if result is None else product(result, base)
            bits >>= 1
            if bits:
                base = product(base, base)
        return _unpacked(n, [(key, comps) for key, _, comps in result],
                         d ** k if lattice else None)

    def __eq__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    # -- calculus -------------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a point of H^n given as a sequence of quaternions."""
        if len(point) != self.n:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(point), self.n))
        return self.evaluator()(point)

    def evaluate_parts(self, alphas, betas, units):
        """Evaluate at given real parts, imaginary radii and units J_m."""
        values = [v for pair in zip(alphas, betas) for v in pair]
        return Quaternion(*_compile_stem(self)(
            values, [u.components() for u in units]))

    def evaluator(self):
        """The stem compiled once into a function of points of H^n.

        The function takes a sequence of quaternions and returns a
        quaternion.  Its ``flat`` attribute is the same evaluation on the
        flat 4n-tuple of point components, returning a component 4-tuple,
        and the function runs it.  Each coordinate is split by
        ``split_slice_components``; the point's length is not checked.
        """
        kernel = _compile_stem(self)
        n = self.n

        def flat(point):
            values = []
            units = []
            for k in range(0, 4 * n, 4):
                alpha, beta, unit = split_slice_components(
                    point[k], point[k + 1], point[k + 2], point[k + 3])
                values.append(alpha)
                values.append(beta)
                units.append(unit)
            return kernel(values, units)

        def evaluate(point):
            return Quaternion(*flat(flat_point(point)))

        evaluate.flat = flat
        return evaluate

    def spherical_value(self, m):
        """Drop every component whose subset contains m; equals the average
        (f(x) + f with x_m conjugated)/2 at every point."""
        self._check_var(m)
        bpos = self.n + m - 1
        return SliceFunction(self.n, {key: q for key, q in self.terms.items()
                                      if not key[bpos] % 2},
                             validate=False)

    def spherical_derivative(self, m):
        """Divide the components whose subset contains m by beta_m and drop m.

        Exact at the stem level, where parity forces an odd (hence positive)
        beta_m exponent on every such term, and real-analytically extended
        across the real axis.  Coincides with the one-variable spherical
        derivative Im(x_m)^-1 (f(x) - f with x_m conjugated)/2 of the
        restrictions whenever the function is a slice function w.r.t. x_m;
        that holds for m = 1 always and is what the component recursions
        preserve.
        """
        self._check_var(m)
        bpos = self.n + m - 1
        terms = {}
        for key, q in self.terms.items():
            if not key[bpos] % 2:
                continue
            new_key = key[:bpos] + (key[bpos] - 1,) + key[bpos + 1:]
            cur = terms.get(new_key)
            terms[new_key] = q if cur is None else cur + q
        return SliceFunction(self.n, terms, validate=False)

    def is_slice_with_respect_to(self, m):
        """True when every restriction in x_m is a one-variable slice
        function: no component subset may contain m together with a smaller
        variable.  Always true for m = 1."""
        self._check_var(m)
        lower = (1 << (m - 1)) - 1
        hb = 1 << (m - 1)
        return not any(mask & hb and mask & lower
                       for _, mask, _ in self.coefficients())

    def _cr_partial(self, m, conj):
        """Cauchy-Riemann partial w.r.t. variable m: half the alpha_m
        partial minus (``conj``: plus) the beta_m partial followed by the
        complex structure of m.

        The bare beta_m partial breaks parity; composing with the structure
        restores it.  The structure takes a term off subset K with a sign
        when m is in K (odd b), onto K + {m} otherwise.

        One dict collects both partials: the alpha_m pass first, then the
        beta_m pass, each lowering one exponent, which maps keys one to one.
        That order fixes the order of the result's terms, in which the
        compiled float kernel sums them.  Terms that cancel are not halved.
        """
        self._check_var(m)
        n = self.n
        sign = 1 if conj else -1
        terms = {}
        for pos in (m - 1, n + m - 1):
            for key, q in self.terms.items():
                e = key[pos]
                if e == 0:
                    continue
                factor = e if pos < n else sign * (-e if e % 2 else e)
                new_key = key[:pos] + (e - 1,) + key[pos + 1:]
                add = q * factor
                cur = terms.get(new_key)
                terms[new_key] = add if cur is None else cur + add
        return SliceFunction(n, {k: q * _HALF for k, q in terms.items()
                                 if not q.is_zero()}, validate=False)

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
        return SliceFunction(n, {key: -q if _parity(key[n:]).bit_count() % 2 else q
                                 for key, q in self.terms.items()},
                             validate=False)

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
        n = self.n
        terms = []
        for key in sorted(self.terms):
            q = self.terms[key]
            terms.append({"alpha_exps": list(key[:n]),
                          "beta_exps": list(key[n:]),
                          "components": [{"mask": _parity(key[n:]),
                                          "quaternion": [str(c) for c in q.components()]}]})
        return {"n": n, "terms": terms}

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``.  Each term lists n alpha and n beta
        exponents, appears once, and lists one component, on the parity mask
        of its exponents, with four quaternion components."""
        n = data["n"]
        terms = {}
        for t in data["terms"]:
            alphas, betas = t["alpha_exps"], t["beta_exps"]
            if len(alphas) != n or len(betas) != n:
                raise ValueError("stem term lists %d alpha and %d beta "
                                 "exponents, expected %d of each"
                                 % (len(alphas), len(betas), n))
            key = tuple(alphas) + tuple(betas)
            if key in terms:
                raise ValueError("stem term %r is listed twice" % (key,))
            if len(t["components"]) != 1:
                raise ValueError("stem term %r must list exactly one component"
                                 % (key,))
            (c,) = t["components"]
            if c["mask"] != _parity(betas):
                raise ValueError("stem parity violated: term %r carries mask %r"
                                 % (key, c["mask"]))
            if len(c["quaternion"]) != 4:
                raise ValueError("stem term %r lists %d quaternion components, "
                                 "expected 4" % (key, len(c["quaternion"])))
            terms[key] = Quaternion(*[Fraction(s) for s in c["quaternion"]])
        return cls(n, terms)

    def __repr__(self):
        return "SliceFunction(%s)" % format_slice(self)

    def __str__(self):
        return format_slice(self)


# One class serves both names: a slice polynomial is induced by exactly one
# stem.  StemPolynomial(n, {key: Quaternion}) is the documented constructor,
# and perfbench/tracing.py patches StemPolynomial.__mul__ to count the terms
# of stem products.
StemPolynomial = SliceFunction


# -- constructors ---------------------------------------------------------------


def _as_quaternion(value):
    if isinstance(value, Quaternion):
        return value
    return Quaternion(value)


def constant(n, value):
    q = _as_quaternion(value)
    if q.is_zero():
        return SliceFunction.zero(n)
    key = (0,) * (2 * n)
    return SliceFunction(n, {key: q})


def variable(n, m):
    """The coordinate slice function x_m."""
    if not 1 <= m <= n:
        raise ValueError("variable index %d out of range 1..%d" % (m, n))
    akey = tuple(1 if i == m - 1 else 0 for i in range(2 * n))
    bkey = tuple(1 if i == n + m - 1 else 0 for i in range(2 * n))
    return SliceFunction(n, {akey: ONE, bkey: ONE})


def conj_variable(n, m):
    """The conjugate coordinate slice function."""
    return variable(n, m).conjugate()


def monomial(n, powers, conj_powers=None, coeff=1):
    """The monomial x_1^l1 conj(x_1)^h1 ... x_n^ln conj(x_n)^hn * coeff.

    Factors multiply in ascending variable order with the plain power before
    the conjugate power, and the coefficient on the right; every product is
    a slice product.
    """
    powers = tuple(powers)
    conj_powers = tuple(conj_powers) if conj_powers is not None else (0,) * n
    if len(powers) != n or len(conj_powers) != n:
        raise ValueError("multi-index length must equal the variable count")
    f = constant(n, ONE)
    for m in range(1, n + 1):
        if powers[m - 1]:
            f = f * variable(n, m) ** powers[m - 1]
        if conj_powers[m - 1]:
            f = f * conj_variable(n, m) ** conj_powers[m - 1]
    q = _as_quaternion(coeff)
    if q == ONE:
        return f
    return f * constant(n, q)


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
    expansions of ``_variable_expansion``: an exact stem on the integer
    numerators over its common denominator D, so that a monomial of total
    degree T gets one ``Fraction`` per component over D * 2^T.  A stem with
    a float sums in another order than term by term, so its coefficients
    agree with the termwise expansion to within 1e-12 relative error (of
    the largest coefficient component).
    """
    n = f.n
    rows, kinds = _rows(f)
    lattice = kinds <= _NUMERATOR_TYPES
    d = 1
    if lattice and Fraction in kinds:
        rows, d = _over_one_denominator(rows)
    # keys list (a_1, b_1, ..., a_n, b_n); pass m turns (a_m, b_m) into
    # (l_m, h_m), so the total degree of a key never changes
    partial = {tuple(v for m in range(n) for v in (key[m], key[n + m])):
               comps for key, _, comps in rows}
    for i in range(0, 2 * n, 2):
        nxt = {}
        for key, comps in partial.items():
            head, tail = key[:i], key[i + 2:]
            for lh, c in _variable_expansion(key[i], key[i + 1]):
                new_key = head + lh + tail
                cur = nxt.get(new_key)
                if cur is None:
                    nxt[new_key] = [c * v for v in comps]
                else:
                    for j, v in enumerate(comps):
                        cur[j] += c * v
        partial = nxt
    out = {}
    for key, comps in partial.items():
        den = d << sum(key)
        comps = [Fraction(v, den) if lattice else v * Fraction(1, den)
                 for v in comps]
        if any(comps):
            out[(key[0::2], key[1::2])] = Quaternion(*comps)
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
            if powers[m]:
                factors.append("x%d" % (m + 1) + ("^%d" % powers[m] if powers[m] > 1 else ""))
            if conj_powers[m]:
                factors.append("~x%d" % (m + 1) + ("^%d" % conj_powers[m] if conj_powers[m] > 1 else ""))
        if not factors:
            parts.append(format_quaternion(coeff))
        elif coeff == ONE:
            parts.append("*".join(factors))
        else:
            parts.append("*".join(factors) + "*(%s)" % format_quaternion(coeff))
    return " + ".join(parts)
