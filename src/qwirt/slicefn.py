"""Exact slice polynomials of several quaternionic variables.

A slice polynomial is stored through its inducing stem polynomial: a sparse
map from exponent vectors to coefficient-algebra elements.  With n variables
the key is a 2n-tuple

    (a_1, ..., a_n, b_1, ..., b_n)

recording the exponents of the real pair (alpha_m, beta_m) attached to each
quaternionic variable x_m = alpha_m + J_m*beta_m.  The parity condition ties
exponents to subsets: a term may carry a coefficient on subset K only when
the beta_m exponent is odd exactly for m in K.  This is checked on
construction and is what makes evaluation independent of the choice of unit
on the real axis.

Example: the variable x_1 (n=1) is  {(1,0): e{} * 1, (0,1): e{1} * 1},
its square is  {(2,0): e{}, (0,2): -e{}, (1,1): e{1} * 2}.

All products are slice products (pointwise products of stems); a pointwise
product of slice functions is generally not a slice function and is not
offered here.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .quaternion import Quaternion, ONE, format_quaternion, hamilton
from .stem import StemElement, MAX_VARS, bit, mask_indices

MAX_DEGREE_PER_VARIABLE = 32

_HALF = Fraction(1, 2)


def _check_degree_cap(degrees):
    """Refuse per-variable degrees over the cap, naming the lowest variable
    that exceeds it."""
    for m, degree in enumerate(degrees, start=1):
        if degree > MAX_DEGREE_PER_VARIABLE:
            raise ValueError("degree cap %d exceeded in variable %d"
                             % (MAX_DEGREE_PER_VARIABLE, m))


class StemPolynomial:
    """Sparse polynomial in (alpha_1..alpha_n, beta_1..beta_n) with
    coefficients in the 2^n-component algebra, satisfying the stem parity
    condition."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, validate=True):
        if not 1 <= n <= MAX_VARS:
            raise ValueError("number of variables must be in 1..%d" % MAX_VARS)
        self.n = n
        clean = {}
        for key, elem in (terms or {}).items():
            key = tuple(key)
            if len(key) != 2 * n:
                raise ValueError("exponent key must have length 2n")
            if elem.n != n:
                raise ValueError("mismatched ambient variable counts")
            if not elem.is_zero():
                clean[key] = elem
        self.terms = clean
        if validate:
            self._validate()

    def _validate(self):
        for key, elem in self.terms.items():
            if min(key) < 0:
                raise ValueError("negative exponent in stem term")
            parity = 0
            for m in range(1, self.n + 1):
                if key[self.n + m - 1] % 2:
                    parity |= bit(m)
            for mask in elem.components:
                if mask != parity:
                    raise ValueError(
                        "stem parity violated: term %r carries subset %r"
                        % (key, mask_indices(mask)))
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
        for key, elem in self.terms.items():
            for mask, coeff in elem.components.items():
                yield key, mask, coeff

    def _check_compatible(self, other):
        if not isinstance(other, StemPolynomial):
            raise TypeError("expected a StemPolynomial")
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
        for key, elem in other.terms.items():
            cur = terms.get(key)
            terms[key] = elem if cur is None else cur + elem
        return StemPolynomial(self.n, terms, validate=False)

    def __neg__(self):
        return StemPolynomial(self.n, {k: -e for k, e in self.terms.items()},
                              validate=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        _check_degree_cap([a + b for a, b in zip(self.degrees(), other.degrees())])
        terms = {}
        for k1, e1 in self.terms.items():
            for k2, e2 in other.terms.items():
                key = tuple(x + y for x, y in zip(k1, k2))
                prod = e1 * e2
                cur = terms.get(key)
                terms[key] = prod if cur is None else cur + prod
        return StemPolynomial(self.n, terms, validate=False)

    def scale(self, value):
        return StemPolynomial(self.n, {k: e.scale(value) for k, e in self.terms.items()},
                              validate=False)

    # -- per-variable surgery -----------------------------------------------

    def spherical_value_terms(self, m):
        """Keep exactly the components whose subset avoids variable m."""
        hb = bit(m)
        terms = {}
        for key, elem in self.terms.items():
            kept = {mask: c for mask, c in elem.components.items() if not mask & hb}
            if kept:
                terms[key] = StemElement(self.n, kept)
        return StemPolynomial(self.n, terms, validate=False)

    def spherical_derivative_terms(self, m):
        """Divide the components whose subset contains m by beta_m and drop m.

        Division is exact: parity forces an odd (hence positive) beta_m
        exponent on every such component.
        """
        hb = bit(m)
        bpos = self.n + m - 1
        terms = {}
        for key, elem in self.terms.items():
            kept = {mask & ~hb: c for mask, c in elem.components.items() if mask & hb}
            if not kept:
                continue
            new_key = key[:bpos] + (key[bpos] - 1,) + key[bpos + 1:]
            cur = terms.get(new_key)
            add = StemElement(self.n, kept)
            terms[new_key] = add if cur is None else cur + add
        return StemPolynomial(self.n, terms, validate=False)

    def partial_alpha(self, m):
        apos = m - 1
        terms = {}
        for key, elem in self.terms.items():
            a = key[apos]
            if a == 0:
                continue
            new_key = key[:apos] + (a - 1,) + key[apos + 1:]
            add = elem.scale(a)
            cur = terms.get(new_key)
            terms[new_key] = add if cur is None else cur + add
        return StemPolynomial(self.n, terms, validate=False)

    def structure_beta_partial(self, m):
        """The beta_m partial followed by the complex structure of m.

        The bare beta_m partial breaks parity; composing with the structure
        restores it, so only the composite is exposed.
        """
        bpos = self.n + m - 1
        terms = {}
        for key, elem in self.terms.items():
            b = key[bpos]
            if b == 0:
                continue
            new_key = key[:bpos] + (b - 1,) + key[bpos + 1:]
            add = elem.scale(b).apply_structure(m)
            cur = terms.get(new_key)
            terms[new_key] = add if cur is None else cur + add
        return StemPolynomial(self.n, terms, validate=False)

    def cr_partial(self, m, conj):
        """Cauchy-Riemann partial of the stem w.r.t. variable m."""
        da = self.partial_alpha(m)
        jdb = self.structure_beta_partial(m)
        combined = da + jdb if conj else da - jdb
        return combined.scale(_HALF)

    def conjugate_components(self):
        """Flip the sign of every component on an odd-size subset."""
        terms = {}
        for key, elem in self.terms.items():
            comps = {}
            for mask, coeff in elem.components.items():
                comps[mask] = -coeff if mask.bit_count() % 2 else coeff
            terms[key] = StemElement(self.n, comps)
        return StemPolynomial(self.n, terms, validate=False)

    def __eq__(self, other):
        if not isinstance(other, StemPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        return "StemPolynomial(%d, %d terms)" % (self.n, len(self.terms))


def _compile_stem(stem):
    """Compile a stem into a float evaluator of ``(alphas, betas, units)``.

    ``units[m-1]`` is the imaginary unit J_m.  Coefficients become float
    4-tuples, and a plan orders the products of the units over every subset
    the stem uses: each is the lowest unit times the product over the
    remaining ones, formed in ascending mask order so the remainder exists.
    The loop runs on float 4-tuples: the unit product acts from the left on
    each component value through ``hamilton``, the product
    ``Quaternion.__mul__`` uses, and sums follow ``__add__``, so the value is
    bit for bit the one quaternion arithmetic gives.
    """
    n = stem.n
    compiled = []
    plan = set()
    for key, mask, coeff in stem.coefficients():
        compiled.append((key[:n], key[n:], mask, coeff.to_float().components()))
        while mask & (mask - 1):
            low = mask & -mask
            plan.add((mask, low, mask & ~low))
            mask &= ~low
    plan = sorted(plan)

    def evaluate_parts(alphas, betas, units):
        prods = {0: (1.0, 0.0, 0.0, 0.0)}
        for h in range(n):
            prods[1 << h] = units[h].components()
        for mask, low, rest in plan:
            prods[mask] = hamilton(prods[low], prods[rest])
        tw = tx = ty = tz = 0.0
        for aexps, bexps, mask, coeff in compiled:
            scalar = 1.0
            for m in range(n):
                if aexps[m]:
                    scalar *= alphas[m] ** aexps[m]
                if bexps[m]:
                    scalar *= betas[m] ** bexps[m]
            if scalar == 0.0:
                continue
            pw, px, py, pz = hamilton(prods[mask], coeff)
            tw = tw + pw * scalar
            tx = tx + px * scalar
            ty = ty + py * scalar
            tz = tz + pz * scalar
        return Quaternion(tw, tx, ty, tz)

    return evaluate_parts


class SliceFunction:
    """A slice polynomial together with its evaluation semantics.

    ``*`` is the slice product.  Evaluation decomposes each coordinate as
    x_m = alpha_m + J_m*beta_m with beta_m = |Im(x_m)| >= 0 and sums the
    component values with the ascending unit products on the left.
    """

    __slots__ = ("stem",)

    def __init__(self, stem):
        if not isinstance(stem, StemPolynomial):
            raise TypeError("expected a StemPolynomial")
        self.stem = stem

    @property
    def n(self):
        return self.stem.n

    @classmethod
    def zero(cls, n):
        return cls(StemPolynomial.zero(n))

    def is_zero(self):
        return self.stem.is_zero()

    def __add__(self, other):
        return SliceFunction(self.stem + other.stem)

    def __sub__(self, other):
        return SliceFunction(self.stem - other.stem)

    def __neg__(self):
        return SliceFunction(-self.stem)

    def __mul__(self, other):
        """Slice product: the pointwise product of the inducing stems."""
        return SliceFunction(self.stem * other.stem)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be natural numbers")
        # no intermediate power exceeds the k-th, whose degrees are k times ours
        _check_degree_cap([k * d for d in self.stem.degrees()])
        result = constant(self.n, ONE)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, SliceFunction):
            return NotImplemented
        return self.stem == other.stem

    def __hash__(self):
        return hash(self.stem)

    # -- calculus -------------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a point of H^n given as a sequence of quaternions."""
        if len(point) != self.n:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(point), self.n))
        return self.evaluator()(point)

    def evaluate_parts(self, alphas, betas, units):
        """Evaluate at given real parts, imaginary radii and units J_m."""
        return _compile_stem(self.stem)(alphas, betas, units)

    def evaluator(self):
        """The stem compiled once into a function of points of H^n.

        Each coordinate is split by ``Quaternion.split_slice``; the point's
        length is not checked.
        """
        parts = _compile_stem(self.stem)

        def evaluate(point):
            alphas, betas, units = zip(*[q.split_slice() for q in point])
            return parts(alphas, betas, units)

        return evaluate

    def spherical_value(self, m):
        """Drop every component whose subset contains m; equals the average
        (f(x) + f with x_m conjugated)/2 at every point."""
        self._check_var(m)
        return SliceFunction(self.stem.spherical_value_terms(m))

    def spherical_derivative(self, m):
        """Divide the components whose subset contains m by beta_m and drop m.

        Exact at the stem level and real-analytically extended across the
        real axis.  Coincides with the one-variable spherical derivative
        Im(x_m)^-1 (f(x) - f with x_m conjugated)/2 of the restrictions
        whenever the function is a slice function w.r.t. x_m; that holds for
        m = 1 always and is what the component recursions preserve.
        """
        self._check_var(m)
        return SliceFunction(self.stem.spherical_derivative_terms(m))

    def is_slice_with_respect_to(self, m):
        """True when every restriction in x_m is a one-variable slice
        function: no component subset may contain m together with a smaller
        variable.  Always true for m = 1."""
        self._check_var(m)
        lower = (1 << (m - 1)) - 1
        hb = 1 << (m - 1)
        return not any(mask & hb and mask & lower
                       for _, mask, _ in self.stem.coefficients())

    def slice_partial(self, m):
        """Slice partial derivative w.r.t. x_m."""
        self._check_var(m)
        return SliceFunction(self.stem.cr_partial(m, conj=False))

    def slice_partial_conj(self, m):
        """Slice partial derivative w.r.t. the conjugate of x_m."""
        self._check_var(m)
        return SliceFunction(self.stem.cr_partial(m, conj=True))

    def conjugate(self):
        """The conjugate slice function (odd-subset components negated)."""
        return SliceFunction(self.stem.conjugate_components())

    def is_slice_regular(self):
        """True iff every conjugate slice partial vanishes identically."""
        return all(self.slice_partial_conj(m).is_zero()
                   for m in range(1, self.n + 1))

    def depends_only_on(self, first):
        """True when no exponent or subset touches a variable below ``first``."""
        lower = (1 << (first - 1)) - 1
        for key, mask, _ in self.stem.coefficients():
            if mask & lower or any(key[m - 1] or key[self.n + m - 1]
                                   for m in range(1, first)):
                return False
        return True

    def _check_var(self, m):
        if not 1 <= m <= self.n:
            raise ValueError("variable index %d out of range 1..%d" % (m, self.n))

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        terms = []
        for key in sorted(self.stem.terms):
            elem = self.stem.terms[key]
            comps = [{"mask": mask,
                      "quaternion": [str(c) for c in elem.components[mask].components()]}
                     for mask in sorted(elem.components)]
            terms.append({"alpha_exps": list(key[:self.n]),
                          "beta_exps": list(key[self.n:]),
                          "components": comps})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data):
        n = data["n"]
        terms = {}
        for t in data["terms"]:
            key = tuple(t["alpha_exps"]) + tuple(t["beta_exps"])
            comps = {}
            for c in t["components"]:
                comps[c["mask"]] = Quaternion(*[Fraction(s) for s in c["quaternion"]])
            terms[key] = StemElement(n, comps)
        return cls(StemPolynomial(n, terms))

    def __repr__(self):
        return "SliceFunction(%s)" % format_slice(self)

    def __str__(self):
        return format_slice(self)


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
    return SliceFunction(StemPolynomial(n, {key: StemElement(n, {0: q})}))


def variable(n, m):
    """The coordinate slice function x_m."""
    if not 1 <= m <= n:
        raise ValueError("variable index %d out of range 1..%d" % (m, n))
    akey = tuple(1 if i == m - 1 else 0 for i in range(2 * n))
    bkey = tuple(1 if i == n + m - 1 else 0 for i in range(2 * n))
    return SliceFunction(StemPolynomial(n, {
        akey: StemElement(n, {0: ONE}),
        bkey: StemElement(n, {bit(m): ONE}),
    }))


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
    """Expansion of alpha^a * beta^b * e^(b mod 2) over the per-variable
    monomial basis z^l conj(z)^h, as a tuple of ((l, h), Fraction)."""
    out = {}
    base = Fraction((-1) ** (b // 2), 2 ** (a + b))
    for s in range(a + 1):
        ca = math.comb(a, s)
        for t in range(b + 1):
            cb = math.comb(b, t) * ((-1) ** (b - t))
            lh = (s + t, a + b - s - t)
            out[lh] = out.get(lh, Fraction(0)) + base * ca * cb
    return tuple((lh, c) for lh, c in out.items() if c)


def to_monomials(f):
    """Rewrite a slice function as a map (powers, conj_powers) -> coefficient.

    The monomial family with ascending ordered variables and right
    coefficients is a basis of the slice polynomials, so the expansion is
    exact and unique.
    """
    n = f.n
    out = {}
    for key, _, coeff in f.stem.coefficients():
        expansions = [_variable_expansion(key[m], key[n + m]) for m in range(n)]
        for combo in itertools.product(*expansions):
            scalar = Fraction(1)
            for _, c in combo:
                scalar *= c
            lh = (tuple(p[0][0] for p in combo), tuple(p[0][1] for p in combo))
            add = coeff * scalar
            cur = out.get(lh)
            out[lh] = add if cur is None else cur + add
    return {lh: q for lh, q in out.items() if not q.is_zero()}


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
