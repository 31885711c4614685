"""Quaternion arithmetic over exact rational or floating scalars.

One class serves both engines of the toolkit: symbolic code keeps the four
components as ``fractions.Fraction`` (or ``int``), numeric code uses floats.
Hamilton's product, conjugation and inversion are written so that they stay
exact whenever the components are exact.  Values are treated as immutable;
every operation returns a fresh quaternion.
"""

import math
import re
from fractions import Fraction

_EXACT_TYPES = (int, Fraction)
_SCALAR_TYPES = (int, float, Fraction)


class RealArgumentError(ValueError):
    """The imaginary unit of a quaternion with zero vector part was requested."""


def hamilton(p, q):
    """Hamilton's product of two component 4-tuples ``(w, x, y, z)``, as
    ``Quaternion.__mul__`` and the numeric operators compute it.  The stem
    kernel (``slicefn._compile_stem``), the stem product
    (``slicefn._stem_product``), the sibling products of
    ``numeric._partials`` and the products by i, j and k of
    ``numeric._fueter_sum`` and ``numeric._dirac_sum`` restate it inline in
    this operation order; tests pin them to these bits."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


class Quaternion:
    """A quaternion w + x*i + y*j + z*k.

    The product of two quaternions calls ``hamilton`` on the components as
    they are.  Each result component uses all eight operand components, so
    one ``Fraction`` component makes every component of an exact product a
    ``Fraction``, and one float component makes every component a float.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        for c in (w, x, y, z):
            if not isinstance(c, _SCALAR_TYPES):
                raise TypeError("quaternion components must be int, Fraction or float")
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    # -- structure ---------------------------------------------------------

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def im(self):
        """The vector part x*i + y*j + z*k as a quaternion."""
        return Quaternion(0, self.x, self.y, self.z)

    def norm_sq(self):
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def im_norm_sq(self):
        return self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self):
        return math.sqrt(float(self.norm_sq()))

    def is_zero(self):
        return self.w == 0 and self.x == 0 and self.y == 0 and self.z == 0

    def is_exact(self):
        return all(isinstance(c, _EXACT_TYPES) for c in self.components())

    def to_float(self):
        return Quaternion(float(self.w), float(self.x), float(self.y), float(self.z))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, _SCALAR_TYPES):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, _SCALAR_TYPES):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton((self.w, self.x, self.y, self.z),
                                        (other.w, other.x, other.y, other.z)))
        if isinstance(other, _SCALAR_TYPES):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            return Quaternion(other * self.w, other * self.x,
                              other * self.y, other * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALAR_TYPES):
            if self.is_exact() and isinstance(other, _EXACT_TYPES):
                r = Fraction(1, 1) / other
                return self * r
            return self * (1.0 / other)
        return NotImplemented

    def inverse(self):
        """The multiplicative inverse conj(q)/|q|^2; exact on exact input."""
        n2 = self.norm_sq()
        if n2 == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conjugate() / n2

    def imaginary_unit(self):
        """The float unit J = Im(q)/|Im(q)|, with J*J = -1; a point on the
        real axis raises RealArgumentError."""
        n2 = float(self.im_norm_sq())
        if n2 == 0:
            raise RealArgumentError("quaternion lies on the real axis")
        norm = math.sqrt(n2)
        return Quaternion(0.0, float(self.x) / norm, float(self.y) / norm,
                          float(self.z) / norm)

    def split_slice(self):
        """Floats (alpha, beta, J) with q = alpha + J*beta, beta = |Im(q)|,
        as ``split_slice_components`` computes them."""
        alpha, beta, unit = split_slice_components(self.w, self.x, self.y, self.z)
        return alpha, beta, Quaternion(*unit)

    # -- comparisons, display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.components() == other.components()
        if isinstance(other, _SCALAR_TYPES):
            return self.components() == (other, 0, 0, 0)
        return NotImplemented

    def __hash__(self):
        return hash(self.components())

    def __repr__(self):
        return "Quaternion(%r, %r, %r, %r)" % self.components()

    def __str__(self):
        return format_quaternion(self)


ZERO = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)
UNITS = (ONE, I, J, K)


def split_slice_components(w, x, y, z):
    """Decompose w + x*i + y*j + z*k = alpha + J*beta with beta >= 0 into
    floats ``(alpha, beta, J)``, J a component 4-tuple.  On the real axis J
    is i; stem parity makes evaluation independent of that choice.  ``** 2``
    raises ``OverflowError`` where a square leaves the float range, where
    ``*`` would give inf, a zero unit and a wrong value.  The stem kernel
    (``slicefn._compile_stem``) restates these operations inline in this
    order; a test pins it to these bits."""
    n2 = float(x) ** 2 + float(y) ** 2 + float(z) ** 2
    if n2 == 0.0:
        return float(w), 0.0, (0.0, 1.0, 0.0, 0.0)
    b = math.sqrt(n2)
    return float(w), b, (0.0, float(x) / b, float(y) / b, float(z) / b)


def flat_point(point):
    """The components of a point of H^n as one flat 4n-tuple, as given."""
    return tuple([c for q in point for c in (q.w, q.x, q.y, q.z)])


def quaternion_form(flat):
    """The function of points of quaternions that ``flat``, a function of
    flat 4n-tuples with component 4-tuple values, stands for; it carries
    ``flat`` as its ``flat`` attribute."""
    def func(point):
        return Quaternion(*flat(flat_point(point)))

    func.flat = flat
    return func


# A number literal: a natural number, a ratio of two, or a decimal; each
# parses to an exact Fraction.  The expression language uses it too.
NUMBER_PATTERN = r"\d+(?:/\d+|\.\d+)?"
# The most digits of a run of digits in the input, and of a printed
# numerator or denominator.  A longer run is refused before it is converted,
# the same on every interpreter; 4,300 is CPython's default int-string limit.
MAX_DIGITS = 4300
LONG_DIGIT_RUN = re.compile(r"\d{%d,}" % (MAX_DIGITS + 1))
_DIGIT_BOUND = 10 ** MAX_DIGITS


class NumberTooLongError(ValueError):
    """An exact result has a numerator or denominator too long to print."""


def number_text(value):
    """``str`` of a real number, refusing an exact one whose numerator or
    denominator has more than ``MAX_DIGITS`` digits."""
    try:
        text = str(value)
    except ValueError:  # past the interpreter's own int-string limit
        text = None
    if text is None or len(text) > MAX_DIGITS:
        for part in (abs(value.numerator), value.denominator):
            if part >= _DIGIT_BOUND:
                digits = int((part.bit_length() - 1) * 0.30102999566398120) + 1
                raise NumberTooLongError(
                    "a result coefficient has %d digits, more than the %d "
                    "printed" % (digits + (part >= 10 ** digits), MAX_DIGITS))
    return str(value) if text is None else text


def _format_component(value, suffix):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if value == 1 and suffix:
        return suffix
    if value == -1 and suffix:
        return "-" + suffix
    return number_text(value) + suffix


def format_quaternion(q):
    """Literal form a+bi+cj+dk, omitting zero components; '0' when zero."""
    parts = []
    for value, suffix in zip(q.components(), ("", "i", "j", "k")):
        if value == 0:
            continue
        text = _format_component(value, suffix)
        if parts and not text.startswith("-"):
            parts.append("+")
        parts.append(text)
    return "".join(parts) if parts else "0"


_COMPONENT_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<num>" + NUMBER_PATTERN + r")\s*(?P<unit>[ijk])?"
    r"|(?P<lone>[ijk]))\s*"
)


def parse_quaternion(text):
    """Parse a literal like ``1/2+3i-2/5k`` into an exact quaternion.

    Components are rationals (``p/q``), integers, or decimal strings; the
    result carries Fraction components.
    """
    run = LONG_DIGIT_RUN.search(text)
    if run:
        raise ValueError("number at offset %d has %d digits, more than the %d "
                         "accepted" % (run.start(), len(run.group()), MAX_DIGITS))
    pos = 0
    comps = {"": Fraction(0), "i": Fraction(0), "j": Fraction(0), "k": Fraction(0)}
    count = 0
    while pos < len(text):
        match = _COMPONENT_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError("invalid quaternion literal %r at offset %d" % (text, pos))
        sign = match.group("sign")
        if count > 0 and sign is None:
            raise ValueError("missing sign between components in %r" % text)
        factor = -1 if sign == "-" else 1
        if match.group("lone"):
            unit = match.group("lone")
            value = Fraction(1)
        else:
            unit = match.group("unit") or ""
            try:
                value = Fraction(match.group("num"))
            except ZeroDivisionError:
                raise ValueError("number %r at offset %d of quaternion literal %r "
                                 "has a zero denominator"
                                 % (match.group("num"), match.start("num"), text)
                                 ) from None
        comps[unit] += factor * value
        pos = match.end()
        count += 1
    if count == 0:
        raise ValueError("empty quaternion literal")
    return Quaternion(comps[""], comps["i"], comps["j"], comps["k"])
