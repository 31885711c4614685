"""The coefficient algebra of stem polynomials.

Elements live in the tensor product of the quaternions with the real algebra
spanned by basis vectors indexed by subsets of {1..n}.  Subsets are stored as
bit masks, bit h-1 standing for variable h.  The basis rule is

    e_H * e_K = (-1)^{|H & K|} e_{H ^ K}

so every e_h squares to -1 and the basis part is commutative; quaternion
coefficients multiply in the given order and commute with every e_K.  The
commuting complex structures act by relabeling: applying the structure of
variable h sends e_K to e_{K|h} when h is absent and to -e_{K without h}
when present.
"""

from .quaternion import Quaternion, ONE

MAX_VARS = 8


def bit(h):
    """Bit mask of the singleton subset {h} (variables are 1-based)."""
    return 1 << (h - 1)


def mask_indices(mask):
    """Ascending variable indices contained in the subset mask."""
    out = []
    h = 1
    while mask:
        if mask & 1:
            out.append(h)
        mask >>= 1
        h += 1
    return out


def basis_product(h_mask, k_mask):
    """Sign and mask of the basis product e_H e_K."""
    sign = -1 if (h_mask & k_mask).bit_count() % 2 else 1
    return sign, h_mask ^ k_mask


class StemElement:
    """A sparse element of the 2^n-dimensional coefficient algebra.

    ``components`` maps subset masks to quaternion coefficients; absent
    masks are zero.  Instances are treated as immutable.  The reference
    algebra: a stem term lies on its parity mask alone, so a slice
    polynomial (``SliceFunction``, also named ``StemPolynomial``) stores one
    quaternion per term and signs products by ``basis_product``.
    """

    __slots__ = ("n", "components")

    def __init__(self, n, components=None):
        if not 1 <= n <= MAX_VARS:
            raise ValueError("number of variables must be in 1..%d" % MAX_VARS)
        self.n = n
        clean = {}
        for mask, coeff in (components or {}).items():
            if not 0 <= mask < (1 << n):
                raise ValueError("subset mask %d out of range for n=%d" % (mask, n))
            if not isinstance(coeff, Quaternion):
                coeff = Quaternion(coeff)
            if not coeff.is_zero():
                clean[mask] = coeff
        self.components = clean

    @classmethod
    def basis(cls, n, mask, coeff=ONE):
        return cls(n, {mask: coeff})

    def is_zero(self):
        return not self.components

    def _check_compatible(self, other):
        if not isinstance(other, StemElement):
            raise TypeError("expected a StemElement")
        if other.n != self.n:
            raise ValueError("mismatched ambient variable counts")

    def __add__(self, other):
        self._check_compatible(other)
        comps = dict(self.components)
        for mask, coeff in other.components.items():
            comps[mask] = comps.get(mask, Quaternion(0)) + coeff
        return StemElement(self.n, comps)

    def __neg__(self):
        return StemElement(self.n, {m: -c for m, c in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Bilinear extension of the basis rule, coefficients kept in order."""
        self._check_compatible(other)
        comps = {}
        for hm, a in self.components.items():
            for km, b in other.components.items():
                sign, mask = basis_product(hm, km)
                term = a * b
                if sign < 0:
                    term = -term
                acc = comps.get(mask)
                comps[mask] = term if acc is None else acc + term
        return StemElement(self.n, comps)

    def apply_structure(self, h):
        """Apply the complex structure of variable h.

        Basis vectors are relabeled with the appropriate sign; quaternion
        coefficients are untouched.
        """
        if not 1 <= h <= self.n:
            raise ValueError("variable index %d out of range" % h)
        hb = bit(h)
        comps = {}
        for mask, coeff in self.components.items():
            if mask & hb:
                comps[mask & ~hb] = -coeff
            else:
                comps[mask | hb] = coeff
        return StemElement(self.n, comps)

    def __eq__(self, other):
        if not isinstance(other, StemElement):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __repr__(self):
        if not self.components:
            return "StemElement(%d, 0)" % self.n
        bits = []
        for mask in sorted(self.components):
            label = "e{%s}" % ",".join(str(h) for h in mask_indices(mask))
            bits.append("%s*(%s)" % (label, self.components[mask]))
        return "StemElement(%d, %s)" % (self.n, " + ".join(bits))
