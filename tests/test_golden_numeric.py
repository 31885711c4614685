"""Bit-for-bit golden values of the public numeric operators.

Every operator is evaluated on four fields: two lifted slice polynomials
(one constant in x2), a closed-form field built by the caller, and a
caller's field whose values carry ``int`` and ``Fraction`` components.  Each
runs at a float point and at an exact ``Fraction`` point.  The four
components of each value are kept in ``golden_numeric.json`` next to this
file, a float as its ``float.hex()`` string and an exact one as its
``repr``, so the type, the sign of a zero and the last bit of every
component are pinned.  A
refactor of the numeric kernel must leave them unchanged.  To re-record
after an intended change of values:

    PYTHONPATH=src python tests/test_golden_numeric.py --record
"""

import json
import math
import os
import random
import sys
import warnings
from fractions import Fraction

import pytest

from qwirt.almansi import dirac_components, fueter_components, reconstruct
from qwirt.expr import parse_slice
from qwirt.numeric import (NumericField, lift, coordinate_partial,
                           euler_operator, global_derivative,
                           global_conj_derivative, tangential_derivative,
                           spherical_dirac, fueter_derivative, laplacian,
                           multiply_by_variable)
from qwirt.quaternion import Quaternion, parse_quaternion
from qwirt.sampling import random_slice_point
from qwirt.wirtinger import (wirtinger_derivative_numeric,
                             wirtinger_conj_derivative_numeric)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_numeric.json")


def _closed_form(p):
    # a non-slice field with transcendental parts and noncommuting factors
    x1, x2, x3 = (q.to_float() for q in p)
    wave = Quaternion(math.sin(x1.w * x2.y), 0.0, math.cos(x3.x), -math.exp(0.3 * x2.w))
    return x1 * x2.conjugate() * x3 + wave * x1


_EXACT_COEFF = Quaternion(1, Fraction(1, 3), 0, -2)
_EXACT_UNIT = Quaternion(0, 1, Fraction(-1, 2), 0)


def _exact_valued(p):
    # raw quaternion arithmetic on the point as given: exact where the
    # components are, plus an int-valued constant
    return _EXACT_COEFF * p[0] + p[1] * p[2] * _EXACT_UNIT + Quaternion(2, 0, -1, 3)


def _fields():
    return {
        "lift": lift(parse_slice("x1*x2*~x3+~x1*x2^2*(1/2j)+x3^2*(1/3k)+x1")),
        # constant in x2, so its x2 stencils cancel to signed zeros
        "lift_free_x2": lift(parse_slice("x1*~x3+x3^2*(1/2i)-x1^2", 3)),
        "closed": NumericField(_closed_form, 3),
        "exact": NumericField(_exact_valued, 3),
    }


def _points():
    exact = tuple(parse_quaternion(text) for text in
                  ("1/3+1/2i-2/5j+3/7k", "-1/5+2/3j+1/9k", "1/2-3/4i+1/6k"))
    return {"float": random_slice_point(random.Random(7), 3), "exact": exact}


def _at_step(field, step):
    """The field with its finite-difference step set to ``step``."""
    return NumericField(field.func, field.n, field.smoothness, step,
                        field.band)


def _operators():
    """Name and function of a field and a point, for every public operator."""
    ops = []
    for m in (1, 2):
        for i in range(4):
            ops.append(("partial_%d_%d" % (m, i),
                        lambda f, p, m=m, i=i: coordinate_partial(f, m, i, p)))
        ops += [
            ("partial_step_%d" % m,
             lambda f, p, m=m: coordinate_partial(_at_step(f, Fraction(1, 64)),
                                                  m, 1, p)),
            ("euler_%d" % m, lambda f, p, m=m: euler_operator(f, m, p)),
            ("global_%d" % m, lambda f, p, m=m: global_derivative(f, m, p)),
            ("global_conj_%d" % m,
             lambda f, p, m=m: global_conj_derivative(f, m, p)),
            ("tangential_%d" % m,
             lambda f, p, m=m: tangential_derivative(f, m, 1, 3, p)),
            ("dirac_%d" % m, lambda f, p, m=m: spherical_dirac(f, m, p)),
            ("fueter_%d" % m, lambda f, p, m=m: fueter_derivative(f, m, p)),
            ("laplacian_%d" % m, lambda f, p, m=m: laplacian(f, m, p)),
            ("laplacian_step_%d" % m,
             lambda f, p, m=m: laplacian(_at_step(f, 5e-3), m, p)),
            ("times_%d" % m, lambda f, p, m=m: multiply_by_variable(f, m)(p)),
        ]
    for level in (1, 2):
        ops.append(("reconstruct_fueter_%d" % level,
                    lambda f, p, level=level: reconstruct(fueter_components(f, level), p)))
        ops.append(("reconstruct_dirac_%d" % level,
                    lambda f, p, level=level: reconstruct(dirac_components(f, level), p)))
    for m in (1, 2, 3):
        ops.append(("theta_%d" % m,
                    lambda f, p, m=m: wirtinger_derivative_numeric(f, m, p)))
        ops.append(("thetabar_%d" % m,
                    lambda f, p, m=m: wirtinger_conj_derivative_numeric(f, m, p)))
    return ops


def compute():
    values = {}
    fields, points = _fields(), _points()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for fname, field in fields.items():
            for pname, point in points.items():
                for oname, op in _operators():
                    value = op(field, point)
                    values["%s/%s/%s" % (fname, pname, oname)] = [
                        c.hex() if isinstance(c, float) else repr(c)
                        for c in value.components()]
    return values


def _load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_numeric_values_are_bit_identical():
    golden, values = _load(), compute()
    assert sorted(values) == sorted(golden)
    changed = [key for key in golden if values[key] != golden[key]]
    assert not changed, "changed: %s" % changed[:10]


def test_golden_values_hold_signed_zeros():
    # the recording pins what an operation-order change would move.  Every
    # operator here ends in float arithmetic, so no value keeps an exact
    # component; test_a_memoized_view_keeps_exact_components pins that type
    golden = _load()
    flat = [c for comps in golden.values() for c in comps]
    assert "-0x0.0p+0" in flat and "0x0.0p+0" in flat


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(pytest.main([__file__]))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
