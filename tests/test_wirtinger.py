import random
import warnings
from fractions import Fraction

import pytest

import helpers
from qwirt.quaternion import Quaternion, ONE, I
from qwirt.slicefn import (SliceFunction, variable, conj_variable, constant,
                           monomial)
from qwirt.numeric import NumericField, lift
from qwirt.wirtinger import (wirtinger_derivative, wirtinger_conj_derivative,
                             wirtinger_derivative_numeric,
                             wirtinger_conj_derivative_numeric,
                             check_regularity_symbolic,
                             check_regularity_numeric, check_strong_sliceness,
                             check_conjugation_identity, check_independence,
                             crosscheck)
from qwirt.sampling import random_slice_point

SEED = 99


def points(n, count=6, seed=SEED, im_range=(0.3, 2.0)):
    rng = random.Random(seed)
    return [random_slice_point(rng, n, im_range=im_range) for _ in range(count)]


def test_worked_example_symbolic():
    f = variable(2, 1) * variable(2, 2)
    assert wirtinger_derivative(f, 1) == variable(2, 2)
    assert wirtinger_derivative(f, 2) == variable(2, 1)
    assert wirtinger_conj_derivative(f, 1).is_zero()
    assert wirtinger_conj_derivative(f, 2).is_zero()


def test_conjugate_power_rule():
    f = conj_variable(2, 1) * conj_variable(2, 2) ** 3
    expected = conj_variable(2, 1) * conj_variable(2, 2) ** 2 * constant(2, Quaternion(3))
    assert wirtinger_conj_derivative(f, 2) == expected
    assert wirtinger_derivative(f, 2).is_zero()


def test_power_rules_sample():
    for n, powers, m in ((2, (2, 1), 1), (3, (1, 0, 2), 3), (2, (0, 3), 2)):
        f = monomial(n, powers)
        lowered = list(powers)
        lowered[m - 1] -= 1
        expected = monomial(n, lowered, coeff=Quaternion(powers[m - 1])) \
            if powers[m - 1] else SliceFunction.zero(n)
        assert wirtinger_derivative(f, m) == expected
        assert wirtinger_conj_derivative(f, m).is_zero()


def test_numeric_matches_symbolic_on_lifted_slice_functions():
    rng = random.Random(3)
    for _ in range(3):
        f = helpers.random_slice_polynomial(rng, 2, max_total_degree=3,
                                            coeff_fn=helpers.small_coeff)
        field = lift(f)
        for m in (1, 2):
            tol = 1e-5 if m == 1 else 1e-3
            plain = wirtinger_derivative(f, m)
            conj = wirtinger_conj_derivative(f, m)
            for p in points(2, 4):
                assert abs(wirtinger_derivative_numeric(field, m, p)
                           - plain.evaluate(p)) < tol
                assert abs(wirtinger_conj_derivative_numeric(field, m, p)
                           - conj.evaluate(p)) < tol


def test_numeric_worked_example():
    f = variable(2, 1) * variable(2, 2)
    field = lift(f)
    for p in points(2, 4):
        assert abs(wirtinger_derivative_numeric(field, 2, p) - p[0].to_float()) < 1e-3
        assert abs(wirtinger_conj_derivative_numeric(field, 2, p)) < 1e-3


def test_numeric_index_cap_and_warning():
    f = helpers.random_regular_polynomial(random.Random(4), 3,
                                          max_total_degree=2,
                                          coeff_fn=helpers.small_coeff)
    field = lift(f)
    p = points(3, 1)[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wirtinger_conj_derivative_numeric(field, 3, p)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    four = NumericField(lambda q: Quaternion(1.0), 4, 8)
    with pytest.raises(ValueError):
        wirtinger_derivative_numeric(four, 4, points(4, 1)[0])


@pytest.mark.parametrize("entry", [
    lambda f, field, p: wirtinger_derivative_numeric(field, 3, p),
    lambda f, field, p: wirtinger_conj_derivative_numeric(field, 3, p),
    lambda f, field, p: check_regularity_numeric(field, samples=2),
    lambda f, field, p: crosscheck(f, 3, samples=2),
], ids=["theta", "thetabar", "check_regularity_numeric", "crosscheck"])
def test_index_3_warns_once_at_the_caller(entry):
    f = variable(3, 1) * variable(3, 2) * conj_variable(3, 3)
    field = lift(f)
    p = points(3, 1)[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry(f, field, p)
    # the file of the calling frame, as warnings reports it: a test module
    # rewritten and cached under another path names that path, not __file__
    assert [(w.category, w.filename) for w in caught] \
        == [(RuntimeWarning, entry.__code__.co_filename)]
    assert "nests 3 finite differences" in str(caught[0].message)


def test_check_regularity_symbolic():
    report = check_regularity_symbolic(variable(2, 1) ** 2 * variable(2, 2))
    assert report["verdict"] == "regular" and not report["failures"]
    report = check_regularity_symbolic(conj_variable(1, 1))
    assert report["verdict"] == "not-regular"
    assert report["failures"] == ["thetabar_1"]
    assert check_regularity_symbolic(constant(1, I))["verdict"] == "regular"


def test_check_regularity_numeric_verdicts():
    f = variable(2, 1) * variable(2, 2)
    report = check_regularity_numeric(lift(f), points(2, 4),
                                      slice_established=True)
    assert report["verdict"] == "regular"
    g = conj_variable(2, 1) * variable(2, 2)
    report = check_regularity_numeric(lift(g), points(2, 4),
                                      slice_established=True)
    assert report["verdict"] == "not-regular"
    assert "thetabar_1" in report["failures"]


def test_check_regularity_numeric_inconclusive_without_sliceness():
    f = variable(2, 1)
    report = check_regularity_numeric(lift(f), points(2, 3))
    assert report["verdict"] == "inconclusive"


def test_strong_sliceness_of_slice_polynomial():
    f = variable(2, 1) + variable(2, 2) ** 2
    report = check_strong_sliceness(lift(f), points(2, 3))
    assert report["verdict"]
    assert report["max_residual"] < 1e-2


def test_strong_sliceness_rejects_witness_field():
    def witness(p):
        im2 = p[1].im().to_float()
        dot = sum(float(p[0].components()[i]) * float(p[1].components()[i])
                  for i in (1, 2, 3))
        return Quaternion(float(p[0].w)) + im2 * (dot / float(im2.norm_sq()))

    report = check_strong_sliceness(NumericField(witness, 2, 6), points(2, 3))
    assert not report["verdict"]
    assert report["max_residual"] > 1e-2


def test_strong_sliceness_constant_field():
    # depth-3 nesting amplifies evaluation roundoff to the 1e-11 scale
    report = check_strong_sliceness(NumericField(lambda _: Quaternion(2.0, 1.0), 2, 6),
                                    points(2, 2))
    assert report["max_residual"] < 1e-10


def test_conjugation_identity_examples():
    sq = variable(1, 1) ** 2
    assert wirtinger_derivative(sq, 1).conjugate() == \
        wirtinger_conj_derivative(sq.conjugate(), 1)
    assert check_conjugation_identity(sq, 1)
    assert check_conjugation_identity(constant(2, Quaternion(1, 2, 3)), 2)
    assert check_conjugation_identity(variable(2, 1) * variable(2, 2), 2)


def test_conjugation_identity_random():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n)
        for m in range(1, n + 1):
            assert check_conjugation_identity(f, m)


def test_independence():
    f = variable(2, 2) ** 2
    assert check_independence(f, 2, points(2, 3))
    assert wirtinger_derivative(f, 1).is_zero()
    assert check_independence(constant(2, ONE), 2, points(2, 2))
    g = monomial(4, (0, 0, 1, 1))
    for h in (1, 2):
        assert wirtinger_derivative(g, h).is_zero()
        assert wirtinger_conj_derivative(g, h).is_zero()
    assert check_independence(g, 3, points(4, 2))
    with pytest.raises(ValueError):
        check_independence(variable(2, 1), 2)


def test_crosscheck_report():
    f = variable(2, 1) * variable(2, 2)
    report = crosscheck(f, 2, points(2, 4))
    assert report["verdict"]
    assert report["max_residual"] < report["tolerance"]


def test_kernel_exactly_polynomials_without_conjugate_factors():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.choice((1, 2))
        regular = helpers.random_regular_polynomial(rng, n)
        bad = helpers.random_nonregular_polynomial(rng, n)
        assert check_regularity_symbolic(regular)["verdict"] == "regular"
        assert check_regularity_symbolic(bad)["verdict"] == "not-regular"


def _exact_nullspace(columns):
    """Nullspace basis of the rational matrix with the given columns, via
    Gauss-Jordan over Fractions.  Columns are dicts coordinate -> Fraction."""
    coords = sorted({c for col in columns for c in col})
    rows = [[col.get(c, Fraction(0)) for col in columns] for c in coords]
    ncols = len(columns)
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][c]
        basis.append(vec)
    return basis


def _stem_coordinates(f):
    out = {}
    for key, mask, coeff in f.coefficients():
        assert coeff.x == 0 and coeff.y == 0 and coeff.z == 0
        out[(key, mask)] = Fraction(coeff.w)
    return out


def test_homogeneous_regular_polynomials_are_pure_powers():
    # within the per-variable-homogeneous basis, the joint kernel of the
    # conjugate operators is spanned by the single pure-power monomial
    n = 2
    for d1 in range(5):
        for d2 in range(5 - d1):
            basis = [(l1, d1 - l1, l2, d2 - l2)
                     for l1 in range(d1 + 1) for l2 in range(d2 + 1)]
            funcs = [monomial(n, (l1, l2), (h1, h2))
                     for l1, h1, l2, h2 in basis]
            columns = []
            for f in funcs:
                col = {}
                for m in (1, 2):
                    g = wirtinger_conj_derivative(f, m)
                    for coord, value in _stem_coordinates(g).items():
                        col[(m,) + coord] = value
                columns.append(col)
            kernel = _exact_nullspace(columns)
            assert len(kernel) == 1
            vec = kernel[0]
            support = [basis[i] for i, v in enumerate(vec) if v]
            assert support == [(d1, 0, d2, 0)]
