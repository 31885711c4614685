"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.  Numeric
criteria draw their corpora and sample points from fixed seeds, with
per-variable degrees and coefficient scales chosen so the stated
finite-difference tolerances hold with margin.
"""

import random
import time

import helpers
from qwirt.quaternion import Quaternion
from qwirt.slicefn import (SliceFunction, variable, conj_variable, constant,
                           monomial)
from qwirt.numeric import (NumericField, lift, coordinate_partial, laplacian,
                           spherical_dirac)
from qwirt.almansi import (spherical_components, fueter_components,
                           dirac_components, reconstruct, reconstruct_symbolic)
from qwirt.wirtinger import (wirtinger_derivative, wirtinger_conj_derivative,
                             check_regularity_symbolic, check_regularity_numeric,
                             check_strong_sliceness, check_conjugation_identity)
from qwirt.sampling import random_slice_point

_SUITE_START = time.monotonic()


def _report(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name,
                       " (%s)" % detail if detail else ""))
    assert ok, name


def _numeric_corpus_poly(rng, n, per_var=3, terms=3):
    """Polynomials with per-variable degree <= per_var and unit-scale
    coefficients: keeps third coordinate derivatives small enough for the
    stated depth-2 tolerances."""
    f = SliceFunction.zero(n)
    for _ in range(rng.randint(1, terms)):
        powers, conj_powers = [0] * n, [0] * n
        for m in range(n):
            total = rng.randint(0, per_var)
            c = rng.randint(0, total)
            powers[m], conj_powers[m] = total - c, c
        f = f + monomial(n, powers, conj_powers, helpers.small_coeff(rng))
    return f


def _points(rng, n, count, im_hi=1.3):
    return [random_slice_point(rng, n, re_range=(-1.0, 1.0),
                               im_range=(0.3, im_hi)) for _ in range(count)]


def _witness_field():
    """Closed form of the raw second-variable global derivative of x1*x2."""
    def value(p):
        im2 = p[1].im().to_float()
        dot = sum(float(p[0].components()[i]) * float(p[1].components()[i])
                  for i in (1, 2, 3))
        return Quaternion(float(p[0].w)) + im2 * (dot / float(im2.norm_sq()))
    return NumericField(value, 2, 6)


def test_criterion_01_power_rules_exhaustive():
    start = time.monotonic()
    for n in (1, 2, 3):
        for powers in helpers.multiindices_up_to(n, 5):
            plain = monomial(n, powers)
            conj = monomial(n, (0,) * n, powers)
            for m in range(1, n + 1):
                lowered = list(powers)
                k = lowered[m - 1]
                if k:
                    lowered[m - 1] -= 1
                expect_plain = monomial(n, lowered, coeff=Quaternion(k)) \
                    if k else SliceFunction.zero(n)
                expect_conj = monomial(n, (0,) * n, lowered, Quaternion(k)) \
                    if k else SliceFunction.zero(n)
                assert wirtinger_derivative(plain, m) == expect_plain
                assert wirtinger_conj_derivative(plain, m).is_zero()
                assert wirtinger_derivative(conj, m).is_zero()
                assert wirtinger_conj_derivative(conj, m) == expect_conj
    elapsed = time.monotonic() - start
    _report("criterion 1: power rules exhaustive (n<=3, |l|<=5)",
            elapsed < 10.0, "%.2fs" % elapsed)


def test_criterion_02_worked_examples():
    f = variable(2, 1) * variable(2, 2)
    ok = (wirtinger_derivative(f, 1) == variable(2, 2)
          and wirtinger_derivative(f, 2) == variable(2, 1)
          and wirtinger_conj_derivative(f, 1).is_zero()
          and wirtinger_conj_derivative(f, 2).is_zero())
    rng = random.Random(202)
    field = lift(f)
    field_sq = lift(variable(2, 1) ** 2 * variable(2, 2))
    worst = 0.0
    for p in _points(rng, 2, 20, im_hi=2.0):
        im1 = p[0].im().to_float()
        worst = max(worst, abs(spherical_dirac(field, 1, p)
                               - (im1 * 2.0) * p[1].to_float()))
        worst = max(worst, abs(spherical_dirac(field_sq, 1, p)
                               - (im1 * (4.0 * float(p[0].w))) * p[1].to_float()))
    _report("criterion 2: worked Wirtinger/Dirac examples",
            ok and worst < 1e-5, "gamma residual %.2g" % worst)


def test_criterion_03_non_sliceness_witness():
    field = _witness_field()
    x1 = variable(2, 1)
    rng = random.Random(303)
    worst_slice = 0.0
    for _ in range(20):
        # points of C_i x C_i, off the real axes
        p = (Quaternion(rng.uniform(-1, 1), rng.uniform(0.3, 2.0)),
             Quaternion(rng.uniform(-1, 1), rng.uniform(0.3, 2.0)))
        worst_slice = max(worst_slice, abs(field(p) - x1.evaluate(p)))
    report = check_strong_sliceness(field, _points(rng, 2, 3, im_hi=2.0),
                                    tol=1e-2)
    _report("criterion 3: witness equals x1 on the i-slice yet is not slice",
            worst_slice < 1e-10 and report["max_residual"] > 1e-2,
            "slice dev %.2g, residual %.2g" % (worst_slice,
                                               report["max_residual"]))


def test_criterion_04_almansi_reconstruction():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=4)
        for m in range(1, n + 1):
            assert reconstruct_symbolic(spherical_components(f, m)) == f
    worst = 0.0
    for _ in range(10):
        f = _numeric_corpus_poly(rng, 2)
        field = lift(f)
        pts = _points(rng, 2, 20)
        for m in (1, 2):
            family = dirac_components(field, m)
            for p in pts:
                worst = max(worst, abs(reconstruct(family, p) - field(p)))
    _report("criterion 4: Almansi reconstruction (exact symbolic, numeric Dirac)",
            worst < 1e-4, "numeric residual %.2g" % worst)


def test_criterion_05_dirac_equals_spherical_on_slice_functions():
    rng = random.Random(505)
    worst = 0.0
    for _ in range(5):
        f = _numeric_corpus_poly(rng, 2)
        field = lift(f)
        pts = _points(rng, 2, 20)
        for m in (1, 2):
            dirac = dirac_components(field, m)
            spherical = spherical_components(f, m)
            for p in pts:
                for mask in dirac.masks():
                    worst = max(worst, abs(dirac.entry_value(mask, p)
                                           - spherical.entry_value(mask, p)))
    _report("criterion 5: Dirac components equal spherical components",
            worst < 1e-4, "residual %.2g" % worst)


def test_criterion_06_fueter_equals_spherical_iff_regular():
    rng = random.Random(606)
    worst = 0.0
    for _ in range(5):
        f = helpers.random_regular_polynomial(rng, 2, max_total_degree=3,
                                              coeff_fn=helpers.small_coeff)
        field = lift(f)
        pts = _points(rng, 2, 10)
        for m in (1, 2):
            fueter = fueter_components(field, m)
            spherical = spherical_components(f, m)
            for p in pts:
                for mask in fueter.masks():
                    worst = max(worst, abs(fueter.entry_value(mask, p)
                                           - spherical.entry_value(mask, p)))
    agree = worst < 1e-4
    bad = conj_variable(1, 1)
    fueter = fueter_components(lift(bad), 1)
    spherical = spherical_components(bad, 1)
    gap = min(abs(fueter.entry_value(0, p) - spherical.entry_value(0, p))
              for p in _points(rng, 1, 10))
    _report("criterion 6: Fueter components detect regularity",
            agree and gap > 0.1,
            "regular residual %.2g, conj-x1 gap %.2g" % (worst, gap))


def test_criterion_07_harmonicity_of_components():
    rng = random.Random(707)
    worst = 0.0
    for _ in range(10):
        f = helpers.random_regular_polynomial(rng, 2, max_total_degree=3,
                                              coeff_fn=helpers.small_coeff)
        family = spherical_components(f, 2)
        pts = _points(rng, 2, 20)
        for entry in family.entries.values():
            entry_field = lift(entry)
            for m in (1, 2):
                for p in pts:
                    worst = max(worst, abs(laplacian(entry_field, m, p)))
    _report("criterion 7: spherical components are separately harmonic",
            worst < 1e-3, "max laplacian %.2g" % worst)


def test_criterion_08_commutation_and_leibniz():
    rng = random.Random(808)
    for _ in range(50):
        f = helpers.random_slice_polynomial(rng, 3, max_total_degree=3)
        g = helpers.random_slice_polynomial(rng, 3, max_total_degree=3)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert wirtinger_derivative(wirtinger_derivative(f, a), b) == \
                    wirtinger_derivative(wirtinger_derivative(f, b), a)
                assert wirtinger_conj_derivative(wirtinger_derivative(f, a), b) == \
                    wirtinger_derivative(wirtinger_conj_derivative(f, b), a)
                assert wirtinger_conj_derivative(wirtinger_conj_derivative(f, a), b) == \
                    wirtinger_conj_derivative(wirtinger_conj_derivative(f, b), a)
        for m in (1, 2, 3):
            assert wirtinger_derivative(f * g, m) == \
                wirtinger_derivative(f, m) * g + f * wirtinger_derivative(g, m)
            assert wirtinger_conj_derivative(f * g, m) == \
                wirtinger_conj_derivative(f, m) * g + f * wirtinger_conj_derivative(g, m)
    _report("criterion 8: commutation and Leibniz exact over 50 pairs", True)


def test_criterion_09_kernel_characterization():
    rng = random.Random(909)
    corpus = [(helpers.random_regular_polynomial(
        rng, 2, max_total_degree=3, coeff_fn=helpers.small_coeff), True)
        for _ in range(20)]
    corpus += [(helpers.random_nonregular_polynomial(
        rng, 2, max_total_degree=3, coeff_fn=helpers.small_coeff), False)
        for _ in range(20)]
    pts = _points(rng, 2, 3)
    ok = True
    for f, regular in corpus:
        symbolic = check_regularity_symbolic(f)["verdict"] == "regular"
        numeric = check_regularity_numeric(lift(f), pts, tol=1e-3,
                                           slice_established=True)
        ok = ok and symbolic == regular
        ok = ok and (numeric["verdict"] == "regular") == regular
    _report("criterion 9: kernel verdicts on 40 labeled polynomials", ok)


def test_criterion_10_conjugation_identity():
    rng = random.Random(1010)
    for _ in range(50):
        f = helpers.random_slice_polynomial(rng, 3, max_total_degree=3)
        for m in (1, 2, 3):
            assert check_conjugation_identity(f, m)
    _report("criterion 10: conjugation identity exact over 50 polynomials", True)


def test_criterion_11_uniqueness_of_decomposition():
    rng = random.Random(1111)
    bump = None
    for _ in range(10):
        n = rng.choice((2, 3))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        for m in range(1, n + 1):
            family = spherical_components(f, m)
            assert reconstruct_symbolic(family) == f
            for mask in family.masks():
                bump = constant(n, helpers.nonzero_rational_quaternion(rng))
                perturbed = family.replace_entry(mask, family.entries[mask] + bump)
                assert reconstruct_symbolic(perturbed) != f
    _report("criterion 11: every single-entry perturbation breaks reconstruction",
            True)


def test_criterion_12_order_of_accuracy():
    from test_numeric import MonomialField
    rng = random.Random(1212)
    fields = [
        MonomialField(2, [(1, False)] * 3),
        MonomialField(2, [(1, False)] * 4),
        MonomialField(2, [(1, True)] * 3),
        MonomialField(2, [(1, False), (1, False), (1, True)]),
        MonomialField(2, [(2, False)] * 3),
        MonomialField(2, [(2, True)] * 4),
        MonomialField(2, [(1, False), (1, False), (1, False), (2, False)]),
        MonomialField(2, [(2, False), (2, False), (2, True)]),
        MonomialField(2, [(1, True), (1, True), (1, True), (1, True)]),
        MonomialField(2, [(2, False)] * 5),
    ]
    ok = True
    ratios = []
    p = random_slice_point(random.Random(1213), 2)
    for mono in fields:
        m = mono.factors[0][0]
        i = rng.choice((0, 1, 2, 3))
        exact = mono.derivative(m, i, p)
        e1 = abs(coordinate_partial(mono.field(step=2e-2), m, i, p) - exact)
        e2 = abs(coordinate_partial(mono.field(step=1e-2), m, i, p) - exact)
        ratio = e1 / e2 if e2 else float("inf")
        ratios.append(ratio)
        ok = ok and 3.5 <= ratio <= 4.5
    _report("criterion 12: step halving divides depth-1 error by ~4",
            ok, "ratios %.2f..%.2f" % (min(ratios), max(ratios)))


def test_criterion_13_runtime_budget():
    elapsed = time.monotonic() - _SUITE_START
    _report("criterion 13: acceptance suite runtime under 5 minutes",
            elapsed < 300.0, "%.1fs" % elapsed)
