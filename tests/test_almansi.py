import json
import random
from fractions import Fraction

import pytest

import helpers
from qwirt.quaternion import Quaternion, ONE
from qwirt.slicefn import variable, conj_variable, constant
from qwirt.numeric import NumericField, lift, laplacian
from qwirt.almansi import (spherical_components, fueter_components,
                           dirac_components, reconstruct, reconstruct_symbolic,
                           check_uniqueness, truncated_spherical, check_zonal,
                           complement_indices)
from qwirt.sampling import random_slice_point
from qwirt.cli import main
from qwirt import almansi

SEED = 4321


def points(n, count=10, seed=SEED):
    rng = random.Random(seed)
    return [random_slice_point(rng, n) for _ in range(count)]


def two_re(n, m):
    return variable(n, m) + conj_variable(n, m)


def test_spherical_family_of_coordinate():
    fam = spherical_components(variable(1, 1), 1)
    assert fam.entries[0] == constant(1, ONE)
    assert fam.entries[1] == two_re(1, 1)


def test_spherical_family_of_constant():
    q = Quaternion(1, -2, 0, Fraction(1, 2))
    fam = spherical_components(constant(1, q), 1)
    assert fam.entries[0].is_zero()
    assert fam.entries[1] == constant(1, q)


def test_spherical_family_level_two():
    # frozen from the recursion and validated by exact reconstruction below
    f = variable(2, 1) * variable(2, 2)
    fam = spherical_components(f, 2)
    assert fam.entries[0b00] == constant(2, ONE)
    assert fam.entries[0b01] == two_re(2, 1)
    assert fam.entries[0b10] == two_re(2, 2)
    assert fam.entries[0b11] == two_re(2, 1) * two_re(2, 2)
    assert reconstruct_symbolic(fam) == f


def test_spherical_entries_clear_of_leading_subsets():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.choice((2, 3))
        f = helpers.random_slice_polynomial(rng, n)
        for m in range(1, n + 1):
            fam = spherical_components(f, m)
            window = (1 << m) - 1
            for entry in fam.entries.values():
                assert all(not mask & window
                           for _, mask, _ in entry.coefficients())


def test_symbolic_reconstruction_exact():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n)
        for m in range(1, n + 1):
            assert reconstruct_symbolic(spherical_components(f, m)) == f


def test_reconstruct_value_example():
    fam = spherical_components(variable(1, 1), 1)
    p = (Quaternion(2, 3),)
    helpers.assert_quat_close(reconstruct(fam, p), Quaternion(2.0, 3.0), 1e-12)
    # by hand: 2 Re(x) - conj(x) = 4 - (2 - 3i) = 2 + 3i
    value = two_re(1, 1).evaluate(p) - p[0].to_float().conjugate()
    helpers.assert_quat_close(value, Quaternion(2.0, 3.0), 1e-12)


def test_level_recursion_spherical():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice((2, 3))
        f = helpers.random_slice_polynomial(rng, n)
        for m in range(1, n):
            low = spherical_components(f, m)
            high = spherical_components(f, m + 1)
            xbar = conj_variable(n, m + 1)
            for mask, entry in low.entries.items():
                combined = high.entries[mask | (1 << m)] - xbar * high.entries[mask]
                assert combined == entry


def test_fueter_family_of_coordinate():
    field = lift(variable(1, 1))
    fam = fueter_components(field, 1)
    sp = spherical_components(variable(1, 1), 1)
    for p in points(1, 5):
        helpers.assert_quat_close(fam.entry_value(0, p), sp.entry_value(0, p), 1e-8)
        helpers.assert_quat_close(fam.entry_value(1, p), sp.entry_value(1, p), 1e-8)


def test_fueter_family_of_constant():
    q = Quaternion(0.5, 1.5, 0.0, -2.0)
    field = NumericField(lambda _: q, 1, 4)
    fam = fueter_components(field, 1)
    for p in points(1, 3):
        assert abs(fam.entry_value(0, p)) < 1e-10
        helpers.assert_quat_close(fam.entry_value(1, p), q, 1e-10)


def test_fueter_detects_nonregular():
    # spherical derivative of conj(x_1) is -1 but the Fueter component is -2
    field = lift(conj_variable(1, 1))
    fam = fueter_components(field, 1)
    sp = spherical_components(conj_variable(1, 1), 1)
    for p in points(1, 5):
        helpers.assert_quat_close(fam.entry_value(0, p), Quaternion(-2.0), 1e-8)
        assert abs(fam.entry_value(0, p) - sp.entry_value(0, p)) > 0.5


def test_dirac_family_worked_example():
    field = lift(variable(2, 1) * variable(2, 2))
    fam = dirac_components(field, 1)
    for p in points(2, 5):
        helpers.assert_quat_close(fam.entry_value(0, p), p[1].to_float(), 1e-8)
        expected = p[1].to_float() * (2.0 * float(p[0].w))
        helpers.assert_quat_close(fam.entry_value(1, p), expected, 1e-8)


def test_dirac_family_of_constant():
    q = Quaternion(1.0, 0.0, -1.0, 2.0)
    field = NumericField(lambda _: q, 1, 4)
    fam = dirac_components(field, 1)
    for p in points(1, 3):
        assert abs(fam.entry_value(0, p)) < 1e-10
        helpers.assert_quat_close(fam.entry_value(1, p), q, 1e-10)


def test_dirac_matches_spherical_on_slice_functions():
    rng = random.Random(4)
    for _ in range(3):
        f = helpers.random_slice_polynomial(rng, 2, max_total_degree=3,
                                            coeff_fn=helpers.small_coeff)
        field = lift(f)
        for m in (1, 2):
            dirac = dirac_components(field, m)
            sp = spherical_components(f, m)
            for p in points(2, 5):
                for mask in dirac.masks():
                    helpers.assert_quat_close(dirac.entry_value(mask, p),
                                              sp.entry_value(mask, p), 1e-4,
                                              "mask %d level %d" % (mask, m))


def test_dirac_reconstructs_arbitrary_smooth_fields():
    # the Dirac-family decomposition holds with no sliceness assumption;
    # exercise it on the closed-form non-slice witness field
    def witness(p):
        im2 = p[1].im().to_float()
        dot = sum(float(p[0].components()[i]) * float(p[1].components()[i])
                  for i in (1, 2, 3))
        return Quaternion(float(p[0].w)) + im2 * (dot / float(im2.norm_sq()))

    field = NumericField(witness, 2, 6)
    rng = random.Random(SEED)
    # keep |Im| away from the band edge: the witness carries |Im(x_2)|^-2
    # factors whose third derivatives inflate the outer truncation error
    sample = [random_slice_point(rng, 2, im_range=(0.8, 2.0)) for _ in range(8)]
    for m in (1, 2):
        fam = dirac_components(field, m)
        for p in sample:
            helpers.assert_quat_close(reconstruct(fam, p), field(p), 1e-4,
                                      "level %d" % m)


def almansi_residual(capsys, flavor, text, *step):
    code = main(["almansi", "--flavor", flavor, "--level", "2", "--n", "2",
                 "--samples", "3", "--seed", "1", *step, text])
    report = json.loads(capsys.readouterr().out)
    return code, report["reconstruction_residuals"]["max_residual"]


def test_fueter_reconstructs_slice_regular_functions_only(capsys):
    # ~x1*x2 is a slice function that is not slice-regular: the Dirac
    # family rebuilds it, the Fueter family misses it by a residual that no
    # step shrinks, and rebuilds the regular x1*x2
    misses = []
    for step in ("1e-2", "1e-3", "1e-4"):
        code, residual = almansi_residual(capsys, "a", "~x1*x2", "--fd-step",
                                          step)
        assert code == 1
        misses.append(residual)
    assert misses == pytest.approx([7.8201] * 3, abs=1e-4)
    code, residual = almansi_residual(capsys, "gamma", "~x1*x2")
    assert code == 0 and residual < 1e-10
    code, residual = almansi_residual(capsys, "a", "x1*x2")
    assert code == 0 and residual < 1e-8


def test_level_recursion_fueter():
    f = helpers.random_regular_polynomial(random.Random(9), 2, max_total_degree=3,
                                          coeff_fn=helpers.small_coeff)
    field = lift(f)
    low = fueter_components(field, 1)
    high = fueter_components(field, 2)
    for p in points(2, 5):
        for mask in low.masks():
            recombined = high.entry_value(mask | 0b10, p) - \
                p[1].to_float().conjugate() * high.entry_value(mask, p)
            helpers.assert_quat_close(recombined, low.entry_value(mask, p), 1e-4)


def test_level_recursion_dirac():
    f = helpers.random_slice_polynomial(random.Random(5), 2, max_total_degree=3,
                                        coeff_fn=helpers.small_coeff)
    field = lift(f)
    low = dirac_components(field, 1)
    high = dirac_components(field, 2)
    for p in points(2, 5):
        for mask in low.masks():
            recombined = high.entry_value(mask | 0b10, p) - \
                p[1].to_float().conjugate() * high.entry_value(mask, p)
            helpers.assert_quat_close(recombined, low.entry_value(mask, p), 1e-4)


def test_uniqueness_checks():
    f = variable(1, 1)
    fam = spherical_components(f, 1)
    assert check_uniqueness(f, fam)
    bumped = fam.replace_entry(1, fam.entries[1] + constant(1, ONE))
    assert not check_uniqueness(f, bumped)
    g = variable(2, 1) * variable(2, 2)
    fam2 = spherical_components(g, 2)
    swapped = fam2.replace_entry(0, fam2.entries[1]).replace_entry(1, fam2.entries[0])
    assert not check_uniqueness(g, swapped)


def test_uniqueness_raises_when_the_two_checks_disagree(monkeypatch):
    # the check used an assert, which python -O strips; a reference family
    # that differs from the candidate makes the two computations disagree
    f = variable(1, 1)
    fam = spherical_components(f, 1)
    bumped = fam.replace_entry(1, fam.entries[1] + constant(1, ONE))
    monkeypatch.setattr(almansi, "spherical_components",
                        lambda g, level: bumped)
    with pytest.raises(RuntimeError, match="uniqueness violated: the "
                       "candidate reconstructs f, but its entries differ"):
        check_uniqueness(f, fam)
    with pytest.raises(RuntimeError, match="does not reconstruct f, but its "
                       "entries equal"):
        check_uniqueness(f, bumped)


def test_uniqueness_rejects_sphere_dependent_entries():
    f = variable(2, 1)
    fam = spherical_components(f, 1)
    bad = fam.replace_entry(0, variable(2, 1))
    with pytest.raises(ValueError):
        check_uniqueness(f, bad)


def test_truncated_spherical_examples():
    f = variable(2, 1) * variable(2, 2)
    assert truncated_spherical(f, (1,)) == variable(2, 2)
    assert truncated_spherical(f, (0,)) == \
        (variable(2, 1) + conj_variable(2, 1)) * variable(2, 2) * \
        constant(2, Quaternion(Fraction(1, 2)))
    assert truncated_spherical(variable(2, 2), (1,)).is_zero()
    with pytest.raises(ValueError):
        truncated_spherical(f, (1, 0))


def test_zonal_symbolic_entries():
    f = helpers.random_slice_polynomial(random.Random(6), 2)
    fam = spherical_components(f, 2)
    report = check_zonal(fam, points(2, 1)[0], rotations=8, seed=9)
    assert report["max_deviation"] < 1e-10


def test_zonal_dirac_on_slice_function():
    f = helpers.random_slice_polynomial(random.Random(7), 2, max_total_degree=3,
                                        coeff_fn=helpers.small_coeff)
    fam = dirac_components(lift(f), 2)
    report = check_zonal(fam, points(2, 1)[0], rotations=4, seed=10)
    assert report["max_deviation"] < 1e-4


def test_zonal_flags_non_slice_field():
    def witness(p):
        im2 = p[1].im().to_float()
        dot = sum(float(p[0].components()[i]) * float(p[1].components()[i])
                  for i in (1, 2, 3))
        return Quaternion(float(p[0].w)) + im2 * (dot / float(im2.norm_sq()))

    fam = dirac_components(NumericField(witness, 2, 6), 1)
    report = check_zonal(fam, points(2, 1)[0], rotations=6, seed=11)
    assert report["max_deviation"] > 1e-3


def test_harmonicity_of_spherical_entries():
    rng = random.Random(8)
    for _ in range(3):
        f = helpers.random_regular_polynomial(rng, 2, max_total_degree=3,
                                              coeff_fn=helpers.small_coeff)
        fam = spherical_components(f, 2)
        for mask, entry in fam.entries.items():
            entry_field = lift(entry)
            for m in (1, 2):
                for p in points(2, 4):
                    assert abs(laplacian(entry_field, m, p)) < 1e-3


def test_complement_indices():
    assert complement_indices(0b00, 2) == [1, 2]
    assert complement_indices(0b01, 2) == [2]
    assert complement_indices(0b11, 2) == []
