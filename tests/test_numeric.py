import inspect
import random

import pytest

import helpers
from qwirt.quaternion import Quaternion, ONE, UNITS
from qwirt import numeric
from qwirt.slicefn import variable, conj_variable
from qwirt.numeric import (NumericField, lift, coordinate_partial,
                           global_derivative, global_conj_derivative,
                           tangential_derivative, spherical_dirac,
                           fueter_derivative, laplacian, euler_operator,
                           multiply_by_variable, NearRealAxisError,
                           DepthExhaustedError, DEFAULT_STEP)
from qwirt.almansi import dirac_components
from qwirt.sampling import random_slice_point

RNG_SEED = 1234


def points(n, count=10, seed=RNG_SEED):
    rng = random.Random(seed)
    return [random_slice_point(rng, n) for _ in range(count)]


class MonomialField:
    """Pointwise product of coordinate factors with an analytic coordinate
    derivative, independent of both the finite differences and the stems."""

    def __init__(self, n, factors, coeff=ONE):
        self.n = n
        self.factors = list(factors)  # (variable index, conjugated?)
        self.coeff = coeff

    def value(self, point):
        total = Quaternion(1.0, 0.0, 0.0, 0.0)
        for m, conj in self.factors:
            q = point[m - 1].to_float()
            total = total * (q.conjugate() if conj else q)
        return total * self.coeff

    def derivative(self, m, i, point):
        # product rule over factor positions; d(x)/dx_i = e_i, d(conj x)/dx_i
        # is e_i conjugated
        total = Quaternion(0.0, 0.0, 0.0, 0.0)
        for pos, (fm, conj) in enumerate(self.factors):
            if fm != m:
                continue
            prod = Quaternion(1.0, 0.0, 0.0, 0.0)
            for k, (gm, gconj) in enumerate(self.factors):
                if k == pos:
                    unit = UNITS[i].conjugate() if conj else UNITS[i]
                    prod = prod * unit
                else:
                    q = point[gm - 1].to_float()
                    prod = prod * (q.conjugate() if gconj else q)
            total = total + prod
        return total * self.coeff

    def field(self, smoothness=16, step=DEFAULT_STEP):
        return NumericField(self.value, self.n, smoothness, step)


def test_partial_fd_examples():
    f = lift(variable(1, 1) ** 2)
    p = (Quaternion(1, 1),)
    # the x_0 partial of the quaternion square is 2x
    helpers.assert_quat_close(coordinate_partial(f, 1, 0, p),
                              Quaternion(2.0, 2.0), 1e-8)
    const = NumericField(lambda _: Quaternion(3.0), 2, 4)
    assert abs(coordinate_partial(const, 1, 2, points(2, 1)[0])) < 1e-12
    g = lift(variable(2, 2))
    assert abs(coordinate_partial(g, 1, 1, points(2, 1)[0])) < 1e-12


def test_partial_fd_matches_analytic_oracle():
    rng = random.Random(5)
    for p in points(2, 5):
        mono = MonomialField(2, [(1, False), (1, False), (2, True)])
        m, i = rng.choice(((1, 0), (1, 2), (2, 1), (2, 3)))
        fd = coordinate_partial(mono.field(), m, i, p)
        helpers.assert_quat_close(fd, mono.derivative(m, i, p), 1e-7)


def test_order_of_accuracy():
    # third derivatives are nonzero for cubic factors, so halving the step
    # divides the central-difference error by about four
    fields = [
        MonomialField(2, [(1, False)] * 3),
        MonomialField(2, [(1, False)] * 4),
        MonomialField(2, [(1, True)] * 3),
        MonomialField(2, [(1, False), (1, False), (1, True)]),
        MonomialField(2, [(2, False)] * 3, Quaternion(0, 1)),
    ]
    p = points(2, 1, seed=77)[0]
    for mono in fields:
        for m, i in ((1, 0), (1, 1)) if mono.factors[0][0] == 1 else ((2, 0), (2, 2)):
            exact = mono.derivative(m, i, p)
            e1 = abs(coordinate_partial(mono.field(step=2e-2), m, i, p) - exact)
            e2 = abs(coordinate_partial(mono.field(step=1e-2), m, i, p) - exact)
            assert e1 > 1e-9, "field too flat for a ratio test"
            assert 3.5 <= e1 / e2 <= 4.5


def test_global_derivative_examples():
    f = lift(variable(1, 1))
    for p in points(1, 5):
        helpers.assert_quat_close(global_derivative(f, 1, p), Quaternion(1.0), 1e-9)
    sq = lift(variable(1, 1) ** 2)
    for p in points(1, 5):
        assert abs(global_conj_derivative(sq, 1, p)) < 1e-5
        helpers.assert_quat_close(global_derivative(sq, 1, p),
                                  p[0].to_float() * 2.0, 1e-7)


def test_global_derivative_closed_form_second_variable():
    # on x1*x2 the raw global operator in x2 is NOT the slice partial: it
    # equals x_{1_0} + Im(x2)|Im(x2)|^-2 sum_i x_{1_i} x_{2_i}
    f = lift(variable(2, 1) * variable(2, 2))
    for p in points(2, 5):
        im2 = p[1].im().to_float()
        dot = sum(float(p[0].components()[i]) * float(p[1].components()[i])
                  for i in (1, 2, 3))
        closed = Quaternion(float(p[0].w)) + im2 * (dot / float(im2.norm_sq()))
        helpers.assert_quat_close(global_derivative(f, 2, p), closed, 1e-9)


def test_theta_plus_thetabar_is_real_partial():
    f = lift(helpers.random_slice_polynomial(random.Random(3), 2))
    for p in points(2, 5):
        total = global_derivative(f, 1, p) + global_conj_derivative(f, 1, p)
        helpers.assert_quat_close(total, coordinate_partial(f, 1, 0, p), 1e-12)


def test_global_agrees_with_slice_partial_first_variable():
    rng = random.Random(4)
    for _ in range(5):
        f = helpers.random_slice_polynomial(rng, 2, max_total_degree=3,
                                            coeff_fn=helpers.small_coeff)
        field = lift(f)
        expected = f.slice_partial_conj(1)
        for p in points(2, 4):
            helpers.assert_quat_close(global_conj_derivative(field, 1, p),
                                      expected.evaluate(p), 1e-5)


def test_global_disagrees_with_slice_partial_second_variable():
    # worked counterexample: theta_{x_2}(x1 x2) != x1 off the common slice
    f = variable(2, 1) * variable(2, 2)
    field = lift(f)
    p = (Quaternion(0.2, 1.0), Quaternion(-0.3, 0.0, 1.2))  # J1 = i, J2 = j
    value = global_derivative(field, 2, p)
    assert abs(value - f.slice_partial(2).evaluate(p)) > 0.1


def test_tangential_examples():
    # field x_{1_2}: L_23 gives -x_{1_3}
    coord_field = NumericField(lambda p: Quaternion(float(p[0].components()[2])), 1, 4)
    for p in points(1, 3):
        helpers.assert_quat_close(tangential_derivative(coord_field, 1, 2, 3, p),
                                  Quaternion(-float(p[0].components()[3])), 1e-9)
    radial = NumericField(lambda p: Quaternion(float(p[0].im_norm_sq())), 1, 4)
    for p in points(1, 3):
        assert abs(tangential_derivative(radial, 1, 1, 2, p)) < 1e-9
    f = lift(helpers.random_slice_polynomial(random.Random(6), 1))
    for p in points(1, 3):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            a = tangential_derivative(f, 1, i, j, p)
            b = tangential_derivative(f, 1, j, i, p)
            helpers.assert_quat_close(a, -b, 1e-12)


def test_spherical_dirac_worked_examples():
    f = lift(variable(2, 1) * variable(2, 2))
    g = lift(variable(2, 1) ** 2 * variable(2, 2))
    for p in points(2, 5):
        im1 = p[0].im().to_float()
        helpers.assert_quat_close(spherical_dirac(f, 1, p),
                                  (im1 * 2.0) * p[1].to_float(), 1e-9)
        helpers.assert_quat_close(spherical_dirac(g, 1, p),
                                  (im1 * (4.0 * float(p[0].w))) * p[1].to_float(),
                                  1e-9)


def test_spherical_dirac_kills_independent_fields():
    g = lift(variable(2, 2) ** 2)
    real_only = NumericField(lambda p: Quaternion(float(p[0].w) ** 2), 2, 4)
    for p in points(2, 5):
        assert abs(spherical_dirac(g, 1, p)) < 1e-8
        assert abs(spherical_dirac(real_only, 1, p)) < 1e-8


def test_fueter_examples():
    x = lift(variable(1, 1))
    sq = lift(variable(1, 1) ** 2)
    const = NumericField(lambda _: Quaternion(2.0, 1.0), 1, 4)
    for p in points(1, 5):
        helpers.assert_quat_close(fueter_derivative(x, 1, p), Quaternion(-1.0), 1e-9)
        helpers.assert_quat_close(fueter_derivative(sq, 1, p),
                                  Quaternion(-2.0 * float(p[0].w)), 1e-7)
        assert abs(fueter_derivative(const, 1, p)) < 1e-12


def test_laplacian_examples():
    sq = lift(variable(1, 1) ** 2)
    lin = lift(variable(1, 1) + conj_variable(1, 1))  # 2 Re(x_1)
    for p in points(1, 5):
        helpers.assert_quat_close(laplacian(sq, 1, p), Quaternion(-4.0), 1e-5)
        assert abs(laplacian(lin, 1, p)) < 1e-6


def test_near_real_axis_guard():
    f = lift(variable(1, 1))
    p = (Quaternion(1.0, 0.05),)
    with pytest.raises(NearRealAxisError):
        global_derivative(f, 1, p)
    with pytest.raises(NearRealAxisError):
        global_conj_derivative(f, 1, p)
    # the purely tangential operator stays defined near the axis
    spherical_dirac(f, 1, p)


def test_depth_budget():
    shallow = NumericField(lambda p: p[0].to_float(), 1, smoothness=1)
    p = points(1, 1)[0]
    coordinate_partial(shallow, 1, 0, p)
    entry = dirac_components(shallow, 1).entries[0]
    with pytest.raises(DepthExhaustedError):
        coordinate_partial(entry, 1, 0, p)
    with pytest.raises(DepthExhaustedError):
        laplacian(shallow, 1, p)


def test_derived_field_steps():
    from qwirt.numeric import NESTED_STEP
    base = lift(variable(1, 1))
    entry = dirac_components(base, 1).entries[0]
    assert base.step == DEFAULT_STEP
    assert entry.step == NESTED_STEP
    assert entry.smoothness == base.smoothness - 1


def test_multiply_by_variable():
    f = lift(variable(2, 2))
    g = multiply_by_variable(f, 1)
    for p in points(2, 3):
        helpers.assert_quat_close(g(p), p[0].to_float() * p[1].to_float(), 1e-12)


def test_euler_operator_radial_scaling():
    # Euler operator returns degree * field on imaginary-homogeneous fields
    cube = NumericField(lambda p: Quaternion(float(p[0].components()[1]) ** 3), 1, 4)
    for p in points(1, 3):
        expected = Quaternion(3.0 * float(p[0].components()[1]) ** 3)
        helpers.assert_quat_close(euler_operator(cube, 1, p), expected, 1e-6)


_PUBLIC_OPERATORS = {
    "coordinate_partial": lambda f, p, **kw: coordinate_partial(f, 1, 0, p, **kw),
    "euler_operator": lambda f, p, **kw: euler_operator(f, 1, p, **kw),
    "global_derivative": lambda f, p, **kw: global_derivative(f, 1, p, **kw),
    "global_conj_derivative":
        lambda f, p, **kw: global_conj_derivative(f, 1, p, **kw),
    "tangential_derivative":
        lambda f, p, **kw: tangential_derivative(f, 1, 1, 2, p, **kw),
    "spherical_dirac": lambda f, p, **kw: spherical_dirac(f, 1, p, **kw),
    "fueter_derivative": lambda f, p, **kw: fueter_derivative(f, 1, p, **kw),
    "laplacian": lambda f, p, **kw: laplacian(f, 1, p, **kw),
}


def test_the_step_is_the_fields_alone():
    # a per-call step skipped the field's validation: coordinate_partial
    # with step=nan returned nan+nani+nanj+nank
    functions = [name for name, value in vars(numeric).items()
                 if inspect.isfunction(value)
                 and value.__module__ == numeric.__name__]
    with_field = [name for name in functions if "field" in
                  inspect.signature(getattr(numeric, name)).parameters]
    assert set(_PUBLIC_OPERATORS) <= set(with_field)
    assert [name for name in with_field if "step" in
            inspect.signature(getattr(numeric, name)).parameters] == []
    field = lift(variable(1, 1) ** 2)
    p = points(1, 1)[0]
    for name, operator in _PUBLIC_OPERATORS.items():
        operator(field, p)
        with pytest.raises(TypeError, match="step"):
            operator(field, p, step=2e-2)
