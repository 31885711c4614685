"""Numeric verdicts fail closed: a non-finite residual or an empty sample set
never yields a passing verdict, and the finite-difference flags reach every
numeric suite the command line runs."""

import ast
import json
import math
import pathlib
import random
import re
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qwirt.almansi import (check_reconstruction, check_zonal, dirac_components,
                           reconstruct, spherical_components)
from qwirt import numeric
from qwirt import cli
from qwirt.cli import main
from qwirt.expr import parse_slice
from qwirt.numeric import NumericField, lift, running_worst
from qwirt.quaternion import Quaternion, MAX_DIGITS, parse_quaternion
from qwirt import sampling
from qwirt.sampling import MAX_SAMPLES, random_slice_point
from qwirt import slicefn
from qwirt.slicefn import SliceFunction, variable
from qwirt.wirtinger import (check_independence, check_regularity_numeric,
                             check_strong_sliceness, crosscheck,
                             wirtinger_conj_derivative_numeric,
                             wirtinger_derivative_numeric)

NON_FINITE = (math.nan, math.inf, -math.inf)


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# -- non-finite residuals ---------------------------------------------------------


def _refused_step(report):
    return report["error"]["type"] == "value" and "step" in report["error"]["message"]


# A NaN step used to run every stencil and fail the verdict; it is now
# refused before any evaluation, which fails closed too.


def test_check_regular_nan_step_is_not_regular(capsys):
    code, report = run_json(capsys, "check-regular", "--numeric", "--fd-step",
                            "nan", "--n", "2", "~x1")
    assert code == 2
    assert _refused_step(report)


def test_check_slice_nan_step_fails(capsys):
    code, report = run_json(capsys, "check-slice", "--fd-step", "nan",
                            "--samples", "1", "--n", "2", "x1*x2")
    assert code == 2
    assert _refused_step(report)


def test_almansi_nan_step_fails(capsys):
    code, report = run_json(capsys, "almansi", "--flavor", "gamma", "--level",
                            "1", "--fd-step", "nan", "--samples", "2", "x1*x2")
    assert code == 2
    assert _refused_step(report)


def test_crosscheck_honours_fd_step(capsys):
    code, report = run_json(capsys, "crosscheck", "--fd-step", "nan",
                            "--samples", "2", "x1*x2")
    assert code == 2
    assert _refused_step(report)


def test_crosscheck_honours_fd_delta(capsys):
    # every sampled |Im(x_m)| lies in [0.3, 2], inside a band of 5
    code, report = run_json(capsys, "crosscheck", "--fd-delta", "5",
                            "--samples", "2", "x1*x2")
    assert code == 2
    assert report["error"]["type"] == "near-real-axis"


def test_crosscheck_honours_step_and_band():
    f = variable(2, 1) * variable(2, 2)
    with pytest.raises(ValueError, match="step"):
        crosscheck(f, 1, samples=2, step=math.nan)
    with pytest.raises(ValueError):
        crosscheck(f, 1, samples=2, band=5.0)
    assert crosscheck(f, 1, samples=2)["verdict"]


@given(st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=6),
       st.integers(min_value=0, max_value=6), st.sampled_from(NON_FINITE),
       st.floats(min_value=1e-12, max_value=1e12))
def test_non_finite_residual_anywhere_fails(residuals, index, bad, tol):
    residuals.insert(min(index, len(residuals)), abs(bad))
    worst = reduce(running_worst, residuals, 0.0)
    assert not math.isfinite(worst)
    assert not worst < tol


def _poisoned(center, bad):
    """x1^2 (regular and slice), except the value ``bad`` near ``center``."""
    def value(p):
        if abs(p[0] - center[0]) < 0.05:
            return Quaternion(bad, 0.0, 0.0, 0.0)
        q = p[0].to_float()
        return q * q

    return NumericField(value, 1, 6)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 3),
       st.integers(0, 2), st.sampled_from(NON_FINITE))
def test_non_finite_field_value_fails_checkers(seed, count, index, bad):
    rng = random.Random(seed)
    pts = [random_slice_point(rng, 1) for _ in range(count)]
    field = _poisoned(pts[index % count], bad)
    report = check_regularity_numeric(field, pts, slice_established=True)
    assert report["verdict"] == "not-regular"
    assert not math.isfinite(report["max_residual"])
    report = check_strong_sliceness(field, pts)
    assert report["verdict"] is False
    assert not math.isfinite(report["max_residual"])
    for flavor in ("fueter", "dirac"):
        report = check_reconstruction(field, flavor, 1, pts)
        assert report["verdict"] is False
        assert not math.isfinite(report["max_residual"])


# -- numeric flags on symbolic runs -----------------------------------------------


def _refused_before_any_work(capsys, monkeypatch, argv):
    monkeypatch.setattr("qwirt.cli._load", lambda args: pytest.fail("work began"))
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "value"
    return report["error"]["message"]


@pytest.mark.parametrize("flags", [
    ("--samples", "0", "--tol", "-1", "--fd-step", "nan"),
    ("--seed", "3"), ("--samples", "4"), ("--tol", "1e-3"),
    ("--fd-step", "1e-3"), ("--fd-delta", "0.1"),
])
def test_symbolic_check_regular_refuses_numeric_flags(capsys, monkeypatch, flags):
    message = _refused_before_any_work(capsys, monkeypatch,
                                       ("check-regular", "x1") + flags)
    assert message.startswith("check-regular without --numeric ignores ")
    assert all(flag in message for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("flags", [
    ("--samples", "0", "--tol", "-1"),
    ("--seed", "3"), ("--samples", "4"), ("--tol", "1e-3"),
    ("--fd-step", "1e-3"), ("--fd-delta", "0.1"),
])
def test_spherical_almansi_refuses_numeric_flags(capsys, monkeypatch, flags):
    message = _refused_before_any_work(
        capsys, monkeypatch, ("almansi", "--flavor", "sp", "--level", "1", "x1") + flags)
    assert message.startswith("almansi --flavor sp ignores ")
    assert all(flag in message for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("command", ["theta", "thetabar"])
@pytest.mark.parametrize("flags", [
    ("--fd-step", "nan"), ("--fd-delta", "0.1"), ("--at", "1+i"),
])
def test_symbolic_wirtinger_refuses_numeric_flags(capsys, monkeypatch, command,
                                                  flags):
    message = _refused_before_any_work(capsys, monkeypatch,
                                       (command, "--m", "1", "x1") + flags)
    assert message == "%s without --numeric ignores %s" % (command, flags[0])


# -- empty sample sets ----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("check-regular", "--numeric", "--samples", "0", "--n", "2", "~x1"),
    ("check-regular", "--numeric", "--samples", "-3", "x1"),
    ("almansi", "--flavor", "gamma", "--level", "1", "--samples", "0", "x1"),
    ("almansi", "--flavor", "a", "--level", "1", "--samples", "-1", "x1"),
    ("check-slice", "--samples", "0", "x1"),
    ("crosscheck", "--samples", "0", "x1*x2"),
])
def test_cli_refuses_samples_below_one(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "value"
    assert "samples" in report["error"]["message"]


def test_library_refuses_empty_point_sets():
    calls = []

    def value(p):
        calls.append(p)
        return Quaternion(1.0)

    field = NumericField(value, 2, 6)
    f = variable(2, 1)
    for check in (check_regularity_numeric, check_strong_sliceness):
        with pytest.raises(ValueError):
            check(field, [])
        with pytest.raises(ValueError):
            check(field, samples=0)
    for check in (crosscheck, check_independence):
        with pytest.raises(ValueError):
            check(f, 1, [])
        with pytest.raises(ValueError):
            check(f, 1, samples=-1)
    for flavor in ("fueter", "dirac"):
        with pytest.raises(ValueError):
            check_reconstruction(field, flavor, 1, [])
        with pytest.raises(ValueError):
            check_reconstruction(field, flavor, 1, samples=0)
    assert not calls


def _counted_draws_and_evaluations(monkeypatch):
    """Count the sample points drawn and the base evaluations of every
    field the command line or a suite lifts; the counting ``lift`` is
    returned too."""
    drawn, evaluated = [], []
    draw = sampling.random_slice_point
    monkeypatch.setattr(sampling, "random_slice_point",
                        lambda *args: drawn.append(args) or draw(*args))

    def counted_lift(*args, **kwargs):
        field = lift(*args, **kwargs)
        inner = field.func
        field.func = lambda point: evaluated.append(point) or inner(point)
        return field

    monkeypatch.setattr("qwirt.cli.lift", counted_lift)
    monkeypatch.setattr("qwirt.wirtinger.lift", counted_lift)
    return drawn, evaluated, counted_lift


OVER_CAP = str(MAX_SAMPLES + 1)


@pytest.mark.parametrize("argv", [
    ("check-regular", "--numeric", "--samples", OVER_CAP, "--n", "2", "~x1"),
    ("almansi", "--flavor", "gamma", "--level", "1", "--samples", OVER_CAP, "x1"),
    ("almansi", "--flavor", "a", "--level", "1", "--samples", OVER_CAP, "x1"),
    ("check-slice", "--samples", OVER_CAP, "x1"),
    ("crosscheck", "--samples", OVER_CAP, "x1*x2"),
])
def test_cli_refuses_samples_over_the_cap_before_any_point(capsys, monkeypatch,
                                                            argv):
    # the sample points are drawn into one list up front, so a huge
    # --samples used to allocate them all before the first stencil
    drawn, evaluated, _ = _counted_draws_and_evaluations(monkeypatch)
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "value"
    assert "samples are capped at %d" % MAX_SAMPLES in report["error"]["message"]
    assert not drawn and not evaluated


def test_library_refuses_samples_over_the_cap_before_any_point(monkeypatch):
    drawn, evaluated, counted_lift = _counted_draws_and_evaluations(monkeypatch)
    f = variable(2, 1)
    field = counted_lift(f)
    over = MAX_SAMPLES + 1
    for check in (check_regularity_numeric, check_strong_sliceness):
        with pytest.raises(ValueError, match="capped"):
            check(field, samples=over)
    for check in (crosscheck, check_independence):
        with pytest.raises(ValueError, match="capped"):
            check(f, 1, samples=over)
    for flavor in ("fueter", "dirac"):
        with pytest.raises(ValueError, match="capped"):
            check_reconstruction(field, flavor, 1, samples=over)
    assert not drawn and not evaluated


def test_regularity_check_refuses_no_operators():
    # a field of no variables would leave the kernel test no operator to
    # check, so it is refused when it is built, before any evaluation
    calls = []
    # 2.0 and True were accepted and failed later; "2" raised a bare TypeError
    for n in (0, -1, 2.0, True, "2"):
        with pytest.raises(ValueError, match="at least one variable"):
            NumericField(lambda p: calls.append(p) or Quaternion(1.0), n)
    assert not calls


@pytest.mark.parametrize("smoothness", [math.nan, 0.5, "3", True, -1])
def test_a_smoothness_that_is_not_an_int_is_refused(smoothness):
    # a NaN budget never ran out (a level-1 Dirac entry read nan and still
    # differentiated), 0.5 was refused later as "smoothness budget is 0" and
    # "3" was accepted
    calls = []
    with pytest.raises(ValueError, match="smoothness budget must be an int "
                       r">= 0, got %s$" % re.escape(repr(smoothness))):
        NumericField(lambda p: calls.append(p) or Quaternion(1.0), 1,
                     smoothness)
    with pytest.raises(ValueError, match="smoothness budget"):
        lift(variable(1, 1), smoothness)
    assert not calls


@pytest.mark.parametrize("flavor", ["fueter", "dirac"])
def test_numeric_reconstruction_level_over_the_cap_is_refused(flavor):
    # level 6 failed x1*...*x6 at residual 3.2e-3 against 1e-4 in 14 s,
    # on a polynomial the exact engine reconstructs
    f = variable(6, 1)
    for m in range(2, 7):
        f = f * variable(6, m)
    field = lift(f)
    calls = []
    inner = field.func
    field.func = lambda p: calls.append(p) or inner(p)
    with pytest.raises(ValueError, match="capped at level 5"):
        check_reconstruction(field, flavor, 6, samples=1)
    assert not calls


def test_crosscheck_refuses_operator_index_zero(capsys):
    # --m 0 used to be read as "no --m" and check m=1 and m=2, exit 0
    code, report = run_json(capsys, "crosscheck", "--m", "0", "--samples", "1",
                            "x1*x2")
    assert code == 2
    assert report["error"]["type"] == "value"
    assert "index 0" in report["error"]["message"]


@pytest.mark.parametrize("rotations", [0, -3])
def test_zonal_check_refuses_no_rotations(rotations):
    # no rotation used to report max_deviation 0.0 over nothing
    field = lift(variable(2, 1) * variable(2, 2))
    calls = []
    inner = field.func
    field.func = lambda p: calls.append(p) or inner(p)
    family = dirac_components(field, 1)
    point = random_slice_point(random.Random(4), 2)
    with pytest.raises(ValueError, match="rotations"):
        check_zonal(family, point, rotations=rotations)
    assert not calls


# -- requests refused before any evaluation -----------------------------------


def _count_base_evaluations(monkeypatch):
    """Record every evaluation of a compiled stem: every lifted field and
    every exact evaluation runs one."""
    calls = []
    evaluator = SliceFunction.evaluator

    def counted(f):
        inner = evaluator(f)
        return lambda point: calls.append(point) or inner(point)

    monkeypatch.setattr(SliceFunction, "evaluator", counted)
    return calls


@pytest.mark.parametrize("flag, at, names", [
    ("--fd-step=nan", "1+i", "step"),
    ("--fd-step=inf", "1+i", "step"),
    ("--fd-step=0", "1+i", "step"),
    ("--fd-step=-0.001", "1+i", "step"),
    ("--fd-delta=nan", "1+1/100i", "band"),
    ("--fd-delta=inf", "1+1/100i", "band"),
    ("--fd-delta=-1", "1+1/100i", "band"),
])
def test_bad_stencil_flags_are_refused_before_any_evaluation(flag, at, names,
                                                             capsys, monkeypatch):
    # a NaN or infinite step printed nan+nani+nanj+nank and exited 0, a zero
    # step failed mid-stencil with division-by-zero, a NaN band switched the
    # band off and a negative band acted as its absolute value
    calls = _count_base_evaluations(monkeypatch)
    code, report = run_json(capsys, "theta", "--numeric", "--m", "1", flag,
                            "--at", at, "x1^2")
    assert code == 2
    assert report["error"]["type"] == "value"
    assert names in report["error"]["message"]
    assert not calls


@pytest.mark.parametrize("keyword, value", [
    ("step", math.nan), ("step", math.inf), ("step", 0.0), ("step", -1e-3),
    ("band", math.nan), ("band", math.inf), ("band", -math.inf), ("band", -1.0),
])
def test_bad_stencil_parameters_are_refused(keyword, value):
    calls = []
    with pytest.raises(ValueError, match=keyword):
        NumericField(lambda p: calls.append(p) or Quaternion(1.0), 1,
                     **{keyword: value})
    with pytest.raises(ValueError, match=keyword):
        lift(variable(1, 1), **{keyword: value})
    assert not calls


BAD_TOLERANCES = ("inf", "nan", "0", "-1e-3")


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
@pytest.mark.parametrize("argv", [
    ("check-regular", "--numeric", "--samples", "1", "x1*~x1"),
    ("check-slice", "--samples", "1", "x1*x2"),
    ("crosscheck", "--samples", "1", "x1*~x2"),
    ("almansi", "--flavor", "a", "--level", "1", "--samples", "1", "x1*x2"),
    ("almansi", "--flavor", "gamma", "--level", "1", "--samples", "1", "x1*x2"),
], ids=["check-regular", "check-slice", "crosscheck", "almansi-a",
        "almansi-gamma"])
def test_bad_tolerance_flags_are_refused_before_any_evaluation(argv, tol, capsys,
                                                               monkeypatch):
    # check-regular --numeric --tol inf said "regular" for x1*~x1 with
    # thetabar_1 at 1.73 and exited 0
    calls = _count_base_evaluations(monkeypatch)
    code, report = run_json(capsys, *argv, "--tol=" + tol)
    assert code == 2
    assert report["error"]["type"] == "value"
    assert "tolerance" in report["error"]["message"]
    assert not calls


@pytest.mark.parametrize("tol", [float(t) for t in BAD_TOLERANCES])
@pytest.mark.parametrize("check", [
    lambda f, tol: check_regularity_numeric(lift(f), samples=1, tol=tol),
    lambda f, tol: check_strong_sliceness(lift(f), samples=1, tol=tol),
    lambda f, tol: crosscheck(f, 1, samples=1, tol=tol),
    lambda f, tol: check_independence(f, 1, samples=1, tol=tol),
    lambda f, tol: check_reconstruction(lift(f), "dirac", 1, samples=1, tol=tol),
], ids=["check_regularity_numeric", "check_strong_sliceness", "crosscheck",
        "check_independence", "check_reconstruction"])
def test_bad_tolerances_are_refused_before_any_evaluation(check, tol, monkeypatch):
    calls = _count_base_evaluations(monkeypatch)
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        check(parse_slice("x1*~x2"), tol)
    assert not calls


@pytest.mark.parametrize("argv", [
    ("check-regular", "--numeric", "--fd-step", "1e-300", "--samples", "2",
     "~x1"),
    ("theta", "--numeric", "--m", "1", "--at=1+i", "--fd-step", "1e-300",
     "x1"),
], ids=["check-regular", "theta"])
def test_a_step_too_small_to_move_a_coordinate_is_refused(capsys, argv):
    # every displaced coordinate equalled the undisplaced one, so every
    # difference was exactly 0: check-regular said "regular" for ~x1 and
    # exited 0, and theta printed 0
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "value"
    assert re.fullmatch(r"finite-difference step 1e-300 does not move "
                        r"coordinate 0 of x_1, which is \S+",
                        report["error"]["message"])


_STENCILS = pytest.mark.parametrize("operator", [
    lambda field, p: numeric.coordinate_partial(field, 1, 2, p),
    lambda field, p: numeric.laplacian(field, 1, p)],
    ids=["coordinate_partial", "laplacian"])


@_STENCILS
def test_the_stencils_refuse_a_step_that_moves_no_coordinate(operator):
    p = (Quaternion(0.5, 1.0, 2.0 ** 60, -0.5),)
    # the default step does not move the coordinate 2^60
    with pytest.raises(ValueError, match="step 0.001 does not move coordinate "
                       "2 of x_1, which is 1.152921504606847e"):
        operator(lift(variable(1, 1)), p)
    # nor does 1e-300 move 1.0, whichever coordinate comes first
    with pytest.raises(ValueError, match="step 1e-300 does not move"):
        operator(lift(variable(1, 1), step=1e-300),
                 (Quaternion(1.0, 1.0, 1.0, 1.0),))
    # a step that moves every coordinate by exactly itself is accepted
    assert math.isfinite(abs(operator(lift(variable(1, 1), step=2.0 ** 10), p)))


@_STENCILS
def test_the_stencils_refuse_a_step_whose_span_is_not_twice_it(operator):
    # 1 + 3e-16 rounds to 1 + 2.2e-16 and 1 - 3e-16 to 1 - 3.3e-16, so the
    # stencil spans 5.6e-16, and dividing by 6e-16 gave a wrong value
    field = lift(variable(1, 1), step=3e-16)
    with pytest.raises(ValueError, match=r"finite-difference step 3e-16 "
                       r"spans 5\.551115123125783e-16, not twice the step, "
                       r"at coordinate [02] of x_1, which is 1\.0"):
        operator(field, (Quaternion(1.0, 1.0, 1.0, 1.0),))
    # 1e3 moves the coordinate 2^60, but its stencil spans 2048, not 2000
    with pytest.raises(ValueError, match="step 1000.0 spans 2048.0, not twice "
                       "the step, at coordinate 2 of x_1"):
        operator(lift(variable(1, 1), step=1e3),
                 (Quaternion(0.5, 1.0, 2.0 ** 60, -0.5),))


def test_a_step_whose_span_is_not_twice_it_is_refused(capsys):
    # theta printed 0.9251858538542972 for the exact 1 and exited 0
    code, report = run_json(capsys, "theta", "--numeric", "--m", "1",
                            "--at=1+i", "--fd-step", "3e-16", "x1")
    assert (code, report) == (2, {"error": {
        "type": "value",
        "message": "finite-difference step 3e-16 spans 5.551115123125783e-16, "
                   "not twice the step, at coordinate 0 of x_1, which is 1.0"}})


def test_the_library_makes_no_assert_statement():
    # python -O strips an assert, so a check made with one would pass
    # silently there
    src = pathlib.Path(numeric.__file__).parent
    asserts = ["%s:%d" % (path.name, node.lineno)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_zero_band_and_exact_step_are_accepted():
    field = NumericField(lambda p: p[0], 1, step=Fraction(1, 100), band=0)
    assert (field.step, field.band) == (Fraction(1, 100), 0)


def _counted_lift(text, n=None):
    field = lift(parse_slice(text, n))
    calls = []
    inner = field.func
    field.func = lambda p: calls.append(p) or inner(p)
    return field, calls


def test_numeric_regularity_of_four_variables_is_refused():
    # it checked thetabar_1..3 only and said regular, while the symbolic
    # check of the same input finds thetabar_4 = 1
    field, calls = _counted_lift("x1*x2*x3*~x4")
    with pytest.raises(ValueError, match="capped at index 3"):
        check_regularity_numeric(field, samples=2, slice_established=True)
    assert not calls


def test_check_regular_numeric_of_four_variables_exits_2(capsys):
    code, report = run_json(capsys, "check-regular", "--numeric",
                            "x1*x2*x3*~x4", "--samples", "2")
    assert code == 2
    assert report["error"] == {"type": "value", "message":
                               "numeric Wirtinger operators are capped at index 3"}


def test_strong_sliceness_of_four_variables_is_refused():
    # level 4 of this slice polynomial read 1.7e-2 against the tolerance 1e-2
    field, calls = _counted_lift("x1+x2+x3+x4")
    with pytest.raises(ValueError, match="capped at 3 variables"):
        check_strong_sliceness(field, samples=1)
    assert not calls


def test_check_slice_of_four_variables_exits_2(capsys):
    code, report = run_json(capsys, "check-slice", "x1+x2+x3+x4", "--samples", "1")
    assert code == 2
    assert report["error"] == {"type": "value", "message":
                               "strong sliceness check is capped at 3 variables"}


@pytest.mark.parametrize("n, coords", [(1, 2), (2, 1)],
                         ids=["extra-coordinate", "missing-coordinate"])
def test_given_points_of_the_wrong_length_are_refused(n, coords):
    # an extra coordinate used to be ignored, a missing one raised IndexError
    field, calls = _counted_lift("x1^2", n)
    f = parse_slice("x1^2", n)
    point = random_slice_point(random.Random(5), coords)
    message = "has %d coordinates, expected %d" % (coords, n)
    for check in (check_regularity_numeric, check_strong_sliceness):
        with pytest.raises(ValueError, match=message):
            check(field, [point])
    for check in (crosscheck, check_independence):
        with pytest.raises(ValueError, match=message):
            check(f, 1, [point])
    with pytest.raises(ValueError, match=message):
        check_reconstruction(field, "dirac", 1, [point])
    # the public operators, and the families' point evaluations
    operators = [
        lambda p: numeric.coordinate_partial(field, 1, 0, p),
        lambda p: numeric.tangential_derivative(field, 1, 1, 2, p),
        lambda p: numeric.laplacian(field, 1, p),
    ] + [
        lambda p, op=op: op(field, 1, p)
        for op in (numeric.euler_operator, numeric.global_derivative,
                   numeric.global_conj_derivative, numeric.spherical_dirac,
                   numeric.fueter_derivative, wirtinger_derivative_numeric,
                   wirtinger_conj_derivative_numeric)
    ]
    for family in (dirac_components(field, 1), spherical_components(f, 1)):
        operators += [lambda p, family=family: reconstruct(family, p),
                      lambda p, family=family: family.entry_value(1, p),
                      lambda p, family=family: check_zonal(family, p)]
    for operator in operators:
        with pytest.raises(ValueError, match=message):
            operator(point)
    assert not calls


# -- float overflow ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("eval", "--at", "1" + "0" * 200 + "i", "x1"),
    ("theta", "--numeric", "--m", "1", "--at", "1+1" + "0" * 200 + "i", "x1"),
], ids=["eval", "theta-numeric"])
def test_float_overflow_is_a_typed_error(capsys, argv):
    # squaring the imaginary part leaves the float range; this used to end
    # in an uncaught OverflowError and exit 1, the code of a failed verdict
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "overflow"


def test_the_flat_split_raises_on_overflow():
    # x*x would give inf, a zero unit and a silently wrong value
    field = lift(variable(1, 1))
    with pytest.raises(OverflowError):
        field.func.flat((1.0, 1e200, 0.0, 0.0))
    with pytest.raises(OverflowError):
        Quaternion(1, 10 ** 200).split_slice()


_HUGE = "1" + "0" * 160


@pytest.mark.parametrize("argv, value", [
    (("eval", "--at", "%s+i;%s+j" % (_HUGE, _HUGE), "x1*x2"),
     "inf+nani+nanj+nank"),
    # a step of 1e150 moves the coordinate 1e160; the default step does not
    (("theta", "--numeric", "--m", "1", "--at", "%s+i;%s+j" % (_HUGE, _HUGE),
      "--fd-step", "1e150", "x1*x2"), "nan+nani+nanj+nank"),
], ids=["eval", "theta-numeric"])
def test_a_non_finite_value_is_an_overflow_error(capsys, argv, value):
    # the product leaves the float range, and inf - inf is nan; these used to
    # print and exit 0
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"] == {"type": "overflow",
                               "message": "non-finite value " + value}


def test_the_evaluator_returns_non_finite_values():
    # the check is made once per printed value, not per base evaluation
    f = variable(2, 1) * variable(2, 2)
    point = (Quaternion(10 ** 160, 1), Quaternion(10 ** 160, 0, 1))
    assert not all(map(math.isfinite, f.evaluate(point).components()))


# -- strict JSON -------------------------------------------------------------------


def _strict_json(text):
    def refuse(name):
        raise ValueError("%s is not strict JSON" % name)

    return json.loads(text, parse_constant=refuse)


def _values_of(report, key):
    if isinstance(report, dict):
        return [v for k, item in report.items()
                for v in ([item] if k == key else _values_of(item, key))]
    if isinstance(report, list):
        return [v for item in report for v in _values_of(item, key)]
    return []


_BIG = "1" + "0" * 150
_HUGE_STEM = "x1^3*~x2^3*(%s)*(%s)" % (_BIG, _BIG)


@pytest.mark.parametrize("argv", [
    ("check-regular", "--numeric"),
    ("crosscheck",),
    ("check-slice",),
    ("almansi", "--flavor", "a", "--level", "2"),
], ids=["check-regular", "crosscheck", "check-slice", "almansi"])
def test_non_finite_residuals_print_as_strict_json(capsys, argv):
    # they printed as Infinity, which strict JSON parsers reject; their
    # verdicts fail
    code = main(list(argv) + ["--samples", "1", "--n", "2", _HUGE_STEM])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1
    residuals = _values_of(report, "max_residual")
    assert residuals and set(residuals) == {"inf"}


@pytest.mark.parametrize("zeros, thetabar_2", [(150, 1.8e301), (200, "inf")],
                         ids=["finite", "past-the-float-range"])
def test_symbolic_verdict_on_huge_coefficients(capsys, zeros, thetabar_2):
    # the squared norm of thetabar_2's largest coefficient leaves the float
    # range at 150 zeros, the norm itself only at 200; this used to exit 2
    # with an overflow error
    big = "1" + "0" * zeros
    code = main(["check-regular", "--n", "2",
                 "x1^3*~x2^3*(%s)*(%s)" % (big, big)])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "not-regular"
    assert report["failures"] == ["thetabar_2"]
    residual = report["residuals"]["thetabar_2"]
    if thetabar_2 == "inf":
        assert residual == "inf"
    else:
        assert math.isclose(residual, thetabar_2, rel_tol=1e-12)


def test_strict_encodes_each_non_finite_float_as_a_string():
    report = {"a": [math.nan, -math.inf, 1.5], "b": (math.inf, "x", 2)}
    assert cli._strict(report) == {"a": ["nan", "-inf", 1.5],
                                   "b": ["inf", "x", 2]}


# -- the stem-term cap ----------------------------------------------------------------


def test_a_power_over_the_stem_term_cap_is_refused(capsys):
    # (x1+~x2+...+x6)^10 squares its 1,365-term fourth power; under the
    # degree cap of 32 alone it did not finish in 90 s
    start = time.perf_counter()
    code, report = run_json(capsys, "theta", "--m", "1",
                            "(x1+~x2+x3+x4+x5+x6)^10")
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert report["error"]["type"] == "value"
    assert "stem term cap 1048576 exceeded" in report["error"]["message"]


def test_a_product_over_the_stem_term_cap_forms_no_pair(monkeypatch):
    fourth = parse_slice("(x1+~x2+x3+x4+x5+x6)^4")
    assert len(fourth.terms) ** 2 > slicefn.MAX_STEM_TERMS
    products = []
    inner = slicefn._stem_product
    monkeypatch.setattr(slicefn, "_stem_product",
                        lambda a, b: products.append(1) or inner(a, b))
    with pytest.raises(ValueError, match="a product of 1365 by 1365 terms"):
        fourth * fourth
    assert products == []


def test_the_largest_power_under_the_stem_term_cap_lowers():
    # its largest product takes 715 * 715 pairs
    assert len(parse_slice("(x1+~x2+x3+x4+x5)^8").terms) == 24310


# -- numbers past the digit cap ---------------------------------------------------
# Each of these ended as a `value` error that named CPython's int-string limit
# and sys.set_int_max_str_digits(), which the command line cannot reach.

_ONES = "1" * 5000
_HUGE = "(1" + "0" * 150 + ")^30"


@pytest.mark.parametrize("argv, kind, message", [
    (["eval", "x1", "--at", _ONES], "value",
     "number at offset 0 has 5000 digits, more than the 4300 accepted"),
    (["eval", "x1*" + _ONES, "--at", "i"], "syntax",
     "number has 5000 digits, more than the 4300 accepted (offset 3)"),
    (["theta", "--m", "1", "x1^2*" + _HUGE], "number-too-long",
     "a result coefficient has 4501 digits, more than the 4300 printed"),
    (["almansi", "--flavor", "sp", "--level", "1", "x1*" + _HUGE],
     "number-too-long",
     "a result coefficient has 4501 digits, more than the 4300 printed"),
], ids=["at-literal", "expression-literal", "theta-result", "almansi-result"])
def test_numbers_past_the_digit_cap_are_typed_errors(capsys, argv, kind, message):
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == kind
    assert report["error"]["message"] == message
    if kind == "syntax":
        assert report["error"]["offset"] == 3


def test_numbers_at_the_digit_cap_are_read_and_printed(capsys):
    assert MAX_DIGITS == 4300
    assert parse_quaternion("9" * MAX_DIGITS + "i").x == int("9" * MAX_DIGITS)
    assert parse_quaternion("1/" + "3" * MAX_DIGITS).w.denominator == int("3" * MAX_DIGITS)
    with pytest.raises(ValueError, match=r"^number at offset 4 has 4301 digits"):
        parse_quaternion("1+1." + "1" * (MAX_DIGITS + 1) + "j")
    code, report = run_json(capsys, "theta", "--m", "1", "x1*" + "7" * MAX_DIGITS)
    assert (code, report["result"]) == (0, "7" * MAX_DIGITS)
    code, report = run_json(capsys, "theta", "--m", "1", "x1*" + "7" * MAX_DIGITS + "0")
    assert (code, report["error"]["type"]) == (2, "syntax")
