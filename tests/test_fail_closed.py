"""Numeric verdicts fail closed: a non-finite residual or an empty sample set
never yields a passing verdict, and the finite-difference flags reach every
numeric suite the command line runs."""

import json
import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qwirt.almansi import check_reconstruction, check_zonal, dirac_components
from qwirt.cli import main
from qwirt.numeric import NumericField, lift, running_worst
from qwirt.quaternion import Quaternion
from qwirt.sampling import random_slice_point
from qwirt.slicefn import variable
from qwirt.wirtinger import (check_independence, check_regularity_numeric,
                             check_strong_sliceness, crosscheck)

NON_FINITE = (math.nan, math.inf, -math.inf)


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# -- non-finite residuals ---------------------------------------------------------


def test_check_regular_nan_step_is_not_regular(capsys):
    code, report = run_json(capsys, "check-regular", "--numeric", "--fd-step",
                            "nan", "--n", "2", "~x1")
    assert code == 1
    assert report["verdict"] == "not-regular"
    assert report["failures"] == ["thetabar_1", "thetabar_2"]


def test_check_slice_nan_step_fails(capsys):
    code, report = run_json(capsys, "check-slice", "--fd-step", "nan",
                            "--samples", "1", "--n", "2", "x1*x2")
    assert code == 1
    assert report["verdict"] is False


def test_almansi_nan_step_fails(capsys):
    code, report = run_json(capsys, "almansi", "--flavor", "gamma", "--level",
                            "1", "--fd-step", "nan", "--samples", "2", "x1*x2")
    assert code == 1
    assert math.isnan(report["reconstruction_residuals"]["max_residual"])


def test_crosscheck_honours_fd_step(capsys):
    code, report = run_json(capsys, "crosscheck", "--fd-step", "nan",
                            "--samples", "2", "x1*x2")
    assert code == 1
    assert report["verdict"] is False


def test_crosscheck_honours_fd_delta(capsys):
    # every sampled |Im(x_m)| lies in [0.3, 2], inside a band of 5
    code, report = run_json(capsys, "crosscheck", "--fd-delta", "5",
                            "--samples", "2", "x1*x2")
    assert code == 2
    assert report["error"]["type"] == "near-real-axis"


def test_crosscheck_honours_step_and_band():
    f = variable(2, 1) * variable(2, 2)
    assert not crosscheck(f, 1, samples=2, step=math.nan)["verdict"]
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


def test_regularity_check_refuses_no_operators():
    # a field of no variables would leave the kernel test no operator to
    # check, so it is refused when it is built, before any evaluation
    calls = []
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one variable"):
            NumericField(lambda p: calls.append(p) or Quaternion(1.0), n)
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
