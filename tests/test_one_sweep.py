"""Every numeric suite is one library function over one sweep: the sweep
folds residuals per key, the almansi suite the CLI prints is the library's
``check_reconstruction``, and a CLI run without sampling flags uses the
library's defaults."""

import inspect
import json
import math
import pathlib

import pytest

import qwirt
from qwirt import cli
from qwirt.almansi import check_reconstruction
from qwirt.cli import main
from qwirt.expr import parse_slice
from qwirt.numeric import lift, sweep
from qwirt.wirtinger import (check_regularity_numeric, check_strong_sliceness,
                             crosscheck, default_tolerance)


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def test_sweep_keeps_the_worst_per_key_in_first_seen_order():
    table = {1: [("b", 0.5), ("a", 2.0)], 2: [("a", 1.0), ("c", 0.25)],
             3: [("b", 3.0), ("a", math.nan), ("c", 0.0)]}
    seen = []

    def residuals(point):
        seen.append(point)
        return iter(table[point])

    worst = sweep(iter([1, 2, 3]), residuals)
    assert seen == [1, 2, 3]
    assert list(worst) == ["b", "a", "c"]
    assert worst["b"] == 3.0 and worst["c"] == 0.25
    assert math.isnan(worst["a"])  # NaN beats every number
    assert sweep([], residuals) == {}


@pytest.mark.parametrize("flag, flavor", [("a", "fueter"), ("gamma", "dirac")])
def test_almansi_cli_prints_library_reconstruction(capsys, flag, flavor):
    # ~x2 makes the input not slice-regular, so the fueter family fails to
    # reconstruct it while the dirac family succeeds: both exit codes occur
    expr = "x1*~x2+x2^2*(1/2i)"
    code, report = run_json(capsys, "almansi", "--flavor", flag, "--level", "2",
                            expr, "--samples", "3", "--seed", "4")
    result = check_reconstruction(lift(parse_slice(expr)), flavor, 2,
                                  samples=3, seed=4)
    assert report["reconstruction_residuals"] == {
        key: result[key] for key in ("max_residual", "tolerance", "samples", "seed")}
    assert report["entries"] == {"0": "numeric", "1": "numeric",
                                 "2": "numeric", "3": "numeric"}
    assert code == (0 if result["verdict"] else 1)
    assert result["verdict"] is (flavor == "dirac")


def test_reconstruction_refuses_other_flavors():
    field = lift(parse_slice("x1"))
    calls = []
    field.func = lambda p: calls.append(p) or pytest.fail("evaluated")
    for flavor in ("spherical", "a", None):
        with pytest.raises(ValueError, match="flavor"):
            check_reconstruction(field, flavor, 1)
    assert not calls


def test_cli_runs_use_the_library_defaults(capsys, monkeypatch):
    monkeypatch.delenv("QWIRT_SEED", raising=False)
    _, report = run_json(capsys, "check-regular", "--numeric", "x1*x2")
    assert report["samples"] == _default(check_regularity_numeric, "samples") == 10
    assert report["tolerances"] == {"thetabar_1": default_tolerance(1),
                                    "thetabar_2": default_tolerance(2)}
    assert report["seed"] == _default(check_regularity_numeric, "seed")

    _, report = run_json(capsys, "check-slice", "x1*x2")
    assert report["samples"] == _default(check_strong_sliceness, "samples")
    assert report["tolerance"] == _default(check_strong_sliceness, "tol")

    _, report = run_json(capsys, "crosscheck", "--m", "1", "x1*x2")
    (record,) = report["records"]
    assert record["samples"] == _default(crosscheck, "samples")
    assert record["tolerance"] == default_tolerance(1)

    _, report = run_json(capsys, "almansi", "--flavor", "gamma", "--level", "1",
                         "x1*x2")
    residuals = report["reconstruction_residuals"]
    assert residuals["samples"] == _default(check_reconstruction, "samples")
    assert residuals["tolerance"] == _default(check_reconstruction, "tol")
    assert residuals["seed"] == _default(check_reconstruction, "seed")


def test_cli_holds_no_suite_loop():
    for name in ("_sample_points", "running_worst", "reconstruct",
                 "fueter_components", "dirac_components", "_SUITE_DEFAULTS"):
        assert not hasattr(cli, name), name
    assert qwirt.check_reconstruction is check_reconstruction


def test_only_the_stem_modules_read_element_components():
    # Quaternion.components() is a method; an element's .components is not
    src = pathlib.Path(qwirt.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py") if ".components"
                     in path.read_text().replace(".components()", ""))
    assert readers == ["slicefn.py", "stem.py"]


def test_coefficients_yield_each_term_on_its_parity_mask():
    f = parse_slice("x1*~x2+x2^3*(1/2i)+x1^2")
    listed = list(f.stem.coefficients())
    assert len(listed) == len(f.stem.terms)
    n = f.n
    for key, mask, coeff in listed:
        parity = sum(1 << m for m in range(n) if key[n + m] % 2)
        assert mask == parity
        assert f.stem.terms[key].components == {mask: coeff}
