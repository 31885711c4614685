"""The benchmark's tracer counts slice products on the one exact class and
every base evaluation of a lifted field, and puts every method it patches
back.  ``perfbench/tracing.py`` is loaded from
its file and not changed."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from qwirt.expr import parse_slice
from qwirt.slicefn import SliceFunction, StemPolynomial

PATCHED = ("__mul__", "__pow__", "evaluate")


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _traced(run):
    tracer = _tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.counts


@pytest.fixture
def pair():
    return (parse_slice("x1*~x2+x2^2*(1/2i)+x1"),
            parse_slice("x1*(j)+~x2+1/3", 2))


def test_one_product_counts_once(pair):
    f, g = pair
    counts = _traced(lambda: f * g)
    assert counts["slicefn.mul.calls"] == 1
    assert counts["slicefn.stem_mul.terms_out"] == len((f * g).terms)


def test_a_cube_counts_the_power_alone(pair):
    # the power squares and multiplies through __mul__: the tracer sees the
    # power and its two products, f * f and f * f^2
    f, _ = pair
    counts = _traced(lambda: f ** 3)
    assert counts["slicefn.mul.calls"] == 3
    assert counts["slicefn.stem_mul.terms_out"] == \
        len((f * f).terms) + len((f ** 3).terms)


def test_uninstall_restores_the_patched_methods(pair):
    # StemPolynomial names the same class, so __mul__ is patched twice
    assert StemPolynomial is SliceFunction
    originals = {attr: SliceFunction.__dict__[attr] for attr in PATCHED}
    f, g = pair
    _traced(lambda: f * g)
    assert {attr: SliceFunction.__dict__[attr] for attr in PATCHED} == originals


def test_the_tracer_sees_every_base_evaluation():
    # the tracer rebinds names on the qwirt modules, not the ones imported
    # here, so the functions are looked up on the package after install
    import qwirt

    tracer = _tracer()
    tracer.install()
    try:
        f = qwirt.parse_slice("x1*~x2")
        p = (qwirt.parse_quaternion("1/2+i-1/3j"),
             qwirt.parse_quaternion("-1/4+1/2j+k"))
        tracer.begin_job(1)
        qwirt.wirtinger_conj_derivative_numeric(qwirt.lift(f), 2, p)
        tracer.end_job()
    finally:
        tracer.uninstall()
    # the index-2 operator reaches 48 stencil points, each evaluated once
    assert tracer.counts["numeric.base_eval.calls"] == 48
    assert tracer.counts["numeric.base_eval.distinct"] == 48


def test_a_product_by_a_coordinate_counts_once(pair):
    # the key shift runs inside __mul__, where the tracer counts it
    f, _ = pair
    x2 = parse_slice("x2", 2)
    counts = _traced(lambda: x2 * f)
    assert counts["slicefn.mul.calls"] == 1
    assert counts["slicefn.stem_mul.terms_out"] == len((x2 * f).terms)


def test_a_traced_cli_run_prints_what_an_untraced_one_prints():
    # the tracer rebinds qwirt.cli.main, so main is looked up on the module
    import qwirt.cli

    argv = ["almansi", "--flavor", "sp", "--level", "3", "--n", "3",
            "x1*~x1*x2+~x1^2*x3*(1/2j)+x2*~x2*~x3*(1/3k)"]
    originals = {attr: SliceFunction.__dict__[attr] for attr in PATCHED}
    main = qwirt.cli.main
    untraced = io.StringIO()
    with contextlib.redirect_stdout(untraced):
        assert main(argv) == 0
    traced = io.StringIO()
    with contextlib.redirect_stdout(traced):
        counts = _traced(lambda: qwirt.cli.main(argv))
    assert traced.getvalue() == untraced.getvalue()
    assert counts["cli.main.calls"] == 1
    # 9 calls lowering the expression (the power ~x1^2 and its square
    # count apiece), 7 products in the level-3 recursion and 7 in the Horner
    # reconstruction
    assert counts["slicefn.mul.calls"] == 23
    assert qwirt.cli.main is main
    assert {attr: SliceFunction.__dict__[attr] for attr in PATCHED} == originals
