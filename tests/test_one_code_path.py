"""Each concept has one home: the degree cap is checked before any product
is formed, unvalidated ring operations keep the stem invariants, the Dirac
recursion runs once per sample point, the CLI accepts only the flags a
command reads and the numeric module defines no function that only tests
reach."""

import ast
import os
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
import qwirt
from qwirt import slicefn
from qwirt.cli import main
from qwirt.expr import parse_slice
from qwirt.numeric import lift
from qwirt.slicefn import (SliceFunction, StemPolynomial, constant, variable,
                           conj_variable)
from qwirt.wirtinger import check_strong_sliceness


def _degrees(f):
    n = f.n
    return [max((key[m] + key[n + m] for key in f.terms), default=0)
            for m in range(n)]


def _revalidate(f):
    """Rebuild f's stem through the validating constructor."""
    return StemPolynomial(f.n, {key: q for key, _, q in f.coefficients()})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 3))
def test_unvalidated_results_pass_validation(seed, n):
    rng = random.Random(seed)
    f = helpers.random_slice_polynomial(rng, n)
    g = helpers.random_slice_polynomial(rng, n)
    results = [f + g, f * g, f.conjugate()]
    for m in range(1, n + 1):
        results += [f.spherical_value(m), f.spherical_derivative(m),
                    f.slice_partial(m), f.slice_partial_conj(m)]
    for h in results:
        assert _revalidate(h) == h
    assume(not f.is_zero() and not g.is_zero())
    assert _degrees(f * g) == [a + b for a, b in zip(_degrees(f), _degrees(g))]


class _CountStemProducts:
    """Count the calls of ``slicefn._stem_product``, the pair loop, where
    ``*`` and ``**`` form every product whose factors are not a coordinate:
    a product by +-x_m or +-conj(x_m) shifts keys in ``slicefn._shifted``
    instead."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = slicefn._stem_product

        def counted(a, b):
            self.calls += 1
            return inner(a, b)

        monkeypatch.setattr(slicefn, "_stem_product", counted)


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (5, 3)])
def test_a_power_is_a_chain_of_slice_products(monkeypatch, k, products):
    # f^5 squares f, squares f^2 and multiplies f by f^4, each through *;
    # every stem product is formed inside a slice product
    f = parse_slice("x1*~x2+x2^2*(1/2i)+x1", 2)
    expected = reduce(SliceFunction.__mul__, [f] * k, constant(2, 1))
    stem_products = _CountStemProducts(monkeypatch)
    calls = []
    inner = SliceFunction.__mul__
    monkeypatch.setattr(SliceFunction, "__mul__",
                        lambda a, b: calls.append(1) or inner(a, b))
    assert f ** k == expected
    assert len(calls) == products
    assert stem_products.calls == products


def test_power_over_the_cap_is_refused_before_any_product(monkeypatch):
    x = variable(1, 1)
    counter = _CountStemProducts(monkeypatch)
    with pytest.raises(ValueError, match="degree cap 32 exceeded in variable 1"):
        x ** 40
    assert counter.calls == 0


def test_product_over_the_cap_is_refused_before_any_product(monkeypatch):
    x = variable(1, 1)
    a, b = x ** 20, x ** 13
    counter = _CountStemProducts(monkeypatch)
    with pytest.raises(ValueError, match="degree cap 32 exceeded in variable 1"):
        a * b
    assert counter.calls == 0


def test_degree_cap_error_names_the_lowest_variable():
    # the first term overflows variable 2, the second variable 1
    one = [{"mask": 0, "quaternion": ["1", "0", "0", "0"]}]
    terms = [{"alpha_exps": [0, 33], "beta_exps": [0, 0], "components": one},
             {"alpha_exps": [34, 0], "beta_exps": [0, 0], "components": one}]
    with pytest.raises(ValueError, match="exceeded in variable 1"):
        SliceFunction.from_json({"n": 2, "terms": terms})


@pytest.mark.parametrize("n, distinct", [(2, 360), (3, 2988)])
def test_strong_sliceness_runs_one_recursion_per_point(n, distinct):
    f = variable(n, 1) ** 2 * variable(n, 2) + conj_variable(n, 1) * variable(n, n) ** 2
    field = lift(f)
    points = []
    inner = field.func

    def counted(point):
        points.append(tuple((q.w, q.x, q.y, q.z) for q in point))
        return inner(point)

    field.func = counted
    check_strong_sliceness(field, samples=1, seed=3)
    # every level extends the one before: a recursion per level would read
    # the base points of the lower levels again.  The caller's field has no
    # memo, and the few points read twice are float coincidences of nested
    # displacements, such as (v + H) - h rounding to the bits of v + h
    assert len(set(points)) == distinct
    assert len(points) == {2: 366, 3: 3030}[n]


@pytest.mark.parametrize("argv", [
    ["eval", "x1", "--at", "i", "--samples", "3"],
    ["eval", "x1", "--at", "i", "--seed", "3"],
    ["eval", "x1", "--at", "i", "--tol", "1"],
    ["eval", "x1", "--at", "i", "--fd-step", "0.1"],
    ["eval", "x1", "--at", "i", "--fd-delta", "0.1"],
    ["spherical", "x1", "--var", "1", "--kind", "value", "--samples", "3"],
    ["spherical", "x1", "--var", "1", "--kind", "value", "--fd-step", "0.1"],
    ["theta", "x1", "--m", "1", "--seed", "3"],
    ["thetabar", "x1", "--m", "1", "--numeric", "--at", "i", "--tol", "1"],
    ["thetabar", "x1", "--m", "1", "--samples", "3"],
])
def test_cli_refuses_flags_the_command_never_reads(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# The tests' reference for the sibling product that the numeric families
# form inside their stencil pass.
_TEST_REFERENCES = ["multiply_by_variable"]


def _names_read(statements):
    """The names, attributes and imported names the statements mention."""
    names = set()
    for node in (n for stmt in statements for n in ast.walk(stmt)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_numeric_function_is_reached_from_the_library():
    # the builders that only tests reached were a second way to build a
    # derivative field; a function of qwirt.numeric is named by other code
    # of the library or exported by qwirt
    src = os.path.dirname(qwirt.__file__)
    modules = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                modules[name] = ast.parse(fh.read()).body
    numeric = modules.pop("numeric.py")
    elsewhere = _names_read(stmt for body in modules.values() for stmt in body)
    unreached = [
        stmt.name for stmt in numeric
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name not in elsewhere | _names_read(
            other for other in numeric if other is not stmt)
        and not hasattr(qwirt, stmt.name)]
    assert unreached == _TEST_REFERENCES
