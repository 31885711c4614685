import copy
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from qwirt import slicefn
from qwirt.expr import parse_slice
from qwirt.numeric import lift
from qwirt.quaternion import Quaternion, ONE, I, J, K
from qwirt.stem import StemElement, basis_product, bit
from qwirt.slicefn import (SliceFunction, StemPolynomial, variable,
                           conj_variable, constant, monomial, format_slice,
                           to_monomials)
from qwirt.sampling import random_slice_point, random_unit


def stem_of(n, entries):
    """Build a slice function from {(aexps, bexps): {mask: quaternion}}
    through its JSON form, which checks each mask against the parity."""
    terms = [{"alpha_exps": list(aexps), "beta_exps": list(bexps),
              "components": [{"mask": mask,
                              "quaternion": [str(c) for c in q.components()]}
                             for mask, q in comps.items()]}
             for (aexps, bexps), comps in entries.items()]
    return SliceFunction.from_json({"n": n, "terms": terms})


# -- references for the lattice loops -------------------------------------------


def reference_product(f, g):
    """The slice product as quaternion arithmetic: one ``Quaternion``
    product per pair of terms, negated by the basis sign and summed in term
    order."""
    n = f.n
    terms = {}
    for k1, h, q1 in f.coefficients():
        for k2, k, q2 in g.coefficients():
            key = tuple(a + b for a, b in zip(k1, k2))
            prod = q1 * q2
            if basis_product(h, k)[0] < 0:
                prod = -prod
            cur = terms.get(key)
            terms[key] = prod if cur is None else cur + prod
    return SliceFunction(n, terms)


def reference_partial(f, m, conj):
    """The slice partial as separate stems: the alpha_m partial, the beta_m
    partial followed by the complex structure of m, their sum (``conj``) or
    difference, halved."""
    n = f.n

    def lowered(pos, factor):
        return SliceFunction(n, {key[:pos] + (key[pos] - 1,) + key[pos + 1:]:
                                 q * factor(key[pos])
                                 for key, _, q in f.coefficients() if key[pos]})

    da = lowered(m - 1, lambda a: a)
    jdb = lowered(n + m - 1, lambda b: -b if b % 2 else b)
    combined = da + jdb if conj else da - jdb
    return SliceFunction(n, {key: q * Fraction(1, 2)
                             for key, _, q in combined.coefficients()})


def reference_expansion(a, b):
    """alpha^a * beta^b * e^(b mod 2) over z^l conj(z)^h, with Fraction
    coefficients."""
    out = {}
    base = Fraction((-1) ** (b // 2), 2 ** (a + b))
    for s in range(a + 1):
        for t in range(b + 1):
            lh = (s + t, a + b - s - t)
            c = base * math.comb(a, s) * math.comb(b, t) * (-1) ** (b - t)
            out[lh] = out.get(lh, Fraction(0)) + c
    return [(lh, c) for lh, c in out.items() if c]


def reference_monomials(f):
    """``to_monomials`` by the tensor product of the per-variable
    expansions of every term."""
    n = f.n
    out = {}
    for key, _, coeff in f.coefficients():
        expansions = [reference_expansion(key[m], key[n + m]) for m in range(n)]
        for combo in itertools.product(*expansions):
            scalar = Fraction(1)
            for _, c in combo:
                scalar *= c
            lh = (tuple(p[0][0] for p in combo), tuple(p[0][1] for p in combo))
            add = coeff * scalar
            cur = out.get(lh)
            out[lh] = add if cur is None else cur + add
    return {lh: q for lh, q in out.items() if not q.is_zero()}


_SMALL_INT = st.integers(-3, 3)
_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
_LARGE = st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(1, 10**12))
# Small ints and few exponents make pairs of terms meet on one key often, so
# sums cancel to zero; the Fraction kinds mix in ints.  Stems are exact, so
# there is no float kind.
COMPONENTS = {"int": _SMALL_INT,
              "mixed": st.one_of(_SMALL_INT, _RATIONAL),
              "large": st.one_of(_SMALL_INT, _LARGE)}


@st.composite
def stems(draw, n, kind):
    comp = COMPONENTS[kind]
    keys = st.tuples(*[st.integers(0, 2)] * (2 * n))
    coeffs = st.builds(Quaternion, comp, comp, comp, comp)
    return SliceFunction(n, draw(st.dictionaries(keys, coeffs, min_size=1,
                                                 max_size=5)))


def component_strings(f):
    return {key: [str(c) for c in q.components()]
            for key, _, q in f.coefficients()}


def stored(f):
    """f's storage: its denominator and its terms in order."""
    return f.den, list(f.terms.items())


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(COMPONENTS)),
       st.sampled_from(sorted(COMPONENTS)))
def test_product_matches_quaternion_arithmetic(data, n, kind_f, kind_g):
    f = data.draw(stems(n, kind_f))
    g = data.draw(stems(n, kind_g))
    got, want = f * g, reference_product(f, g)
    # the same terms in the same order, which the float kernel sums in
    assert stored(got) == stored(want)
    assert component_strings(got) == component_strings(want)
    if kind_f == kind_g == "int":
        assert got.den == 1


def square_and_multiply_chain(f):
    """f^0 .. f^6 as the ``*`` products that square and multiply forms from
    the lowest bit of the exponent."""
    square = f * f
    fourth = square * square
    return [constant(f.n, ONE), f, square, f * square, fourth, f * fourth,
            square * fourth]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(COMPONENTS)))
def test_powers_match_the_chain_of_products(data, n, kind):
    # the same terms in the same order, which the float kernel sums in, over
    # the same denominator
    f = data.draw(stems(n, kind))
    for k, want in enumerate(square_and_multiply_chain(f)):
        assert stored(f ** k) == stored(want)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(COMPONENTS)))
def test_a_square_matches_the_product_of_two_copies(data, n, kind):
    # f * f forms each unordered pair of terms once, f * copy(f) every
    # ordered pair: the same denominator, the same terms in the same order
    # and the same float kernel bits
    f = data.draw(stems(n, kind))
    square, product = f * f, f * copy.copy(f)
    assert stored(square) == stored(product)
    point = data.draw(st.tuples(*[st.floats(-2, 2)] * (4 * n)))
    assert [v.hex() for v in lift(square).flat(point)] \
        == [v.hex() for v in lift(product).flat(point)]


def test_only_a_stem_times_itself_is_squared(monkeypatch):
    f = parse_slice("~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i)", 3)
    sizes = [len(f.terms), len((f * f).terms)]
    squares = []
    inner = slicefn._stem_square
    monkeypatch.setattr(slicefn, "_stem_square",
                        lambda rows: squares.append(len(rows)) or inner(rows))
    f * copy.copy(f)
    assert squares == []
    f ** 4
    assert squares == sizes


def pair_loop(f, g):
    """f * g through the general pair loop: ``_stem_product`` on the packed
    rows, without the sums that cancel, then ``_lowest``."""
    size = 2 * f.n
    sums = slicefn._stem_product(slicefn._packed(f), slicefn._packed(g))
    return slicefn._lowest(f.n, f.den * g.den, {
        tuple(key.to_bytes(size, "little")): tuple(comps)
        for key, comps in sums.items() if any(comps)})


COORDINATES = {"x": variable, "conj": conj_variable,
               "-x": lambda n, m: -variable(n, m),
               "-conj": lambda n, m: -conj_variable(n, m)}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(COMPONENTS)),
       st.sampled_from(sorted(COORDINATES)), st.booleans(), st.booleans())
def test_a_product_by_a_coordinate_is_the_pair_loop(data, n, kind, coordinate,
                                                     on_left, beta_first):
    # the key shift gives the pair loop's denominator, terms and order, so
    # the float kernel sums the same terms in the same order; the factor's
    # terms come alpha first from variable() and beta first from JSON
    g = data.draw(stems(n, kind))
    c = COORDINATES[coordinate](n, data.draw(st.integers(1, n)))
    if beta_first:
        c = slicefn._stem(n, 1, dict(reversed(c.terms.items())))
    assert slicefn._coordinate_factor(c) is not None
    f, h = (c, g) if on_left else (g, c)
    got, want = f * h, pair_loop(f, h)
    assert stored(got) == stored(want)
    point = data.draw(st.tuples(*[st.floats(-2, 2)] * (4 * n)))
    assert [v.hex() for v in lift(got).flat(point)] \
        == [v.hex() for v in lift(want).flat(point)]


@pytest.mark.parametrize("text, shifted", [
    ("x2", True), ("~x1*(-1)", True), ("x1+x2", False), ("x1*(2)", False),
    ("x1*(i)", False), ("x1*(1/2)", False), ("x1+1", False), ("x1^2", False),
    ("x1*~x1", False), ("(x1+~x1)*(1/2)+(x2-~x2)*(1/2)", False)])
def test_only_a_coordinate_factor_is_shifted(text, shifted):
    # real numerators +-1 over the denominator 1, on the unit alpha_m and
    # beta_m keys of one m, or the pair loop (the last is alpha_1 + beta_2)
    assert (slicefn._coordinate_factor(parse_slice(text, 2)) is not None) \
        == shifted


def test_shifted_terms_that_cancel_are_dropped():
    # ~x1 * (x1 * ~x2): the alpha_1 shift of beta_1 * ... meets the beta_1
    # shift of alpha_1 * ... with the opposite sign
    n = 2
    g = variable(n, 1) * conj_variable(n, 2) * constant(n, Fraction(1, 2))
    got = conj_variable(n, 1) * g
    assert stored(got) == stored(pair_loop(conj_variable(n, 1), g))
    assert len(got.terms) < 2 * len(g.terms)
    assert got == g * conj_variable(n, 1)


@pytest.mark.parametrize("on_left", [True, False])
@pytest.mark.parametrize("cap", ["terms", "degree"])
def test_a_coordinate_product_over_a_cap_is_refused_before_any_term(
        monkeypatch, on_left, cap):
    g = parse_slice("~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i)", 3)
    c = conj_variable(3, 2)
    if cap == "terms":
        monkeypatch.setattr(slicefn, "MAX_STEM_TERMS", 2 * len(g.terms) - 1)
        match = "stem term cap"
    else:
        g = g * variable(3, 2) ** 31
        match = "degree cap 32 exceeded in variable 2"
    formed = []
    for name in ("_shifted", "_stem_product"):
        inner = getattr(slicefn, name)
        monkeypatch.setattr(slicefn, name, lambda *args, inner=inner:
                            formed.append(1) or inner(*args))
    with pytest.raises(ValueError, match=match):
        c * g if on_left else g * c
    assert formed == []


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(COMPONENTS)))
def test_the_spherical_derivative_keeps_the_merged_storage(data, n, kind):
    # lowering an odd beta_m is one-to-one: the dict built in place has the
    # storage and order of summing the lowered terms
    f = data.draw(stems(n, kind))
    for m in range(1, n + 1):
        bpos = n + m - 1
        merged = slicefn._summed(n, f.den, [
            (slicefn._lowered(key, bpos), comps)
            for key, comps in f.terms.items() if key[bpos] % 2])
        assert stored(f.spherical_derivative(m)) == stored(merged)


def test_the_sign_table_is_the_basis_product_sign():
    for n in range(1, 5):
        masks = range(1 << n)
        rows = [(0, m2, (1, 0, 0, 0)) for m2 in masks]
        assert slicefn._negations(masks, rows) == {
            m1: [basis_product(m1, m2)[0] < 0 for m2 in masks] for m1 in masks}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(COMPONENTS)))
def test_partials_match_the_separate_stem_pipeline(data, n, kind):
    # the same terms in the same order, which the float kernel sums in, over
    # the same denominator
    f = data.draw(stems(n, kind))
    for m in range(1, n + 1):
        for got, conj in ((f.slice_partial(m), False),
                          (f.slice_partial_conj(m), True)):
            assert stored(got) == stored(reference_partial(f, m, conj))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_the_conjugate_partials_of_a_regular_stem_cancel(n, seed):
    # every sum of thetabar_m cancels, and no all-zero sum is kept
    f = helpers.random_regular_polynomial(random.Random(seed), n)
    for m in range(1, n + 1):
        got = f.slice_partial_conj(m)
        assert stored(got) == stored(reference_partial(f, m, True)) == (1, [])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(COMPONENTS)))
def test_to_monomials_matches_the_tensor_expansion(data, n, kind):
    f = data.draw(stems(n, kind))
    got, want = to_monomials(f), reference_monomials(f)
    assert got == want
    assert {lh: [str(c) for c in q.components()] for lh, q in got.items()} \
        == {lh: [str(c) for c in q.components()] for lh, q in want.items()}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 4), st.sampled_from(sorted(COMPONENTS)))
def test_to_monomials_skips_a_middle_pass_that_cancels(data, n, kind):
    # alpha_m^2 and beta_m^2 expand to z^2 + 2 z~z + ~z^2 and
    # -(z^2 - 2 z~z + ~z^2), over 4: on h * x_m * ~x_m the z_m^2 and
    # ~z_m^2 sums of pass m cancel, and the next pass meets them as zeros
    h = data.draw(stems(n, kind))
    m = data.draw(st.integers(1, n - 1))
    f = h * variable(n, m) * conj_variable(n, m)
    assert to_monomials(f) == reference_monomials(f)


def summed_reference(f, g):
    """f + g as ``_summed`` of both operands' terms, each scaled to the lcm
    of the denominators, in storage order."""
    den = math.lcm(f.den, g.den)
    return slicefn._summed(f.n, den, [
        (key, tuple([v * (den // h.den) for v in comps]))
        for h in (f, g) for key, comps in list(h.terms.items())])


SUMMANDS = {
    "drawn": lambda data, f, kind: data.draw(stems(f.n, kind)),
    # the same denominator and keys: the terms on odd-size subsets cancel
    "conjugate": lambda data, f, kind: f.conjugate(),
    # the same denominator: every term of f cancels, some of g stay
    "negated": lambda data, f, kind: data.draw(stems(f.n, "int")) - f,
    # a scaled denominator: one operand is over the lcm, the other is not
    "scaled": lambda data, f, kind: f * constant(
        f.n, Fraction(1, data.draw(st.integers(2, 6)))),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(COMPONENTS)),
       st.sampled_from(sorted(SUMMANDS)))
def test_a_sum_keeps_the_summed_storage(data, n, kind, summand):
    # the same denominator, terms and order as summing the scaled rows,
    # whichever operand is over the lcm already
    f = data.draw(stems(n, kind))
    g = SUMMANDS[summand](data, f, kind)
    for left, right in ((f, g), (g, f)):
        assert stored(left + right) == stored(summed_reference(left, right))
        assert stored(left - right) == stored(summed_reference(left, -right))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.sampled_from(sorted(COMPONENTS)))
def test_degrees_are_the_largest_exponent_sums(data, n, kind):
    f = data.draw(stems(n, kind))
    for h in (f, f - f, SliceFunction.zero(n)):
        want = tuple(max((key[m] + key[n + m] for key in h.terms), default=0)
                     for m in range(n))
        # a fresh stem, whose degrees are not yet known
        assert slicefn._stem(n, h.den, h.terms).degrees() == want
        assert h.degrees() == want


def test_cancelling_terms_vanish():
    # x1 * ~x1 = alpha^2 + beta^2: the alpha*beta pairs cancel in the
    # product, and the x1^2 and ~x1^2 parts cancel in the monomials
    f = variable(1, 1) * conj_variable(1, 1)
    assert f == reference_product(variable(1, 1), conj_variable(1, 1))
    assert stored(f) == (1, [((2, 0), (1, 0, 0, 0)), ((0, 2), (1, 0, 0, 0))])
    assert to_monomials(f) == {((1,), (1,)): Quaternion(Fraction(1))}
    # the same over the denominator 6, which reduces to 3
    a = variable(1, 1) * constant(1, Quaternion(Fraction(1, 2)))
    b = conj_variable(1, 1) * constant(1, Quaternion(Fraction(-2, 3)))
    assert stored(a * b) == (3, [((2, 0), (-1, 0, 0, 0)),
                                 ((0, 2), (-1, 0, 0, 0))])


def lowest_terms(f):
    return math.gcd(f.den, *[v for comps in f.terms.values() for v in comps]) == 1


_NONZERO_RATIONAL = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1),
                              st.integers(1, 9))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3), st.sampled_from(sorted(COMPONENTS)),
       _NONZERO_RATIONAL)
def test_equal_stems_have_equal_storage_and_hashes(data, n, kind, r):
    # the storage is canonical: one denominator and int numerators in lowest
    # terms, so stems equal as functions are equal as stored and hash alike
    f = data.draw(stems(n, kind))
    g = data.draw(stems(n, kind))
    scaled = f * constant(n, r) * constant(n, 1 / r)
    for same in (scaled, (f + g) - g, f.conjugate().conjugate(),
                 SliceFunction(n, {key: q for key, _, q in f.coefficients()})):
        assert same == f
        assert (same.den, same.terms) == (f.den, f.terms)
        assert hash(same) == hash(f)
    x1 = variable(n, 1)
    assert x1 * constant(n, Fraction(2, 3)) * constant(n, Fraction(3, 2)) == x1
    results = [f, f + g, f - g, -f, f * g, f ** 2, f ** 3, f.conjugate()]
    for m in range(1, n + 1):
        results += [f.slice_partial(m), f.slice_partial_conj(m),
                    f.spherical_value(m), f.spherical_derivative(m)]
    for h in results:
        assert h.den > 0 and lowest_terms(h)
        assert all(type(v) is int for comps in h.terms.values() for v in comps)
        assert all(any(comps) for comps in h.terms.values())
        if h.is_zero():
            assert h.den == 1


@pytest.mark.parametrize("build", [
    lambda: SliceFunction(1, {(1, 0): Quaternion(1, 0.5)}),
    lambda: StemPolynomial(1, {(0, 0): Quaternion(0.0)}),
    lambda: constant(2, 0.25),
    lambda: constant(2, Quaternion(1, 0, 0, 2.0)),
    lambda: monomial(2, (3, 1), (1, 2), coeff=Quaternion(0.5, 1)),
], ids=["constructor", "float-zero", "constant", "constant-quaternion",
        "monomial"])
def test_a_float_coefficient_is_refused_before_any_work(monkeypatch, build):
    # stems are exact; a float coefficient is a TypeError, raised before any
    # stem product or key shift is formed
    products = []
    for name in ("_shifted", "_stem_product"):
        inner = getattr(slicefn, name)
        monkeypatch.setattr(slicefn, name, lambda *args, inner=inner:
                            products.append(1) or inner(*args))
    with pytest.raises(TypeError, match="must be exact"):
        build()
    assert products == []


def test_the_lattice_loops_build_no_quaternion_products(monkeypatch):
    # a product of two Fraction stems and the monomial conversion run on
    # integer numerators: no Quaternion arithmetic inside either loop
    rng = random.Random(16)
    f = helpers.random_slice_polynomial(rng, 3)
    g = helpers.random_slice_polynomial(rng, 3)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        inner = getattr(Quaternion, name)
        monkeypatch.setattr(Quaternion, name, lambda a, b, inner=inner, name=name:
                            calls.append(name) or inner(a, b))
    product = f * g
    to_monomials(product)
    assert calls == []
    assert len(product.terms) > 1


def test_monomial_generator_stems():
    x1 = variable(1, 1)
    assert x1 == stem_of(1, {((1,), (0,)): {0: ONE}, ((0,), (1,)): {bit(1): ONE}})
    assert conj_variable(1, 1) == stem_of(1, {((1,), (0,)): {0: ONE},
                                              ((0,), (1,)): {bit(1): -ONE}})
    # squared generator, expanded through the coefficient algebra
    assert x1 ** 2 == stem_of(1, {((2,), (0,)): {0: ONE},
                                  ((0,), (2,)): {0: -ONE},
                                  ((1,), (1,)): {bit(1): Quaternion(2)}})


def test_monomial_right_coefficient_order():
    f = monomial(2, (1, 1), coeff=Quaternion(0, 1))
    assert f == variable(2, 1) * variable(2, 2) * constant(2, I)


def test_stem_parity_enforced():
    with pytest.raises(ValueError):
        stem_of(1, {((0,), (1,)): {0: ONE}})  # odd beta exponent off subset
    with pytest.raises(ValueError):
        stem_of(1, {((1,), (0,)): {bit(1): ONE}})  # even exponent on subset
    for mask in (-1, 2):  # no subset of {1}
        with pytest.raises(ValueError):
            stem_of(1, {((0,), (1,)): {mask: ONE}})


def test_from_json_refuses_a_term_with_two_components():
    one = {"mask": 1, "quaternion": ["1", "0", "0", "0"]}
    term = {"alpha_exps": [0], "beta_exps": [1], "components": [one, one]}
    with pytest.raises(ValueError, match="exactly one component"):
        SliceFunction.from_json({"n": 1, "terms": [term]})


_ONE_ON_EMPTY = [{"mask": 0, "quaternion": ["1", "0", "0", "0"]}]
_X1_TERM = {"alpha_exps": [1, 0], "beta_exps": [0, 0], "components": _ONE_ON_EMPTY}


def _doc(n, terms):
    return {"n": n, "terms": terms}


def _quaternion_doc(entry):
    """x1 (n=1) with ``entry`` as its j component."""
    return _doc(1, [{"alpha_exps": [1], "beta_exps": [0], "components": [
        {"mask": 0, "quaternion": ["1", "0", entry, "0"]}]}])


@pytest.mark.parametrize("data, match", [
    # concatenated, these make a key of length 2n, beta_1^1, whose parity
    # mask is 1; the mask 0 listed matches the parity of beta_exps as given
    (_doc(2, [{"alpha_exps": [0, 0, 1], "beta_exps": [0],
               "components": _ONE_ON_EMPTY}]), "expected 2 of each"),
    (_doc(2, [_X1_TERM, dict(_X1_TERM)]), "listed twice"),
    (_doc(1, [{"alpha_exps": [1.5], "beta_exps": [0],
               "components": _ONE_ON_EMPTY}]), "must be ints"),
    # three components were padded with a 0; five raised a bare TypeError
    (_doc(1, [{"alpha_exps": [1], "beta_exps": [0],
               "components": [{"mask": 0, "quaternion": ["1", "2", "3"]}]}]),
     r"stem term \(1, 0\) lists 3 quaternion components, expected 4"),
    (_doc(1, [{"alpha_exps": [1], "beta_exps": [0],
               "components": [{"mask": 0, "quaternion": ["1", "2", "3", "4", "5"]}]}]),
     r"stem term \(1, 0\) lists 5 quaternion components, expected 4"),
    # True was accepted and kept as n; 2.0 and "2" raised a bare TypeError
    (_doc(True, []), r"number of variables must be in 1\.\.\d+"),
    (_doc(2.0, [_X1_TERM]), r"number of variables must be in 1\.\.\d+"),
    (_doc("2", [_X1_TERM]), r"number of variables must be in 1\.\.\d+"),
    # these raised a bare KeyError or TypeError
    ({"n": 2}, r"stem document has no 'terms' field"),
    ({"terms": []}, r"stem document has no 'n' field"),
    (_doc(2, [{"alpha_exps": [1, 0], "beta_exps": [0, 0]}]),
     r"stem term 0 has no 'components' field"),
    (_doc(1, [{"alpha_exps": 1, "beta_exps": [0], "components": _ONE_ON_EMPTY}]),
     r"stem term 0 field 'alpha_exps' must be a list, not int"),
    ([{"n": 1, "terms": []}], r"stem document has no 'n' field"),
    # a bare TypeError from Fraction, CPython's int-string limit and a bare
    # ZeroDivisionError; a float is refused as the constructor refuses it
    (_quaternion_doc(None), r"stem term \(1, 0\) has a quaternion component "
     r"of type NoneType, expected a str or an int"),
    (_quaternion_doc([1]), r"stem term \(1, 0\) has a quaternion component "
     r"of type list"),
    (_quaternion_doc(True), r"stem term \(1, 0\) has a quaternion component "
     r"of type bool"),
    (_quaternion_doc(0.5), r"stem term \(1, 0\) has a quaternion component "
     r"of type float"),
    (_quaternion_doc("1" * 5000), r"stem term \(1, 0\) has a quaternion "
     r"component of 5000 digits, more than the 4300 accepted"),
    (_quaternion_doc("-2/" + "3" * 4301), r"of 4301 digits"),
    (_quaternion_doc("1/0"), r"stem term \(1, 0\) has a quaternion component "
     r"'1/0' with a zero denominator"),
    (_quaternion_doc("-3 / 0_00"), r"'-3 / 0_00' with a zero denominator"),
    # Fraction read these: an exponent (a 330,000-bit numerator), blanks,
    # an underscore and a plus sign; "abc" raised Fraction's own message
    (_quaternion_doc("1e100000"), r"stem term \(1, 0\) has a quaternion "
     r"component '1e100000' that is not an integer, ratio or decimal with an "
     r"optional minus sign"),
    (_quaternion_doc(" 1/2 "), r"stem term \(1, 0\) has a quaternion "
     r"component ' 1/2 ' that is not"),
    (_quaternion_doc("1_000"), r"component '1_000' that is not"),
    (_quaternion_doc("+3"), r"component '\+3' that is not"),
    (_quaternion_doc("abc"), r"stem term \(1, 0\) has a quaternion "
     r"component 'abc' that is not"),
], ids=["wrong-length", "listed-twice", "non-int", "three-components",
        "five-components", "bool-n", "float-n", "str-n", "no-terms", "no-n",
        "no-components", "int-alpha-exps", "top-level-list", "null-entry",
        "list-entry", "bool-entry", "float-entry", "long-numerator",
        "long-denominator", "zero-denominator", "spaced-zero-denominator",
        "exponent-entry", "blank-padded-entry", "underscore-entry",
        "plus-entry", "word-entry"])
def test_from_json_refuses_malformed_terms(data, match):
    with pytest.raises(ValueError, match=match):
        SliceFunction.from_json(data)


def test_stem_terms_are_quaternions():
    with pytest.raises(TypeError, match="must be quaternions"):
        StemPolynomial(1, {(0, 1): StemElement.basis(1, bit(1))})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 3))
def test_flat_product_matches_the_element_algebra(seed, n):
    # the reference: every term lifted to a StemElement on its parity mask,
    # multiplied and summed in the coefficient algebra
    rng = random.Random(seed)
    f = helpers.random_slice_polynomial(rng, n)
    g = helpers.random_slice_polynomial(rng, n)
    want = {}
    for k1, h, q1 in f.coefficients():
        for k2, k, q2 in g.coefficients():
            key = tuple(a + b for a, b in zip(k1, k2))
            prod = StemElement.basis(n, h, q1) * StemElement.basis(n, k, q2)
            want[key] = want[key] + prod if key in want else prod
    want = {key: e.components for key, e in want.items() if not e.is_zero()}
    got = {key: {mask: q} for key, mask, q in (f * g).coefficients()}
    assert got == want


def test_degree_cap():
    with pytest.raises(ValueError):
        variable(1, 1) ** 33


@pytest.mark.parametrize("k", [3, 4])
def test_a_power_is_refused_before_the_product_over_the_term_cap(monkeypatch, k):
    f = parse_slice("~x1*(1/3+2/5i)+x2*~x3*(3/7j+1/2)+x3*(5/9-1/4i)", 3)
    square = f * f
    # the chain squares f under the cap; its next product, f * f^2 for a
    # cube and f^2 * f^2 for a fourth power, is over it
    monkeypatch.setattr(slicefn, "MAX_STEM_TERMS", len(f.terms) ** 2)
    products = []
    inner = slicefn._stem_product
    monkeypatch.setattr(slicefn, "_stem_product",
                        lambda a, b: products.append((len(a), len(b)))
                        or inner(a, b))
    left = len(f.terms) if k == 3 else len(square.terms)
    with pytest.raises(ValueError, match="a product of %d by %d terms"
                       % (left, len(square.terms))):
        f ** k
    assert products == [(len(f.terms), len(f.terms))]


def test_slice_product_examples():
    x1, x2 = variable(2, 1), variable(2, 2)
    assert x2 * x1 == x1 * x2 == monomial(2, (1, 1))
    f = helpers.random_slice_polynomial(random.Random(1), 2)
    assert f * constant(2, ONE) == f
    assert variable(1, 1) * conj_variable(1, 1) == \
        stem_of(1, {((2,), (0,)): {0: ONE}, ((0,), (2,)): {0: ONE}})


def test_slice_product_associative():
    rng = random.Random(2)
    for _ in range(10):
        f = helpers.random_slice_polynomial(rng, 2, max_total_degree=3)
        g = helpers.random_slice_polynomial(rng, 2, max_total_degree=3)
        h = helpers.random_slice_polynomial(rng, 2, max_total_degree=3)
        assert (f * g) * h == f * (g * h)


def test_evaluate_examples():
    f = variable(2, 1) * variable(2, 2)
    assert f.evaluate((I, J)) == Quaternion(0.0, 0.0, 0.0, 1.0)
    v = f.evaluate((Quaternion(1, 1), Quaternion(0, 0, 2)))
    helpers.assert_quat_close(v, Quaternion(0.0, 0.0, 2.0, 2.0), 1e-14)
    sq = variable(1, 1) ** 2
    assert sq.evaluate((Quaternion(3),)) == Quaternion(9.0)


def test_evaluate_real_axis_unit_independent():
    rng = random.Random(3)
    f = helpers.random_slice_polynomial(rng, 2)
    alphas, betas = [0.7, -1.2], [0.0, 0.0]
    u1 = [random_unit(rng), random_unit(rng)]
    u2 = [random_unit(rng), random_unit(rng)]
    assert f.evaluate_parts(alphas, betas, u1) == f.evaluate_parts(alphas, betas, u2)


def test_spherical_value_examples():
    x1 = variable(2, 1)
    re1 = stem_of(2, {((1, 0), (0, 0)): {0: ONE}})
    assert x1.spherical_value(1) == re1
    assert conj_variable(2, 1).spherical_value(1) == re1
    f = variable(2, 1) * variable(2, 2)
    assert f.spherical_value(2) == variable(2, 1) * re1_of_var(2)


def re1_of_var(m):
    # Re(x_m) inside n=2
    key_a = [0, 0]
    key_a[m - 1] = 1
    return stem_of(2, {(tuple(key_a), (0, 0)): {0: ONE}})


def test_spherical_derivative_examples():
    x1 = variable(1, 1)
    assert x1.spherical_derivative(1) == constant(1, ONE)
    two_re = stem_of(1, {((1,), (0,)): {0: Quaternion(2)}})
    assert (x1 ** 2).spherical_derivative(1) == two_re
    assert variable(2, 2).spherical_derivative(1).is_zero()


def _reduced_in(rng, n, m):
    """A polynomial that is a slice function w.r.t. x_m: a part in the
    variables below m plus a part in the variables from m up."""
    lower = SliceFunction.zero(n)
    if m > 1:
        for _ in range(rng.randint(0, 2)):
            powers = [0] * n
            conj_powers = [0] * n
            for _ in range(rng.randint(1, 3)):
                powers[rng.randrange(m - 1)] += 1
            lower = lower + monomial(n, powers, conj_powers,
                                     helpers.nonzero_rational_quaternion(rng))
    upper = SliceFunction.zero(n)
    for _ in range(rng.randint(1, 2)):
        powers = [0] * n
        conj_powers = [0] * n
        for _ in range(rng.randint(0, 3)):
            powers[rng.randrange(m - 1, n)] += 1
        for _ in range(rng.randint(0, 1)):
            conj_powers[rng.randrange(m - 1, n)] += 1
        upper = upper + monomial(n, powers, conj_powers,
                                 helpers.nonzero_rational_quaternion(rng))
    f = lower + upper
    assert f.is_slice_with_respect_to(m)
    return f


def test_spherical_value_matches_averaging_oracle():
    # the even part under conjugation of x_m, valid for every slice function
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=4)
        m = rng.randint(1, n)
        p = random_slice_point(rng, n)
        conj_p = p[:m - 1] + (p[m - 1].conjugate(),) + p[m:]
        value = (f.evaluate(p) + f.evaluate(conj_p)) * 0.5
        helpers.assert_quat_close(f.spherical_value(m).evaluate(p), value, 1e-10)


def test_spherical_derivative_matches_averaging_oracle():
    # the one-variable averaging formula applies on functions that are slice
    # w.r.t. x_m; every slice function qualifies for m = 1
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice((1, 2, 3))
        m = rng.randint(1, n)
        f = _reduced_in(rng, n, m)
        p = random_slice_point(rng, n)
        conj_p = p[:m - 1] + (p[m - 1].conjugate(),) + p[m:]
        deriv = p[m - 1].im().to_float().inverse() * \
            ((f.evaluate(p) - f.evaluate(conj_p)) * 0.5)
        helpers.assert_quat_close(f.spherical_derivative(m).evaluate(p), deriv, 1e-10)


def test_averaging_oracle_needs_per_variable_sliceness():
    # x1*x2 is not slice w.r.t. x2 (its {1,2} component mixes in variable 1),
    # and the averaging formula indeed disagrees with the stem derivative
    f = variable(2, 1) * variable(2, 2)
    assert not f.is_slice_with_respect_to(2)
    p = (I, J)
    conj_p = (p[0], p[1].conjugate())
    deriv = p[1].im().to_float().inverse() * \
        ((f.evaluate(p) - f.evaluate(conj_p)) * 0.5)
    assert abs(deriv - f.spherical_derivative(2).evaluate(p)) > 1.0


def test_reconstruction_from_spherical_parts():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice((1, 2, 3))
        m = rng.randint(1, n)
        f = _reduced_in(rng, n, m)
        p = random_slice_point(rng, n)
        recon = f.spherical_value(m).evaluate(p) + \
            p[m - 1].im().to_float() * f.spherical_derivative(m).evaluate(p)
        helpers.assert_quat_close(recon, f.evaluate(p), 1e-10)


def test_reconstruction_in_first_variable_any_slice_function():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n)
        p = random_slice_point(rng, n)
        recon = f.spherical_value(1).evaluate(p) + \
            p[0].im().to_float() * f.spherical_derivative(1).evaluate(p)
        helpers.assert_quat_close(recon, f.evaluate(p), 1e-10)


def test_spherical_derivative_product_rule():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.choice((1, 2))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        g = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        for m in range(1, n + 1):
            lhs = (f * g).spherical_derivative(m)
            rhs = f.spherical_derivative(m) * g.spherical_value(m) + \
                f.spherical_value(m) * g.spherical_derivative(m)
            assert lhs == rhs


def test_slice_partial_power_rules():
    sq = variable(1, 1) ** 2
    assert sq.slice_partial(1) == variable(1, 1) * constant(1, Quaternion(2))
    assert sq.slice_partial_conj(1).is_zero()
    assert conj_variable(2, 2).slice_partial_conj(2) == constant(2, ONE)
    assert conj_variable(2, 2).slice_partial(2).is_zero()


def test_slice_partials_leibniz():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        g = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        for m in range(1, n + 1):
            assert (f * g).slice_partial(m) == \
                f.slice_partial(m) * g + f * g.slice_partial(m)
            assert (f * g).slice_partial_conj(m) == \
                f.slice_partial_conj(m) * g + f * g.slice_partial_conj(m)


def test_slice_partials_commute():
    rng = random.Random(8)
    for _ in range(10):
        f = helpers.random_slice_polynomial(rng, 3, max_total_degree=4)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert f.slice_partial(a).slice_partial(b) == \
                    f.slice_partial(b).slice_partial(a)
                assert f.slice_partial(a).slice_partial_conj(b) == \
                    f.slice_partial_conj(b).slice_partial(a)
                assert f.slice_partial_conj(a).slice_partial_conj(b) == \
                    f.slice_partial_conj(b).slice_partial_conj(a)


def test_conjugate_examples():
    assert variable(1, 1).conjugate() == conj_variable(1, 1)
    f = variable(2, 1) * variable(2, 2)
    assert f.conjugate() == conj_variable(2, 1) * conj_variable(2, 2)
    c = constant(1, Quaternion(3))
    assert c.conjugate() == c


def test_conjugate_multiplicative():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.choice((1, 2))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        g = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        assert (f * g).conjugate() == f.conjugate() * g.conjugate()
        assert f.conjugate().conjugate() == f


def test_regularity_examples():
    assert (variable(2, 1) ** 2 * variable(2, 2)).is_slice_regular()
    assert not conj_variable(1, 1).is_slice_regular()
    assert constant(2, Quaternion(1, 2, 3, 4)).is_slice_regular()


def test_json_round_trip():
    rng = random.Random(10)
    for _ in range(5):
        f = helpers.random_slice_polynomial(rng, rng.choice((1, 2, 3)))
        blob = json.dumps(f.to_json())
        assert SliceFunction.from_json(json.loads(blob)) == f


def test_monomial_expansion_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice((1, 2))
        f = helpers.random_slice_polynomial(rng, n)
        rebuilt = SliceFunction.zero(n)
        for (powers, conj_powers), coeff in to_monomials(f).items():
            rebuilt = rebuilt + monomial(n, powers, conj_powers, coeff)
        assert rebuilt == f


def test_format_examples():
    assert format_slice(variable(2, 1)) == "x1"
    assert format_slice(SliceFunction.zero(1)) == "0"
    f = monomial(1, (2,), coeff=Quaternion(1, 2)) + conj_variable(1, 1) * constant(1, K)
    text = format_slice(f)
    assert "x1^2*(1+2i)" in text and "~x1*(k)" in text


def test_depends_only_on():
    f = variable(3, 2) * variable(3, 3)
    assert f.depends_only_on(2)
    assert not f.depends_only_on(3)
    assert (variable(3, 1) + f).depends_only_on(1)


def test_slice_product_pointwise_interpretation_one_variable():
    # independent oracle for the product: in one variable the slice product
    # is f(x) g(f(x)^-1 x f(x)) wherever f(x) != 0
    rng = random.Random(14)
    for _ in range(20):
        f = helpers.random_slice_polynomial(rng, 1, max_total_degree=3)
        g = helpers.random_slice_polynomial(rng, 1, max_total_degree=3)
        p = random_slice_point(rng, 1)
        fx = f.evaluate(p)
        if abs(fx) < 1e-6:
            continue
        moved = fx.inverse() * p[0].to_float() * fx
        expected = fx * g.evaluate((moved,))
        helpers.assert_quat_close((f * g).evaluate(p), expected, 1e-8)


def test_component_recovery_from_sign_flipped_evaluations():
    # every stem component is recoverable from the 2^n evaluations obtained
    # by conjugating subsets of coordinates:
    #   F_K = 2^-n J_{k_p}^-1 ... J_{k_1}^-1 sum_H (-1)^{|K & H|} f(x^{c,H})
    rng = random.Random(15)
    for _ in range(5):
        n = rng.choice((1, 2, 3))
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=3)
        p = random_slice_point(rng, n)
        alphas, betas, units = zip(*[q.split_slice() for q in p])
        values = {}
        for flip in range(1 << n):
            flipped = [(-u if flip & (1 << h) else u) for h, u in enumerate(units)]
            values[flip] = f.evaluate_parts(alphas, betas, flipped)
        for mask in range(1 << n):
            total = Quaternion(0.0, 0.0, 0.0, 0.0)
            for flip in range(1 << n):
                sign = -1.0 if (mask & flip).bit_count() % 2 else 1.0
                total = total + values[flip] * sign
            for h in range(n):
                if mask & (1 << h):
                    total = units[h].inverse() * total
            recovered = total * (1.0 / (1 << n))
            component = Quaternion(0.0, 0.0, 0.0, 0.0)
            for key, cmask, coeff in f.coefficients():
                if cmask != mask:
                    continue
                scalar = 1.0
                for m in range(n):
                    scalar *= alphas[m] ** key[m] * betas[m] ** key[n + m]
                component = component + coeff.to_float() * scalar
            helpers.assert_quat_close(recovered, component, 1e-9)
