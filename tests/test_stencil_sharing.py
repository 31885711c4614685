"""Nested finite-difference operators evaluate each stencil point once per
call, the caller's field keeps no state, and the compiled stem evaluator
that ``lift`` and ``SliceFunction.evaluate`` share matches quaternion
arithmetic bit for bit."""

import gc
import hashlib
import random
from fractions import Fraction
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from qwirt.almansi import (check_reconstruction, check_zonal, reconstruct,
                           spherical_components, fueter_components,
                           dirac_components)
from qwirt.cli import main
from qwirt.expr import parse_slice
from qwirt.numeric import (NumericField, NearRealAxisError, DepthExhaustedError,
                           NESTED_STEP, lift, coordinate_partial,
                           fueter_derivative, spherical_dirac,
                           multiply_by_variable)
from qwirt import numeric, slicefn
from qwirt.quaternion import (Quaternion, I, J, K, flat_point, hamilton,
                              quaternion_form, split_slice_components)
from qwirt.sampling import random_slice_point
from qwirt.slicefn import SliceFunction, variable, conj_variable
from qwirt.wirtinger import (wirtinger_conj_derivative_numeric,
                             check_regularity_numeric, check_strong_sliceness,
                             crosscheck)


class Counter:
    """Wraps a field's function and records every point it is asked for."""

    def __init__(self, field):
        self.points = []
        self.inner = field.func
        field.func = self

    def __call__(self, point):
        self.points.append(tuple((q.w, q.x, q.y, q.z) for q in point))
        return self.inner(point)

    @property
    def calls(self):
        return len(self.points)

    @property
    def distinct(self):
        return len(set(self.points))


def test_thetabar_3_evaluates_each_point_once():
    f = variable(3, 1) * variable(3, 2) * conj_variable(3, 3)
    field = lift(f)
    counter = Counter(field)
    p = random_slice_point(random.Random(5), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        wirtinger_conj_derivative_numeric(field, 3, p)
    # the three nested stencils reach 288 distinct points
    assert counter.distinct == 288
    assert counter.calls == counter.distinct


def test_crosscheck_builds_one_family_for_both_operators(monkeypatch):
    f = variable(2, 1) * conj_variable(2, 2)
    field = lift(f)
    counter = Counter(field)
    monkeypatch.setattr("qwirt.wirtinger.lift", lambda *args, **kwargs: field)
    crosscheck(f, 2, samples=2, seed=1)
    # theta_2 and thetabar_2 share each sample's 48 stencil points
    assert counter.distinct == 96
    assert counter.calls == counter.distinct


# One polynomial per shape of the benchmark's fd-suites jobs, with
# coefficients of their kind.
_SUITE_N2 = "x1*(1/2i) + ~x1*x2*(-1/3+2/3j) + x1*~x1*x2*(-1/2k)"
_SUITE_N3 = "x1*~x3*(1/2i) + ~x1*x2*(-1/3+2/3j) + x1*x2*~x3*(-1/2k)"


def _point_digest(points):
    """A sha256 of a sequence of evaluation points, every float by its hex."""
    digest = hashlib.sha256()
    for point in points:
        digest.update(repr(tuple(c.hex() if isinstance(c, float) else repr(c)
                                 for q in point for c in q)).encode())
        digest.update(b";")
    return digest.hexdigest()


def _suite_run(kind, field, f, monkeypatch):
    if kind == "check-regular":
        check_regularity_numeric(field, samples=1, seed=3)
    elif kind == "crosscheck":
        monkeypatch.setattr("qwirt.wirtinger.lift", lambda *args, **kwargs: field)
        crosscheck(f, 2, samples=1, seed=3)
    elif kind == "almansi-a":
        check_reconstruction(field, "fueter", 2, samples=1, seed=3)
    elif kind == "almansi-gamma":
        check_reconstruction(field, "dirac", 2, samples=1, seed=3)
    elif kind == "check-slice":
        check_strong_sliceness(field, samples=1, seed=3)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            wirtinger_conj_derivative_numeric(
                field, 3, random_slice_point(random.Random(3), 3))


# The suites that read a point more than once, and their calls.  Check-slice
# differentiates its Dirac entries again, and 6 of its base points are
# float coincidences of nested displacements, such as (v + H) - h rounding
# to the bits of v + h, which its stencils reach twice.
_REPEATED_CALLS = {"check-slice": 366}


@pytest.mark.parametrize("kind, distinct, digest", [
    ("check-regular", 56,
     "1a63b39d6dc210ca11ca1d146f80cddf84ebe8ae880468500c27fc1052d07839"),
    ("crosscheck", 48,
     "0c132ca27d1457a0c5329b8b4f8fee5bc7fef059fce5bed85fa8e1a5eeae42ec"),
    ("almansi-a", 65,
     "a66ee8f4f8b75a586131bb2db6ec48d07a5acffa8f4c780be487c70c7e9aacbd"),
    ("almansi-gamma", 37,
     "eb2b00b9fcf40684f837f8c494aac030d1f058f4d27bdbac7891025917c84b64"),
    ("check-slice", 360,
     "b90b4a06614b68e7faab92a0f12fe6057393f6c743cbe26621ee25fdbb0081a7"),
    ("thetabar-3", 288,
     "4b5f666a5a88957550777fb2423f2c11696538ac1acbafe058ab4a7dd6068b1b"),
])
def test_each_suite_evaluates_its_points_in_a_fixed_order(kind, distinct,
                                                          digest, monkeypatch):
    # one sample of each kind of suite: the base evaluations, in order of
    # first visit, are those of one stencil per coordinate partial, plus
    # point then minus point, coordinates in each operator's order
    f = parse_slice(_SUITE_N3 if kind == "thetabar-3" else _SUITE_N2,
                    3 if kind == "thetabar-3" else 2)
    field = lift(f)
    counter = Counter(field)
    _suite_run(kind, field, f, monkeypatch)
    assert counter.distinct == distinct
    assert counter.calls == _REPEATED_CALLS.get(kind, distinct)
    assert _point_digest(dict.fromkeys(counter.points)) == digest


def test_crosscheck_compiles_each_stem_once(monkeypatch):
    # one compilation for the lift and one per exact operator; each sample
    # point used to compile both exact operators again
    compiled = []
    compile_stem = slicefn._compile_stem
    monkeypatch.setattr(slicefn, "_compile_stem",
                        lambda f: compiled.append(f) or compile_stem(f))
    f = variable(2, 1) * conj_variable(2, 2) + variable(2, 1) ** 2 * variable(2, 2)
    crosscheck(f, 2, samples=3, seed=2)
    assert len(compiled) == 3


def test_a_family_compiles_each_symbolic_entry_once(monkeypatch):
    # each entry used to be compiled again at every evaluation: 40 times
    # for ten reconstructions at one point
    f = variable(2, 1) ** 2 * conj_variable(2, 2) + variable(2, 1) * variable(2, 2) ** 2
    family = spherical_components(f, 2)
    point = random_slice_point(random.Random(17), 2)
    want = [family.entries[mask].evaluate(point) for mask in family.masks()]
    compiled = []
    compile_stem = slicefn._compile_stem
    monkeypatch.setattr(slicefn, "_compile_stem",
                        lambda g: compiled.append(g) or compile_stem(g))
    values = [reconstruct(family, point) for _ in range(10)]
    assert len(compiled) == 4
    got = [family.entry_value(mask, point) for mask in family.masks()]
    assert [q.components() for q in got] == [q.components() for q in want]
    assert len({v.components() for v in values}) == 1
    # a fresh family compiles its entries once, not once per rotation
    compiled.clear()
    check_zonal(spherical_components(f, 2), point, rotations=8, seed=1)
    assert len(compiled) == 4


def test_strong_sliceness_shares_stencils_and_keeps_no_cache():
    f = variable(2, 1) ** 2 * variable(2, 2) + conj_variable(2, 1) * variable(2, 2) ** 2
    field = lift(f)
    counter = Counter(field)
    check_strong_sliceness(field, samples=1, seed=3)
    first = counter.calls
    assert first <= 400
    # a second check evaluates the caller's field afresh: nothing was kept
    check_strong_sliceness(field, samples=1, seed=3)
    assert counter.calls == 2 * first
    assert counter.distinct == len(set(counter.points[:first]))


def _peak_bytes(run):
    # a full collection first, so garbage left by earlier code (and the free
    # lists it feeds) does not decide the peak
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_sweeps_keep_memory_flat(capsys):
    # every memo holds one sample point's stencils, so peak memory does not
    # grow with the number of samples
    field = lift(variable(2, 1) * conj_variable(2, 2) + variable(2, 2) ** 2)
    one = _peak_bytes(lambda: check_strong_sliceness(field, samples=1, seed=3))
    many = _peak_bytes(lambda: check_strong_sliceness(field, samples=8, seed=3))
    assert many < 1.5 * one
    for flavor in ("a", "gamma"):
        argv = ["almansi", "--flavor", flavor, "--level", "2", "x1*~x2+x2^2"]
        one_argv, many_argv = argv + ["--samples", "1"], argv + ["--samples", "8"]
        # run each once untraced, so first-call costs such as building the
        # parser do not count towards the one-sample peak
        main(one_argv)
        main(many_argv)
        one = _peak_bytes(lambda: main(one_argv))
        many = _peak_bytes(lambda: main(many_argv))
        capsys.readouterr()
        assert many < 1.5 * one


_OVERLAP_STEP = 2.0 ** -10


def _overlapping_points():
    """Two points whose first coordinates lie 2h apart in their real part,
    for the step h = ``_OVERLAP_STEP``: the stencil of the one in x1
    displaced by +h and that of the other displaced by -h read the same
    base points, all of them exact in binary."""
    h = _OVERLAP_STEP
    x2 = Quaternion(-0.25, 0.5, 0.75, 1.0)
    return ((Quaternion(0.5, 1.0, 0.25, -0.5), x2),
            (Quaternion(0.5 + 2 * h, 1.0, 0.25, -0.5), x2))


def _level_2_fueter_calls():
    """The base points a level-2 Fueter family reads at the two overlapping
    points, built on the caller's field."""
    field = lift(parse_slice(_SUITE_N2, 2), step=_OVERLAP_STEP)
    counter = Counter(field)
    family = fueter_components(field, 2)
    for p in _overlapping_points():
        for mask in family.masks():
            family.entry_value(mask, p)
    return counter


def test_a_family_reads_the_callers_field_at_every_stencil_point():
    # a family keeps no memo of the caller's field: the base points its two
    # stencils share are read once for each
    counter = _level_2_fueter_calls()
    assert counter.calls > counter.distinct
    assert max(counter.points.count(p) for p in counter.points) == 2


def test_a_memo_the_caller_wraps_around_its_field_reads_each_point_once():
    # the README's recipe for stencils that overlap: a dict memo of the
    # field's flat form, made a func by quaternion_form
    field = lift(parse_slice(_SUITE_N2, 2), step=_OVERLAP_STEP)
    counter = Counter(field)
    flat, values = field.flat, {}

    def memo(point):
        value = values.get(point)
        if value is None:
            value = values[point] = flat(point)
        return value

    family = fueter_components(
        NumericField(quaternion_form(memo), field.n, field.smoothness,
                     field.step, field.band), 2)
    for p in _overlapping_points():
        for mask in family.masks():
            family.entry_value(mask, p)
    assert counter.calls == counter.distinct \
        == _level_2_fueter_calls().distinct


def test_a_dirac_pair_checks_the_band_before_its_stencil():
    # for both siblings, raising again at every call
    base = lift(variable(1, 1))
    counter = Counter(base)
    siblings = numeric._normalized_dirac_pair(base, 1)
    for _ in range(2):
        for field in siblings:
            with pytest.raises(NearRealAxisError):
                field((Quaternion(1.0, 0.05),))
    assert counter.calls == 0


def test_a_dirac_entry_checks_the_band_before_its_stencil():
    # through a family entry as well, which reads the caller's field itself
    base = lift(variable(1, 1))
    counter = Counter(base)
    family = dirac_components(base, 1)
    for _ in range(2):
        for mask in family.masks():
            with pytest.raises(NearRealAxisError):
                family.entry_value(mask, (Quaternion(1.0, 0.05),))
    assert counter.calls == 0


def test_derived_banded_field_raises_at_every_call():
    # a level-2 Dirac entry near the real axis in x2 fails its own band
    # check, and near it in x1 that of the entries its stencil reads; no
    # memo on the way stores the exception
    family = dirac_components(lift(variable(2, 1) * variable(2, 2)), 2)
    for point in ((Quaternion(0.5, 1.0), Quaternion(1.0, 0.05)),
                  (Quaternion(1.0, 0.05), Quaternion(0.5, 1.0))):
        for _ in range(2):
            for entry in family.entries.values():
                with pytest.raises(NearRealAxisError):
                    entry(point)


def _counted_field(n=1):
    """A field of n variables whose flat form records every point it is
    asked for."""
    calls = []

    def flat(point):
        calls.append(point)
        w, x, y, z = point[:4]
        for c in point[4:]:
            w, z = w + c * z, z - c
        return (w * x - y, x * z + 0.5, w - z * y, y * y)

    return NumericField(quaternion_form(flat), n), calls


_P = (Quaternion(0.5, 1.0, 0.25, -0.5),)


@pytest.mark.parametrize("build", [lambda f: multiply_by_variable(f, 1)],
                         ids=["times_x1"])
def test_a_pointwise_view_keeps_no_memo(build):
    # a product costs less than a memo lookup, so it reads its parent at
    # every call
    parent, calls = _counted_field()
    view = build(parent)
    first = view(_P).components()
    assert view(_P).components() == first
    assert len(calls) == 2


def _hexes(field, point):
    return [c.hex() for c in field(point).components()]


def _negated_fueter(g, m, p):
    return -fueter_derivative(g, m, p)


def _normalized_dirac(g, m, p):
    inverse = (p[m - 1].to_float().im() * 2.0).inverse()
    return inverse * spherical_dirac(g, m, p)


@pytest.mark.parametrize("pair, reference, stencil", [
    (numeric._negated_fueter_pair, _negated_fueter, 8),
    (numeric._normalized_dirac_pair, _normalized_dirac, 6)],
    ids=["fueter", "dirac"])
def test_a_sibling_pair_matches_its_two_field_form(pair, reference, stencil):
    # the entries on K and K | {m} of a family, D g and D(x_m g), from one
    # stencil pass: bit for bit the public operator on g and on its
    # multiply_by_variable view, each sibling one derivative of g
    rng = random.Random(31)
    for m in (1, 2):
        for base in (lift(parse_slice("x1*~x2*(1/2-j) + x2^2*x1*(1/3k)", 2),
                          band=0.05),
                     _counted_field(2)[0]):
            siblings = pair(base, m)
            assert [(f.n, f.smoothness, f.step, f.band) for f in siblings] \
                == [(base.n, base.smoothness - 1, NESTED_STEP, base.band)] * 2
            two = (base, multiply_by_variable(base, m))
            for _ in range(3):
                p = random_slice_point(rng, 2)
                assert [_hexes(f, p) for f in siblings] \
                    == [[c.hex() for c in reference(g, m, p).components()]
                        for g in two]
    # the two siblings together read each stencil point once, also over a
    # multiply_by_variable view, which keeps no memo
    for view in (lambda f: f, lambda f: multiply_by_variable(f, 1)):
        parent, calls = _counted_field()
        first, second = pair(view(parent), 1)
        values = {(first(_P).components(), second(_P).components())
                  for _ in range(3)}
        assert len(values) == 1
        assert len(calls) == len(set(calls)) == stencil


@pytest.mark.parametrize("pair, sibling, stencil", [
    (numeric._negated_fueter_pair, 0, 8), (numeric._negated_fueter_pair, 1, 8),
    (numeric._normalized_dirac_pair, 0, 6),
    (numeric._normalized_dirac_pair, 1, 6)],
    ids=["fueter_derivative_of_g", "negated_fueter_field_of_x1_g",
         "normalized_dirac_field_of_g", "spherical_dirac_field_of_x1_g"])
def test_a_derivative_field_reads_each_stencil_point_once(pair, sibling,
                                                         stencil):
    # one sibling alone reads each point once, also over a view, and fills
    # the memo of the other
    for view in (lambda f: f, lambda f: multiply_by_variable(f, 1)):
        parent, calls = _counted_field()
        siblings = pair(view(parent), 1)
        field = siblings[sibling]
        values = {field(_P).components() for _ in range(3)}
        assert len(values) == 1
        assert len(calls) == len(set(calls)) == stencil
        siblings[1 - sibling](_P)
        assert len(calls) == stencil


@pytest.mark.parametrize("components, reference", [
    (fueter_components, _negated_fueter),
    (dirac_components, _normalized_dirac)], ids=["fueter", "dirac"])
def test_a_family_entry_field_matches_its_two_field_form(components,
                                                         reference):
    # a level-2 entry on K is the operator in x2 of the level-1 entry g on
    # K minus {2}, or of x2 * g when 2 lies in K, bit for bit
    base = lift(parse_slice("x1*~x2*(1/2-j) + x2^2*x1*(1/3k)", 2), band=0.05)
    low = components(base, 1)
    high = components(base, 2)
    rng = random.Random(12)
    for _ in range(4):
        p = random_slice_point(rng, 2)
        for mask, entry in high.entries.items():
            g = low.entries[mask & 1]
            if mask & 2:
                g = multiply_by_variable(g, 2)
            assert _hexes(entry, p) \
                == [c.hex() for c in reference(g, 2, p).components()]


@pytest.mark.parametrize("pair", [numeric._negated_fueter_pair,
                                  numeric._normalized_dirac_pair],
                         ids=["fueter", "dirac"])
def test_a_sibling_pair_memoizes_values_but_not_exceptions(pair):
    parent, calls = _counted_field()
    flat = parent.func.flat

    def flaky(point):
        if not calls:
            calls.append(None)
            raise ArithmeticError("first read fails")
        return flat(point)

    first, second = pair(NumericField(quaternion_form(flaky), 1), 1)
    with pytest.raises(ArithmeticError):
        second(_P)
    got = [first(_P).components()]
    reads = len(calls)
    got.append(second(_P).components())
    # the failed compute stored nothing, and the next one filled both memos
    assert len(calls) == reads
    assert got == [field(_P).components() for field in pair(parent, 1)]


def _reference_lift(f, point):
    """Quaternion-object evaluation: the reference for the compiled stem."""
    n = f.n
    alphas, betas, units = [], [], []
    for q in point:
        a, b, j = q.split_slice()
        alphas.append(a)
        betas.append(b)
        units.append(j)
    cache = {0: Quaternion(1.0, 0.0, 0.0, 0.0)}
    for h in range(n):
        cache[1 << h] = units[h]

    def unit_product(mask):
        if mask not in cache:
            low = mask & -mask
            cache[mask] = unit_product(low) * unit_product(mask & ~low)
        return cache[mask]

    total = Quaternion(0.0, 0.0, 0.0, 0.0)
    for key, mask, coeff in f.coefficients():
        scalar = 1.0
        for m in range(n):
            if key[m]:
                scalar *= alphas[m] ** key[m]
            if key[n + m]:
                scalar *= betas[m] ** key[n + m]
        if scalar == 0.0:
            continue
        total = total + (unit_product(mask) * coeff.to_float()) * scalar
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_matches_quaternion_arithmetic_bit_for_bit(n):
    rng = random.Random(40 + n)
    for _ in range(6):
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=4,
                                            max_terms=4)
        field = lift(f)
        pts = [random_slice_point(rng, n) for _ in range(4)]
        pts.append(tuple(Quaternion(0.5 * h, 0.0, 0.0, 0.0) for h in range(n)))
        for p in pts:
            want = [c.hex() for c in _reference_lift(f, p).components()]
            for value in (field(p), f.evaluate(p)):
                assert [c.hex() for c in value.components()] == want


def _kernel_test_points(rng, n):
    """Float points, exact points, a point with one coordinate on a real
    axis (beta = 0, default unit i) and points with components -0.0."""
    pts = [random_slice_point(rng, n) for _ in range(3)]
    pts.append(tuple(Quaternion(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                rng.randint(-3, 3), Fraction(1, 3))
                     for _ in range(n)))
    on_axis = list(random_slice_point(rng, n))
    on_axis[rng.randrange(n)] = Quaternion(0.75, 0.0, 0.0, 0.0)
    pts.append(tuple(on_axis))
    pts.append(tuple(Quaternion(-0.0, -0.0, 0.5, -0.0) for _ in range(n)))
    pts.append(tuple(Quaternion(1.25, -0.0, -0.0, -0.0) for _ in range(n)))
    return pts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_kernel_matches_the_quaternion_adapter_bit_for_bit(n):
    # lift(f).func.flat is the compiled kernel on flat points; wrapping
    # field.func in a lambda drops it, so field.flat goes through the
    # quaternion adapter, as it does for the tracer and the test counters
    rng = random.Random(70 + n)
    for _ in range(6):
        f = helpers.random_slice_polynomial(rng, n, max_total_degree=4,
                                            max_terms=4)
        kernel = lift(f)
        adapter = lift(f)
        inner = adapter.func
        adapter.func = lambda point: inner(point)
        for p in _kernel_test_points(rng, n):
            point = flat_point(p)
            want = [c.hex() for c in f.evaluate(p).components()]
            assert [c.hex() for c in kernel.func.flat(point)] == want
            assert [c.hex() for c in kernel.flat(point)] == want
            assert [c.hex() for c in adapter.flat(point)] == want
            assert [c.hex() for c in _reference_lift(f, p).components()] == want


# Coefficient components: zeros, so that a mask-0 coefficient can have zero
# components, and one that underflows to -0.0 as a float.
_COMPONENTS = (0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3),
               Fraction(-1, 10 ** 400))


@st.composite
def _stems(draw, exponents=st.integers(0, 3)):
    n = draw(st.integers(1, 3))
    keys = st.tuples(*[exponents] * (2 * n))
    components = st.sampled_from(_COMPONENTS)
    terms = draw(st.dictionaries(keys, st.tuples(*[components] * 4),
                                 max_size=8))
    # a term on mask 0 (every beta exponent even) at least
    terms[tuple(draw(exponents) for _ in range(n)) + (0,) * n] = \
        draw(st.tuples(*[components] * 4))
    return SliceFunction(n, {key: Quaternion(*comps)
                             for key, comps in terms.items()})


@settings(max_examples=150, deadline=None)
@given(_stems(), st.integers(0, 2 ** 32))
def test_flat_kernel_matches_the_reference_bit_for_bit(f, seed):
    # the one term loop behind evaluate, evaluate_parts and lift, on stems
    # with mask-0 terms whose coefficients have zero components
    kernel = lift(f).func.flat
    for p in _kernel_test_points(random.Random(seed), f.n):
        want = [c.hex() for c in _reference_lift(f, p).components()]
        assert [c.hex() for c in kernel(flat_point(p))] == want
        splits = [q.split_slice() for q in p]
        parts = f.evaluate_parts([a for a, _, _ in splits],
                                 [b for _, b, _ in splits],
                                 [u for _, _, u in splits])
        assert [c.hex() for c in parts.components()] == want


# Stems whose exponents are all 0 or 1, so that the kernel reads every
# slot in place, and stems with no first power, so that it reads none.
_FIRST_POWERS = st.sampled_from((0, 1))
_HIGHER_POWERS = st.sampled_from((0, 2, 3))


def _split_and_hamilton(f, point):
    """f at a flat point from ``split_slice_components`` and ``hamilton``:
    each coordinate split by the one, each unit product formed by the other
    as its lowest unit times the rest, and the terms summed in the kernel's
    order."""
    values, units = [], {}
    for m in range(f.n):
        alpha, beta, units[1 << m] = split_slice_components(
            *point[4 * m:4 * m + 4])
        values += [alpha, beta]
    return _parts_by_hamilton(f, values, units)


def _parts_by_hamilton(f, values, units):
    """f on the list alpha_1, beta_1, ..., alpha_n, beta_n and the units
    J_m by mask 2^(m-1): every power as ``values[i] ** k``, first powers
    included, and each unit product by ``hamilton``."""
    n = f.n
    units = {0: (1.0, 0.0, 0.0, 0.0), **units}

    def unit(mask):
        if mask not in units:
            low = mask & -mask
            units[mask] = hamilton(unit(low), unit(mask & ~low))
        return units[mask]

    total = (0.0, 0.0, 0.0, 0.0)
    for key, comps in f.terms.items():
        scalar, mask = 1.0, 0
        for m in range(n):
            if key[m]:
                scalar *= values[2 * m] ** key[m]
            if key[n + m]:
                scalar *= values[2 * m + 1] ** key[n + m]
                mask |= (key[n + m] & 1) << m
        if scalar == 0.0:
            continue
        coeff = tuple(v / f.den for v in comps)
        term = hamilton(unit(mask), coeff) if mask else coeff
        total = tuple(t + c * scalar for t, c in zip(total, term))
    return total


def _hex_or_overflow(evaluate, f, point):
    try:
        return [c.hex() for c in evaluate(f, point)]
    except OverflowError:
        return "OverflowError"


# Point components: zeros of both signs, exact ones, and floats up to 1e200,
# whose squares leave the float range.
_POINT_COMPONENTS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, Fraction(1, 3), Fraction(-7, 2)]),
    st.fractions(min_value=-8, max_value=8, max_denominator=40),
    st.floats(min_value=-1e200, max_value=1e200))


@settings(max_examples=300, deadline=None)
@given(_stems(), st.data())
def test_the_kernels_split_and_unit_products_are_split_and_hamiltons(f, data):
    # the kernel splits each coordinate and forms its unit products inline;
    # the bits, and the OverflowError of a square past the float range, are
    # those of split_slice_components and hamilton
    _check_the_kernel_against_split_and_hamilton(f, data)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_stems(_FIRST_POWERS), _stems(_HIGHER_POWERS)), st.data())
def test_the_kernel_on_first_or_higher_powers_only_is_split_and_hamiltons(
        f, data):
    # the kernel reads a first power in place and raises only the higher
    # ones; the reference raises every slot to its power
    _check_the_kernel_against_split_and_hamilton(f, data)


def _check_the_kernel_against_split_and_hamilton(f, data):
    n = f.n
    drawn = tuple(data.draw(st.lists(_POINT_COMPONENTS, min_size=4 * n,
                                     max_size=4 * n)))
    on_axis = (0.75, -0.0, 0.0, -0.0) * n
    overflow = (0.5, 1e200, 0.0, Fraction(1, 3)) * n
    kernel = lift(f).func.flat
    for point in (drawn, on_axis, overflow):
        want = _hex_or_overflow(_split_and_hamilton, f, point)
        assert _hex_or_overflow(lambda f, p: kernel(p), f, point) == want
    assert _hex_or_overflow(_split_and_hamilton, f, overflow) == "OverflowError"


# Exact alphas and betas for ``evaluate_parts``: ints and Fractions, zeros
# included.
_EXACT_VALUES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=12))
_UNITS = st.sampled_from((I, J, K, Quaternion(0, Fraction(3, 5), 0,
                                                Fraction(-4, 5)),
                          Quaternion(0.0, 0.6, 0.0, 0.8)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_stems(), _stems(_FIRST_POWERS), _stems(_HIGHER_POWERS)),
       st.data())
def test_evaluate_parts_on_exact_values_is_every_power_by_pow(f, data):
    # int and Fraction alphas and betas reach the kernel as they are: a
    # first power read in place gives the bits of values[i] ** 1
    n = f.n
    alphas = data.draw(st.lists(_EXACT_VALUES, min_size=n, max_size=n))
    betas = data.draw(st.lists(_EXACT_VALUES, min_size=n, max_size=n))
    units = data.draw(st.lists(_UNITS, min_size=n, max_size=n))
    values = [v for pair in zip(alphas, betas) for v in pair]
    want = _parts_by_hamilton(f, values, {1 << m: units[m].components()
                                          for m in range(n)})
    got = f.evaluate_parts(alphas, betas, units)
    assert [c.hex() for c in got.components()] == [c.hex() for c in want]


def test_evaluate_parts_refuses_sequences_not_of_length_n():
    # the kernel reads the values by index, so a longer list would put an
    # alpha where a higher power belongs
    f = parse_slice("x1^2*x2 + ~x2", 2)
    one = [Fraction(1, 2), 3]
    with pytest.raises(ValueError, match="evaluate_parts takes 2 alphas, "
                       "betas and units, got 3, 2 and 2"):
        f.evaluate_parts(one + [1], one, [I, J])
    with pytest.raises(ValueError, match="got 2, 2 and 1"):
        f.evaluate_parts(one, one, [I])
    assert f.evaluate_parts(one, one, [I, J]) == f.evaluate_parts(
        tuple(one), tuple(one), (I, J))


def _fueter_by_hamilton(field, m, point):
    """``fueter_derivative`` through ``_add``, ``hamilton`` and ``_scale``."""
    d0, d1, d2, d3 = numeric._partials(field, m, (0, 1, 2, 3), point)
    total = numeric._add(numeric._add(numeric._add(
        d0, hamilton(I.components(), d1)), hamilton(J.components(), d2)),
        hamilton(K.components(), d3))
    return numeric._scale(total, 0.5)


def _dirac_by_hamilton(field, m, point):
    """``spherical_dirac`` through ``hamilton``."""
    _, x1, x2, x3 = numeric._coordinates(point, m)
    d1, d2, d3 = numeric._partials(field, m, (1, 2, 3), point)
    i = hamilton(I.components(), tuple(a * x2 - b * x3 for a, b in zip(d3, d2)))
    j = hamilton(J.components(), tuple(a * x1 - b * x3 for a, b in zip(d3, d1)))
    k = hamilton(K.components(), tuple(a * x1 - b * x2 for a, b in zip(d2, d1)))
    return tuple(-a + b - c for a, b, c in zip(i, j, k))


# Field values: zeros of both signs, infinities and NaN, whose products by
# the units' zeros decide signs of zero and NaNs.
_VALUE_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float("inf"), float("-inf"),
                     float("nan")]),
    st.floats(min_value=-1e300, max_value=1e300))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_the_unit_products_of_fueter_and_dirac_are_hamiltons(n, data):
    # each operator forms its products by i, j and k inline, without the
    # multiplications by 1: the bits are those of hamilton on the units
    values = data.draw(st.lists(st.tuples(*[_VALUE_COMPONENTS] * 4),
                                min_size=1, max_size=8))
    point = tuple(data.draw(st.lists(st.floats(-4, 4), min_size=4 * n,
                                     max_size=4 * n)))
    m = data.draw(st.integers(1, n))

    def flat(p):
        return values[hash(p) % len(values)]

    field = NumericField(quaternion_form(flat), n, band=0.0)
    quaternions = tuple(Quaternion(*point[k:k + 4]) for k in range(0, 4 * n, 4))
    assert flat_point(quaternions) == point
    for operator, reference in ((fueter_derivative, _fueter_by_hamilton),
                                (spherical_dirac, _dirac_by_hamilton)):
        assert [v.hex() for v in operator(field, m, quaternions).components()] \
            == [v.hex() for v in reference(field, m, point)]


def test_an_underflowed_coefficient_matches_the_reference():
    # -1/10^400 is -0.0 as a float: on mask 0 the kernel adds the coefficient
    # times the scalar where the reference adds (1.0, 0.0, 0.0, 0.0) times
    # the coefficient, and the two differ in the sign of a zero
    tiny = Fraction(-1, 10 ** 400)
    assert (tiny.numerator / tiny.denominator).hex() == (-0.0).hex()
    for comps in ((tiny, tiny, 0, 0), (tiny, 0, tiny, tiny), (0, tiny, 1, tiny)):
        f = SliceFunction(1, {(0, 0): Quaternion(*comps)})
        for p in ((Quaternion(0.5, 1.0, 0.0, 0.0),), (Quaternion(-0.0),)):
            want = [c.hex() for c in _reference_lift(f, p).components()]
            assert [c.hex() for c in lift(f).func.flat(flat_point(p))] == want


def test_no_quaternion_is_built_per_base_evaluation(monkeypatch):
    f = variable(2, 1) * conj_variable(2, 2)
    coords = ((0.5, 1.0, -0.25, 0.0), (-0.25, 0.0, 0.5, 1.0))
    counted = lift(f)
    counter = Counter(counted)
    wirtinger_conj_derivative_numeric(counted, 2,
                                      tuple(Quaternion(*c) for c in coords))
    assert counter.calls == 48
    field = lift(f)
    built = []
    init = Quaternion.__init__
    monkeypatch.setattr(Quaternion, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    wirtinger_conj_derivative_numeric(field, 2,
                                      tuple(Quaternion(*c) for c in coords))
    # the two coordinates of the boundary point and the result; the 48
    # base evaluations build none
    assert len(built) == 3


# -- one field type: every field the library builds is a NumericField whose
# flat form is its func's ``flat``


def _built_fields(base):
    fueter = numeric._negated_fueter_pair(base, 1)
    dirac = numeric._normalized_dirac_pair(base, 1)
    return {"fueter": fueter[0], "fueter_times_x1": fueter[1],
            "dirac": dirac[0], "dirac_times_x1": dirac[1],
            "times_x1": multiply_by_variable(base, 1)}


def test_every_built_field_is_a_numeric_field_whose_flat_is_its_funcs():
    for name, field in _built_fields(lift(parse_slice("x1^2*x2", 2))).items():
        assert type(field) is NumericField, name
        assert field.flat is field.func.flat, name


def test_lift_flat_is_its_funcs_flat():
    field = lift(parse_slice("x1^2"))
    assert field.flat is field.func.flat


def test_a_wrapper_on_a_derived_fields_func_sees_every_evaluation():
    # before derived fields were plain NumericFields, their operators read a
    # memo slot that bypassed func, and the wrapper saw 0 of 2 evaluations
    p = (Quaternion(0.5, 1.0, 0.25, -0.5),)
    for name, field in _built_fields(lift(parse_slice("x1^2"))).items():
        counter = Counter(field)
        coordinate_partial(field, 1, 0, p)
        assert len(counter.points) == 2, name


def test_removed_field_views_raise_attribute_error():
    # derived(flat, cost=1) built a derivative field, and memoized() a memo
    # of the field; a caller of either gets an AttributeError, not a budget
    # or a memo that changed without notice
    base = lift(parse_slice("x1"))
    with pytest.raises(AttributeError):
        base.derived(base.flat)
    with pytest.raises(AttributeError):
        base.memoized()


@pytest.mark.parametrize("build", [numeric._negated_fueter_pair,
                                   numeric._normalized_dirac_pair])
def test_a_derivative_field_on_an_exhausted_budget_evaluates_nothing(build):
    calls = []
    base = NumericField(lambda p: calls.append(p) or Quaternion(1.0), 1, 0)
    with pytest.raises(DepthExhaustedError, match=r"^operator needs 1 "
                       r"derivative\(s\), smoothness budget is 0$"):
        build(base, 1)
    assert not calls
