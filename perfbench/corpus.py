"""Seeded job streams for the qwirt benchmark.

A job is one in-process call of ``qwirt.cli.main(argv)``.  The generators
here take the workload seed and emit argv lists plus the parameters the
output checker needs; they import nothing from qwirt, so the program only
ever sees the generated argv.  Expected outcomes are computed by the checker
after the timed region.

Every stream repeats a fixed schedule of job kinds and monomials, so the
work in a run hardly depends on the seed; the seed chooses the coefficients,
the points and the jobs' sample seeds.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("fd-suites", "exact-algebra", "point-queries")


@dataclass(frozen=True)
class Job:
    """One CLI call and what the checker needs to know about it."""

    kind: str
    argv: tuple
    expr: str
    n: int
    params: dict = field(default_factory=dict)


# -- literals -------------------------------------------------------------------


def _rational_text(value):
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _quaternion_text(comps):
    """Literal a+bi+cj+dk in the CLI grammar, zero components omitted."""
    parts = []
    for value, suffix in zip(comps, ("", "i", "j", "k")):
        if value == 0:
            continue
        text = _rational_text(abs(value)) + suffix
        if value < 0:
            parts.append("-" + text)
        else:
            parts.append(("+" if parts else "") + text)
    return "".join(parts) if parts else "0"


def _coefficient(rng, slots):
    """A unit-scale quaternion, nonzero exactly in the components ``slots``
    (0 real, 1-3 i, j, k), each drawn from +-1, +-2/3, +-1/2, +-1/3."""
    comps = [Fraction(0)] * 4
    for slot in slots:
        comps[slot] = rng.choice((-1, 1)) * Fraction(rng.randint(1, 2),
                                                     rng.randint(2, 3))
    return _quaternion_text(comps)


def _slice_coordinate(rng):
    """A rational quaternion with no zero component and |Im| >= 1/3, so
    every numeric operator is outside the default exclusion band around the
    real axis."""
    real, *im = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(4)]
    lead = rng.randrange(3)
    im[lead] = Fraction(rng.choice((-1, 1)) * rng.randint(3, 9), rng.randint(1, 9))
    return _quaternion_text([real] + im)


class _Points:
    """Distinct random points of H^n as ';'-separated literals."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def draw(self, n):
        while True:
            text = ";".join(_slice_coordinate(self.rng) for _ in range(n))
            if text not in self.seen:
                self.seen.add(text)
                return text


def _at(point):
    # argparse reads "--at -1/3+i" as an unknown flag and exits 2, so a point
    # that starts with '-' has to be attached with '='.
    return ("--at=" + point,) if point.startswith("-") else ("--at", point)


# Nonzero components of the coefficients of the first, second, third ...
# monomial: which products vanish or commute is then the same for every seed.
COEFFICIENT_SLOTS = ((1,), (0, 2), (3,))


def _polynomial(rng, monomials):
    """The sum of ``monomials``, each with a random right coefficient whose
    nonzero components COEFFICIENT_SLOTS fixes.  The monomials, and so the
    stem size and the cost of a job, are fixed by the schedule; the seed
    chooses only the coefficients' values."""
    return " + ".join("%s*(%s)" % (mono, _coefficient(rng, COEFFICIENT_SLOTS[i]))
                      for i, mono in enumerate(monomials))


def _job_seed(rng):
    return str(rng.randrange(1 << 30))


# -- workloads --------------------------------------------------------------------

# fd-suites: numeric verification runs on seeded slice polynomials (n=2,
# degree <= 3, unit-scale coefficients), plus the index-3 conjugate operator
# with n=3.  Nested finite-difference stencils dominate: the same points are
# evaluated again and again (a traced run of 40 jobs, seed 11, makes 95,568
# base evaluations at 9,222 distinct points, 9.6%) and Quaternion construction is
# about a third of the profile.  Memoisation, stencil sharing and a
# float-tuple lift loop all show here.  Mean job time per kind on a 2-vCPU
# 2.0 GHz Xeon VM with Python 3.11: check-regular 0.05 s, crosscheck 0.10 s,
# almansi a 0.16 s, almansi gamma 0.34 s, thetabar m=3 0.36 s, check-slice
# 1.0 s.
# Monomials of the n=2 polynomials: a slice-regular set and one with ~x
# factors, so check-regular meets both verdicts.
FD_PLAIN = ("x1", "x1*x2", "x1^2*x2")
FD_CONJ = ("x1", "~x1*x2", "x1*~x1*x2")
FD_THETABAR_3 = ("x1*~x3", "~x1*x2", "x1*x2*~x3")
# Kind counts per 20-job cycle put the median job inside the crosscheck
# group and the 90th percentile inside the almansi gamma / thetabar group,
# away from the gaps between groups where a percentile jumps.  Each kind
# meets the plain and the conjugated polynomials in a fixed ratio, so every
# cycle does the same work whatever the seed.
FD_SCHEDULE = (
    ("check-regular", FD_PLAIN), ("crosscheck", FD_CONJ),
    ("almansi-a", FD_PLAIN), ("check-regular", FD_CONJ),
    ("crosscheck", FD_PLAIN), ("almansi-gamma", FD_CONJ),
    ("check-regular", FD_PLAIN), ("crosscheck", FD_CONJ),
    ("thetabar-3", FD_THETABAR_3), ("check-regular", FD_CONJ),
    ("crosscheck", FD_PLAIN), ("almansi-a", FD_CONJ),
    ("check-regular", FD_PLAIN), ("crosscheck", FD_CONJ),
    ("almansi-gamma", FD_PLAIN), ("check-regular", FD_CONJ),
    ("crosscheck", FD_PLAIN), ("thetabar-3", FD_THETABAR_3),
    ("check-regular", FD_PLAIN), ("check-slice", FD_CONJ),
)


def fd_suites(seed):
    rng = random.Random("fd-suites:%d" % seed)
    points = _Points(rng)
    while True:
        for kind, monomials in FD_SCHEDULE:
            expr = _polynomial(rng, monomials)
            if kind == "thetabar-3":
                point = points.draw(3)
                yield Job(kind, ("thetabar", "--numeric", "--m", "3", "--n", "3")
                          + _at(point) + (expr,), expr, 3, {"at": point, "m": 3})
                continue
            seed_args = ("--seed", _job_seed(rng), "--n", "2")
            if kind == "check-regular":
                argv = ("check-regular", "--numeric", "--samples", "3")
            elif kind == "crosscheck":
                argv = ("crosscheck", "--m", "2", "--samples", "3")
            elif kind == "check-slice":
                argv = ("check-slice", "--samples", "1")
            else:
                flavor = kind.split("-")[1]
                argv = ("almansi", "--flavor", flavor, "--level", "2",
                        "--samples", "8")
            yield Job(kind, argv + seed_args + (expr,), expr, 2)


# exact-algebra: symbolic runs on cubes and fourth powers of 3-term,
# 3-variable slice polynomials with ~x factors.  No base-field evaluation
# happens; time goes to Fraction quaternion products, StemElement.__mul__,
# stem parity validation and format_slice.  A change to the numeric layer is
# predicted to leave this workload unchanged, while the stem and slicefn
# layers show here.  Same VM: cubes take about 0.04 s, fourth powers
# 0.11-0.18 s (almansi sp up to 0.35 s).
EXACT_MONOMIALS = (("~x1", "x2*~x3", "x3"), ("x1", "~x2*x3", "~x3"))
# (kind, index m or variable) per slot; each half of the cycle uses one of
# EXACT_MONOMIALS.  One job in four is a fourth power: fourth powers take
# about three times as long as cubes, so the median falls inside the cubes
# and the 90th percentile inside the fourth powers rather than in the gap
# between them.
EXACT_KINDS = (("theta", 1), ("eval", None), ("check-regular", None),
               ("thetabar", 2), ("spherical", 3), ("theta", 3), ("eval", None),
               ("almansi-sp", None), ("thetabar", 1), ("check-regular", None),
               ("theta", 2), ("eval", None), ("check-regular", None),
               ("thetabar", 3), ("spherical", 1), ("theta", 1), ("eval", None),
               ("almansi-sp", None), ("thetabar", 2), ("check-regular", None))
EXACT_SCHEDULE = tuple((kind, arg, 4 if i % 4 == 3 else 3, EXACT_MONOMIALS[i // 10])
                       for i, (kind, arg) in enumerate(EXACT_KINDS))


def exact_algebra(seed):
    rng = random.Random("exact-algebra:%d" % seed)
    points = _Points(rng)
    n_args = ("--n", "3")
    while True:
        for kind, arg, power, monomials in EXACT_SCHEDULE:
            expr = "(%s)^%d" % (_polynomial(rng, monomials), power)
            if kind in ("theta", "thetabar"):
                yield Job(kind, (kind, "--m", str(arg)) + n_args + (expr,), expr, 3,
                          {"m": arg})
            elif kind == "eval":
                point = points.draw(3)
                yield Job(kind, ("eval",) + n_args + _at(point) + (expr,), expr, 3,
                          {"at": point})
            elif kind == "check-regular":
                yield Job(kind, ("check-regular",) + n_args + (expr,), expr, 3)
            elif kind == "spherical":
                yield Job(kind, ("spherical", "--var", str(arg), "--kind",
                                 "derivative") + n_args + (expr,), expr, 3,
                          {"var": arg})
            else:
                yield Job(kind, ("almansi", "--flavor", "sp", "--level", "3")
                          + n_args + (expr,), expr, 3, {"level": 3})


# point-queries: thousands of tiny queries, exact eval at distinct random
# rational points or the index-1 operators evaluated numerically at distinct
# points.  This uses the numeric layer the opposite way from fd-suites: every
# base evaluation hits a new point (8,000 of 8,000 in a traced run of 2,000
# jobs), so a point cache gets no hits and shows only its cost.  Per-call
# fixed costs dominate (argparse tree rebuilt on every main, parse, lower,
# JSON emit), so CLI-layer changes show here.  Same VM: p50 about 3 ms,
# 250-350 jobs/s.
POINT_SCHEDULE = (("eval", ("x1", "~x1*x2")), ("theta-1", ("~x1", "x1*x2")),
                  ("eval", ("~x1", "x1*~x2")), ("thetabar-1", ("~x1", "x1*x2")))


def point_queries(seed):
    rng = random.Random("point-queries:%d" % seed)
    points = _Points(rng)
    while True:
        for kind, monomials in POINT_SCHEDULE:
            expr = _polynomial(rng, monomials)
            point = points.draw(2)
            if kind == "eval":
                yield Job(kind, ("eval",) + _at(point) + (expr,), expr, 2,
                          {"at": point})
            else:
                op = kind.split("-")[0]
                yield Job(kind, (op, "--numeric", "--m", "1") + _at(point)
                          + (expr,), expr, 2, {"at": point, "m": 1})


GENERATORS = {"fd-suites": fd_suites, "exact-algebra": exact_algebra,
              "point-queries": point_queries}

# Fixed, seed-independent warm-up calls: one of each job kind on small
# inputs, so set-up time measures the same work for every seed.
WARMUP = {
    "fd-suites": (
        ("check-regular", "--numeric", "--samples", "1", "--n", "2", "x1*x2"),
        ("crosscheck", "--m", "2", "--samples", "1", "--n", "2", "~x1*x2"),
        ("almansi", "--flavor", "a", "--level", "2", "--samples", "1",
         "--n", "2", "x1*x2"),
        ("almansi", "--flavor", "gamma", "--level", "1", "--samples", "1",
         "--n", "2", "x1*x2"),
        ("thetabar", "--numeric", "--m", "2", "--n", "3", "--at", "i;j;k",
         "~x2*x3"),
    ),
    "exact-algebra": (
        ("theta", "--m", "2", "--n", "3", "(x1 + ~x2*(i) + x3)^3"),
        ("eval", "--n", "3", "--at", "1+i;j;1/2-k", "(x1 + ~x2*(i) + x3)^3"),
        ("almansi", "--flavor", "sp", "--level", "3", "--n", "3",
         "(x1 + ~x2 + x3*(j))^2"),
        ("spherical", "--var", "2", "--kind", "derivative", "--n", "3",
         "(x1 + ~x2 + x3*(j))^3"),
        ("check-regular", "--n", "3", "(x1*~x3 + x2)^3"),
    ),
    "point-queries": (
        ("eval", "--at", "1+i;j", "x1^2*(i) + ~x2"),
        ("theta", "--numeric", "--m", "1", "--at", "1+i;j", "x1^2*(i) + ~x2"),
        ("thetabar", "--numeric", "--m", "1", "--at", "1+i;j", "x1^2*(i) + ~x2"),
    ),
}


def jobs(workload, seed):
    """The endless job stream of a workload; the same seed gives the same
    stream."""
    return GENERATORS[workload](seed)
