"""Seeded random draws used by the numeric test suites and the CLI."""

import math
import random

from .quaternion import Quaternion

# Caps the sample points a suite draws; the points are drawn into one list
# before the first is used, so the cap bounds that list before it is built.
MAX_SAMPLES = 10_000


def random_unit(rng):
    """A uniformly random imaginary unit (J*J = -1)."""
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if norm > 1e-6:
            return Quaternion(0.0, v[0] / norm, v[1] / norm, v[2] / norm)


def random_slice_point(rng, n, re_range=(-1.0, 1.0), im_range=(0.3, 2.0)):
    """A point of H^n with every |Im(x_m)| inside the admissible band."""
    coords = []
    for _ in range(n):
        alpha = rng.uniform(*re_range)
        beta = rng.uniform(*im_range)
        coords.append(Quaternion(alpha) + random_unit(rng) * beta)
    return tuple(coords)


def _sample_points(points, samples, seed, n):
    """The given points, or ``samples`` seeded random admissible points.

    An empty point set is refused: a verdict over no points shows nothing.
    So is a given point without exactly n coordinates, and a sample count
    over ``MAX_SAMPLES``, before any point is drawn.
    """
    if points is None:
        if samples < 1:
            raise ValueError("samples must be at least 1, got %d" % samples)
        if samples > MAX_SAMPLES:
            raise ValueError("samples are capped at %d, got %d"
                             % (MAX_SAMPLES, samples))
        rng = random.Random(seed)
        return [random_slice_point(rng, n) for _ in range(samples)]
    if not points:
        raise ValueError("no sample points given")
    for i, p in enumerate(points):
        if len(p) != n:
            raise ValueError("sample point %d has %d coordinates, expected %d"
                             % (i, len(p), n))
    return points


def respin_units(rng, point, upto):
    """Replace the units of the first ``upto`` coordinates by fresh random
    ones, keeping every real part and imaginary radius."""
    coords = list(point)
    for m in range(upto):
        alpha, beta, _ = coords[m].split_slice()
        coords[m] = Quaternion(alpha) + random_unit(rng) * beta
    return tuple(coords)
