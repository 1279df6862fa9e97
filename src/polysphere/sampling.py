"""Deterministic rational samplers used by verification code and tests.

All randomness flows through seeded ``random.Random`` instances so that
reports and failures are reproducible byte for byte.

The facet samplers combine a space's integer vertex rows (``_points``,
over the vertex scale e = ``_point_scale``) on integers, with integer
weights, and build one Fraction per coordinate: a convex combination with
weights w_j / W is ``Fraction(sum_j w_j * P_j[c], W * e)``.
"""

import random
from fractions import Fraction
from operator import mul

from .space import PolyhedralSpace, Vector

DEFAULT_SEED = 0


def rng_from(seed: int | random.Random) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_fraction(rng: random.Random, max_num: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_direction(rng: random.Random, dim: int) -> Vector:
    while True:
        coords = tuple(random_fraction(rng) for _ in range(dim))
        if any(c != 0 for c in coords):
            return Vector(coords)


def sphere_points(space: PolyhedralSpace, count: int, seed=DEFAULT_SEED) -> list[Vector]:
    """Seeded rational points of norm exactly one."""
    rng = rng_from(seed)
    points = []
    for _ in range(count):
        d = random_direction(rng, space.dim)
        points.append(d.scale(1 / space.norm(d)))
    return points


def random_facet_point(space: PolyhedralSpace, fid: int, rng: random.Random) -> Vector:
    """A random rational convex combination of the facet's vertices."""
    ids = space.facet_index[fid]
    weights = [rng.randint(0, 6) for _ in ids]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    den = sum(weights) * space._point_scale
    cols = zip(*(space._points[j] for j in ids))
    return Vector._of(tuple(Fraction(sum(map(mul, weights, col)), den) for col in cols))


def facet_sample_points(space: PolyhedralSpace) -> list[Vector]:
    """Deterministic interior facet samples: barycenters plus vertex-pair midpoints."""
    den = 2 * space._point_scale
    seen = set()
    points = []

    def add(v: Vector):
        if v.coords not in seen:
            seen.add(v.coords)
            points.append(v)

    for fid in range(len(space.hrep)):
        add(space.facet_barycenter(fid))
        ids = space.facet_index[fid]
        for a in range(len(ids)):
            p = space._points[ids[a]]
            for b in range(a + 1, len(ids)):
                q = space._points[ids[b]]
                add(Vector._of(tuple(Fraction(x + y, den) for x, y in zip(p, q))))
    return points
