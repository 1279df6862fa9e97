"""Seeded rational samplers used by verification code and tests.

All randomness flows through seeded ``random.Random`` instances so that
reports and failures are reproducible byte for byte. :func:`sphere_points`
draws points of norm one, and :func:`random_facet_point` a point of one
facet; :func:`polysphere.isometry.verify_isometry` compares distances at
one such point per facet.

:func:`random_facet_point` combines a space's integer vertex rows
(``_points``, over the vertex scale e = ``_point_scale``) on integers,
with integer weights, and builds one Fraction per coordinate: a convex
combination with weights w_j / W is ``Fraction(sum_j w_j * P_j[c], W * e)``.
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
