"""Seeded rational samplers of the test suites.

Every draw comes from a seeded ``random.Random``, so a failing example
repeats byte for byte.
"""

import random
from fractions import Fraction

from polysphere import PolyhedralSpace, Vector
from polysphere.linalg import combination

DEFAULT_SEED = 0


def random_fraction(rng: random.Random, max_num: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_direction(rng: random.Random, dim: int) -> Vector:
    while True:
        coords = tuple(random_fraction(rng) for _ in range(dim))
        if any(c != 0 for c in coords):
            return Vector(coords)


def sphere_points(space: PolyhedralSpace, count: int, seed=DEFAULT_SEED) -> list[Vector]:
    """Seeded rational points of norm exactly one."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        d = random_direction(rng, space.dim)
        points.append(d.scale(1 / space.norm(d)))
    return points


def reference_random_facet_point(space: PolyhedralSpace, fid: int, rng: random.Random) -> Vector:
    """A random rational convex combination of the facet's vertices, on
    Fractions: integer weights 0..6 over the facet's vertex ids, or one
    vertex picked by ``randrange`` when every weight is zero. These are the
    draws of the seeded pass of ``verify_isometry``."""
    ids = space.facet_index[fid]
    weights = [Fraction(rng.randint(0, 6)) for _ in ids]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = Fraction(1)
    total = sum(weights)
    points = [space.vrep[j].coords for j in ids]
    return Vector(combination([w / total for w in weights], points))
