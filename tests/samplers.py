"""Seeded rational samplers of the test suites.

Every draw comes from a seeded ``random.Random``, so a failing example
repeats byte for byte.
"""

import random
from fractions import Fraction

from polysphere import PolyhedralSpace, Vector
from polysphere.sampling import DEFAULT_SEED, rng_from


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
