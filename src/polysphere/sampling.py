"""Deterministic rational samplers used by verification code and tests.

All randomness flows through seeded ``random.Random`` instances so that
reports and failures are reproducible byte for byte.

The facet samplers combine a space's integer vertex rows (``_points``,
over the vertex scale e = ``_point_scale``) on integers, with integer
weights, and build one Fraction per coordinate: a convex combination with
weights w_j / W is ``Fraction(sum_j w_j * P_j[c], W * e)``.

The deterministic samples, facet barycenters and vertex-pair midpoints,
are means of groups of vertex ids. :func:`facet_sample_groups` enumerates
the groups once, in their one order, with the row of each mean taken from
any integer rows of the vertices that are linear in the point and tell
points apart: the vertex rows give :func:`facet_sample_points`, and the
facet-value table gives the rows that
:func:`polysphere.isometry.verify_isometry` compares.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import mul
from typing import Sequence

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


def mean_rows(rows: Sequence[Sequence[int]], groups, m: int) -> list[tuple[int, ...]]:
    """Row k is m / |S| times the sum of ``rows[j]`` over j in S = ``groups[k]``.

    When ``rows[j]`` is linear in vertex j, over one scale r, this is the
    row of the mean of the group's vertices over m * r; m must be a
    multiple of every group's size.
    """
    return [tuple(m // len(g) * sum(col) for col in zip(*(rows[j] for j in g))) for g in groups]


def facet_sample_groups(
    space: PolyhedralSpace, rows: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """The deterministic facet samples as groups of vertex ids, with their rows.

    For each facet in canonical order: the group of all its vertex ids,
    whose mean is the facet's barycenter, then each pair (a, b) of them
    with a before b, whose mean is a midpoint. ``rows[j]`` is an integer
    row of vertex j over one scale r, linear in the vertex, such that
    distinct points have distinct rows: the vertex rows ``_points``, or
    the facet-value table ``facet_table``, since the facet functionals
    span the dual. A group whose row was seen before is dropped, so the
    first group of each point is kept.

    Returns the groups, their rows from :func:`mean_rows` over m * r, and
    m, the least common multiple of 2 and the facet sizes.
    """
    m = math.lcm(2, *map(len, space.facet_index))
    groups = [
        g
        for ids in space.facet_index
        for g in itertools.chain((ids,), itertools.combinations(ids, 2))
    ]
    first = {}
    for g, row in zip(groups, mean_rows(rows, groups, m)):
        first.setdefault(row, g)
    return list(first.values()), list(first), m


def facet_sample_points(space: PolyhedralSpace) -> list[Vector]:
    """Deterministic interior facet samples: barycenters plus vertex-pair
    midpoints, the points of :func:`facet_sample_groups` in its order."""
    _, rows, m = facet_sample_groups(space, space._points)
    den = m * space._point_scale
    return [Vector._of(tuple(Fraction(c, den) for c in row)) for row in rows]
