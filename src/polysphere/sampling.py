"""The seeded rational sampler of verification code.

All randomness flows through seeded ``random.Random`` instances so that
reports and failures are reproducible byte for byte.
:func:`random_facet_point` draws a point of one facet;
:func:`polysphere.isometry.verify_isometry` compares distances at one
such point per facet.

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


def random_facet_point(space: PolyhedralSpace, fid: int, rng: random.Random) -> Vector:
    """A random rational convex combination of the facet's vertices."""
    ids = space.facet_index[fid]
    weights = [rng.randint(0, 6) for _ in ids]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    den = sum(weights) * space._point_scale
    cols = zip(*(space._points[j] for j in ids))
    return Vector._of(tuple(Fraction(sum(map(mul, weights, col)), den) for col in cols))
