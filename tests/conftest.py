import itertools
from fractions import Fraction

import pytest
from hypothesis import settings

from polysphere import Vector, hexagon_space, l1_space, linf_space
from polysphere.linalg import combination

# Every run draws the same examples, so a change in test time or a failure
# belongs to the code, not to a new draw. The derandomized profile seeds
# each test from its own source and keeps no example database.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def reference_facet_sample_points(space):
    """Deterministic points of the facets, on Fractions: each facet's
    barycenter as the mean of its vertices, then its vertex-pair
    midpoints, first sighting kept."""
    seen, points = set(), []
    for ids in space.facet_index:
        verts = [space.vrep[j] for j in ids]
        mean = combination([Fraction(1, len(verts))] * len(verts), [v.coords for v in verts])
        candidates = [Vector(mean)]
        candidates += [(a + b).scale(Fraction(1, 2)) for a, b in itertools.combinations(verts, 2)]
        for v in candidates:
            if v not in seen:
                seen.add(v)
                points.append(v)
    return points


@pytest.fixture(scope="session")
def hexagon():
    return hexagon_space()


@pytest.fixture(scope="session")
def cube3():
    return linf_space(3)


@pytest.fixture(scope="session")
def cross2():
    return l1_space(2)


@pytest.fixture(scope="session")
def square():
    return linf_space(2)


@pytest.fixture(scope="session")
def small_catalog(hexagon):
    """The concrete catalog spaces used by the property suites."""
    spaces = [hexagon]
    for n in range(1, 5):
        spaces.append(l1_space(n))
        spaces.append(linf_space(n))
    return spaces
