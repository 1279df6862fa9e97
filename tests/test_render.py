"""The ridges of the facet incidence graph, against a homogenised reference."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysphere import PolyhedralSpace, catalog, linalg
from polysphere.render import _ridge_pairs

CATALOG = ["hex", "l1:2", "l1:3", "l1:4", "linf:2", "linf:3", "linf:4",
           "l1sum(hex,l1:1)", "linfsum(hex,linf:1)", "l1sum(hex,hex)", "linfsum(l1:2,hex)"]


def reference_ridge_pairs(space):
    """Facet pairs whose shared vertices have affine dimension dim - 2, read
    from the Fraction vertices homogenised with a column of ones."""
    pairs = []
    for i, j in itertools.combinations(range(len(space.hrep)), 2):
        shared = sorted(set(space.facet_index[i]) & set(space.facet_index[j]))
        points = [space.vrep[k].coords for k in shared]
        if points and linalg.affine_rank(points) == space.dim - 1:
            pairs.append((i, j))
    return pairs


@st.composite
def symmetric_polytopes(draw):
    """The hull of a few small rational points in dim 3 or 4 and their
    negations."""
    dim = draw(st.sampled_from((3, 4)))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim, max_size=dim + 2))
    assume(linalg.rank(points) == dim)
    return PolyhedralSpace.from_vertices(points, symmetrize=True)


@pytest.mark.parametrize("name", CATALOG)
def test_ridges_match_the_homogenised_reference_on_the_catalog(name):
    space = catalog.resolve(name)
    pairs = _ridge_pairs(space)
    assert pairs == reference_ridge_pairs(space)
    # Every facet of a polytope of dimension 2 or more has a ridge.
    assert {i for pair in pairs for i in pair} == set(range(len(space.hrep)))


@settings(max_examples=30, deadline=None)
@given(symmetric_polytopes())
def test_ridges_match_the_homogenised_reference_on_random_polytopes(space):
    assert _ridge_pairs(space) == reference_ridge_pairs(space)
