"""Facets, stars, and smooth points, all named by facet ids.

A facet is its id in ``hrep``: its functional is ``hrep[i]``, its vertices
``facet_index[i]``, its opposite ``neg_functional_id(i)``. The star of a
sphere point is the union of its active facets,
``active_functional_ids(x)``, and the point is smooth when that is one id.
"""

import random
from fractions import Fraction

from polysphere import functional, vector
from samplers import reference_random_facet_point, sphere_points

F = Fraction


def facet_of(space, coeffs):
    """The id of the facet whose functional has these coefficients."""
    return space.functional_id(functional(*coeffs))


def facet_vertices(space, fid):
    return [space.vrep[j] for j in space.facet_index[fid]]


def on_facet(space, fid, y):
    """Membership in the facet: on the sphere and tight for its functional."""
    return space.hrep[fid](y) == 1 and space.norm(y) == 1


def star_vertex_ids(space, x):
    """The vertices v of the ball with norm(x + v) = 2, by the norm alone."""
    return {j for j, v in enumerate(space.vrep) if space.norm(x + v) == 2}


def is_smooth(space, x):
    return len(space.active_functional_ids(x)) == 1


class TestFacets:
    def test_cube_has_six_squares(self, cube3):
        assert len(cube3.hrep) == 6
        top = facet_of(cube3, (0, 0, 1))
        assert {v.coords for v in facet_vertices(cube3, top)} == {
            (F(1), F(1), F(1)),
            (F(1), F(-1), F(1)),
            (F(-1), F(1), F(1)),
            (F(-1), F(-1), F(1)),
        }

    def test_hexagon_has_six_edges(self, hexagon):
        assert len(hexagon.hrep) == 6
        assert all(len(ids) == 2 for ids in hexagon.facet_index)

    def test_cross_polytope_edges(self, cross2):
        assert len(cross2.hrep) == 4
        assert {f.coeffs for f in cross2.hrep} == {
            (F(1), F(1)),
            (F(1), F(-1)),
            (F(-1), F(1)),
            (F(-1), F(-1)),
        }

    def test_listing_is_symmetric(self, small_catalog):
        for space in small_catalog:
            coeffs = {f.coeffs for f in space.hrep}
            assert {tuple(-c for c in f) for f in coeffs} == coeffs

    def test_facets_cover_sphere(self, small_catalog):
        for space in small_catalog:
            for v in space.vrep:
                assert space.active_functional_ids(v)
            for p in sphere_points(space, 20, seed=3):
                assert space.active_functional_ids(p)

    def test_facets_pairwise_non_nested(self, small_catalog):
        for space in small_catalog:
            sets = [set(ids) for ids in space.facet_index]
            for i in range(len(sets)):
                for j in range(len(sets)):
                    if i != j:
                        assert not sets[i] <= sets[j]


class TestStar:
    def test_hexagon_top_vertex(self, hexagon):
        ids = hexagon.active_functional_ids(vector(0, 1))
        assert len(ids) == 1
        assert {v.coords for v in facet_vertices(hexagon, ids[0])} == {
            (F(-1, 2), F(1)),
            (F(1, 2), F(1)),
        }

    def test_cube_corner_has_three_facets(self, cube3):
        ids = cube3.active_functional_ids(vector(1, 1, 1))
        assert {cube3.hrep[i].coeffs for i in ids} == {
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        }

    def test_barycenter_star_is_its_facet(self, small_catalog):
        for space in small_catalog:
            for fid, ids in enumerate(space.facet_index):
                b = space.facet_barycenter(fid)
                assert space.active_functional_ids(b) == (fid,)
                assert star_vertex_ids(space, b) == set(ids)

    def test_rejects_interior_point(self, hexagon):
        """An interior point is on no facet, so its star is empty."""
        x = vector(0, "1/2")
        assert hexagon.norm(x) < 1
        assert hexagon.active_functional_ids(x) == ()
        assert star_vertex_ids(hexagon, x) == set()

    def test_membership_law_random_pairs(self, small_catalog):
        """norm(x+y) = 2 exactly when x and y share an active facet functional."""
        for space in small_catalog:
            pts = sphere_points(space, 40, seed=17)
            for i in range(0, len(pts) - 1, 2):
                x, y = pts[i], pts[i + 1]
                shares = bool(
                    set(space.active_functional_ids(x))
                    & set(space.active_functional_ids(y))
                )
                assert (space.norm(x + y) == 2) == shares

    def test_membership_law_same_facet_pairs(self, small_catalog):
        rng = random.Random(23)
        for space in small_catalog:
            for fid in range(len(space.hrep)):
                x = reference_random_facet_point(space, fid, rng)
                y = reference_random_facet_point(space, fid, rng)
                assert space.norm(x + y) == 2
                assert fid in space.active_functional_ids(x)
                assert on_facet(space, fid, y)


class TestSmoothness:
    def test_hexagon_top_is_smooth(self, hexagon):
        x = vector(0, 1)
        assert is_smooth(hexagon, x)
        # oracle: evaluate all six functionals by hand
        values = sorted(f(x) for f in hexagon.hrep)
        assert values.count(F(1)) == 1

    def test_cube_corner_not_smooth(self, cube3):
        assert not is_smooth(cube3, vector(1, 1, 1))

    def test_cross_vertex_not_smooth(self, cross2):
        assert not is_smooth(cross2, vector(1, 0))

    def test_star_maximal_iff_smooth_sampled(self, small_catalog):
        """The star's vertices, found by the norm alone, are one facet's
        vertex set exactly when one facet is active: facets are not nested,
        so a union of two is no facet."""
        for space in small_catalog:
            facet_sets = [set(ids) for ids in space.facet_index]
            for x in sphere_points(space, 25, seed=29):
                assert is_smooth(space, x) == (star_vertex_ids(space, x) in facet_sets)

    def test_nonsmooth_star_union_not_convex(self, cube3):
        """Oracle: barycenters of two distinct star faces have a midpoint off the star."""
        x = vector(1, 1, 1)
        ids = cube3.active_functional_ids(x)
        b1 = cube3.facet_barycenter(ids[0])
        b2 = cube3.facet_barycenter(ids[1])
        midpoint = (b1 + b2).scale(F(1, 2))
        assert cube3.norm(midpoint) < 1
        assert not any(on_facet(cube3, fid, midpoint) for fid in ids)

    def test_smooth_point_star_equals_containing_face(self, small_catalog, cube3, cross2):
        for space in small_catalog:
            for fid in range(len(space.hrep)):
                b = space.facet_barycenter(fid)
                assert is_smooth(space, b)
                assert space.active_functional_ids(b) == (fid,)
        # oracle: the vertex averages of the cube's top facet and of an l1:2 edge
        assert cube3.facet_barycenter(facet_of(cube3, (0, 0, 1))) == vector(0, 0, 1)
        assert cross2.facet_barycenter(facet_of(cross2, (1, 1))) == vector("1/2", "1/2")


class TestSupportingFunctional:
    def test_cube_top(self, cube3):
        fid = facet_of(cube3, (0, 0, 1))
        assert cube3.hrep[fid].coeffs == (F(0), F(0), F(1))
        assert all(v.coords[2] == 1 for v in facet_vertices(cube3, fid))

    def test_hexagon_top_edge(self, hexagon):
        (fid,) = hexagon.active_functional_ids(vector(0, 1))
        assert hexagon.hrep[fid].coeffs == (F(0), F(1))

    def test_negation_law(self, small_catalog):
        for space in small_catalog:
            for fid, f in enumerate(space.hrep):
                neg = space.neg_functional_id(fid)
                assert space.hrep[neg] == -f
                assert {-v for v in facet_vertices(space, fid)} == set(facet_vertices(space, neg))

    def test_bounds_on_ball(self, small_catalog):
        for space in small_catalog:
            for fid, f in enumerate(space.hrep):
                assert all(abs(f(v)) <= 1 for v in space.vrep)
                assert all(f(v) == 1 for v in facet_vertices(space, fid))
