"""Facets, stars, and smooth points."""

import random
from fractions import Fraction

import pytest

from polysphere import (
    Face,
    NotOnSphereError,
    facets,
    functional,
    is_smooth,
    star,
    vector,
)
from polysphere.sampling import random_facet_point, sphere_points

F = Fraction


def face_by_functional(space, coeffs):
    return Face(space, space.functional_id(functional(*coeffs)))


class TestFacets:
    def test_cube_has_six_squares(self, cube3):
        fs = facets(cube3)
        assert len(fs) == 6
        top = face_by_functional(cube3, (0, 0, 1))
        assert {v.coords for v in top.vertices} == {
            (F(1), F(1), F(1)),
            (F(1), F(-1), F(1)),
            (F(-1), F(1), F(1)),
            (F(-1), F(-1), F(1)),
        }

    def test_hexagon_has_six_edges(self, hexagon):
        fs = facets(hexagon)
        assert len(fs) == 6
        assert all(len(f.vertex_ids) == 2 for f in fs)

    def test_cross_polytope_edges(self, cross2):
        fs = facets(cross2)
        assert len(fs) == 4
        assert {f.functional.coeffs for f in fs} == {
            (F(1), F(1)),
            (F(1), F(-1)),
            (F(-1), F(1)),
            (F(-1), F(-1)),
        }

    def test_listing_is_symmetric(self, small_catalog):
        for space in small_catalog:
            ids = {f.functional.coeffs for f in facets(space)}
            assert {tuple(-c for c in f) for f in ids} == ids

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
        st = star(hexagon, vector(0, 1))
        assert len(st.faces) == 1
        assert {v.coords for v in st.faces[0].vertices} == {
            (F(-1, 2), F(1)),
            (F(1, 2), F(1)),
        }

    def test_cube_corner_has_three_facets(self, cube3):
        st = star(cube3, vector(1, 1, 1))
        assert {f.functional.coeffs for f in st.faces} == {
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        }

    def test_barycenter_star_is_its_facet(self, small_catalog):
        for space in small_catalog:
            for face in facets(space):
                st = star(space, face.barycenter)
                assert st.face_ids == (face.functional_id,)
                assert {v.coords for v in st.faces[0].vertices} == {
                    v.coords for v in face.vertices
                }

    def test_rejects_interior_point(self, hexagon):
        with pytest.raises(NotOnSphereError):
            star(hexagon, vector(0, "1/2"))

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
                x = random_facet_point(space, fid, rng)
                y = random_facet_point(space, fid, rng)
                assert space.norm(x + y) == 2
                assert star(space, x).contains(y)


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
        for space in small_catalog:
            for x in sphere_points(space, 25, seed=29):
                assert is_smooth(space, x) == (len(star(space, x).faces) == 1)

    def test_nonsmooth_star_union_not_convex(self, cube3):
        """Oracle: barycenters of two distinct star faces have a midpoint off the star."""
        x = vector(1, 1, 1)
        st = star(cube3, x)
        b1 = st.faces[0].barycenter
        b2 = st.faces[1].barycenter
        midpoint = (b1 + b2).scale(F(1, 2))
        assert cube3.norm(midpoint) < 1
        assert not st.contains(midpoint)

    def test_smooth_point_star_equals_containing_face(self, small_catalog, cube3, cross2):
        for space in small_catalog:
            for face in facets(space):
                b = face.barycenter
                assert is_smooth(space, b)
                st = star(space, b)
                assert st.face_ids == (face.functional_id,)
        # oracle: the vertex averages of the cube's top facet and of an l1:2 edge
        assert face_by_functional(cube3, (0, 0, 1)).barycenter == vector(0, 0, 1)
        assert face_by_functional(cross2, (1, 1)).barycenter == vector("1/2", "1/2")


class TestSupportingFunctional:
    def test_cube_top(self, cube3):
        face = face_by_functional(cube3, (0, 0, 1))
        assert face.functional.coeffs == (F(0), F(0), F(1))

    def test_hexagon_top_edge(self, hexagon):
        st = star(hexagon, vector(0, 1))
        assert st.faces[0].functional.coeffs == (F(0), F(1))

    def test_negation_law(self, small_catalog):
        for space in small_catalog:
            for face in facets(space):
                assert face.opposite.functional == -face.functional

    def test_bounds_on_ball(self, small_catalog):
        for space in small_catalog:
            for face in facets(space):
                f = face.functional
                assert all(abs(f(v)) <= 1 for v in space.vrep)
                assert all(f(v) == 1 for v in face.vertices)

