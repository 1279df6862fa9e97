"""Facets, stars, smooth points, and subspace sections."""

import random
from fractions import Fraction

import pytest

from polysphere import (
    Face,
    NotOnSphereError,
    face_section,
    facets,
    functional,
    is_smooth,
    l1_space,
    linf_space,
    section_coordinates,
    star,
    subspace_section,
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

    def test_smooth_point_star_equals_containing_face(self, small_catalog):
        for space in small_catalog:
            for face in facets(space):
                b = face.barycenter
                assert is_smooth(space, b)
                st = star(space, b)
                assert st.face_ids == (face.functional_id,)


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


class TestSections:
    def test_identity_section(self, cube3):
        basis = [vector(1, 0, 0), vector(0, 1, 0), vector(0, 0, 1)]
        assert subspace_section(cube3, basis) == cube3

    def test_coordinate_section_of_cross_polytope(self):
        section = subspace_section(l1_space(3), [vector(1, 0, 0), vector(0, 1, 0)])
        assert section == l1_space(2)

    def test_dependent_basis_rejected(self, cube3):
        with pytest.raises(ValueError):
            subspace_section(cube3, [vector(1, 1, 0), vector(2, 2, 0)])

    def test_section_norm_agrees_with_ambient(self, cube3):
        basis = [vector(1, 1, 1), vector(1, -1, 0)]
        section = subspace_section(cube3, basis)
        rng = random.Random(31)
        for _ in range(20):
            a = F(rng.randint(-4, 4), rng.randint(1, 3))
            b = F(rng.randint(-4, 4), rng.randint(1, 3))
            ambient = basis[0].scale(a) + basis[1].scale(b)
            assert section.norm(vector(a, b)) == cube3.norm(ambient)

    def test_cube_diagonal_section_face_is_one_point(self, cube3):
        top = face_by_functional(cube3, (0, 0, 1))
        pts = face_section(cube3, top, [vector(1, 1, 1), vector(1, -1, 0)])
        assert pts == (vector(1, 1, 1),)

    def test_cube_section_missing_facet(self, cube3):
        top = face_by_functional(cube3, (0, 0, 1))
        assert face_section(cube3, top, [vector(1, 0, 0), vector(0, 1, 0)]) == ()

    def test_cube_section_segment(self, cube3):
        top = face_by_functional(cube3, (0, 0, 1))
        pts = face_section(cube3, top, [vector(1, 0, 0), vector(0, 0, 1)])
        assert set(pts) == {vector(1, 0, 1), vector(-1, 0, 1)}

    def test_section_point_not_maximal_in_section(self, cube3):
        """The single section point lies on the section sphere segment joining
        the basis images, so it is not maximal convex in the section."""
        basis = [vector(1, 1, 1), vector(1, -1, 0)]
        section = subspace_section(cube3, basis)
        a = section_coordinates(basis, basis[0])
        b = section_coordinates(basis, basis[1])
        assert section.norm(a) == 1
        assert section.norm(b) == 1
        assert section.norm((a + b).scale(F(1, 2))) == 1
        assert not is_smooth(section, a)
