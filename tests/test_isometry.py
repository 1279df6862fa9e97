"""Sphere maps, isometry verification, and certified linear extension."""

import itertools
from fractions import Fraction

import pytest

from polysphere import (
    CertificationError,
    GeometryError,
    PolyhedralSpace,
    SphereMap,
    extend,
    l1_space,
    linf_space,
    transported_functionals,
    vector,
    verify_isometry,
)
from polysphere.linalg import mat_mul

F = Fraction

# Rotation of the hexagon by one facet, and the reflection (x, y) -> (x, -y).
HEX_ROTATION = ((F(1, 2), F(-3, 4)), (F(1), F(1, 2)))
HEX_REFLECTION = ((F(1), F(0)), (F(0), F(-1)))


def signed_permutations(n):
    """Every permutation with one sign vector each, cycling through all sign vectors."""
    perms = list(itertools.permutations(range(n)))
    signs = list(itertools.product((1, -1), repeat=n))
    for k in range(max(len(perms), len(signs))):
        perm, sign = perms[k % len(perms)], signs[k % len(signs)]
        yield tuple(
            tuple(F(sign[i]) if perm[i] == j else F(0) for j in range(n)) for i in range(n)
        )


def hex_symmetries():
    out = []
    power = ((F(1), F(0)), (F(0), F(1)))
    for _ in range(6):
        out.append(power)
        out.append(mat_mul(power, HEX_REFLECTION))
        power = mat_mul(HEX_ROTATION, power)
    return out


def moved_hexagon():
    """The hexagon with the vertex pair +-(1/2, 1) moved to +-(1/4, 1); same face lattice."""
    return PolyhedralSpace.from_vertices(
        [vector(1, 0), vector(F(1, 4), 1), vector(F(-1, 2), 1)], symmetrize=True, name="moved"
    )


def map_by_coordinates(domain, codomain, pairs):
    vmap = [None] * len(domain.vrep)
    for v, w in pairs:
        vmap[domain.vertex_id(v)] = codomain.vertex_id(w)
    return SphereMap(domain, codomain, tuple(vmap))


def assert_certified(m, matrix):
    report = verify_isometry(m)
    assert report.passed and not report.malformed
    cert = extend(m)
    assert cert.matrix == matrix
    assert len(cert.functional_pairs) == len(m.domain.hrep)


class TestLinearSymmetries:
    @pytest.mark.parametrize("space", [linf_space(3), l1_space(3)], ids=["linf3", "l1_3"])
    def test_signed_permutations(self, space):
        for matrix in signed_permutations(3):
            assert_certified(SphereMap.from_linear(space, space, matrix), matrix)

    def test_twelve_hexagon_symmetries(self, hexagon):
        symmetries = hex_symmetries()
        assert len(set(symmetries)) == 12
        for matrix in symmetries:
            assert_certified(SphereMap.from_linear(hexagon, hexagon, matrix), matrix)

    def test_linf2_and_l1_2_are_isometric(self):
        l1, linf = l1_space(2), linf_space(2)
        forward = ((F(1), F(1)), (F(1), F(-1)))
        backward = ((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)))
        assert_certified(SphereMap.from_linear(l1, linf, forward), forward)
        assert_certified(SphereMap.from_linear(linf, l1, backward), backward)


class TestRejections:
    def test_moved_vertex_gives_distance_counterexample(self, hexagon):
        moved = moved_hexagon()
        shift = {vector(F(1, 2), 1): vector(F(1, 4), 1), vector(F(-1, 2), -1): vector(F(-1, 4), -1)}
        m = map_by_coordinates(hexagon, moved, [(v, shift.get(v, v)) for v in hexagon.vrep])
        assert None not in m.facet_map
        report = verify_isometry(m)
        assert not report.passed and not report.malformed
        assert report.reason == "vertex pair distance not preserved"
        p, q, lhs, rhs = report.counterexample
        assert lhs == hexagon.norm(p - q) and lhs != rhs
        assert rhs == moved.norm(m.apply(p) - m.apply(q))

    def test_map_that_breaks_a_facet_is_a_verdict(self, hexagon):
        # v0 and v2 swapped: the images of facet 0 = {v0, v1} are no facet.
        m = SphereMap(hexagon, hexagon, (2, 1, 0, 3, 4, 5))
        assert m.facet_map[0] is None
        report = verify_isometry(m)
        assert not report.passed and not report.malformed
        assert report.reason == "vertex images of facet 0 do not form a codomain facet"
        assert report.counterexample == (hexagon.vrep[2], hexagon.vrep[1])
        with pytest.raises(CertificationError):
            transported_functionals(m)

    def test_facet_counts_differ(self):
        # Each cube facet holds one vertex of every antipodal pair, so sending
        # the pairs to +-e1..+-e4 carries all 6 cube facets onto facets of the
        # 16-facet cross-polytope, and every vertex distance is 2 on both sides.
        cube, cross = linf_space(3), l1_space(4)
        reps = [vector(1, 1, 1), vector(1, 1, -1), vector(1, -1, 1), vector(-1, 1, 1)]
        pairs = []
        for k, r in enumerate(reps):
            e = vector(*(1 if i == k else 0 for i in range(4)))
            pairs += [(r, e), (-r, -e)]
        m = map_by_coordinates(cube, cross, pairs)
        assert None not in m.facet_map
        report = verify_isometry(m)
        assert not report.passed and not report.malformed
        assert report.reason == "facet counts differ: 6 in the domain, 16 in the codomain"

    def test_vertex_map_must_be_a_bijection(self, hexagon):
        with pytest.raises(GeometryError):
            SphereMap(hexagon, hexagon, (0, 0, 2, 3, 4, 5))
        with pytest.raises(GeometryError):
            SphereMap(hexagon, linf_space(3), tuple(range(6)))

    @pytest.mark.parametrize(
        "domain,codomain,matrix",
        [
            # Images are vertices, but two cube vertices share each one.
            (linf_space(2), l1_space(2), ((F(1), F(0)), (F(0), F(0)))),
            # Images are not vertices at all.
            (linf_space(2), linf_space(2), ((F(1), F(0)), (F(0), F(2)))),
        ],
        ids=["collapsing", "stretching"],
    )
    def test_from_linear_rejects_a_matrix_that_breaks_facets(self, domain, codomain, matrix):
        with pytest.raises(GeometryError):
            SphereMap.from_linear(domain, codomain, matrix)
