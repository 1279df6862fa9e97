"""Sphere maps, isometry verification, and certified linear extension."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysphere import (
    CertificationError,
    ExtensionCertificate,
    GeometryError,
    IsometryReport,
    NotOnSphereError,
    PolyhedralSpace,
    SphereMap,
    Vector,
    extend,
    hexagon_space,
    l1_space,
    linf_space,
    transported_functionals,
    vector,
    verify_isometry,
)
from polysphere import isometry as isometry_module
from polysphere import linalg
from polysphere.isometry import _first_unequal_pair, _first_untransported
from polysphere.catalog import linf_sum, resolve
from polysphere.linalg import ONE, combination, dot, integer_rows, mat_vec, transpose
from conftest import reference_facet_sample_points
from samplers import DEFAULT_SEED, reference_random_facet_point
from test_linalg import reference_invert

F = Fraction

# Rotation of the hexagon by one facet, and the reflection (x, y) -> (x, -y).
HEX_ROTATION = ((F(1, 2), F(-3, 4)), (F(1), F(1, 2)))
HEX_REFLECTION = ((F(1), F(0)), (F(0), F(-1)))


def mat_mul(a, b):
    return tuple(tuple(dot(row, col) for col in transpose(b)) for row in a)


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


def moved_hexagon(b=(F(1, 4), 1)):
    """The hexagon with the vertex pair +-(1/2, 1) moved to +-b (default (1/4, 1))."""
    return PolyhedralSpace.from_vertices(
        [vector(1, 0), vector(*b), vector(F(-1, 2), 1)], symmetrize=True, name="moved"
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

    def test_sheared_images_whose_tables_have_another_scale(self, hexagon):
        """Functional transport compares facet values across two scales, and
        images and vertex agreement compare vertex rows across two scales."""
        cases = [(hexagon, t) for t in SHEARS[1:]] + [(l1_space(3), t) for t in SHEARS_3D]
        for space, matrix in cases:
            m = sheared_image(space, matrix)
            assert m.domain.facet_scale != m.codomain.facet_scale
            assert m.domain._point_scale != m.codomain._point_scale
            assert_certified(m, matrix)
            assert_matches_references(m)


class TestRejections:
    def test_moved_vertex_gives_distance_counterexample(self, hexagon):
        m = moved_vertex_map(hexagon)
        moved = m.codomain
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
        # The cube's table is carried onto 6 of the 16 codomain facets, so
        # only the count check keeps extend from certifying a 4 x 3 matrix.
        assert _first_untransported(m) is None
        with pytest.raises(CertificationError, match="^facet counts differ: 6 in the domain"):
            extend(m)

    def test_antipodal_swap_is_refuted_by_the_seeded_pass(self):
        """A face-lattice automorphism that every cheap pass lets through: it
        swaps vertex 1 with its antipode, vertex 6, and fixes the others.
        Facets go onto facets and every vertex-pair distance is kept, so the
        seeded pass refutes it; the table refutes it too."""
        space = PolyhedralSpace.from_vertices(
            [(0, 3, 2), (-3, 1, 1), (-2, -2, -1), (3, -3, -1), (-2, 0, 0)], symmetrize=True
        )
        assert (len(space.vrep), len(space.hrep)) == (8, 12)
        assert (space.vrep[1], space.vrep[6]) == (vector(-3, 3, 1), vector(3, -3, -1))
        vmap = list(range(8))
        vmap[1], vmap[6] = 6, 1
        m = SphereMap(space, space, tuple(vmap))
        assert None not in m.facet_map
        report = verify_isometry(m)
        assert not report.passed and not report.malformed
        assert report.reason == "sampled distance not preserved"
        assert report.counterexample == (
            vector(-3, 1, 1), vector(F(-13, 5), F(1, 5), F(1, 5)), F(4, 5), F(13, 15)
        )
        assert _first_untransported(m) == (0, 3)
        with pytest.raises(CertificationError):
            extend(m)

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


def reference_apply(m, x):
    """``SphereMap.apply`` on Fractions: the first facet functional that is
    one at x, the same barycentric LP, and the Fraction combination of the
    vertex images."""
    dom = m.domain
    values = [f(x) for f in dom.hrep]
    if max(values) != 1:
        raise NotOnSphereError(f"{x} is not on the domain sphere")
    ids = dom.facet_index[values.index(1)]
    weights = isometry_module._barycentric_weights([dom.vrep[j] for j in ids], x)
    return Vector(combination(weights, [m.vertex_image(j).coords for j in ids]))


def reference_first_untransported(m):
    """``_first_untransported`` through ``Functional`` calls: the first
    (fid, i), facet-major, with g(image of v_i) != f(v_i), where i is None
    when facet fid has no image facet."""
    for fid, gid in enumerate(m.facet_map):
        if gid is None:
            return fid, None
        f, g = m.domain.hrep[fid], m.codomain.hrep[gid]
        for i, v in enumerate(m.domain.vrep):
            if g(m.vertex_image(i)) != f(v):
                return fid, i
    return None


def reference_extend(m):
    """``extend`` on Fractions: the facet counts, the transport of facet
    values through ``Functional`` calls, then the matrix from one vertex
    basis. A certified matrix is checked to send every vertex to its image,
    which the passing table proves."""
    dom, cod = m.domain, m.codomain
    if len(dom.hrep) != len(cod.hrep):
        raise CertificationError(
            f"facet counts differ: {len(dom.hrep)} in the domain, {len(cod.hrep)} in the codomain"
        )
    hit = reference_first_untransported(m)
    if hit is not None:
        fid, i = hit
        if i is None:
            raise CertificationError(
                f"vertex images of facet {fid} do not form a codomain facet", detail=(fid,)
            )
        v = dom.vrep[i]
        raise CertificationError(
            f"functional transport fails at facet {fid}, vertex {v}", detail=(fid, v)
        )
    pairs = tuple((dom.hrep[fid], cod.hrep[gid]) for fid, gid in enumerate(m.facet_map))
    base_ids = linalg.independent_row_indices([v.coords for v in dom.vrep])
    vcols = linalg.transpose(tuple(dom.vrep[i].coords for i in base_ids))
    wcols = linalg.transpose(tuple(m.vertex_image(i).coords for i in base_ids))
    matrix = mat_mul(wcols, reference_invert(vcols))
    for i, v in enumerate(dom.vrep):
        assert Vector(mat_vec(matrix, v.coords)) == m.vertex_image(i)
    return ExtensionCertificate(matrix=matrix, functional_pairs=pairs)


def reference_pool(space, seed=DEFAULT_SEED):
    """The pool of the seeded pass from the Fraction sampler: the vertices,
    then one seeded point per facet."""
    rng = random.Random(seed)
    seeded = [reference_random_facet_point(space, fid, rng) for fid in range(len(space.hrep))]
    return list(space.vrep) + seeded


def reference_verify_isometry(m, seed=DEFAULT_SEED, apply=reference_apply):
    """The pair passes as plain double loops over exact norms of differences,
    on points and images from the Fraction references above, then the
    table check through ``Functional`` calls."""
    dom, cod = m.domain, m.codomain

    for fid, gid in enumerate(m.facet_map):
        if gid is None:
            return IsometryReport(
                False,
                reason=f"vertex images of facet {fid} do not form a codomain facet",
                counterexample=tuple(m.vertex_image(j) for j in dom.facet_index[fid]),
            )
    if len(dom.hrep) != len(cod.hrep):
        return IsometryReport(
            False,
            reason=(
                f"facet counts differ: {len(dom.hrep)} in the domain, "
                f"{len(cod.hrep)} in the codomain"
            ),
        )

    for i in range(len(dom.vrep)):
        if m.vertex_map[dom.neg_vertex_id(i)] != cod.neg_vertex_id(m.vertex_map[i]):
            return IsometryReport(
                False,
                reason="antipodality fails on vertices",
                counterexample=(dom.vrep[i], -dom.vrep[i]),
            )

    for i in range(len(dom.vrep)):
        for j in range(i + 1, len(dom.vrep)):
            lhs = dom.norm(dom.vrep[i] - dom.vrep[j])
            rhs = cod.norm(m.vertex_image(i) - m.vertex_image(j))
            if lhs != rhs:
                return IsometryReport(
                    False,
                    reason="vertex pair distance not preserved",
                    counterexample=(dom.vrep[i], dom.vrep[j], lhs, rhs),
                )

    for fid, ids in enumerate(dom.facet_index):
        hom = [dom.vrep[j].coords + (ONE,) for j in ids]
        images = [m.vertex_image(j).coords for j in ids]
        if linalg.rank(hom) != linalg.rank([h + w for h, w in zip(hom, images)]):
            return IsometryReport(
                False,
                malformed=True,
                reason="evaluation not well defined: no affine map matches the facet data",
                counterexample=(fid,),
            )

    pool = reference_pool(dom, seed)
    images = [apply(m, p) for p in pool]
    nv = len(dom.vrep)
    for i in range(len(pool)):
        for j in range(max(i + 1, nv), len(pool)):
            lhs = dom.norm(pool[i] - pool[j])
            rhs = cod.norm(images[i] - images[j])
            if lhs != rhs:
                return IsometryReport(
                    False,
                    reason="sampled distance not preserved",
                    counterexample=(pool[i], pool[j], lhs, rhs),
                )

    hit = reference_first_untransported(m)
    if hit is not None:
        fid, i = hit
        v, f, g = dom.vrep[i], dom.hrep[fid], cod.hrep[m.facet_map[fid]]
        return IsometryReport(
            False,
            reason="facet values are not transported",
            counterexample=(v, fid, f(v), g(m.vertex_image(i))),
        )
    return IsometryReport(True)


def assert_same_report(m, seed=DEFAULT_SEED, apply=reference_apply):
    report = verify_isometry(m, seed)
    assert report == reference_verify_isometry(m, seed, apply)
    return report


def sheared_image(space, matrix):
    """The map x -> matrix x from ``space`` onto the image of its ball."""
    image = PolyhedralSpace.from_vertices([mat_vec(matrix, v.coords) for v in space.vrep])
    return SphereMap.from_linear(space, image, matrix)


SHEARS = [
    ((F(1), F(1)), (F(0), F(1))),
    ((F(1), F(0)), (F(-3, 2), F(1))),
    ((F(2), F(1, 3)), (F(1, 2), F(1))),
]
SHEARS_3D = [
    ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(-1, 2), F(1))),
    ((F(1), F(0), F(2)), (F(1, 3), F(1), F(0)), (F(0), F(0), F(1))),
]


class TestAgainstReference:
    """The facet-value passes give the reports of the double loops over norms."""

    def test_hexagon_symmetries(self, hexagon):
        for matrix in hex_symmetries():
            assert assert_same_report(SphereMap.from_linear(hexagon, hexagon, matrix)).passed

    @pytest.mark.parametrize(
        "space,limit",
        [(l1_space(3), None), (linf_space(3), None), (linf_space(4), 2)],
        ids=["l1_3", "linf3", "linf4"],
    )
    def test_signed_permutations(self, space, limit):
        for matrix in itertools.islice(signed_permutations(space.dim), limit):
            assert assert_same_report(SphereMap.from_linear(space, space, matrix)).passed

    def test_sheared_linear_images(self, hexagon):
        cases = [(hexagon, t) for t in SHEARS] + [(moved_hexagon(), t) for t in SHEARS]
        cases += [(space, t) for space in (l1_space(3), linf_space(3)) for t in SHEARS_3D]
        for space, matrix in cases:
            assert assert_same_report(sheared_image(space, matrix)).passed

    def test_moved_hexagon_grid(self, hexagon):
        verdicts, extensions = set(), set()
        for x, y in itertools.product(range(0, 6), range(2, 8)):
            b = (F(x, 4), F(y, 4))
            moved = moved_hexagon(b)
            if len(moved.vrep) != 6:
                continue
            shift = {vector(F(1, 2), 1): vector(*b), vector(F(-1, 2), -1): -vector(*b)}
            for domain, codomain, pairs in [
                (hexagon, moved, [(v, shift.get(v, v)) for v in hexagon.vrep]),
                (moved, hexagon, [(shift.get(v, v), v) for v in hexagon.vrep]),
            ]:
                m = map_by_coordinates(domain, codomain, pairs)
                report = assert_matches_references(m)
                pair = report.counterexample[:2] if report.counterexample else None
                verdicts.add((report.passed, report.reason, pair))
                extensions.add(type(extend_outcome(extend, m)))
        assert (True, "", None) in verdicts
        assert extensions == {ExtensionCertificate, tuple}
        # The grid reaches several first failing pairs, not one.
        assert len({v[2] for v in verdicts if not v[0]}) > 2

    def test_sampled_failure_on_seeded_points(self, hexagon, monkeypatch):
        # No map above fails on a seeded point after passing the vertex
        # pairs, so swap two seeded points where apply evaluates them.
        a, b = [p for p in reference_pool(hexagon) if p not in hexagon.vrep][:2]
        swap = {a: b, b: a}
        apply = SphereMap.apply
        monkeypatch.setattr(SphereMap, "apply", lambda m, x: apply(m, swap.get(x, x)))

        def swapped(m, x):
            return reference_apply(m, swap.get(x, x))

        for matrix in hex_symmetries()[:4]:
            m = SphereMap.from_linear(hexagon, hexagon, matrix)
            report = assert_same_report(m, apply=swapped)
            assert report.reason == "sampled distance not preserved"

    def test_transport_failure(self, hexagon, monkeypatch):
        # The moved-vertex map fails at the vertex pairs, and no map found
        # passes the distance passes and fails the table, so skip both pair
        # scans to reach the table check.
        m = moved_vertex_map(hexagon)
        monkeypatch.setattr(isometry_module, "_first_unequal_pair", lambda *args, **kw: None)
        report = verify_isometry(m)
        assert not report.passed and not report.malformed
        assert report.reason == "facet values are not transported"
        fid, i = reference_first_untransported(m)
        v, g = hexagon.vrep[i], m.codomain.hrep[m.facet_map[fid]]
        assert report.counterexample == (v, fid, hexagon.hrep[fid](v), g(m.vertex_image(i)))
        assert report.counterexample == (vector(F(-1, 2), 1), 0, F(0), F(-1, 4))


def moved_vertex_map(hexagon):
    """The hexagon onto the moved hexagon, +-(1/2, 1) to +-(1/4, 1)."""
    shift = {vector(F(1, 2), 1): vector(F(1, 4), 1), vector(F(-1, 2), -1): vector(F(-1, 4), -1)}
    return map_by_coordinates(hexagon, moved_hexagon(), [(v, shift.get(v, v)) for v in hexagon.vrep])


def test_first_untransported_on_a_moved_vertex_map(hexagon):
    """The shared table check returns the first (facet, vertex), facet-major,
    whose two values differ: the functional of facet 0 moves, and its two
    vertices keep the value one, so vertex 2 is the first to differ."""
    m = moved_vertex_map(hexagon)
    assert _first_untransported(m) == reference_first_untransported(m) == (0, 2)
    with pytest.raises(CertificationError, match="^functional transport fails at facet 0, vertex"):
        transported_functionals(m)


def moved_hexagon_maps(hexagon):
    """Vertex maps between the hexagon and moved hexagons, both ways; most
    of them are not isometries."""
    maps = []
    for x, y in itertools.product(range(0, 6), range(2, 8)):
        b = (F(x, 4), F(y, 4))
        moved = moved_hexagon(b)
        if len(moved.vrep) != 6:
            continue
        shift = {vector(F(1, 2), 1): vector(*b), vector(F(-1, 2), -1): -vector(*b)}
        pairs = [(v, shift.get(v, v)) for v in hexagon.vrep]
        maps.append(map_by_coordinates(hexagon, moved, pairs))
        maps.append(map_by_coordinates(moved, hexagon, [(w, v) for v, w in pairs]))
    return maps


def test_apply_sends_each_vertex_to_its_vertex_image(hexagon):
    """A vertex's only barycentric weights are one-hot, so apply agrees with
    vertex_image, which verify_isometry reads instead of calling apply."""
    maps = [SphereMap.from_linear(hexagon, hexagon, t) for t in hex_symmetries()]
    for space in (l1_space(3), linf_space(3)):
        maps += [SphereMap.from_linear(space, space, t) for t in signed_permutations(3)]
    moved = moved_hexagon_maps(hexagon)
    assert any(not verify_isometry(m).passed for m in moved)
    for m in maps + moved:
        for i, v in enumerate(m.domain.vrep):
            assert m.apply(v) == m.vertex_image(i)


@st.composite
def facet_value_rows(draw):
    """Rows of two sides with equal distances, up to a few changed entries.

    The codomain rows are the domain rows with columns permuted and shifted
    by one constant row, which keeps every difference of rows."""
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    dom = draw(st.lists(st.tuples(*[rational] * k), min_size=n, max_size=n))
    perm = draw(st.permutations(range(k)))
    shift = draw(st.tuples(*[rational] * k))
    cod = [tuple(r[t] + c for t, c in zip(perm, shift)) for r in dom]
    for _ in range(draw(st.integers(0, 2))):
        i, t = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
        cod[i] = cod[i][:t] + (draw(rational),) + cod[i][t + 1:]
    return dom, cod, draw(st.integers(0, n))


@settings(max_examples=150, deadline=None)
@given(facet_value_rows())
def test_first_unequal_pair_matches_fraction_differences(rows):
    dom, cod, start = rows
    expected = None
    for i, j in itertools.combinations(range(len(dom)), 2):
        if j >= start and max(a - b for a, b in zip(dom[i], dom[j])) != max(
            a - b for a, b in zip(cod[i], cod[j])
        ):
            expected = (i, j)
            break
    assert _first_unequal_pair(*integer_rows(dom), *integer_rows(cod), start) == expected


LINF3_SIGNED_PERMUTATION = ((F(0), F(-1), F(0)), (F(0), F(0), F(1)), (F(-1), F(0), F(0)))


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


@pytest.mark.parametrize(
    "space,matrix",
    [(hexagon_space(), HEX_ROTATION), (linf_space(3), LINF3_SIGNED_PERMUTATION)],
    ids=["hex_rotation", "linf3_signed_permutation"],
)
def test_only_apply_evaluates_norms_on_a_passing_map(monkeypatch, space, matrix):
    """Pair distances come from facet values, vertex images from the vertex
    map and the transport check from the facet tables: a passing map makes
    no norm call, and one apply and one LP per seeded point that is not a
    vertex. Seeded points and their images are combined on integer vertex
    rows, so no Fraction ``combination`` or ``mat_vec`` runs."""
    m = SphereMap.from_linear(space, space, matrix)
    calls = {"norm": 0, "apply": 0, "solve_lp": 0, "combination": 0, "mat_vec": 0}
    norm, apply, solve = PolyhedralSpace.norm, SphereMap.apply, isometry_module.solve_lp
    for name in ("combination", "mat_vec"):
        monkeypatch.setattr(linalg, name, counting(calls, name, getattr(linalg, name)))

    def counting_norm(self, x):
        calls["norm"] += 1
        return norm(self, x)

    def counting_apply(self, x):
        calls["apply"] += 1
        return apply(self, x)

    def counting_solve(problem):
        calls["solve_lp"] += 1
        return solve(problem)

    monkeypatch.setattr(PolyhedralSpace, "norm", counting_norm)
    monkeypatch.setattr(SphereMap, "apply", counting_apply)
    monkeypatch.setattr(isometry_module, "solve_lp", counting_solve)
    assert verify_isometry(m).passed
    assert extend(m).matrix == matrix
    vertices = set(space.vrep)
    non_vertex = sum(1 for p in reference_pool(space) if p not in vertices)
    assert non_vertex > 0
    assert calls == {
        "norm": 0, "apply": non_vertex, "solve_lp": non_vertex, "combination": 0, "mat_vec": 0
    }


@pytest.mark.parametrize(
    "space,matrix",
    [(hexagon_space(), HEX_ROTATION), (linf_space(3), LINF3_SIGNED_PERMUTATION)],
    ids=["hex_rotation", "linf3_signed_permutation"],
)
def test_affine_pass_ranks_one_integer_matrix_per_antipodal_facet_pair(
    monkeypatch, space, matrix
):
    """The facet rank is known to be dim and facet -F repeats F, so each
    antipodal pair costs one rank call, on the lower id's integer rows
    (P_j, Q_σ(j)), of width 2 dim with no homogenising column."""
    m = SphereMap.from_linear(space, space, matrix)
    calls = []
    rank = linalg.rank

    def recording_rank(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(linalg, "rank", recording_rank)
    assert verify_isometry(m).passed
    assert len(calls) == len(space.hrep) // 2 == 3
    assert [len(rows) for rows in calls] == [len(ids) for ids in space.facet_index[:3]]
    assert all(type(x) is int for rows in calls for row in rows for x in row)
    assert all(len(row) == 2 * space.dim for rows in calls for row in rows)


def extend_outcome(extend_fn, m):
    """The certificate, or the class, message and detail of the error."""
    try:
        return extend_fn(m)
    except CertificationError as err:
        return type(err), str(err), err.detail


def sample_pool(space, seed):
    rng = random.Random(seed)
    samples = [reference_random_facet_point(space, fid, rng) for fid in range(len(space.hrep))]
    return list(space.vrep) + reference_facet_sample_points(space) + samples


def assert_matches_references(m, seed=DEFAULT_SEED):
    """apply at every vertex and sample, extend and verify_isometry give
    what their Fraction references give; returns the report."""
    for p in sample_pool(m.domain, seed):
        image = m.apply(p)
        assert image == reference_apply(m, p)
        assert all(type(c) is F for c in image.coords)
    assert extend_outcome(extend, m) == extend_outcome(reference_extend, m)
    return assert_same_report(m, seed)


@st.composite
def fractional_polytopes(draw):
    """A symmetric polytope in dim 2 or 3, the hull of a few points with
    fractional coordinates and their negations."""
    dim = draw(st.sampled_from((2, 3)))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim, max_size=dim + 1))
    assume(linalg.rank(points) == dim)
    return PolyhedralSpace.from_vertices(points, symmetrize=True)


@st.composite
def two_scale_maps(draw):
    """A fractional polytope onto a sheared image whose vertex scale differs
    from its own; half the time the vertex map is scrambled, which mostly
    breaks facets and admits no linear map."""
    space = draw(fractional_polytopes())
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    matrix = tuple(tuple(draw(coord) for _ in range(space.dim)) for _ in range(space.dim))
    assume(linalg.rank(matrix) == space.dim)
    m = sheared_image(space, matrix)
    assume(m.domain._point_scale != m.codomain._point_scale)
    if draw(st.booleans()):
        perm = draw(st.permutations(m.vertex_map))
        m = SphereMap(m.domain, m.codomain, tuple(perm))
    return m


class TestIntegerVertexRows:
    """Samplers, apply and extend on integer vertex rows give exactly what
    their Fraction references give."""

    @settings(max_examples=40, deadline=None)
    @given(fractional_polytopes(), st.integers(0, 60))
    def test_samplers(self, space, seed):
        """The seeded pass draws the points of the Fraction sampler, on
        integer vertex rows, as exact Fractions."""
        identity = SphereMap(space, space, tuple(range(len(space.vrep))))
        pool = assert_pool_matches_references(identity, seed)
        assert all(type(c) is F for p in pool.points for c in p.coords)

    def test_all_zero_weights_draw(self, hexagon, monkeypatch):
        """At seed 2 both weights drawn for hexagon facet 1 are zero, so one
        vertex is picked by ``randrange``. The seeded pass reads that vertex
        and its vertex image by position: ``apply`` runs on the other
        seeded points only."""
        rng = random.Random(2)
        reference_random_facet_point(hexagon, 0, rng)
        assert [rng.randint(0, 6) for _ in hexagon.facet_index[1]] == [0, 0]
        applied = []
        apply = SphereMap.apply

        def recording_apply(m, x):
            applied.append(x)
            return apply(m, x)

        nv = len(hexagon.vrep)
        for matrix in hex_symmetries()[:3]:
            m = SphereMap.from_linear(hexagon, hexagon, matrix)
            applied.clear()
            with monkeypatch.context() as patch:
                patch.setattr(SphereMap, "apply", recording_apply)
                pool = assert_pool_matches_references(m, seed=2)
            i = hexagon.vertex_id(pool.points[nv + 1])
            assert pool.images[nv + 1] == m.vertex_image(i)
            assert applied == [p for p in pool.points[nv:] if p not in hexagon.vrep]
            assert len(applied) == len(hexagon.hrep) - 1
            assert assert_same_report(m, seed=2).passed
        for m in moved_hexagon_maps(hexagon)[:6]:
            assert_matches_references(m, seed=2)

    @settings(max_examples=30, deadline=None)
    @given(two_scale_maps(), st.integers(0, 60))
    def test_sheared_and_scrambled_maps(self, m, seed):
        assert_matches_references(m, seed)

    def test_prism_maps_that_are_not_affine_on_a_facet(self, hexagon):
        """The hexagonal prism onto prisms over moved hexagons, level by
        level: the hexagon facets admit no affine map, so extend raises."""
        prism = linf_sum(hexagon, linf_space(1))
        for b in [(F(1, 4), 1), (F(3, 4), F(5, 4)), (F(1, 2), F(3, 2))]:
            moved = linf_sum(moved_hexagon(b), linf_space(1))
            shift = {(F(1, 2), 1): b, (F(-1, 2), -1): (-b[0], -b[1])}
            pairs = [(v, vector(*shift.get(v.coords[:2], v.coords[:2]), v.coords[2]))
                     for v in prism.vrep]
            m = map_by_coordinates(prism, moved, pairs)
            assert None not in m.facet_map
            assert isinstance(extend_outcome(extend, m), tuple)
            assert_matches_references(m)


def reference_malformed_facets(m):
    """Every facet on which no affine map matches the data, by the Fraction
    rank test on all facets: the homogenised vertices against the same rows
    extended by the vertex images."""
    failing = []
    for fid, ids in enumerate(m.domain.facet_index):
        hom = [m.domain.vrep[j].coords + (ONE,) for j in ids]
        images = [m.vertex_image(j).coords for j in ids]
        if linalg.rank(hom) != linalg.rank([h + w for h, w in zip(hom, images)]):
            failing.append(fid)
    return failing


@pytest.mark.parametrize("b", [(F(1, 4), 1), (F(3, 4), F(5, 4)), (F(1, 2), F(3, 2))])
def test_affine_failure_reports_the_first_facet_of_the_reference(hexagon, monkeypatch, b):
    """With the pair-distance pass skipped, the prism maps reach the affine
    pass. Both facets of each failing antipodal pair fail the reference, and
    testing the lower ids on integer rows reports its first failing facet."""
    prism = linf_sum(hexagon, linf_space(1))
    moved = linf_sum(moved_hexagon(b), linf_space(1))
    shift = {(F(1, 2), 1): b, (F(-1, 2), -1): (-b[0], -b[1])}
    pairs = [(v, vector(*shift.get(v.coords[:2], v.coords[:2]), v.coords[2]))
             for v in prism.vrep]
    m = map_by_coordinates(prism, moved, pairs)
    failing = reference_malformed_facets(m)
    assert failing and {prism.neg_functional_id(fid) for fid in failing} == set(failing)
    monkeypatch.setattr(isometry_module, "_first_unequal_pair", lambda *args, **kw: None)
    report = verify_isometry(m)
    assert report.malformed and not report.passed
    assert report.counterexample == (failing[0],)


def assert_pool_matches_references(m, seed=DEFAULT_SEED):
    """The seeded pass's pool holds the points of the Fraction sampler and
    their images under ``reference_apply``, and at every index the two rows
    of facet values at the point and at its image."""
    dom, cod = m.domain, m.codomain
    pool = isometry_module._SamplePool(m, seed)
    points = reference_pool(dom, seed)
    assert pool.points == points
    assert pool.images == [reference_apply(m, p) for p in points]
    assert len(pool.drows) == len(pool.crows) == len(points)
    for t, (p, image) in enumerate(zip(points, pool.images)):
        assert [F(x, pool.dscale) for x in pool.drows[t]] == [f(p) for f in dom.hrep]
        assert [F(x, pool.cscale) for x in pool.crows[t]] == [g(image) for g in cod.hrep]
    return pool


HEX_ROTATION_PRISM = tuple(row + (F(0),) for row in HEX_ROTATION) + ((F(0), F(0), F(-1)),)


@pytest.mark.parametrize(
    "expr,matrix",
    [
        ("hex", HEX_ROTATION),
        ("l1:3", LINF3_SIGNED_PERMUTATION),
        ("linf:3", LINF3_SIGNED_PERMUTATION),
        ("linfsum(hex,linf:1)", HEX_ROTATION_PRISM),
        # Sheared images, whose tables have another scale than the domain's.
        ("hex", SHEARS[2]),
        ("l1:3", SHEARS_3D[1]),
    ],
)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 2])
def test_pool_is_rebuilt_from_the_facet_tables(expr, matrix, seed):
    assert_pool_matches_references(sheared_image(resolve(expr), matrix), seed)


def is_vertex(space, v):
    """Whether v is a vertex of the space's ball, by its public lookup."""
    try:
        space.vertex_id(v)
    except GeometryError:
        return False
    return True


@st.composite
def non_simplicial_polytopes(draw):
    """A centrally symmetric polytope in dim 2 or 3, the hull of a few points
    with coordinates in {0, +-1/2, +-1} and their negations; in dim 3 some
    facet has more than three vertices."""
    dim = draw(st.sampled_from((2, 3)))
    coord = st.sampled_from((F(-1), F(-1, 2), F(0), F(1, 2), F(1)))
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 3))
    assume(linalg.rank(points) == dim)
    space = PolyhedralSpace.from_vertices(points, symmetrize=True)
    assume(dim == 2 or any(len(ids) > dim for ids in space.facet_index))
    return space


@settings(max_examples=25, deadline=None)
@given(non_simplicial_polytopes(), st.data())
def test_sampled_pass_on_non_simplicial_polytopes(space, data):
    """Linear images, and maps that move one antipodal vertex pair, get the
    reference's report, and the table check gives the reference's first
    failure and decides the report and the extension with the facet counts;
    the linear images' pools are the reference's."""
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    matrix = tuple(tuple(data.draw(coord) for _ in range(space.dim)) for _ in range(space.dim))
    assume(linalg.rank(matrix) == space.dim)
    seed = data.draw(st.integers(0, 60))
    m = sheared_image(space, matrix)
    assert assert_same_report(m, seed).passed
    assert _first_untransported(m) is None
    assert_pool_matches_references(m, seed)

    i = data.draw(st.integers(0, len(space.vrep) - 1))
    v = space.vrep[i]
    b = v + Vector(tuple(data.draw(coord) / 4 for _ in range(space.dim)))
    moved = {v: b, -v: -b}
    pairs = [(w, moved.get(w, w)) for w in space.vrep]
    if linalg.rank([w.coords for _, w in pairs]) < space.dim:
        return
    target = PolyhedralSpace.from_vertices([w for _, w in pairs])
    if all(is_vertex(target, w) for _, w in pairs):
        m = map_by_coordinates(space, target, pairs)
        report = assert_same_report(m, seed)
        hit = _first_untransported(m)
        assert hit == reference_first_untransported(m)
        decided = hit is None and len(space.hrep) == len(target.hrep)
        assert report.passed == decided
        outcome = extend_outcome(extend, m)
        assert outcome == extend_outcome(reference_extend, m)
        assert isinstance(outcome, ExtensionCertificate) == decided
