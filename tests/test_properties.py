"""CL checks, two-sided distance values, T-property reports, decompositions."""

import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysphere import (
    ConditionThreeRecord,
    Functional,
    GeometryError,
    NotAlmostClError,
    NotOnSphereError,
    PolyhedralSpace,
    Vector,
    check_cl,
    check_t_property,
    cl_decomposition,
    condition_iii_value,
    l1_space,
    linf_space,
    properties,
    vector,
)
from polysphere.catalog import resolve
from polysphere.linalg import combination, rank
from conftest import reference_facet_sample_points
from test_faces import facet_of, facet_vertices, on_facet
from test_space import built_spaces
from samplers import sphere_points

F = Fraction


# Point lists of dimension 2 or 3 whose symmetric hull is a random polytope
# ball, once the test assumes they span the space.
SYMMETRIC_POLYTOPE_POINTS = st.sampled_from([2, 3]).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=dim, max_size=4)
)


def symmetric_builds(dims):
    """A builder and integer rows of one dimension from ``dims``, closed
    under negation by the builder once the test assumes the rows span."""
    rows = st.sampled_from(dims).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=dim, max_size=dim + 2)
    )
    builders = st.sampled_from([PolyhedralSpace.from_vertices, PolyhedralSpace.from_functionals])
    return st.tuples(builders, rows)


def build_symmetric(case):
    builder, rows = case
    assume(rank(rows) == len(rows[0]))
    return builder(rows, symmetrize=True)


CATALOG_NAMES = [
    "hex", *(f"{kind}:{n}" for n in range(1, 5) for kind in ("l1", "linf")),
    "linfsum(hex,linf:1)", "l1sum(hex,l1:1)",
]


def assert_opposite_facets_share_verdicts(space, report):
    for fv in report.facet_verdicts:
        opposite = report.facet_verdicts[space.neg_functional_id(fv.facet_id)]
        assert (opposite.ok, opposite.failing_vertex) == (fv.ok, fv.failing_vertex)


def polygon_contains(vertices, p):
    """Exact point-in-convex-polygon oracle via cross products (2D only)."""
    hull = sorted(set(vertices))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # order the hull points by angle around their centroid using cross signs
    import math

    cx = sum(v[0] for v in hull) / len(hull)
    cy = sum(v[1] for v in hull) / len(hull)
    ordered = sorted(hull, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx)))
    for i in range(len(ordered)):
        a = ordered[i]
        b = ordered[(i + 1) % len(ordered)]
        if cross(a, b, p) < 0:
            return False
    return True


class TestCheckCl:
    def test_square_is_cl(self, square):
        report = check_cl(square)
        assert report.is_cl
        assert report.counterexample is None
        # oracle: every vertex sits in the two-sided hull of every edge
        for fid in range(len(square.hrep)):
            gens = [v.coords for v in facet_vertices(square, fid)]
            gens += [(-v).coords for v in facet_vertices(square, fid)]
            for v in square.vrep:
                assert polygon_contains(gens, v.coords)

    def test_hexagon_is_not_cl(self, hexagon):
        report = check_cl(hexagon)
        assert not report.is_cl
        fid, v = report.counterexample
        gens = [w.coords for w in facet_vertices(hexagon, fid)]
        gens += [(-w).coords for w in facet_vertices(hexagon, fid)]
        assert not polygon_contains(gens, v.coords)

    def test_cross_polytope_3d_is_cl(self):
        space = l1_space(3)
        report = check_cl(space)
        assert report.is_cl
        # oracle: each signed basis vector lies in the facet with matching sign
        for fid, f in enumerate(space.hrep):
            s = f.coeffs
            for v in space.vrep:
                j = next(i for i, c in enumerate(v.coords) if c != 0)
                assert (v in facet_vertices(space, fid)) == (s[j] == v.coords[j])

    def test_agrees_with_dense_2d_oracle(self, hexagon, square, cross2):
        """Brute force: sample the ball densely, test polygon membership exactly."""
        for space in (hexagon, square, cross2):
            grid = [F(k, 4) for k in range(-4, 5)]
            ball = [
                (x, y)
                for x in grid
                for y in grid
                if space.norm(vector(x, y)) <= 1
            ]
            report = check_cl(space)
            for fv in report.facet_verdicts:
                verts = facet_vertices(space, fv.facet_id)
                gens = [v.coords for v in verts] + [(-v).coords for v in verts]
                dense_ok = all(polygon_contains(gens, p) for p in ball)
                vertex_ok = all(
                    polygon_contains(gens, v.coords) for v in space.vrep
                )
                assert fv.ok == dense_ok == vertex_ok

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_opposite_facets_share_verdicts(self, name):
        space = resolve(name)
        assert_opposite_facets_share_verdicts(space, check_cl(space))

    @pytest.mark.parametrize(
        "name,lps",
        [("hex", 3), ("linfsum(hex,linf:1)", 3), ("l1sum(hex,l1:1)", 6)]
        + [(f"{kind}:{n}", 0) for n in range(1, 5) for kind in ("l1", "linf")],
    )
    def test_one_lp_per_antipodal_pair_of_failing_facets(self, name, lps, lp_calls):
        """A deterministic count: raising it is a regression."""
        report = check_cl(resolve(name))
        assert len(lp_calls) == lps == sum(not fv.ok for fv in report.facet_verdicts) // 2

    @settings(max_examples=60, deadline=None)
    @given(symmetric_builds([2, 3, 4]))
    def test_failing_vertex_is_the_first_off_the_facet_and_its_opposite(self, case):
        """Every vertex is an extreme point of the ball, so it lies in
        conv(F u -F) only when it lies on F or -F: facet f fails at the
        first vertex whose table entry is not +-facet_scale."""
        space = build_symmetric(case)
        report = check_cl(space)
        s = space.facet_scale
        for fv in report.facet_verdicts:
            column = (row[fv.facet_id] for row in space.facet_table)
            first = next((v for v, value in zip(space.vrep, column) if abs(value) != s), None)
            assert (fv.ok, fv.failing_vertex) == (first is None, first)
        assert_opposite_facets_share_verdicts(space, report)


class TestConditionThree:
    def test_hexagon_case_one(self, hexagon):
        """From the top edge against the star of (3/4, 1/2): value exactly two."""
        fid = facet_of(hexagon, (1, "1/2"))
        x = vector(0, 1)
        value, w_plus, w_minus = condition_iii_value(hexagon, x, fid)
        assert value == 2
        assert hexagon.norm(x - w_plus) + hexagon.norm(x - w_minus) == 2
        # the published witness pair achieves the same value
        assert hexagon.norm(x - vector("1/2", 1)) + hexagon.norm(x - vector(-1, 0)) == 2

    def test_hexagon_case_two(self, hexagon):
        fid = facet_of(hexagon, (0, 1))
        x = vector("3/4", "1/2")
        value, w_plus, w_minus = condition_iii_value(hexagon, x, fid)
        assert value == 2
        assert hexagon.norm(x - vector("1/2", 1)) + hexagon.norm(x - vector("1/2", -1)) == 2

    def test_point_on_face_itself(self, hexagon):
        fid = facet_of(hexagon, (0, 1))
        x = vector(0, 1)
        value, w_plus, w_minus = condition_iii_value(hexagon, x, fid)
        assert value == 2
        assert w_plus == x
        assert on_facet(hexagon, hexagon.neg_functional_id(fid), w_minus)

    def test_lower_bound_everywhere(self, small_catalog):
        for space in small_catalog[:5]:
            for x in sphere_points(space, 5, seed=41):
                for fid in range(len(space.hrep)):
                    value, _, _ = condition_iii_value(space, x, fid)
                    assert value >= 2

    def test_value_not_beaten_by_grid_search(self, hexagon):
        """Brute-force oracle: a barycentric grid over both faces never does better."""
        fid = facet_of(hexagon, (1, "1/2"))
        x = vector(-1, 0)
        value, _, _ = condition_iii_value(hexagon, x, fid)
        grid = [F(k, 8) for k in range(9)]
        plus = facet_vertices(hexagon, fid)
        minus = [-v for v in plus]
        best = None
        for a in grid:
            yp = plus[0].scale(a) + plus[1].scale(1 - a)
            for b in grid:
                ym = minus[0].scale(b) + minus[1].scale(1 - b)
                total = hexagon.norm(x - yp) + hexagon.norm(x - ym)
                best = total if best is None else min(best, total)
        assert value <= best

    def test_rejects_off_sphere_point(self, hexagon):
        fid = facet_of(hexagon, (0, 1))
        with pytest.raises(NotOnSphereError):
            condition_iii_value(hexagon, vector(0, "1/2"), fid)

    def test_vertex_sufficiency_sampled(self, hexagon, cube3):
        """Sampled sphere values never exceed the vertex maximum."""
        for space in (hexagon, cube3):
            for fid in range(len(space.hrep)):
                vertex_max = max(
                    condition_iii_value(space, v, fid)[0] for v in space.vrep
                )
                for x in sphere_points(space, 10, seed=43):
                    value, _, _ = condition_iii_value(space, x, fid)
                    assert value <= vertex_max


@pytest.fixture
def lp_calls(monkeypatch):
    """Records every problem the properties module hands to the LP solver."""
    calls = []
    solve = properties.solve_lp

    def counting(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(properties, "solve_lp", counting)
    return calls


def assert_distance_matches_lp(space, x, fid):
    """The two-sided value, settled by the table or by witnesses first,
    equals the sum of the two distance LPs; each witness attains its side,
    and each negated witness is its negation."""
    (at_x,), d = space._values_at([x])
    value, plus, minus = properties._two_sided(space, x, -x, fid, at_x, d)
    sides = (fid, *plus), (space.neg_functional_id(fid), *minus)
    lp_values = []
    for f, w, neg_w in sides:
        pts = [space.vrep[j] for j in space.facet_index[f]]
        lp_value, _ = properties._distance_lp(space, x, pts)
        assert space.hrep[f](w) == 1 and space.norm(w) == 1
        assert space.norm(x - w) == lp_value
        assert neg_w == -w
        lp_values.append(lp_value)
    assert value == sum(lp_values)


def assert_records_agree_with_condition_iii_value(space):
    """Each record carries the value and both witnesses that
    condition_iii_value gives for its vertex and facet."""
    for rec in check_t_property(space).condition_iii:
        got = condition_iii_value(space, rec.vertex, rec.candidate_index)
        assert got == (rec.value, rec.witness_plus, rec.witness_minus)


def assert_records_mirror_under_negation(space):
    """The record of (-v, F) is (value, -w_minus, -w_plus) of the record of
    (v, F), and its value is that of (v, -F) too: d(-v, F) = d(v, -F), and
    negation carries a nearest point of -F to v onto one of F to -v."""
    report = check_t_property(space)
    keys = [(rec.vertex, rec.candidate_index) for rec in report.condition_iii]
    assert keys == list(itertools.product(space.vrep, range(len(space.hrep))))
    records = dict(zip(keys, report.condition_iii))
    for (v, fid), rec in records.items():
        mirror = records[-v, fid]
        assert (mirror.value, mirror.witness_plus, mirror.witness_minus) == (
            rec.value, -rec.witness_minus, -rec.witness_plus
        )
        assert records[v, space.neg_functional_id(fid)].value == rec.value
    return report


class TestWitnessFirstDistance:
    @pytest.mark.parametrize(
        "name", ["hex", "l1:2", "linf:2", "l1:3", "linf:3", "l1sum(hex,l1:1)"]
    )
    def test_equals_lp_on_vertices_and_facet_samples(self, name):
        """Each facet id below M/2 checks its facet and the opposite one, so
        every (point, facet) pair is checked."""
        space = resolve(name)
        for x in list(space.vrep) + reference_facet_sample_points(space):
            for fid in range(len(space.hrep) // 2):
                assert_distance_matches_lp(space, x, fid)

    def test_lp_runs_when_no_vertex_meets_the_bound(self, lp_calls):
        space = l1_space(3)
        x = vector(F(-1, 3), F(-1, 3), F(-1, 3))
        value, w = properties.distance_to_hull(space, x, 1)
        assert len(lp_calls) == 1
        assert value == F(2, 3)
        assert space.norm(x - w) == value

    def test_point_in_hull_is_its_own_witness(self, hexagon):
        top = facet_of(hexagon, (0, 1))
        first = facet_vertices(hexagon, top)[0]
        assert properties.distance_to_hull(hexagon, first, top) == (0, first)

    def test_facet_id_out_of_range_rejected(self, hexagon):
        for fid in (-1, len(hexagon.hrep)):
            with pytest.raises(GeometryError):
                properties.distance_to_hull(hexagon, vector(0, 1), fid)

    def test_minimiser_failing_its_norm_certificate_raises(self, monkeypatch):
        """The LP's minimiser is checked by an exact norm, not trusted: a
        point of the facet that is not nearest to x is refused."""
        space = l1_space(3)
        x = vector(F(-1, 3), F(-1, 3), F(-1, 3))
        far = facet_vertices(space, 1)[0]
        monkeypatch.setattr(properties, "_distance_lp", lambda *args: (F(2, 3), far))
        assert space.norm(x - far) != F(2, 3)
        with pytest.raises(GeometryError, match="certificate"):
            properties.distance_to_hull(space, x, 1)

    @pytest.mark.parametrize(
        "name", ["hex", "l1:3", "linf:3", "l1sum(hex,l1:1)", "linfsum(hex,linf:1)"]
    )
    def test_witness_is_the_first_facet_vertex_at_the_distance(self, name):
        """Ties go to ``facet_index`` order: when a facet vertex is a nearest
        point, the witness is the first one, by exact norm."""
        space = resolve(name)
        for x in space.vrep:
            for fid in range(len(space.hrep)):
                value, y = properties.distance_to_hull(space, x, fid)
                nearest = [p for p in facet_vertices(space, fid) if space.norm(x - p) == value]
                if nearest:
                    assert y == nearest[0]

    @pytest.mark.parametrize("name", ["hex", "l1:3", "linf:3", "l1sum(hex,l1:1)"])
    def test_a_vertex_row_from_the_table_equals_the_scaled_point(self, name):
        """Handed a vertex's ``facet_table`` row over ``facet_scale``,
        distance_to_hull gives the distance and witness that it gives when
        it scales the vertex with ``_values_at``, at every facet."""
        space = resolve(name)
        table, s = space.facet_table, space.facet_scale
        for (j, v), fid in itertools.product(enumerate(space.vrep), range(len(space.hrep))):
            assert properties.distance_to_hull(
                space, v, fid, values=(table[j], s)
            ) == properties.distance_to_hull(space, v, fid)

    @pytest.mark.parametrize("name", ["l1:2", "l1:3", "l1:4", "linf:2", "linf:3", "linf:4", "hex"])
    def test_t_property_solves_no_lp(self, name, lp_calls):
        """A deterministic count: raising it is a regression."""
        assert check_t_property(resolve(name)).holds
        assert len(lp_calls) == 0

    @pytest.mark.parametrize(
        "name,hull_calls,norm_calls",
        [
            ("hex", 6, 6),
            ("l1:3", 0, 0),
            ("linf:3", 0, 0),
            ("linf:4", 0, 0),
            ("l1sum(hex,l1:1)", 12, 12),
            ("linfsum(hex,linf:1)", 12, 12),
        ],
    )
    def test_t_property_evaluates_no_functional(self, monkeypatch, name, hull_calls, norm_calls):
        """Deterministic counts: raising one is a regression. The value of a
        facet at a vertex is read from the integer ``facet_table`` over
        ``facet_scale``, and every bound and norm from the integer facet
        rows, so no Functional is called. A table entry of +-facet_scale
        settles its record with no distance_to_hull call, and only the
        vertices with ids below N/2 reach distance_to_hull, once per facet
        off the table; the records of their negations are mirrored. Each
        distance_to_hull call makes one norm call, its certificate, and that
        norm's ``_values_at`` is the only one: distance_to_hull is handed the
        vertex's own ``facet_table`` row."""
        space = resolve(name)
        calls = collections.Counter()

        def counting(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Functional, "__call__", counting("functional", Functional.__call__))
        monkeypatch.setattr(
            properties, "distance_to_hull", counting("hull", properties.distance_to_hull)
        )
        monkeypatch.setattr(PolyhedralSpace, "norm", counting("norm", PolyhedralSpace.norm))
        monkeypatch.setattr(
            PolyhedralSpace, "_values_at", counting("values_at", PolyhedralSpace._values_at)
        )
        check_t_property(space)
        counts = tuple(calls[key] for key in ("functional", "hull", "norm", "values_at"))
        assert counts == (0, hull_calls, norm_calls, norm_calls)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda p: p != (0, 0)),
            min_size=2,
            max_size=4,
        )
    )
    def test_equals_lp_on_random_symmetric_polygons(self, points):
        assume(any(a[0] * b[1] != a[1] * b[0] for a in points for b in points))
        space = PolyhedralSpace.from_vertices(points, symmetrize=True)
        for v in space.vrep:
            for fid in range(len(space.hrep) // 2):
                assert_distance_matches_lp(space, v, fid)

    @settings(max_examples=10, deadline=None)
    @given(symmetric_builds([3]))
    def test_equals_lp_on_random_symmetric_polytopes_in_dim_3(self, case):
        """Random polygons never reach the LP fallback; dim-3 polytopes do.
        Each facet id below M/2 checks its facet and the opposite one, so
        every (vertex, facet) pair is checked."""
        space = build_symmetric(case)
        for v in space.vrep:
            for fid in range(len(space.hrep) // 2):
                assert_distance_matches_lp(space, v, fid)


class TestTProperty:
    def test_hexagon_candidates_are_the_barycenters(self, hexagon):
        report = check_t_property(hexagon)
        assert report.holds
        assert set(report.candidates) == {
            vector(0, 1),
            vector(0, -1),
            vector("3/4", "1/2"),
            vector("-3/4", "-1/2"),
            vector("-3/4", "1/2"),
            vector("3/4", "-1/2"),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cube_family_holds(self, n):
        space = linf_space(n)
        report = check_t_property(space)
        assert report.holds
        # oracle: in the max norm the two distances are |v_k - 1| and |v_k + 1|
        for rec in report.condition_iii:
            coeffs = space.hrep[rec.candidate_index].coeffs
            k = next(i for i, c in enumerate(coeffs) if c != 0)
            sign = coeffs[k]
            v = rec.vertex.coords[k] * sign
            assert rec.value == abs(v - 1) + abs(v + 1) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cross_polytope_family_holds(self, n):
        assert check_t_property(l1_space(n)).holds

    def test_report_symmetric_under_negation(self):
        for name in CATALOG_NAMES + ["linfsum(hex,hex)"]:
            assert_records_mirror_under_negation(resolve(name))

    @settings(max_examples=30, deadline=None)
    @given(symmetric_builds([2, 3]))
    def test_report_symmetric_under_negation_on_random_polytopes(self, case):
        assert_records_mirror_under_negation(build_symmetric(case))

    def test_mirrored_records_negate_lp_witnesses(self, lp_calls):
        """A build whose records reach the distance LP, so that a witness
        that is no vertex is mirrored by negating its coordinates."""
        space = PolyhedralSpace.from_functionals(
            [(0, -3, -1), (3, -3, 0), (-2, -3, -1), (0, 3, 0), (3, -3, -3)], symmetrize=True
        )
        report = assert_records_mirror_under_negation(space)
        assert len(lp_calls) == 2
        vertices = set(space.vrep)
        off = [
            rec for rec in report.condition_iii
            if not {rec.witness_plus, rec.witness_minus} <= vertices
        ]
        assert len(off) == 8
        n = len(space.vrep)
        assert {space.vertex_id(rec.vertex) < n // 2 for rec in off} == {True, False}

    @pytest.mark.parametrize(
        "name", ["hex", "l1:3", "linf:3", "l1sum(hex,l1:1)", "linfsum(hex,linf:1)"]
    )
    def test_condition_iii_value_mirrors_under_negation(self, name):
        space = resolve(name)
        points = sphere_points(space, 4, seed=53) + [vector(*[F(-1, space.dim)] * space.dim)]
        for x in points:
            if space.norm(x) != 1:
                continue
            for fid in range(len(space.hrep)):
                value, w_plus, w_minus = condition_iii_value(space, x, fid)
                assert condition_iii_value(space, -x, fid) == (value, -w_minus, -w_plus)

    def test_cl_implies_t_on_the_catalog(self, small_catalog):
        """The paper's implication: almost-CL (CL, for a polytope ball) gives T."""
        for space in small_catalog:
            if space.dim > 3:
                continue
            if check_cl(space).is_cl:
                assert check_t_property(space).holds

    @settings(max_examples=60, deadline=None)
    @given(SYMMETRIC_POLYTOPE_POINTS)
    def test_cl_implies_t_on_random_symmetric_polytopes(self, points):
        assume(rank(points) == len(points[0]))
        space = PolyhedralSpace.from_vertices(points, symmetrize=True)
        if check_cl(space).is_cl:
            assert check_t_property(space).holds

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["linfsum(hex,hex)"])
    def test_records_agree_with_condition_iii_value(self, name):
        assert_records_agree_with_condition_iii_value(resolve(name))

    @settings(max_examples=30, deadline=None)
    @given(symmetric_builds([2, 3]))
    def test_records_agree_with_condition_iii_value_on_random_polytopes(self, case):
        assert_records_agree_with_condition_iii_value(build_symmetric(case))

    def test_hexagon_census_t_only_at_the_affine_regular_hexagon(self):
        """Every symmetric hexagon is a linear image of one with vertices
        +-(1, 0), +-(a, b), +-(0, 1). On the 1/4 grid in (0, 3], T holds
        only at (1, 1), a linear image of the regular hexagon, and no
        hexagon is CL."""
        grid = [F(k, 4) for k in range(1, 13)]
        hexagons = {}
        for a, b in itertools.product(grid, grid):
            space = PolyhedralSpace.from_vertices([(1, 0), (a, b), (0, 1)], symmetrize=True)
            if len(space.vrep) == 6:
                hexagons[a, b] = space
        assert len(hexagons) == 66
        assert [ab for ab, space in hexagons.items() if check_t_property(space).holds] == [(1, 1)]
        assert not any(check_cl(space).is_cl for space in hexagons.values())

    @settings(max_examples=60, deadline=None)
    @given(SYMMETRIC_POLYTOPE_POINTS, st.randoms(use_true_random=False))
    def test_barycenters_decide_on_random_symmetric_polytopes(self, points, rng):
        """The reduction behind the decision: a relative-interior point of a
        facet has that facet as its star, so any family passing (i) and (ii)
        meets every facet, and the verdict is that of the full (vertex,
        facet) table of two-sided values."""
        assume(rank(points) == len(points[0]))
        space = PolyhedralSpace.from_vertices(points, symmetrize=True)
        fids = range(len(space.hrep))
        for fid in fids:
            verts = facet_vertices(space, fid)
            weights = [F(rng.randint(1, 5)) for _ in verts]
            total = sum(weights)
            inner = Vector(combination([w / total for w in weights], [v.coords for v in verts]))
            assert space.active_functional_ids(inner) == (fid,)
        brute = all(
            condition_iii_value(space, v, fid)[0] == 2 for v in space.vrep for fid in fids
        )
        assert check_t_property(space).holds == brute


class TestReports:
    def test_records_are_the_frozen_dataclasses(self, hexagon):
        """A record and a verdict print as pinned, and a record built in one
        step is the frozen dataclass its constructor builds: equal, with the
        same hash, immutable, and open to ``dataclasses.replace``."""
        rec = check_t_property(hexagon).condition_iii[2]
        assert repr(rec) == (
            "ConditionThreeRecord(vertex=Vector(-1, 0), candidate_index=2, value=Fraction(2, 1), "
            "witness_plus=Vector(-1/2, -1), witness_minus=Vector(-1/2, 1))"
        )
        fields = (vector(-1, 0), 2, F(2), vector("-1/2", -1), vector("-1/2", 1))
        built = ConditionThreeRecord(*fields)
        assert rec == built and hash(rec) == hash(built)
        assert dataclasses.astuple(rec) == fields
        changed = ConditionThreeRecord(*fields[:2], F(3), *fields[3:])
        assert dataclasses.replace(rec, value=F(3)) == changed
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.value = F(3)
        verdict = check_cl(hexagon).facet_verdicts[0]
        assert repr(verdict) == (
            "FacetClVerdict(facet_id=0, ok=False, failing_vertex=Vector(-1/2, 1))"
        )

    @settings(max_examples=40, deadline=None)
    @given(
        built_spaces(),
        st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    )
    def test_verdicts_are_invariant_under_linear_maps(self, space, entries):
        """A linear map A carries f to f A^-1 and v to A v, so every entry
        f(v) of the facet table survives: CL, T and the multiset of record
        values are those of the image. The violation's value is not: it is
        the first record above two in vertex-major order, and A reorders
        the vertices: cycling the coordinates of the symmetric hull of
        (1, 1, 1), (2, 1, -1), (0, -2, -2), (-1, 1, -1) moves it from 33/10
        to 35/12. Only its existence, ``not holds``, is invariant."""
        n = space.dim
        matrix = [entries[i * n:(i + 1) * n] for i in range(n)]
        assume(rank(matrix) == n)
        image = PolyhedralSpace.from_vertices(
            [[sum(a * c for a, c in zip(row, v)) for row in matrix] for v in space.vrep]
        )

        def verdicts(s):
            t = check_t_property(s)
            return check_cl(s).is_cl, t.holds, sorted(rec.value for rec in t.condition_iii)

        assert verdicts(image) == verdicts(space)


class TestClDecomposition:
    def test_square_midpoint(self, square):
        top = facet_of(square, (0, 1))
        lam, y1, y2 = cl_decomposition(square, vector(1, 0), top)
        assert lam == F(1, 2)
        assert y1 == vector(1, 1)
        assert y2 == vector(1, -1)

    def test_point_on_face(self, square):
        top = facet_of(square, (0, 1))
        x = vector("1/2", 1)
        lam, y1, y2 = cl_decomposition(square, x, top)
        assert lam == 1
        assert y1 == x
        assert on_facet(square, square.neg_functional_id(top), y2)

    def test_cross_polytope_vertex_on_face(self, cross2):
        fid = facet_of(cross2, (1, 1))
        lam, y1, _ = cl_decomposition(cross2, vector(1, 0), fid)
        assert lam == 1
        assert y1 == vector(1, 0)

    def test_weight_forced_by_functional(self, square):
        rng = random.Random(47)
        for fid, f in enumerate(square.hrep):
            neg = square.neg_functional_id(fid)
            for x in sphere_points(square, 5, seed=rng.randint(0, 999)):
                lam, y1, y2 = cl_decomposition(square, x, fid)
                assert lam == (f(x) + 1) / 2
                assert on_facet(square, fid, y1) or lam == 0
                assert on_facet(square, neg, y2) or lam == 1
                assert y1.scale(lam) + y2.scale(1 - lam) == x

    @pytest.mark.parametrize("fid", [-1, -4, 4, 5])
    def test_facet_id_outside_hrep_is_rejected(self, square, fid):
        """An id names a facet from the front of ``hrep`` only: a negative id
        would otherwise pick a facet from the end."""
        for decide in (condition_iii_value, cl_decomposition):
            with pytest.raises(GeometryError, match=f"facet id {fid} outside 0..3"):
                decide(square, vector(1, 0), fid)

    def test_hexagon_has_no_decomposition(self, hexagon):
        top = facet_of(hexagon, (0, 1))
        with pytest.raises(NotAlmostClError):
            cl_decomposition(hexagon, vector(1, 0), top)
