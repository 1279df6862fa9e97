"""Core representation tests: norms, enumeration, duality, invariants."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysphere import (
    AsymmetricInputError,
    DegenerateInputError,
    DimensionMismatchError,
    EnumerationCapError,
    GeometryError,
    NotOnSphereError,
    PolyhedralSpace,
    SphereMap,
    catalog,
    functional,
    hexagon_space,
    isometry,
    l1_space,
    linalg,
    linf_space,
    vector,
)
from polysphere import space as space_module
from polysphere.formats import parse_space_text, serialize_space
from polysphere.linalg import ONE, rank, solve
from polysphere.space import MAX_ENUM_DIM, MAX_FACETS, Functional, Vector, as_fraction
from conftest import reference_facet_sample_points
from samplers import random_direction, sphere_points

F = Fraction


@st.composite
def symmetric_point_rows(draw, dims=(2, 3)):
    """A spanning rational point set in one of ``dims``, closed under negation,
    with repeated rows, a zero row and non-extreme points (interior points
    and midpoints, which may lie on the boundary)."""
    dim = draw(st.sampled_from(dims))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim, max_size=5))
    assume(rank(points) == dim)
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=3))
    rows = points + [p for p, _ in pairs] + [(F(0),) * dim]
    rows += [tuple(c / 2 for c in p) for p, _ in pairs]
    rows += [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in pairs]
    rows += [tuple(-c for c in r) for r in rows]
    return draw(st.permutations(rows))


@st.composite
def built_spaces(draw):
    """A random space from either builder, or built directly from the
    descriptions of a built space listed in a random order."""
    rows = draw(symmetric_point_rows())
    how = draw(st.sampled_from(["vertices", "functionals", "direct"]))
    if how == "functionals":
        return PolyhedralSpace.from_functionals(rows)
    space = PolyhedralSpace.from_vertices(rows)
    if how == "direct":
        hrep, vrep = draw(st.permutations(space.hrep)), draw(st.permutations(space.vrep))
        return PolyhedralSpace(hrep, vrep)
    return space


def reference_enumerate_ball_vertices(functionals, dim):
    """The double description loop on Fraction rays with a rank adjacency test.

    Every processed row is applied to both rays of each candidate pair,
    and the pair is adjacent when the rows tight at both have rank
    ``dim - 1``. Slow, but it takes none of the shortcuts of the integer,
    bitmask version in ``polysphere.space``, so it serves as its oracle.
    """
    rows = sorted(
        {
            tuple(f.coeffs) if isinstance(f, Functional) else tuple(as_fraction(c) for c in f)
            for f in functionals
        }
    )
    rows = [r for r in rows if any(c != 0 for c in r)]
    if not rows:
        raise DegenerateInputError("no nonzero functionals", direction=None)
    if any(len(r) != dim for r in rows):
        raise DimensionMismatchError("functional length does not match the dimension")
    if dim > MAX_ENUM_DIM:
        raise EnumerationCapError(f"dimension {dim} exceeds the enumeration cap of {MAX_ENUM_DIM}")
    if len(rows) > MAX_FACETS:
        raise EnumerationCapError(f"{len(rows)} rows exceed the cap of {MAX_FACETS}")
    row_set = set(rows)
    for r in rows:
        if tuple(-c for c in r) not in row_set:
            raise AsymmetricInputError(f"functional {r} appears without its negation", offender=r)
    direction = linalg.null_space_vector(rows, dim)
    if direction is not None:
        raise DegenerateInputError(
            "ball is unbounded: functionals do not span the dual space", direction=direction
        )

    def normalize(ray):
        s = sum(abs(c) for c in ray)
        return tuple(c / s for c in ray)

    def adjacent(p, q):
        tight = [r for r in processed if linalg.dot(r, p) == 0 and linalg.dot(r, q) == 0]
        return linalg.rank(tight) == dim - 1

    base = [rows[i] for i in linalg.independent_row_indices(rows)[:dim]]
    inv, scale = linalg.invert(tuple(base))
    base_inv = tuple(tuple(Fraction(c, scale) for c in row) for row in inv)
    processed, consumed = [], set()
    for r in base:
        for signed in (r, tuple(-c for c in r)):
            processed.append(signed + (-ONE,))
            consumed.add(signed)
    rays = {
        normalize(linalg.mat_vec(base_inv, signs) + (ONE,))
        for signs in itertools.product((ONE, -ONE), repeat=dim)
    }
    for f in [r for r in rows if r not in consumed]:
        a = f + (-ONE,)
        vals = {r: linalg.dot(a, r) for r in rays}
        if any(v > 0 for v in vals.values()):
            survivors = {r for r in rays if vals[r] <= 0}
            for p in [r for r in rays if vals[r] > 0]:
                for q in [r for r in rays if vals[r] < 0]:
                    if adjacent(p, q):
                        combo = tuple(vals[p] * qc - vals[q] * pc for pc, qc in zip(p, q))
                        survivors.add(normalize(combo))
            rays = survivors
        processed.append(a)
    return tuple(sorted({tuple(c / r[-1] for c in r[:-1]) for r in rays}))


def reference_polar_pair(rows, dim, symmetrize):
    """The facet test by rank, one ``rank`` call per row: a row is kept when
    the vertices where it equals one have rank ``dim``. On the hyperplane
    {r = 1} rank equals affine rank, because the homogenising column is r
    applied to the point. Returns the kept rows sorted, and the vertices."""
    items = {tuple(r) for r in rows if any(c != 0 for c in r)}
    if symmetrize:
        items |= {tuple(-c for c in r) for r in items}
    points = reference_enumerate_ball_vertices(sorted(items), dim)
    kept = [r for r in items if rank([p for p in points if linalg.dot(r, p) == 1]) == dim]
    return sorted(kept), points


@st.composite
def dd_rows(draw):
    """Rows in dims 2 to 5: random, with repeats, zero rows, non-spanning
    sets (one coordinate never used) and asymmetric sets (one negation
    missing) mixed in. At most six rows are drawn before negation: in
    dim 5 a seventh makes the reference take over a second."""
    dim = draw(st.integers(2, 5))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim, max_size=min(dim + 2, 6)))
    if draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows.append((F(0),) * dim)
    if draw(st.integers(0, 5)) == 0:
        rows = [r[:-1] + (F(0),) for r in rows]
    rows += [tuple(-c for c in r) for r in rows]
    if draw(st.integers(0, 5)) == 0:
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    return draw(st.permutations(rows)), dim


@st.composite
def non_spanning_rows(draw):
    """Symmetric rows in dims 2 to 4 that span a proper subspace: small
    integer combinations of fewer than ``dim`` rational rows, with zero
    rows, repeats and at least one nonzero row."""
    dim = draw(st.integers(2, 4))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    basis = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=dim - 1))
    weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)),
                            min_size=1, max_size=6))
    rows = [tuple(sum((w * b[t] for w, b in zip(ws, basis)), F(0)) for t in range(dim))
            for ws in weights]
    assume(any(any(c != 0 for c in r) for r in rows))
    rows += [tuple(-c for c in r) for r in rows]
    return draw(st.permutations(rows)), dim


def reference_validate_ranks(hrep, vrep, dim):
    """The rank checks on every facet and every vertex, negations included,
    in canonical order, on Fractions. A facet's vertices are homogenised
    with a column of ones, so the lemma that lets the constructor drop that
    column is checked against it."""
    for f in hrep:
        if rank([v.coords + (ONE,) for v in vrep if f(v) == 1]) != dim:
            raise GeometryError(f"functional {f} does not support a facet")
    for v in vrep:
        if rank([f.coeffs for f in hrep if f(v) == 1]) != dim:
            raise GeometryError(f"listed point {v} is not a vertex of the ball")


def reference_construction_outcome(hrep, vrep):
    """The raw constructor's outcome on symmetric descriptions of one
    dimension, on Fractions: the descriptions sorted, the norm of each
    vertex and the dual norm of each functional, then
    :func:`reference_validate_ranks`."""
    hrep = tuple(sorted(set(hrep), key=lambda f: f.coeffs))
    vrep = tuple(sorted(set(vrep), key=lambda v: v.coords))
    for v in vrep:
        if max(f(v) for f in hrep) != 1:
            return GeometryError, f"listed vertex {v} does not have norm one", None
    for f in hrep:
        if max(f(v) for v in vrep) != 1:
            return GeometryError, f"functional {f} does not have dual norm one", None
    try:
        reference_validate_ranks(hrep, vrep, hrep[0].dim)
    except GeometryError as err:
        return type(err), str(err), None
    return hrep, vrep


@st.composite
def direct_constructions(draw):
    """A random space's descriptions with extra antipodal pairs that pass the
    symmetry and norm checks: points scaled to norm one, which need not be
    vertices (edge midpoints among them), then functionals scaled to dual
    norm one over every listed point, which need not support a facet (sums
    of two facet functionals among them)."""
    space = PolyhedralSpace.from_vertices(draw(symmetric_point_rows()))
    hrep, vrep = list(space.hrep), list(space.vrep)
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    vertex_pairs = st.tuples(st.sampled_from(vrep), st.sampled_from(vrep))
    points = [vector(*x) for x in draw(st.lists(st.tuples(*[coord] * space.dim), max_size=2))]
    points += [a + b for a, b in draw(st.lists(vertex_pairs, max_size=2))]
    for x in points:
        if any(x.coords):
            x = x.scale(1 / space.norm(x))
            vrep += [x, -x]
    facet_pairs = st.tuples(st.sampled_from(hrep), st.sampled_from(hrep))
    rows = draw(st.lists(st.tuples(*[coord] * space.dim), max_size=2))
    rows += [tuple(a + b for a, b in zip(f.coeffs, g.coeffs))
             for f, g in draw(st.lists(facet_pairs, max_size=2))]
    for row in rows:
        if any(row):
            top = max(linalg.dot(row, v.coords) for v in vrep)
            f = functional(*(c / top for c in row))
            hrep += [f, -f]
    return draw(st.permutations(hrep)), draw(st.permutations(vrep))


def construction_outcome(hrep, vrep):
    """The space's descriptions, or the type, message and offender of the error."""
    try:
        space = PolyhedralSpace(hrep, vrep)
    except GeometryError as err:
        return type(err), str(err), getattr(err, "offender", None)
    return space.hrep, space.vrep


def outcome(enumerate_vertices, rows, dim):
    """The vertices, or the type and message of the error raised."""
    try:
        return enumerate_vertices(rows, dim)
    except GeometryError as err:
        return type(err), str(err)


def hull_2d(points):
    """Independent exact convex hull oracle (monotone chain on Fractions)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class TestScalars:
    def test_accepts_exact_tokens(self):
        assert as_fraction("3/4") == F(3, 4)
        assert as_fraction("-2") == F(-2)
        assert as_fraction(5) == F(5)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_rejects_decimal_strings(self):
        with pytest.raises(ValueError):
            as_fraction("0.5")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            as_fraction("1/0")

    @pytest.mark.parametrize("token,parts", [("2/4", (2, 4)), ("-6/3", (-6, 3)), ("+5", (5, 1)),
                                             ("0/7", (0, 7)), (" -0 ", (0, 1))])
    def test_a_token_reads_to_its_written_integers(self, token, parts):
        """The reader keeps the written form, which ``as_fraction`` reduces."""
        assert space_module._rational_parts(token) == parts
        assert as_fraction(token) == F(*parts)

    @pytest.mark.parametrize("token", ["1/0", "0.5", "1/-2", "1_0", ""])
    def test_the_reader_refuses_what_as_fraction_refuses(self, token):
        for read in (space_module._rational_parts, as_fraction):
            with pytest.raises(ValueError):
                read(token)


class TestCoordinateTypes:
    """Points and functionals share one coordinate base but stay two types:
    equality, hashing, negation and printing keep each type's own."""

    def test_a_point_never_equals_a_functional(self):
        v, f = Vector((1, 0)), Functional((1, 0))
        assert v != f and f != v
        assert v == Vector((1, 0)) and f == Functional((1, 0))
        assert not isinstance(f, Vector) and not isinstance(v, Functional)
        assert len({v, f}) == 2

    @pytest.mark.parametrize("row", [(1, 0), ("1/2", -3), (0, 0, "-7/4")])
    def test_hash_is_keyed_on_the_type_name(self, row):
        v, f = Vector(row), Functional(row)
        assert hash(v) == hash(("Vector", v.coords))
        assert hash(f) == hash(("Functional", f.coeffs))
        assert v.coords == f.coeffs == tuple(as_fraction(c) for c in row)

    def test_negation_keeps_the_type(self):
        v, f = vector(1, "-1/2"), functional(1, "-1/2")
        assert type(-v) is Vector and (-v).coords == (F(-1), F(1, 2))
        assert type(-f) is Functional and (-f).coeffs == (F(-1), F(1, 2))
        assert -(-v) == v and -(-f) == f

    def test_repr_and_str(self):
        v, f = vector(1, "-1/2"), functional(1, "-1/2")
        assert repr(v) == "Vector(1, -1/2)" and str(v) == "(1, -1/2)"
        assert repr(f) == "Functional(1, -1/2)" and str(f) == "(1, -1/2)"
        assert v.dim == f.dim == 2

    @pytest.mark.parametrize(
        "cls,message", [(Vector, "empty coordinate list"), (Functional, "empty coefficient list")]
    )
    def test_empty_lists_are_rejected(self, cls, message):
        with pytest.raises(ValueError) as err:
            cls(())
        assert str(err.value) == message

    def test_a_functional_has_no_point_arithmetic(self):
        f = functional(1, 0)
        for name in ("coords", "__sub__", "__add__", "scale"):
            assert not hasattr(f, name)
        assert not hasattr(vector(1, 0), "coeffs")
        with pytest.raises(TypeError):
            vector(1, 0) - f


class TestNorm:
    def test_hexagon_sphere_point(self, hexagon):
        assert hexagon.norm(vector("3/4", "1/2")) == 1

    def test_origin(self, hexagon, cube3):
        assert hexagon.norm(vector(0, 0)) == 0
        assert cube3.norm(vector(0, 0, 0)) == 0

    def test_cube_corner(self, cube3):
        assert cube3.norm(vector(1, 1, 1)) == 1

    def test_dimension_mismatch(self, hexagon):
        with pytest.raises(DimensionMismatchError):
            hexagon.norm(vector(1, 0, 0))

    def test_positive_definite(self, small_catalog):
        rng = random.Random(5)
        for space in small_catalog:
            for _ in range(20):
                x = random_direction(rng, space.dim)
                assert space.norm(x) > 0

    def test_triangle_and_homogeneity(self, small_catalog):
        rng = random.Random(7)
        for space in small_catalog:
            for _ in range(30):
                x = random_direction(rng, space.dim)
                y = random_direction(rng, space.dim)
                assert space.norm(x + y) <= space.norm(x) + space.norm(y)
                s = F(rng.randint(-9, 9), rng.randint(1, 5))
                assert space.norm(x.scale(s)) == abs(s) * space.norm(x)

    def test_hrep_norm_equals_vrep_gauge(self, small_catalog):
        """Dual route: the facet maximum equals the vertex-gauge LP exactly."""
        rng = random.Random(11)
        for space in small_catalog:
            for _ in range(10):
                x = random_direction(rng, space.dim)
                assert space.norm(x) == space.gauge_norm(x)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_point_rows(), st.data())
    def test_hrep_norm_equals_vrep_gauge_on_random_polytopes(self, rows, data):
        space = PolyhedralSpace.from_vertices(rows)
        coord = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        for x in data.draw(st.lists(st.tuples(*[coord] * space.dim), min_size=1, max_size=4)):
            assert space.norm(vector(*x)) == space.gauge_norm(vector(*x))

    @settings(max_examples=40, deadline=None)
    @given(symmetric_point_rows(), st.data())
    def test_integer_rows_agree_with_the_fraction_functionals(self, rows, data):
        """norm, active_functional_ids, the facet apply picks and the vertex
        table over its scale are read from the integer facet rows; each
        equals the Fraction evaluation of the functionals, at the vertices,
        the origin, and points off the sphere and on it."""
        space = PolyhedralSpace.from_vertices(rows)
        coord = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        drawn = data.draw(st.lists(st.tuples(*[coord] * space.dim), max_size=3))
        on_sphere = sphere_points(space, 4, seed=data.draw(st.integers(0, 999)))
        points = [vector(*[0] * space.dim)] + [vector(*x) for x in drawn]
        points += on_sphere + [x.scale(F(3, 2)) for x in on_sphere]
        table, scale = space.facet_table, space.facet_scale
        for j, v in enumerate(space.vrep):
            assert [F(value, scale) for value in table[j]] == [f(v) for f in space.hrep]
        for x in points:
            values = [f(x) for f in space.hrep]
            assert space.norm(x) == max(values)
            assert space.active_functional_ids(x) == tuple(
                i for i, value in enumerate(values) if value == 1
            )

        m = SphereMap(space, space, tuple(range(len(space.vrep))))
        chosen = []
        weights = isometry._barycentric_weights

        def recording(pts, x):
            chosen.append(pts)
            return weights(pts, x)

        with mock.patch.object(isometry, "_barycentric_weights", recording):
            for x in reference_facet_sample_points(space) + on_sphere:
                chosen.clear()
                assert m.apply(x) == x
                first = next(fid for fid, f in enumerate(space.hrep) if f(x) == 1)
                assert chosen == [[space.vrep[j] for j in space.facet_index[first]]]
            for x in points:
                if max(f(x) for f in space.hrep) != 1:
                    with pytest.raises(NotOnSphereError):
                        m.apply(x)


class TestFromFunctionals:
    def test_hexagon_vertices_match_line_intersections(self, hexagon):
        """Oracle: adjacent facet lines intersect in the six sphere vertices."""
        fs = [f.coeffs for f in hexagon.hrep]
        expected = set()
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                point = solve([fs[i], fs[j]], (F(1), F(1)))
                if point is None:
                    continue
                if max(sum(c * x for c, x in zip(f, point)) for f in fs) == 1:
                    expected.add(point)
        built = PolyhedralSpace.from_functionals([functional(*f) for f in fs])
        assert {v.coords for v in built.vrep} == expected
        assert vector("1/2", 1) in built.vrep
        assert vector(1, 0) in built.vrep

    def test_cross_polytope_from_vertices(self):
        built = PolyhedralSpace.from_vertices(
            [vector(1, 0), vector(0, 1), vector(-1, 0), vector(0, -1)]
        )
        assert {f.coeffs for f in built.hrep} == {
            (F(1), F(1)),
            (F(1), F(-1)),
            (F(-1), F(1)),
            (F(-1), F(-1)),
        }

    def test_degenerate_functionals(self):
        with pytest.raises(DegenerateInputError) as err:
            PolyhedralSpace.from_functionals([functional(1, 0), functional(-1, 0)])
        direction = err.value.direction
        assert direction is not None
        assert any(c != 0 for c in direction)
        # the witness really is a recession direction
        assert sum(c * d for c, d in zip((F(1), F(0)), direction)) == 0

    def test_degenerate_vertices(self):
        with pytest.raises(DegenerateInputError):
            PolyhedralSpace.from_vertices([vector(1, 1), vector(-1, -1)])

    @settings(max_examples=60, deadline=None)
    @given(non_spanning_rows(), st.booleans())
    def test_non_spanning_input_reports_the_kernel_direction(self, case, symmetrize):
        """Both builders raise with the kernel vector of the rows as given,
        whatever their order, repeats and zero rows."""
        rows, dim = case
        direction = linalg.null_space_vector(rows, dim)
        for build, message in (
            (PolyhedralSpace.from_functionals, "ball is unbounded: functionals do not span"),
            (PolyhedralSpace.from_vertices, "vertices do not span the space"),
        ):
            with pytest.raises(DegenerateInputError) as err:
                build(rows, symmetrize=symmetrize)
            assert type(err.value) is DegenerateInputError
            assert str(err.value).startswith(message)
            assert err.value.direction == direction

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInputError):
            PolyhedralSpace.from_functionals(
                [functional(0, 1), functional(0, -1), functional(1, 0)]
            )

    @pytest.mark.parametrize("kind", ["functional", "vertex"])
    def test_asymmetric_input_is_named_as_by_the_constructor(self, kind):
        """A builder raises the constructor's error, on the first row in
        sorted order that lacks its negation, not the first one given."""
        rows = [(0, 1), (1, 0), ("-1/2", 1), (-1, 0)]
        square = linf_space(2)
        if kind == "functional":
            build, cls, direct = PolyhedralSpace.from_functionals, Functional, (rows, square.vrep)
        else:
            build, cls, direct = PolyhedralSpace.from_vertices, Vector, (square.hrep, rows)
        with pytest.raises(AsymmetricInputError) as built:
            build(rows)
        with pytest.raises(AsymmetricInputError) as constructed:
            PolyhedralSpace(*direct)
        assert str(built.value) == str(constructed.value) == f"{kind} (-1/2, 1) lacks its negation"
        assert type(built.value.offender) is cls
        assert built.value.offender == constructed.value.offender

    @pytest.mark.parametrize(
        "build,kind",
        [(PolyhedralSpace.from_functionals, "functional"),
         (PolyhedralSpace.from_vertices, "vertex")],
        ids=["functionals", "vertices"],
    )
    def test_a_row_of_the_wrong_length_is_named_in_the_builders_words(self, build, kind):
        """The enumerator reads every row as a functional; a builder names
        the rows by its own input."""
        with pytest.raises(DimensionMismatchError) as err:
            build([(1, 0), (-1, 0), (0, 1, 0)])
        assert type(err.value) is DimensionMismatchError
        assert str(err.value) == f"{kind} length does not match the dimension"

    @settings(max_examples=25, deadline=None)
    @given(symmetric_point_rows(), st.sampled_from(["functionals", "vertices"]))
    def test_builder_output_is_what_the_constructor_makes_of_its_descriptions(self, rows, how):
        """The builders hand the constructor instances made from their rows
        as they are; the space equals, field by field, the one built from
        its own descriptions through the coercing path, and every entry is
        a Fraction."""
        if how == "functionals":
            space = PolyhedralSpace.from_functionals(rows)
        else:
            space = PolyhedralSpace.from_vertices(rows)
        again = PolyhedralSpace([f.coeffs for f in space.hrep], [v.coords for v in space.vrep])
        for field in ("hrep", "vrep", "facet_table", "facet_scale", "facet_index",
                      "_rows", "_scale", "_points", "_point_scale"):
            assert getattr(space, field) == getattr(again, field), field
        assert all(type(f) is Functional for f in space.hrep)
        assert all(type(v) is Vector for v in space.vrep)
        assert all(type(c) is F for x in space.hrep + space.vrep for c in x._row)

    @pytest.mark.parametrize(
        "build,rows",
        [(PolyhedralSpace.from_functionals, [(1, 0), (0, 1), ("1/3", "1/5")]),
         (PolyhedralSpace.from_vertices, [(1, 0), (0, 1), ("1/7", 0)])],
        ids=["functionals", "vertices"],
    )
    def test_scales_stay_minimal_when_a_dropped_row_had_the_only_denominator(self, build,
                                                                             rows):
        """The redundant row is the only one with a denominator, so the rows
        handed over must be reduced to the kept rows' own scale."""
        space = build(rows + [tuple(-as_fraction(c) for c in r) for r in rows])
        again = PolyhedralSpace(space.hrep, space.vrep)
        for field in ("_scale", "_point_scale", "facet_scale", "facet_table"):
            assert getattr(space, field) == getattr(again, field), field
        assert space.facet_scale == 1

    @pytest.mark.parametrize(
        "build,rows",
        [(PolyhedralSpace.from_functionals, lambda: l1_space(4).hrep),
         (PolyhedralSpace.from_vertices, lambda: linf_space(4).vrep)],
        ids=["functionals", "vertices"],
    )
    def test_a_build_scales_each_side_once_and_multiplies_out_one_table(self, build, rows,
                                                                         monkeypatch):
        """The rows are scaled once, by the builder, and the enumerator hands
        the vertices back on integer rows; the product table is filled once,
        and the constructor reads it from the hand-off."""
        calls = {"integer_rows": 0, "table": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        rows = rows()
        monkeypatch.setattr(linalg, "integer_rows", counted("integer_rows", linalg.integer_rows))
        monkeypatch.setattr(space_module, "_lines", counted("table", space_module._lines))
        build(rows)
        assert calls == {"integer_rows": 1, "table": 1}

    def test_symmetrize_flag(self):
        space = PolyhedralSpace.from_functionals(
            [functional(0, 1), functional(1, "1/2"), functional(1, "-1/2")],
            symmetrize=True,
        )
        assert space == hexagon_space()

    def test_redundant_functional_removed(self):
        space = PolyhedralSpace.from_functionals(
            [
                functional(1, 0),
                functional(-1, 0),
                functional(0, 1),
                functional(0, -1),
                functional("1/2", "1/2"),
                functional("-1/2", "-1/2"),
            ]
        )
        assert space == linf_space(2)

    def test_dimension_cap(self):
        with pytest.raises(EnumerationCapError):
            PolyhedralSpace.from_functionals(
                [functional(*row) for row in ([1] + [0] * 6, [-1] + [0] * 6)]
            )

    def test_facet_cap(self):
        fs = [functional(1, k) for k in range(101)]
        fs += [-f for f in fs]
        with pytest.raises(EnumerationCapError):
            PolyhedralSpace.from_functionals(fs)


class TestEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(dd_rows())
    def test_matches_the_rank_test_reference(self, case):
        """The polar routine checks the rows and the enumerator adds the
        span check: together they raise the reference's errors, and the
        vertices they return are the reference's, as integer rows over
        their least scale."""
        rows, dim = case

        def vertices(rows, dim):
            points = space_module._polar_pair(*linalg.integer_rows(rows), dim, False)[1]
            return points.rows, points.scale

        def reference(rows, dim):
            return linalg.integer_rows(reference_enumerate_ball_vertices(rows, dim))

        assert outcome(vertices, rows, dim) == outcome(reference, rows, dim)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_point_rows(dims=(2, 3, 4)), st.booleans(), st.integers(1, 6))
    def test_incidence_facet_test_matches_the_rank_reference(self, rows, symmetrize, m):
        """The kept rows are those whose tight vertices are inclusion-maximal.
        Midpoints and interior points among the rows touch lower-dimensional
        faces or nothing, and must be dropped as the rank test drops them.
        Each side is the integer rows and scale that ``integer_rows`` makes
        of the reference's Fraction rows alone, whatever common scale the
        rows are handed over on (here m times their least), and the kept
        rows' lines are their products with the vertices' integer rows."""

        def polar_pair(rows, dim, symmetrize):
            ints, s = linalg.integer_rows(rows)
            ints = [tuple(m * c for c in r) for r in ints]
            kept, points = space_module._polar_pair(ints, m * s, dim, symmetrize)
            assert kept.lines == tuple(
                tuple(linalg.dot(k, p) for p in points.rows) for k in kept.rows
            )
            return (kept.rows, kept.scale), (points.rows, points.scale)

        def reference(rows, dim):
            kept, points = reference_polar_pair(rows, dim, symmetrize)
            return linalg.integer_rows(kept), linalg.integer_rows(points)

        dim = len(rows[0])
        assert outcome(lambda r, d: polar_pair(r, d, symmetrize), rows, dim) == outcome(
            reference, rows, dim)

    def test_builders_enumerate_once_through_the_module_binding(self, monkeypatch):
        """Tracing wraps the module binding, so every build must go through
        it: once for each builder, and never for a sum, which lists both
        descriptions from its summands'."""
        hexagon = hexagon_space()
        hrep, vrep = l1_space(3).hrep, linf_space(3).vrep
        calls = []
        original = space_module.enumerate_ball_vertices

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(space_module, "enumerate_ball_vertices", counted)
        for build, enumerations in (
            (lambda: PolyhedralSpace.from_functionals(hrep), 1),
            (lambda: PolyhedralSpace.from_vertices(vrep), 1),
            (lambda: catalog.l1_sum(hexagon, hexagon), 0),
            (lambda: catalog.linf_sum(hexagon, hexagon), 0),
        ):
            calls.clear()
            build()
            assert len(calls) == enumerations


class TestDuality:
    def test_cross_polytope_dual_is_cube(self):
        for n in range(1, MAX_ENUM_DIM + 1):
            assert l1_space(n).dual() == linf_space(n)
            assert linf_space(n).dual() == l1_space(n)

    def test_hexagon_dual_vertices(self, hexagon):
        dual = hexagon.dual()
        expected = {
            (F(0), F(1)),
            (F(0), F(-1)),
            (F(1), F(1, 2)),
            (F(-1), F(-1, 2)),
            (F(-1), F(1, 2)),
            (F(1), F(-1, 2)),
        }
        assert {v.coords for v in dual.vrep} == expected
        # oracle: the dual ball is the hull of the primal functionals
        assert set(hull_2d(expected)) == expected

    def test_involution(self, small_catalog):
        for space in small_catalog:
            assert space.dual().dual() == space

    def test_cube_double_dual(self, cube3):
        assert cube3.dual().dual() == cube3

    @settings(max_examples=60, deadline=None)
    @given(symmetric_point_rows())
    def test_vertex_build_is_the_polar_functional_build(self, rows):
        space = PolyhedralSpace.from_vertices(rows, name="random-set")
        assert space == PolyhedralSpace.from_functionals(rows).dual()
        assert space.dual().dual() == space
        for kind in ("H", "V"):
            again = parse_space_text(serialize_space(space, kind))
            assert again == space
            assert again.name == "random-set"

    @settings(max_examples=6, deadline=None)
    @given(symmetric_point_rows(dims=(4,)))
    def test_vertex_build_is_the_polar_functional_build_in_dim_4(self, rows):
        assert PolyhedralSpace.from_vertices(rows) == PolyhedralSpace.from_functionals(rows).dual()


class TestIds:
    @settings(max_examples=60, deadline=None)
    @given(built_spaces(), st.data())
    def test_antipodes_by_position_and_lookups_by_bisection(self, space, data):
        """The antipode of id i is id N - 1 - i, every vertex and functional
        is found at its own id, and a drawn point or row is found iff it is
        a member."""
        for i, v in enumerate(space.vrep):
            assert space.vrep[space.neg_vertex_id(i)] == -v
            assert space.vertex_id(v) == i
        for i, f in enumerate(space.hrep):
            assert space.hrep[space.neg_functional_id(i)] == -f
            assert space.functional_id(f) == i
        coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        x = vector(*data.draw(st.tuples(*[coord] * space.dim)))
        if x in set(space.vrep):
            assert space.vrep[space.vertex_id(x)] == x
        else:
            with pytest.raises(GeometryError, match="is not a vertex of the ball"):
                space.vertex_id(x)
        f = functional(*x.coords)
        if f in set(space.hrep):
            assert space.hrep[space.functional_id(f)] == f
        else:
            with pytest.raises(GeometryError, match="is not a facet functional"):
                space.functional_id(f)

    @pytest.mark.parametrize(
        "v",
        [vector(0, 0), vector(1, 1), vector(2, 0), vector(-2, 0), vector(9, 9), vector(1, 0, 0),
         vector("1/3", 0), vector("1/4", 1), functional(1, 0)],
        ids=["origin", "non-member", "scaled", "below-all", "above-all", "wrong-dimension",
             "thirds", "quarters", "functional"],
    )
    def test_vertex_lookup_of_a_non_member_raises(self, hexagon, v):
        with pytest.raises(GeometryError) as err:
            hexagon.vertex_id(v)
        assert type(err.value) is GeometryError
        assert str(err.value) == f"{v} is not a vertex of the ball"

    @pytest.mark.parametrize(
        "f",
        [functional(1, 1), functional(0, 2), functional(-5, 0), functional(5, 0),
         functional(0, 1, 0), functional("1/3", 0), vector(0, 1)],
        ids=["non-member", "scaled", "below-all", "above-all", "wrong-dimension", "thirds",
             "vector"],
    )
    def test_functional_lookup_of_a_non_member_raises(self, hexagon, f):
        with pytest.raises(GeometryError) as err:
            hexagon.functional_id(f)
        assert type(err.value) is GeometryError
        assert str(err.value) == f"{f} is not a facet functional"


class TestInvariants:
    def test_facet_has_enough_vertices(self, small_catalog):
        for space in small_catalog:
            for fid, ids in enumerate(space.facet_index):
                assert len(ids) >= space.dim

    def test_mutual_polarity_verified(self, small_catalog):
        for space in small_catalog:
            space.verify_mutual_polarity()

    @pytest.mark.parametrize("build", [l1_space, linf_space], ids=["l1", "linf"])
    def test_mutual_polarity_verified_in_dim_6(self, build):
        build(6).verify_mutual_polarity()

    @settings(max_examples=30, deadline=None)
    @given(built_spaces())
    def test_mutual_polarity_verified_on_built_spaces(self, space):
        """On spaces from both builders and from direct construction, each
        side's integer rows and scale are re-enumerated from the other's."""
        space.verify_mutual_polarity()

    def test_polarity_check_applies_the_caps(self):
        """A space built directly above ``MAX_ENUM_DIM`` is not re-enumerated."""
        n = MAX_ENUM_DIM + 1
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        vrep = units + [tuple(-c for c in u) for u in units]
        hrep = list(itertools.product((1, -1), repeat=n))
        with pytest.raises(EnumerationCapError, match="exceeds the enumeration cap"):
            PolyhedralSpace(hrep, vrep).verify_mutual_polarity()

    def test_incomplete_vertex_set_caught_by_polarity_check(self):
        """A cube missing one corner pair passes the cheap checks but not re-enumeration."""
        cube = linf_space(3)
        vrep = [v for v in cube.vrep if abs(v.coords[0] + v.coords[1] + v.coords[2]) != 3]
        crippled = PolyhedralSpace(cube.hrep, vrep)
        with pytest.raises(GeometryError):
            crippled.verify_mutual_polarity()

    @pytest.mark.parametrize(
        "extra_h,extra_v,error,message,offender",
        [
            (None, None, GeometryError, "need at least one functional and one vertex", None),
            ((), [(1, 1, 1), (-1, -1, -1)], DimensionMismatchError,
             "mixed dimensions in the descriptions", None),
            ([(1, 1)], (), AsymmetricInputError, "functional (1, 1) lacks its negation",
             functional(1, 1)),
            ((), [(1, 0)], AsymmetricInputError, "vertex (1, 0) lacks its negation", vector(1, 0)),
            ([(1, 1), (-1, -1)], (), GeometryError,
             "listed vertex (-1, -1) does not have norm one", None),
            ((), [(2, 0), (-2, 0)], GeometryError,
             "listed vertex (-2, 0) does not have norm one", None),
            ([("1/2", 0), ("-1/2", 0)], (), GeometryError,
             "functional (-1/2, 0) does not have dual norm one", None),
            ([("1/2", "1/2"), ("-1/2", "-1/2")], (), GeometryError,
             "functional (-1/2, -1/2) does not support a facet", None),
            ((), [(1, 0), (-1, 0)], GeometryError,
             "listed point (-1, 0) is not a vertex of the ball", None),
            # A zero row is its own negation and sits in the middle of an odd list.
            ([(0, 0)], (), GeometryError, "functional (0, 0) does not have dual norm one", None),
            ((), [(0, 0)], GeometryError, "listed vertex (0, 0) does not have norm one", None),
        ],
        ids=["empty", "mixed-dims", "asymmetric-functional", "asymmetric-vertex",
             "functional-over-a-vertex", "vertex-outside", "short-functional",
             "corner-functional", "edge-midpoints", "zero-functional", "zero-vertex"],
    )
    def test_direct_construction_rejects_one_defect(self, extra_h, extra_v, error, message,
                                                    offender):
        """The square with one defect: each check of the raw constructor
        raises its own error, on the first offender in canonical order."""
        square = linf_space(2)
        if extra_h is None:
            hrep, vrep = (), square.vrep
        else:
            hrep = list(square.hrep) + [functional(*f) for f in extra_h]
            vrep = list(square.vrep) + [vector(*v) for v in extra_v]
        with pytest.raises(GeometryError) as err:
            PolyhedralSpace(hrep, vrep)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "offender", None) == offender

    def test_a_handed_over_description_is_checked(self):
        """Builder output skips the scaling and the sort, not the checks: rows
        out of order, and a description without a negation, are refused."""
        rows, s = linalg.integer_rows(f.coeffs for f in linf_space(2).hrep)
        kept, points = space_module._polar_pair(rows, s, 2, False)
        assert PolyhedralSpace(kept, points) == linf_space(2)
        with pytest.raises(GeometryError, match="internal: the functional rows are not strictly"):
            PolyhedralSpace(kept._replace(rows=kept.rows[::-1]), points)
        odd = points._replace(rows=points.rows[:-1])
        with pytest.raises(AsymmetricInputError, match=r"vertex \(-1, -1\) lacks its negation"):
            PolyhedralSpace(kept, odd)

    @pytest.mark.parametrize("name", ["hex", "l1:3", "linf:3", "l1sum(hex,l1:1)"])
    def test_rank_checks_test_one_member_of_each_antipodal_pair(self, name, monkeypatch):
        space = catalog.resolve(name)
        calls = []
        original = linalg.rank

        def counted(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(linalg, "rank", counted)
        PolyhedralSpace(space.hrep, space.vrep)
        assert len(calls) == (len(space.hrep) + len(space.vrep)) // 2

    @settings(max_examples=40, deadline=None)
    @given(direct_constructions())
    def test_rank_checks_raise_what_the_all_rows_checks_raise(self, case):
        """The constructor, which ranks one member of each antipodal pair
        on integer rows with no homogenising column, raises the same error,
        on the same offender, as a Fraction reference that ranks every facet
        on homogenised rows and every vertex, or accepts what that accepts."""
        hrep, vrep = case
        got = construction_outcome(hrep, vrep)
        assert got == reference_construction_outcome(hrep, vrep)
        if len(got) == 3:
            assert got[1].endswith(("does not support a facet", "is not a vertex of the ball"))

    def test_facet_table_over_its_scale_is_the_functionals_at_vertices(self, small_catalog):
        for space in small_catalog:
            table, scale = space.facet_table, space.facet_scale
            assert isinstance(table, tuple) and type(scale) is int and scale > 0
            assert all(isinstance(row, tuple) for row in table)
            assert all(type(value) is int for row in table for value in row)
            assert [[F(value, scale) for value in row] for row in table] == [
                [f(v) for f in space.hrep] for v in space.vrep
            ]

    def test_symmetric_representations(self, small_catalog):
        for space in small_catalog:
            assert {-f for f in space.hrep} == set(space.hrep)
            assert {-v for v in space.vrep} == set(space.vrep)

    def test_canonical_ordering_deterministic(self, hexagon):
        again = hexagon_space()
        assert tuple(f.coeffs for f in again.hrep) == tuple(f.coeffs for f in hexagon.hrep)
        assert tuple(v.coords for v in again.vrep) == tuple(v.coords for v in hexagon.vrep)


@st.composite
def sorted_symmetric_int_rows(draw, dim):
    """Sorted distinct integer rows of length ``dim``, closed under negation,
    with or without the zero row, which makes their number odd."""
    rows = set(draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=5)))
    rows |= {tuple(-c for c in r) for r in rows}
    rows.discard((0,) * dim)
    if draw(st.booleans()):
        rows.add((0,) * dim)
    return sorted(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(sorted_symmetric_int_rows(dim),
                                                         sorted_symmetric_int_rows(dim))))
def test_table_lines_equal_the_full_product(case):
    """The quarter product mirrored by position, on even lists, and the full
    product on a list with the zero row, equal every dot product."""
    rows, others = case
    full = tuple(tuple(sum(a * b for a, b in zip(r, o)) for o in others) for r in rows)
    assert space_module._lines(rows, others) == full


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(sorted_symmetric_int_rows), st.data())
def test_first_unpaired_names_the_first_row_without_its_negation(rows, data):
    """On lists and on tuples of rows, closed or with one row dropped, with
    or without the zero row, the helper names the first sorted row whose
    negation is missing, or None."""
    if len(rows) > 1 and data.draw(st.booleans()):
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    present = set(rows)
    first = next((i for i, r in enumerate(rows) if tuple(-c for c in r) not in present), None)
    assert space_module._first_unpaired(rows) == first
    assert space_module._first_unpaired(tuple(rows)) == first
