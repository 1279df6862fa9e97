"""Space-level sphere properties: CL and the T-property.

A space is CL when for every maximal convex set C of the sphere the ball
is the convex hull of C and -C. The T-property asks for a family of
sphere points whose stars are maximal convex sets covering the sphere,
such that every sphere point is within total distance two of each star
and its opposite. On a polytope ball the property is decided by one
family, the facet barycenters:

(i) a star is a maximal convex set only when it is a single facet, so
    every point of a family is smooth and names one facet;
(ii) a relative-interior point of a facet lies on no other facet, so the
    stars cover the sphere only when every facet is some point's star;
(iii) the two-sided distance d(v, F) + d(v, -F) depends only on the star
    facet F, not on the point whose star it is.

Every family that passes (i) and (ii) therefore yields the same table of
(iii) values over (vertex, facet) pairs as the barycenters do, and the
property holds exactly when that table is all twos. Everything here is
decided exactly: faces are compact polytopes, so the distance minima are
attained and checked as equalities or rational inequalities, never with
tolerances. Both tests read the space's own tables: ``facet_table`` over
``facet_scale`` for facet values, ``facet_index`` for each facet F and
for -F, its ``neg_functional_id``. CL gives F and -F one verdict, and
(iii) reads d(v, F) and d(v, -F) from one row of distances at v.

Which hexagons have the property is open here. Every symmetric hexagon
is a linear image of one with vertices +-(1, 0), +-(a, b), +-(0, 1).
Conjecture, checked on a grid: the T-property holds only for linear
images of the regular hexagon, (a, b) = (1, 1), and no hexagon is CL.
The grid is a and b in 1/4, 1/2, ..., 3, which gives 66 hexagons.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryError, NotAlmostClError, NotOnSphereError
from .linalg import ONE, ZERO, combination
from .lp import LpConstraint, LpProblem, solve_lp
from .space import PolyhedralSpace, Vector


@dataclass(frozen=True)
class FacetClVerdict:
    facet_id: int
    ok: bool
    failing_vertex: Vector | None


@dataclass(frozen=True)
class ClReport:
    """Verdict of the CL check with a counterexample vertex when it fails.

    For polytopes the closed and plain convex hulls coincide, so ``is_cl``
    is also the almost-CL verdict.
    """

    is_cl: bool
    facet_verdicts: tuple[FacetClVerdict, ...]
    counterexample: tuple[int, Vector] | None

    def __bool__(self):
        return self.is_cl


@dataclass(frozen=True)
class ConditionThreeRecord:
    vertex: Vector
    candidate_index: int
    value: Fraction
    witness_plus: Vector
    witness_minus: Vector


@dataclass(frozen=True)
class TPropertyReport:
    """The T-property decided over the facet barycenters.

    ``candidates[k]`` is the barycenter of facet k, a smooth point whose
    star is that facet, so the family passes conditions (i) and (ii).
    ``condition_iii`` holds one record per (vertex, facet) pair, vertex
    major, with ``candidate_index`` the facet id. Any family that passes
    (i) and (ii) gives the same values (see the module docstring), so
    ``holds`` is a decision: when it is False, ``violation``, the first
    record with a value above two, refutes the property.
    """

    holds: bool
    candidates: tuple[Vector, ...]
    condition_iii: tuple[ConditionThreeRecord, ...]
    violation: ConditionThreeRecord | None

    def __bool__(self):
        return self.holds


def in_convex_hull(x: Vector, points: list[Vector]) -> tuple[Fraction, ...] | None:
    """Exact hull membership; returns convex weights or None."""
    k = len(points)
    cons = [
        LpConstraint(tuple(p.coords[i] for p in points), "==", x.coords[i])
        for i in range(x.dim)
    ]
    cons.append(LpConstraint((ONE,) * k, "==", ONE))
    sol = solve_lp(LpProblem((ZERO,) * k, tuple(cons)))
    if sol.status != "optimal":
        return None
    return sol.point


def distance_to_hull(space: PolyhedralSpace, x: Vector, points: list[Vector]) -> tuple[Fraction, Vector]:
    """Exact minimum of norm(x - y) over the hull of ``points``, with a minimiser.

    Witness first, LP as fallback. Every facet functional f has dual norm
    one, so on the hull norm(x - y) >= f(y) - f(x) >= min_p f(p) - f(x);
    the best of these bounds (and zero) is a lower bound on the distance.
    The bound is computed in one pass on integers: the space's integer
    facet rows at x and at the points, all over one denominator. The
    first of ``points`` whose distance to x meets that bound is a
    minimiser, certified by exact norm evaluation. Only when no point does
    is the distance LP solved.
    """
    if not points:
        raise GeometryError("distance to the hull of no points")
    (at_x, *at_points), d = space._values_at([x, *points])
    lower = Fraction(max(0, *(min(col) - v for col, v in zip(zip(*at_points), at_x))), d)
    for p in points:
        if space.norm(x - p) == lower:
            return lower, p
    return _distance_lp(space, x, points)


def _distance_lp(space: PolyhedralSpace, x: Vector, points: list[Vector]) -> tuple[Fraction, Vector]:
    """The distance to the hull of ``points`` as one LP in the space's own norm.

    Variables are the convex weights and the distance bound t, constrained
    by every facet functional.
    """
    k = len(points)
    cons = []
    for f in space.hrep:
        row = tuple(-f(p) for p in points) + (-ONE,)
        cons.append(LpConstraint(row, "<=", -f(x)))
    cons.append(LpConstraint((ONE,) * k + (ZERO,), "==", ONE))
    objective = (ZERO,) * k + (-ONE,)
    sol = solve_lp(LpProblem(objective, tuple(cons)))
    if sol.status != "optimal":
        raise GeometryError("distance LP failed unexpectedly")
    return sol.point[k], Vector(combination(sol.point[:k], [p.coords for p in points]))


def check_cl(space: PolyhedralSpace) -> ClReport:
    """Decide whether every ball vertex lies in conv(C u -C) for each facet C.

    C u -C is one set of vertex ids for C and -C, so a facet copies the
    verdict of an opposite that came first: one hull LP per antipodal pair.
    That LP always fails. Every vertex v of the ball B is extreme, and the
    extreme points of the hull of a compact set lie in the set: so if
    B = conv(C u -C), v lies in C u -C. If every vertex does, B =
    conv(vertices) lies in conv(C u -C). So facet f fails exactly at the
    first vertex with |f(v)| < 1, and CL holds iff every entry of
    ``facet_table`` is +-``facet_scale``.
    """
    verdicts = []
    for fid in range(len(space.hrep)):
        neg = space.neg_functional_id(fid)
        if neg < fid:
            failing = verdicts[neg].failing_vertex
        else:
            ids = space.facet_index[fid] + space.facet_index[neg]
            gens = [space.vrep[j] for j in ids]
            others = (v for j, v in enumerate(space.vrep) if j not in ids)
            failing = next((v for v in others if in_convex_hull(v, gens) is None), None)
        verdicts.append(FacetClVerdict(fid, failing is None, failing))
    counterexample = next(((v.facet_id, v.failing_vertex) for v in verdicts if not v.ok), None)
    return ClReport(counterexample is None, tuple(verdicts), counterexample)


def condition_iii_value(
    space: PolyhedralSpace, x: Vector, fid: int
) -> tuple[Fraction, Vector, Vector]:
    """Exact minimum of norm(x - y+) + norm(x - y-) over y+ in facet ``fid``, y- in its opposite.

    The minimum is always at least two: the facet functional separates the
    facet from its opposite by exactly two. Each side is settled by
    :func:`distance_to_hull`, so a witness that meets the functional bound
    is returned without an LP; the witnesses may therefore differ from the
    LP's own choice of minimiser, while the value is the same.
    """
    (at_x,), d = space._values_at([x])
    if max(at_x) != d:
        raise NotOnSphereError(f"{x} is not on the sphere")
    _check_facet_id(space, fid)
    plus, minus = fid, space.neg_functional_id(fid)
    d_plus, w_plus = _distance_to_face(space, x, plus, at_x[plus], d)
    d_minus, w_minus = _distance_to_face(space, x, minus, at_x[minus], d)
    value = d_plus + d_minus
    if value < 2:
        raise GeometryError("two-sided distance fell below two; this is a bug")
    return value, w_plus, w_minus


def _check_facet_id(space: PolyhedralSpace, fid: int):
    """A facet id indexes ``hrep`` from the front only."""
    if not 0 <= fid < len(space.hrep):
        raise GeometryError(f"facet id {fid} outside 0..{len(space.hrep) - 1}")


def _distance_to_face(
    space: PolyhedralSpace, x: Vector, fid: int, value: int, d: int
) -> tuple[Fraction, Vector]:
    """d(x, F) for the facet F of ``fid``, given ``value`` / d, F's functional at x."""
    if value == d:
        return ZERO, x
    if value == -d:
        # x is on the sphere, so -x lies on the facet at distance two, and
        # the facet functional shows that nothing on the facet is closer.
        return Fraction(2), -x
    pts = [space.vrep[j] for j in space.facet_index[fid]]
    return distance_to_hull(space, x, pts)


def check_t_property(space: PolyhedralSpace) -> TPropertyReport:
    """Decide the T-property from the facet barycenters.

    Each facet's barycenter is smooth and has that facet as its star, so
    the family passes (i) and (ii), and by (iii) its value table is the
    one every such family gives: the property holds iff every value is
    two. Condition (iii) is evaluated on vertices only: the quantity is
    convex in the sphere point, so its maximum over the ball is attained
    at a vertex. A vertex on the facet or on its opposite, or a facet
    vertex that meets the facet-functional bound, settles each side
    exactly without an LP; the distance LP runs only when none does.
    The record of (v, F) adds the entries for F and -F of v's row of
    distances, so no row of -v is needed for d(-v, F) = d(v, -F).
    """
    candidates = tuple(space.facet_barycenter(fid) for fid in range(len(space.hrep)))
    records = []
    d = space.facet_scale
    for v, row in zip(space.vrep, space.facet_table):
        dist = [_distance_to_face(space, v, fid, value, d) for fid, value in enumerate(row)]
        for fid, (d_plus, w_plus) in enumerate(dist):
            d_minus, w_minus = dist[space.neg_functional_id(fid)]
            rec = ConditionThreeRecord(v, fid, d_plus + d_minus, w_plus, w_minus)
            if rec.value < 2:
                raise GeometryError("two-sided distance fell below two; this is a bug")
            records.append(rec)
    violation = next((rec for rec in records if rec.value > 2), None)
    return TPropertyReport(
        holds=violation is None,
        candidates=candidates,
        condition_iii=tuple(records),
        violation=violation,
    )


def cl_decomposition(
    space: PolyhedralSpace, x: Vector, fid: int
) -> tuple[Fraction, Vector, Vector]:
    """Write a sphere point as lam*y1 + (1-lam)*y2 with y1 in facet ``fid``, y2 in its opposite.

    For polytopes the representation is exact. The weight lam is forced
    to (f(x)+1)/2 by the facet functional; only the witnesses involve a
    choice, resolved deterministically by the LP.
    Raises NotAlmostClError when no representation exists.
    """
    if space.norm(x) != 1:
        raise NotOnSphereError(f"{x} is not on the sphere")
    _check_facet_id(space, fid)
    plus = [space.vrep[j] for j in space.facet_index[fid]]
    minus = [-v for v in plus]
    weights = in_convex_hull(x, plus + minus)
    if weights is None:
        raise NotAlmostClError(
            "point has no two-sided facet decomposition; the space is not almost-CL"
        )
    lam = sum(weights[: len(plus)], start=ZERO)
    if lam == 0:
        y1 = plus[0]
    else:
        y1 = Vector(combination([w / lam for w in weights[: len(plus)]], [p.coords for p in plus]))
    if lam == 1:
        y2 = minus[0]
    else:
        rest = 1 - lam
        y2 = Vector(combination([w / rest for w in weights[len(plus):]], [p.coords for p in minus]))
    combo = y1.scale(lam) + y2.scale(1 - lam)
    if combo != x:
        raise GeometryError("decomposition arithmetic failed; this is a bug")
    return lam, y1, y2
