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
for -F, its ``neg_functional_id``. CL gives F and -F one verdict.

A distance d(x, F) is read from integers (:func:`distance_to_hull`): the
facet values at x, and the ``facet_table`` rows of F's vertices. The
T-property hands it a vertex's facet values as the vertex's own row,
``facet_table[j]`` over ``facet_scale``, and :func:`condition_iii_value`
the values it scaled once to test that x is on the sphere; only a caller
that holds none has x scaled by ``_values_at``. They give a lower bound
from the facet functionals and each vertex's exact distance; the first
vertex that meets the bound is a nearest point, and only when none does
is the distance LP solved. Whichever path found it, a nearest point y is
returned only after one exact check, norm(x - y) == d(x, F).

(iii) is decided once per antipodal pair of vertices, by the mirror
rule: the record of (-v, F) is that of (v, F) with the witnesses negated
and swapped, (value, -y-, -y+). Proof: y -> -y maps -F onto F and keeps
distances, norm(-v - (-y)) = norm(v - y), so d(-v, F) = d(v, -F) with
nearest point -y- and d(-v, -F) = d(v, F) with nearest point -y+. The
vertex of each pair that is evaluated is the one whose first nonzero
coordinate is negative, and those are exactly the ids below N/2: v < -v
lexicographically iff the first nonzero coordinate of v is negative, and
of the ids j and N - 1 - j of v and -v (see :mod:`polysphere.space`,
antipodes by position) the lower is that of the smaller. Records are
vertex major, so the record of v comes before every mirrored record of
-v: the first record above two, the violation, is always an evaluated
one. :func:`condition_iii_value` applies the same rule to any sphere
point, so its values and witnesses are those of the records.

Which hexagons have the property depends on how condition (iii) is read,
and both readings are stated here. Every symmetric hexagon is a linear
image of one with vertices +-(1, 0), +-(a, b), +-(0, 1); the census grid
is a and b in 1/4, 1/2, ..., 3, which gives 66 hexagons, none of them CL.

- Facet stars with "= 2", the reading this module decides: a family
  point's star is one facet F, and d(x, F) + d(x, -F) = 2 at every sphere
  point x. It gives T on 1 of the 66 grid hexagons, the linear image of
  the regular hexagon, (a, b) = (1, 1).
- Vertex stars St(v), the union of the facets through a vertex v, that is
  the sphere points y with norm(v + y) = 2. Measured at 61 rational points
  per edge, the two-sided value for St(v) has maximum exactly 2 on all 66
  grid hexagons, and its minimum falls to 3/4, at (a, b) = (1/2, 3/4).
  Only this reading, with "<= 2" in place of "= 2", gives the claim of
  the paper's abstract that a plane space whose sphere is a hexagon has T.

For a single facet the two conditions agree, since the value is always at
least two. No option chooses the reading.
"""

from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import GeometryError, NotAlmostClError, NotOnSphereError
from .linalg import ONE, ZERO, combination
from .lp import LpConstraint, LpProblem, solve_lp
from .space import PolyhedralSpace, Vector

TWO = Fraction(2)


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


@dataclass(frozen=True, slots=True)
class ConditionThreeRecord:
    vertex: Vector
    candidate_index: int
    value: Fraction
    witness_plus: Vector
    witness_minus: Vector


_SET_VERTEX, _SET_FID, _SET_VALUE, _SET_PLUS, _SET_MINUS = (
    getattr(ConditionThreeRecord, f.name).__set__ for f in fields(ConditionThreeRecord)
)


def _record(
    vertex: Vector, fid: int, value: Fraction, plus: Vector, minus: Vector
) -> ConditionThreeRecord:
    """``ConditionThreeRecord(vertex, fid, value, plus, minus)``, each slot set by its descriptor.

    The frozen dataclass's ``__init__`` routes each field through
    ``object.__setattr__``, which made up about half of
    :func:`check_t_property` on spaces the table settles; the slot
    descriptors set the same fields in about 60% of the time. The record
    is the same frozen dataclass: equal, hashed and printed alike.
    """
    rec = object.__new__(ConditionThreeRecord)
    _SET_VERTEX(rec, vertex)
    _SET_FID(rec, fid)
    _SET_VALUE(rec, value)
    _SET_PLUS(rec, plus)
    _SET_MINUS(rec, minus)
    return rec


@dataclass(frozen=True)
class TPropertyReport:
    """The T-property decided over the facet barycenters.

    ``candidates[k]`` is the barycenter of facet k, a smooth point whose
    star is that facet, so the family passes conditions (i) and (ii).
    ``condition_iii`` holds one record per (vertex, facet) pair, vertex
    major, with ``candidate_index`` the facet id. Any family that passes
    (i) and (ii) gives the same values (see the module docstring), so
    ``holds`` is a decision: when it is False, ``violation``, the first
    record with a value above two, refutes the property. The records of
    the vertices with ids below N/2, whose first nonzero coordinate is
    negative, are evaluated; the record of the vertex N - 1 - j for a
    facet is mirrored from that of vertex j for the same facet, with the
    witnesses negated and swapped. ``violation`` is always an evaluated
    record (see the module docstring).

    ``violation`` is the first record above two in vertex-major order, so
    it depends on the order of the vertices: two linearly isometric spaces
    can name different violations. The symmetric hull of (1, 1, 1),
    (2, 1, -1), (0, -2, -2) and (-1, 1, -1) names one of value 33/10, and
    its image under the cycle of the coordinates one of value 35/12. The
    invariants of a linear isometry are ``holds`` and the sorted record
    values.
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


def distance_to_hull(
    space: PolyhedralSpace, x: Vector, fid: int, *, values: tuple[list[int], int] | None = None
) -> tuple[Fraction, Vector]:
    """Exact minimum of norm(x - y) over the facet ``fid``, with a minimiser y.

    Read from the integer tables first, LP as fallback. Let X be the facet
    values at x over d, and R[p] the ``facet_table`` row of the facet's
    vertex p over s = ``facet_scale``. ``values`` = (X, d) when the caller
    holds them, as :func:`check_t_property` holds a vertex's own
    ``facet_table`` row over d = s, where X and R compare as they are;
    otherwise x is scaled by one ``_values_at``. Every facet functional h
    has dual norm one, so on the facet norm(x - y) >= h(y) - h(x) >=
    min_p h(p) - h(x), and the distance is at least L = max(0, max_h
    (min_p R[p][h] d - X[h] s)) / (s d). A vertex p is at distance max_h
    (X[h] s - R[p][h] d) / (s d) from x, so the first facet vertex, in
    ``facet_index`` order, whose distance equals L is a minimiser. Only
    when no vertex meets the bound is the distance LP solved. Either
    minimiser is certified by one exact norm evaluation, norm(x - y) ==
    value, which needs neither the bound, nor ``values``, nor the solver.
    """
    _check_facet_id(space, fid)
    s, ids, table = space.facet_scale, space.facet_index[fid], space.facet_table
    rows = [table[j] for j in ids]
    if values is None:
        (at_x,), d = space._values_at([x])
    else:
        at_x, d = values
    if d == s:
        d = 1  # X is over s like the rows R[p]: they compare as they are
    else:
        at_x = [v * s for v in at_x]
    bound = max(0, *(min(col) * d - v for col, v in zip(zip(*rows), at_x)))
    met = (j for j, row in zip(ids, rows) if max(v - r * d for v, r in zip(at_x, row)) == bound)
    j = next(met, None)
    if j is None:
        value, y = _distance_lp(space, x, [space.vrep[i] for i in ids])
    else:
        value, y = Fraction(bound, s * d), space.vrep[j]
    if space.norm(x - y) != value:
        raise GeometryError("distance minimiser fails its norm certificate; this is a bug")
    return value, y


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
    facet from its opposite by exactly two. The value and witnesses are
    those of :func:`check_t_property`'s records, by the same rule: a point
    whose first nonzero coordinate is negative is evaluated by
    :func:`_two_sided`, and a point whose first nonzero coordinate is
    positive is evaluated at -x and mirrored, the witnesses (-y-, -y+) of
    -x for the same facet (see the module docstring). A witness that meets
    the functional bound is returned without an LP, so the witnesses may
    differ from the LP's own choice of minimiser, while the value is the
    same.
    """
    (at_x,), d = space._values_at([x])
    if max(at_x) != d:
        raise NotOnSphereError(f"{x} is not on the sphere")
    _check_facet_id(space, fid)
    if next(c for c in x.coords if c) > 0:
        value, plus, minus = _two_sided(space, -x, x, fid, [-v for v in at_x], d)
        return value, minus[1], plus[1]
    value, plus, minus = _two_sided(space, x, -x, fid, at_x, d)
    return value, plus[0], minus[0]


def _check_facet_id(space: PolyhedralSpace, fid: int):
    """A facet id indexes ``hrep`` from the front only."""
    if not 0 <= fid < len(space.hrep):
        raise GeometryError(f"facet id {fid} outside 0..{len(space.hrep) - 1}")


def _two_sided(
    space: PolyhedralSpace, x: Vector, antipode: Vector, fid: int, at_x: list[int], d: int
) -> tuple[Fraction, tuple[Vector, Vector], tuple[Vector, Vector]]:
    """The two-sided value at x for the facet F of ``fid``, with its witnesses and their negations.

    ``at_x`` / d are the facet values at x, and ``antipode`` is -x. Returns
    (value, (y+, -y+), (y-, -y-)) with y+ a nearest point of F and y- one
    of -F. The entry of F settles a sphere point on F or on -F with no
    arithmetic: x is its own nearest point on its facet, and -x lies on the
    opposite facet at distance two, which the facet functional shows that
    no point of that facet beats, so the value is two. Otherwise each side
    is :func:`distance_to_hull` of F or of -F, handed x's facet values, so
    that it reads the bound and the facet vertices' distances from integers
    with no scaling of x, and certifies its nearest point by one norm; the
    negated witnesses are -y+ and -y-.
    """
    value = at_x[fid]
    if value == d:
        return TWO, (x, antipode), (antipode, x)
    if value == -d:
        return TWO, (antipode, x), (x, antipode)
    d_plus, plus = distance_to_hull(space, x, fid, values=(at_x, d))
    d_minus, minus = distance_to_hull(space, x, len(space.hrep) - 1 - fid, values=(at_x, d))
    total = d_plus + d_minus
    if total < 2:
        raise GeometryError("two-sided distance fell below two; this is a bug")
    return total, (plus, -plus), (minus, -minus)


def check_t_property(space: PolyhedralSpace) -> TPropertyReport:
    """Decide the T-property from the facet barycenters.

    Each facet's barycenter is smooth and has that facet as its star, so
    the family passes (i) and (ii), and by (iii) its value table is the
    one every such family gives: the property holds iff every value is
    two. Condition (iii) is evaluated on vertices only: the quantity is
    convex in the sphere point, so its maximum over the ball is attained
    at a vertex.

    Records are evaluated once per antipodal pair of vertices and of
    facets. For a vertex v with id j < N/2, exactly a vertex whose first
    nonzero coordinate is negative, :func:`_two_sided` gives the records
    of (v, F) and (v, -F) from one evaluation of the two sides. The record
    of -v, the vertex N - 1 - j, is mirrored from v's for the same facet:
    same value, witnesses (-y-, -y+), because d(-v, F) = d(v, -F). The
    table settles a vertex on F or -F. For the rest, each side is read from
    the integer tables: a facet vertex whose distance, a ``facet_table``
    row against v's, meets the facet-functional bound settles it, and the
    distance LP runs only when none does. Each nearest point is certified
    by one exact norm. The violation is an evaluated record: a
    mirrored record has the value of v's record for the same facet, which
    comes first. The proofs are in the module docstring.

    The violation is the first record above two in vertex-major order, and
    depends on that order: under a linear isometry only ``holds`` and the
    sorted record values are invariant (see :class:`TPropertyReport`).
    """
    candidates = tuple(space.facet_barycenter(fid) for fid in range(len(space.hrep)))
    vrep, table, d = space.vrep, space.facet_table, space.facet_scale
    n, m = len(vrep), len(space.hrep)
    computed, mirrored = [], []
    for j in range(n // 2):
        v, neg_v, row = vrep[j], vrep[n - 1 - j], table[j]
        # Facet m - 1 - fid is -F, whose record swaps F's two sides; reversed()
        # puts those records at the ids m/2 .. m - 1.
        sides = [_two_sided(space, v, neg_v, fid, row, d) for fid in range(m // 2)]
        sides += [(value, minus, plus) for value, plus, minus in reversed(sides)]
        computed += (
            _record(v, fid, value, plus[0], minus[0])
            for fid, (value, plus, minus) in enumerate(sides)
        )
        mirrored.append([
            _record(neg_v, fid, value, minus[1], plus[1])
            for fid, (value, plus, minus) in enumerate(sides)
        ])
    # Every value is at least two (_two_sided checks it), so above two means not two.
    violation = next((rec for rec in computed if rec.value != 2), None)
    return TPropertyReport(
        holds=violation is None,
        candidates=candidates,
        condition_iii=tuple(computed + [rec for row in reversed(mirrored) for rec in row]),
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
