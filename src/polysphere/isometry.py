"""Sphere-to-sphere maps between polyhedral spaces and their linear extensions.

A candidate isometry is encoded combinatorially: a vertex bijection,
evaluated piecewise by barycentric coordinates, from which the facet
correspondence is derived. Between polytope spheres every surjective
isometry carries facets to facets, so this class covers all of them.
Verification checks that facets go to facets, antipodality, exact distance
preservation on vertex pairs, the affine consistency on each facet that
makes the evaluation rule well defined (one rank of the integer rows
(P_j, Q_σ(j)) of the facet's vertices and their images, width 2 dim,
with no homogenising column), exact distances at a few seeded
facet points, and last that every entry of the domain's ``facet_table`` is
carried onto the codomain's. That last comparison decides the verdict on
its own (see :func:`verify_isometry`); the passes ahead of it report a
failure as two points whose distance changes, when one is among the points
they see. Only a failure of affine consistency marks a map as malformed;
every other failure is an honest verdict with a counterexample.

Distances are read from rows of facet values. Every facet functional f is
linear, so f(p - q) = f(p) - f(q), and ||p - q|| = max_i (F[p][i] - F[q][i])
where F[p] is the row of facet values at p. Each side's rows are integers
over one scale, so a pair costs one integer subtraction per facet. Vertex
rows are the spaces' ``facet_table``, and a vertex's image is its vertex
image. Only the seeded points that are not vertices are evaluated by
:meth:`SphereMap.apply`, which reads the sphere check and the facet that
carries the point from one pass of the domain's integer facet rows, then
solves one barycentric LP. A passing map makes no norm call.

Points are combined on the spaces' integer vertex rows: row j of a space
is ``_points[j]``, vertex j times the vertex scale e = ``_point_scale``.
The seeded points are integer-weighted sums of the domain's rows, and
apply's image is the LP weights, scaled to integers once, against the
codomain's rows; each coordinate becomes one Fraction at the end.

The linear extension is built on the images of one basis of domain
vertices, after the same table comparison, which certifies both vertex
agreement and functional transport; no norm is sampled.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub

from . import linalg
from .errors import CertificationError, GeometryError, NotOnSphereError
from .linalg import ONE, ZERO, Matrix
from .lp import LpConstraint, LpProblem, solve_lp
from .sampling import DEFAULT_SEED, random_facet_point, rng_from
from .space import Functional, PolyhedralSpace, Vector


@dataclass(frozen=True)
class SphereMap:
    """Piecewise-linear sphere map given by a vertex bijection.

    ``vertex_map[i]`` is the codomain vertex id of domain vertex i. A point
    on a domain facet with barycentric weights over that facet's vertices
    goes to the same weights over the image vertices. The constructor
    validates only that ``vertex_map`` is a bijection, and derives
    ``facet_map``: ``facet_map[g]`` is the codomain facet whose vertices are
    the images of domain facet g's vertices, or None when the images form
    no codomain facet. The geometric invariants, facet preservation among
    them, are the business of :func:`verify_isometry`.
    """

    domain: PolyhedralSpace
    codomain: PolyhedralSpace
    vertex_map: tuple[int, ...]
    facet_map: tuple[int | None, ...] = field(init=False)

    def __post_init__(self):
        nv, mv = len(self.domain.vrep), len(self.codomain.vrep)
        if nv != mv or sorted(self.vertex_map) != list(range(mv)):
            raise GeometryError("vertex_map is not a bijection onto the codomain vertices")
        facet_ids = {frozenset(ids): g for g, ids in enumerate(self.codomain.facet_index)}
        facet_map = tuple(
            facet_ids.get(frozenset(self.vertex_map[j] for j in ids))
            for ids in self.domain.facet_index
        )
        object.__setattr__(self, "facet_map", facet_map)

    def vertex_image(self, i: int) -> Vector:
        return self.codomain.vrep[self.vertex_map[i]]

    def apply(self, x: Vector) -> Vector:
        """Evaluate the map at a sphere point via barycentric weights.

        One pass of the domain's integer facet rows at x gives both the
        sphere check (their maximum is one) and the facet used: the first
        facet in canonical order that contains x. The weights come from the
        exact LP solver's canonical basic solution. For facet-consistent
        maps the result does not depend on either choice. At a vertex the
        only weights are one-hot, so the result is :meth:`vertex_image`.
        :func:`verify_isometry` calls it only for its seeded facet points
        that are not vertices.

        The image is combined on integers: with the weights scaled to
        integers w over s, and Q the codomain's vertex rows over its vertex
        scale e, coordinate c is sum_j w_j * Q[vertex_map[j]][c] over s * e.
        """
        dom, cod = self.domain, self.codomain
        (values,), d = dom._values_at((x,))
        if max(values) != d:
            raise NotOnSphereError(f"{x} is not on the domain sphere")
        ids = dom.facet_index[values.index(d)]
        weights = _barycentric_weights([dom.vrep[j] for j in ids], x)
        (w,), s = linalg.integer_rows((weights,))
        den = s * cod._point_scale
        cols = zip(*(cod._points[self.vertex_map[j]] for j in ids))
        return Vector._of(tuple(Fraction(sum(map(mul, w, col)), den) for col in cols))

    @classmethod
    def from_linear(cls, domain: PolyhedralSpace, codomain: PolyhedralSpace, matrix: Matrix) -> "SphereMap":
        """Encode the sphere restriction of a linear map that carries ball to ball."""
        vmap = tuple(
            codomain.vertex_id(Vector(linalg.mat_vec(matrix, v.coords))) for v in domain.vrep
        )
        m = cls(domain, codomain, vmap)
        if None in m.facet_map:
            raise GeometryError("matrix does not carry facets onto codomain facets")
        return m


@dataclass(frozen=True)
class IsometryReport:
    """Outcome of :func:`verify_isometry`.

    ``malformed`` marks a map whose piecewise evaluation is not well
    defined (no affine map matches some facet's data), as opposed to an
    honest isometry failure: facets not carried onto facets, an
    antipodality or distance counterexample, or facet values not
    transported.
    """

    passed: bool
    malformed: bool = False
    reason: str = ""
    counterexample: tuple | None = None

    def __bool__(self):
        return self.passed


@dataclass(frozen=True)
class ExtensionCertificate:
    """A linear extension that passed every check of :func:`extend`."""

    matrix: Matrix
    functional_pairs: tuple[tuple[Functional, Functional], ...]


def _barycentric_weights(points: list[Vector], x: Vector) -> tuple[Fraction, ...]:
    k = len(points)
    cons = [
        LpConstraint(tuple(p.coords[i] for p in points), "==", x.coords[i])
        for i in range(x.dim)
    ]
    cons.append(LpConstraint((ONE,) * k, "==", ONE))
    sol = solve_lp(LpProblem((ZERO,) * k, tuple(cons)))
    if sol.status != "optimal":
        raise GeometryError("point is not in the facet it claims to be on")
    return sol.point


def _first_unequal_pair(drows, s_dom, crows, s_cod, start=0) -> tuple[int, int] | None:
    """The first pair (i, j) whose two distances differ, or None.

    Row k of each side holds the facet values of point k of that side as
    integers over that side's one scale, so the distance of points i and j
    is max_t (row_i[t] - row_j[t]) over the scale. Pairs run over i < j
    with j >= ``start``, i outer, j inner. A pair fails when
    lhs * s_cod != rhs * s_dom, which is lhs / s_dom != rhs / s_cod.
    """
    n = len(drows)
    for i in range(n):
        p, q = drows[i], crows[i]
        for j in range(max(i + 1, start), n):
            if max(map(sub, p, drows[j])) * s_cod != max(map(sub, q, crows[j])) * s_dom:
                return i, j
    return None


def _one_scale(*parts) -> tuple[list, int]:
    """Rows given as (rows, scale) parts, in order, all over the least
    common multiple of the scales, and that multiple."""
    scale = math.lcm(*(s for _, s in parts))
    out = []
    for rows, s in parts:
        k = scale // s
        out.extend(rows if k == 1 else ([k * x for x in row] for row in rows))
    return out, scale


def _seeded_image(m: SphereMap, p: Vector) -> Vector:
    """The image of a seeded point: its vertex image when it is a vertex,
    else :meth:`SphereMap.apply`."""
    try:
        i = m.domain.vertex_id(p)
    except GeometryError:
        return m.apply(p)
    return m.vertex_image(i)


class _SamplePool:
    """The points of the seeded pass, their images and facet-value rows.

    Point t of the pool is domain vertex t, then one seeded point per facet
    from :func:`random_facet_point`, and ``images[t]`` is its image.
    ``drows[t]`` over ``dscale`` is the domain's row at point t, and
    ``crows[t]`` over ``cscale`` the codomain's row at its image. The
    vertex rows are read from the two ``facet_table``s.
    """

    def __init__(self, m: SphereMap, seed):
        dom, cod = m.domain, m.codomain
        rng = rng_from(seed)
        seeded = [random_facet_point(dom, fid, rng) for fid in range(len(dom.hrep))]
        # A vertex's only barycentric weights are one-hot, so its image is
        # its vertex image; only the other seeded points go through apply.
        seeded_images = [_seeded_image(m, p) for p in seeded]
        self.points = list(dom.vrep) + seeded
        self.images = [cod.vrep[j] for j in m.vertex_map] + seeded_images
        self.drows, self.dscale = _one_scale(
            (dom.facet_table, dom.facet_scale), dom._values_at(seeded)
        )
        self.crows, self.cscale = _one_scale(
            ([cod.facet_table[j] for j in m.vertex_map], cod.facet_scale),
            cod._values_at(seeded_images),
        )


def _first_untransported(m: SphereMap) -> tuple[int, int | None] | None:
    """The first (fid, i), facet-major, whose facet values are not carried over.

    For domain facet fid, with functional f and image facet functional g,
    vertex i fails when g at the image of v_i differs from f at v_i; both
    are read from the spaces' ``facet_table`` and compared across the two
    scales. i is None when facet fid has no image facet. Returns None when
    every entry of the domain's table is carried onto the codomain's.
    """
    dom, cod = m.domain, m.codomain
    s_dom, s_cod = dom.facet_scale, cod.facet_scale
    for fid, gid in enumerate(m.facet_map):
        if gid is None:
            return fid, None
        for i, k in enumerate(m.vertex_map):
            if cod.facet_table[k][gid] * s_dom != dom.facet_table[i][fid] * s_cod:
                return fid, i
    return None


def verify_isometry(m: SphereMap, seed=DEFAULT_SEED) -> IsometryReport:
    """Check that a sphere map is a well-formed surjective isometry.

    Order of checks: every facet's vertex images form a codomain facet and
    the facet counts agree, antipodality on vertices, exact pairwise vertex
    distances, affine consistency on each facet (structural), exact
    distances at one seeded rational point per facet, then the transport
    of facet values. The first failure is reported with its
    counterexample. A transport failure reports (v, fid, f(v), g(φ(v))):
    f is domain facet fid's functional, g its image facet's, and fid and
    v are the first pair, facet-major, whose two values differ.

    Distances are exact and read from facet values: with F[p] the row of
    facet functional values at p, ||p - q|| = max_i (F[p][i] - F[q][i]),
    because f(p - q) = f(p) - f(q). Rows are integers over one scale per
    side: vertex rows are the two spaces' ``facet_table``, the codomain's
    permuted by ``vertex_map``; the seeded pass reads :class:`_SamplePool`.
    A distance counterexample's two distances are evaluated by
    :meth:`PolyhedralSpace.norm`; a passing map makes no norm call.

    Affine consistency on a facet F of functional f, with vertices v_j,
    asks for an affine map A with A v_j = w_σ(j) for every j. On the
    hyperplane {f = 1}, A x = L x + c agrees with the linear map
    x -> L x + c f(x), so it asks for a linear map, and no homogenising
    column is ranked (the lemma of :mod:`polysphere.space`). The test
    reads the integer rows (P_j, Q_σ(j)), width 2 dim X, with P and Q the
    vertex rows over their vertex scales. P = e V and Q = e' W have the
    column spaces of V and W, and the constructor proved that the vertex
    rows of every facet have rank dim X. So a linear map as asked exists
    iff the columns of Q lie in the column space of P, that is iff the
    rows (P_j, Q_σ(j)) have rank dim X. Facet -F repeats F's verdict: once
    antipodality has passed, its rows are (-P_j, -Q_σ(j)), the negations
    of F's rows. So the lower id of each antipodal pair is tested, and the
    first failing facet is still the first in canonical order. Facet -F
    has id N - 1 - F among the N facets, so the lower ids are the first
    half.

    Why the transport check decides. Let S be the domain's facet table,
    S[i][f] = f(v_i), and S' the codomain's with rows and columns in the
    order of the vertex map σ and the facet map τ, a bijection by the
    checks before. S = V F^T for the matrices V of vertices and F of facet
    functionals, both of rank dim X as the ball is full and bounded; and
    S' = W G^T of rank dim Y. A passing check says S = S', so the ranks
    agree, and two rank factorisations of one matrix differ by an
    invertible matrix (Gouveia, Grappe, Kaibel, Pashkovich, Robinson &
    Thomas, LAA 439, 2013): W = V T^T, so w_σ(i) = T v_i for one
    invertible linear T. T carries the vertices of B_X onto those of B_Y,
    so T(B_X) = B_Y, T is an isometry, and the map agrees with T at every
    vertex, hence by its barycentric rule on the whole sphere. Conversely
    a map that fails is no isometry: every finite-dimensional polyhedral
    space has the Mazur-Ulam property (Kadets & Martín, JMAA 396, 2012),
    so an isometry is the restriction of a linear isometry T, and
    g_τ(f)∘T, one on the facet of f, is f.
    """
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

    cod_rows = [cod.facet_table[k] for k in m.vertex_map]
    hit = _first_unequal_pair(dom.facet_table, dom.facet_scale, cod_rows, cod.facet_scale)
    if hit is not None:
        i, j = hit
        p, q = dom.vrep[i], dom.vrep[j]
        return IsometryReport(
            False,
            reason="vertex pair distance not preserved",
            counterexample=(p, q, dom.norm(p - q), cod.norm(m.vertex_image(i) - m.vertex_image(j))),
        )

    for fid, ids in enumerate(dom.facet_index[: len(dom.hrep) // 2]):
        # The facet rule must extend affinely, otherwise evaluation at
        # ridge points would depend on the chosen facet. Facet -F repeats
        # F's verdict, so only the lower id of each pair is tested.
        rows = [dom._points[j] + cod._points[m.vertex_map[j]] for j in ids]
        if linalg.rank(rows) != dom.dim:
            return IsometryReport(
                False,
                malformed=True,
                reason="evaluation not well defined: no affine map matches the facet data",
                counterexample=(fid,),
            )

    pool = _SamplePool(m, seed)
    # Vertex pairs already passed above; start at the first seeded point.
    hit = _first_unequal_pair(pool.drows, pool.dscale, pool.crows, pool.cscale, start=len(dom.vrep))
    if hit is not None:
        i, j = hit
        p, q = pool.points[i], pool.points[j]
        return IsometryReport(
            False,
            reason="sampled distance not preserved",
            counterexample=(p, q, dom.norm(p - q), cod.norm(pool.images[i] - pool.images[j])),
        )

    hit = _first_untransported(m)
    if hit is not None:
        # Every facet has an image facet here, so i is a vertex id.
        fid, i = hit
        v = dom.vrep[i]
        g = cod.hrep[m.facet_map[fid]]
        return IsometryReport(
            False,
            reason="facet values are not transported",
            counterexample=(v, fid, dom.hrep[fid](v), g(m.vertex_image(i))),
        )
    return IsometryReport(True)


def transported_functionals(m: SphereMap) -> tuple[tuple[Functional, Functional], ...]:
    """Pair each domain facet functional with its image facet's functional.

    Certifies the transport relation exactly on the generating set: for
    every domain vertex v and every pair (f, g), g at the image of v must
    equal f at v (see :func:`_first_untransported`). Raises
    CertificationError with the first offending facet and vertex,
    facet-major, otherwise, and when a domain facet has no image facet.
    """
    dom, cod = m.domain, m.codomain
    hit = _first_untransported(m)
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
    return tuple((dom.hrep[fid], cod.hrep[gid]) for fid, gid in enumerate(m.facet_map))


def extend(m: SphereMap, seed=DEFAULT_SEED) -> ExtensionCertificate:
    """Construct and certify the linear extension T of a sphere map.

    T is determined by the images of one maximal independent set of domain
    vertices. The domain vertices span the space, since every facet has
    affine rank ``dim`` and misses the origin, so that set is a basis.
    Certification is exact and comes first: the facet counts agree, and
    :func:`transported_functionals` finds every entry of the domain's
    facet table carried onto the codomain's; else CertificationError.
    ``seed`` is unused and kept for callers that pass it.

    Why that certifies T. Let F be the matrix whose rows are the domain
    facet functionals f, and G the one whose row f is g_τ(f), the
    functional of f's image facet. The table is carried over iff
    G w_σ(j) = F v_j for every domain vertex v_j. T v_b = w_σ(b) on the
    basis, so G T = F. The facet map τ is injective, since σ is a
    bijection and a facet is its vertex set, so with equal counts the rows
    of G are all codomain functionals, which span the dual: G is
    injective. For every j, G T v_j = F v_j = G w_σ(j) then gives

    * vertex agreement: T v_j = w_σ(j). With the vertex map a bijection,
      T carries the domain ball onto the codomain ball, T(B_X) = B_Y;
    * functional transport: g∘T = f for every facet pair (f, g), which is
      G T = F. The facet functionals span the dual, so T is injective.

    Together they give ||Tz|| = ||z|| for every z. The counts matter: a
    vertex bijection from ``linf:3`` onto ``l1:4`` carries the cube's table
    onto 6 of the 16 codomain facets, and no linear map follows it.
    """
    dom, cod = m.domain, m.codomain
    if len(dom.hrep) != len(cod.hrep):
        raise CertificationError(
            f"facet counts differ: {len(dom.hrep)} in the domain, {len(cod.hrep)} in the codomain"
        )
    pairs = transported_functionals(m)
    base_ids = linalg.independent_row_indices(dom._points)
    # T V = W for the basis columns V = P / e and their images W = Q / f,
    # with the integer vertex rows P, Q over the vertex scales e, f. With
    # P^-1 = inv / s, T = W V^-1 = e Q inv / (f s), one Fraction per entry.
    inv, s = linalg.invert(linalg.transpose([dom._points[i] for i in base_ids]))
    images = [cod._points[m.vertex_map[i]] for i in base_ids]
    e, f = dom._point_scale, cod._point_scale
    matrix = tuple(
        tuple(Fraction(e * sum(map(mul, q, col)), f * s) for col in zip(*inv))
        for q in zip(*images)
    )
    return ExtensionCertificate(matrix=matrix, functional_pairs=pairs)
