"""Sphere-to-sphere maps between polyhedral spaces and their linear extensions.

A candidate isometry is encoded combinatorially: a vertex bijection,
evaluated piecewise by barycentric coordinates, from which the facet
correspondence is derived. Between polytope spheres every surjective
isometry carries facets to facets, so this class covers all of them.
Verification checks that facets go to facets, antipodality, exact distance
preservation on vertices and on deterministic interior samples, and the
affine consistency on each facet that makes the evaluation rule well
defined. Only a failure of the last marks a map as malformed; every other
failure is an honest verdict with a counterexample.

Distances are read from rows of facet values. Every facet functional f is
linear, so f(p - q) = f(p) - f(q), and ||p - q|| = max_i (F[p][i] - F[q][i])
where F[p] is the row of facet values at p. Each side's rows are integers
over one scale, so a pair costs one integer subtraction per facet. Vertex
rows are the spaces' ``facet_table``. A vertex's image is its vertex
image, because its only barycentric weights are one-hot. A deterministic
facet sample, a barycenter or a midpoint, is the mean of a group of
vertices, and once every facet is known to carry an affine map its image
is the mean of their images; both its rows are sums of ``facet_table``
rows, with no point built. Only the seeded facet points are evaluated by
:meth:`SphereMap.apply`, which reads the sphere check and the facet that
carries the point from one pass of the domain's integer facet rows, then
solves one barycentric LP. A passing map makes no norm call.

Points are combined on the spaces' integer vertex rows: row j of a space
is ``_points[j]``, vertex j times the vertex scale e = ``_point_scale``.
The seeded samples are integer-weighted sums of the domain's rows, and
apply's image is the LP weights, scaled to integers once, against the
codomain's rows; each coordinate becomes one Fraction at the end. The
Fraction point and image of a deterministic sample are built only for a
counterexample.

The linear extension is built from exact linear algebra on the vertex
images and certified exactly by two checks: vertex agreement, which with
the vertex bijection carries the domain ball onto the codomain ball, and
functional transport, which makes the matrix injective. Together they
make it a linear isometry; no norm is sampled. Vertex agreement compares
the matrix's integer rows at the domain's vertex rows with the codomain's
vertex rows, cross-multiplied by the three scales.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub

from . import linalg
from .errors import (
    CertificationError,
    ExtensionInconsistencyError,
    GeometryError,
    NotOnSphereError,
)
from .linalg import ONE, ZERO, Matrix
from .lp import LpConstraint, LpProblem, solve_lp
from .sampling import (
    DEFAULT_SEED,
    facet_sample_groups,
    mean_rows,
    random_facet_point,
    rng_from,
)
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
        that are not vertices; every other point's weights are known.

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
    honest isometry failure: facets not carried onto facets, or an
    antipodality or distance counterexample.
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


def _image_groups(m: SphereMap, groups) -> list[tuple[int, ...]]:
    """The codomain vertex ids of the images of each group's vertices."""
    return [tuple(m.vertex_map[j] for j in g) for g in groups]


def _one_scale(*parts) -> tuple[list, int]:
    """Rows given as (rows, scale) parts, in order, all over the least
    common multiple of the scales, and that multiple."""
    scale = math.lcm(*(s for _, s in parts))
    out = []
    for rows, s in parts:
        k = scale // s
        out.extend(rows if k == 1 else ([k * x for x in row] for row in rows))
    return out, scale


class _SamplePool:
    """The points of the sampled pass and their facet-value rows.

    Point t of the pool is, in order: domain vertex t; then the mean of
    each group of :func:`facet_sample_groups`, deduplicated on its domain
    row; then one seeded point per facet from :func:`random_facet_point`.
    ``drows[t]`` over ``dscale`` is the domain's row at point t, and
    ``crows[t]`` over ``cscale`` the codomain's row at its image. A
    group's image is the mean of the image group's vertices (see
    :func:`verify_isometry`), so its rows are read from the two
    ``facet_table``s, and its Fraction point and image are built only by
    :meth:`point_and_image`.
    """

    def __init__(self, m: SphereMap, seed):
        dom, cod = m.domain, m.codomain
        self.map = m
        self.groups, dsums, k = facet_sample_groups(dom, dom.facet_table)
        self.images = _image_groups(m, self.groups)
        csums = mean_rows(cod.facet_table, self.images, k)
        rng = rng_from(seed)
        self.seeded = [random_facet_point(dom, fid, rng) for fid in range(len(dom.hrep))]
        # A vertex's only barycentric weights are one-hot, so its image is
        # its vertex image; only the other seeded points go through apply.
        self.seeded_images = [
            m.vertex_image(dom._v_pos[p]) if p in dom._v_pos else m.apply(p) for p in self.seeded
        ]
        self.drows, self.dscale = _one_scale(
            (dom.facet_table, dom.facet_scale),
            (dsums, k * dom.facet_scale),
            dom._values_at(self.seeded),
        )
        self.crows, self.cscale = _one_scale(
            ([cod.facet_table[j] for j in m.vertex_map], cod.facet_scale),
            (csums, k * cod.facet_scale),
            cod._values_at(self.seeded_images),
        )

    def point_and_image(self, t: int) -> tuple[Vector, Vector]:
        m = self.map
        nv, ng = len(m.domain.vrep), len(self.groups)
        if t < nv:
            return m.domain.vrep[t], m.vertex_image(t)
        if t < nv + ng:
            t -= nv
            return m.domain._vertex_mean(self.groups[t]), m.codomain._vertex_mean(self.images[t])
        t -= nv + ng
        return self.seeded[t], self.seeded_images[t]


def verify_isometry(m: SphereMap, seed=DEFAULT_SEED) -> IsometryReport:
    """Check that a sphere map is a well-formed surjective isometry.

    Order of checks: every facet's vertex images form a codomain facet and
    the facet counts agree, antipodality on vertices, exact pairwise vertex
    distances, affine consistency on each facet (structural), then exact
    distances on the deterministic facet samples (barycenters, midpoints,
    and a few seeded rational facet points). The first failure is reported
    with its counterexample.

    Distances are exact and read from facet values: with F[p] the row of
    facet functional values at p, ||p - q|| = max_i (F[p][i] - F[q][i]),
    because f(p - q) = f(p) - f(q). Rows are integers over one scale per
    side: vertex rows are the two spaces' ``facet_table``, the codomain's
    permuted by ``vertex_map``. The pool of the sampled pass is described
    by :class:`_SamplePool`: only its seeded points that are not vertices
    go through :meth:`SphereMap.apply`, one barycentric LP each, and only
    the seeded points and their images are evaluated by ``_values_at``.
    The counterexample's two distances are evaluated by
    :meth:`PolyhedralSpace.norm`; a passing map makes no norm call.

    Why a deterministic sample's image needs no LP. The sampled pass runs
    only after the affine-consistency check has passed on every facet, so
    each facet F carries an affine map A_F with A_F(v) the vertex image of
    every vertex v of F (the vertices of F affinely span its hyperplane,
    so A_F is unique there). A sample x is the mean of some vertices of a
    facet F, with weights w. :meth:`SphereMap.apply` returns A_G(x), where
    G is the first facet that contains x. The point x lies in the face
    F ∩ G, the convex hull of the vertices the two facets share, and A_F
    and A_G agree on those vertices, hence on their affine hull. So
    A_G(x) = A_F(x) = sum_j w_j * image(v_j), the mean of the images. This
    is the vertex rule above for one-vertex groups. Its rows follow by
    linearity: the domain row of x is the mean of the group's rows of
    ``dom.facet_table``, and the row at its image the mean of the image
    group's rows of ``cod.facet_table``.
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

    for fid, ids in enumerate(dom.facet_index):
        # The facet rule must extend affinely, otherwise evaluation at
        # ridge points would depend on the chosen facet.
        hom = [dom.vrep[j].coords + (ONE,) for j in ids]
        images = [m.vertex_image(j).coords for j in ids]
        if linalg.rank(hom) != linalg.rank([h + w for h, w in zip(hom, images)]):
            return IsometryReport(
                False,
                malformed=True,
                reason="evaluation not well defined: no affine map matches the facet data",
                counterexample=(fid,),
            )

    pool = _SamplePool(m, seed)
    # Vertex pairs already passed above; start at the first sample.
    hit = _first_unequal_pair(pool.drows, pool.dscale, pool.crows, pool.cscale, start=len(dom.vrep))
    if hit is not None:
        (p, fp), (q, fq) = map(pool.point_and_image, hit)
        return IsometryReport(
            False,
            reason="sampled distance not preserved",
            counterexample=(p, q, dom.norm(p - q), cod.norm(fp - fq)),
        )
    return IsometryReport(True)


def transported_functionals(m: SphereMap) -> tuple[tuple[Functional, Functional], ...]:
    """Pair each domain facet functional with its image facet's functional.

    Certifies the transport relation exactly on the generating set: for
    every domain vertex v and every pair (f, g), g at the image of v must
    equal f at v. Both are read from the spaces' ``facet_table`` and
    compared across the two scales. Raises CertificationError with the
    offending facet and vertex otherwise, and when a domain facet has no
    image facet. Intended to run after :func:`verify_isometry`.
    """
    dom, cod = m.domain, m.codomain
    pairs = []
    for fid, gid in enumerate(m.facet_map):
        if gid is None:
            raise CertificationError(
                f"vertex images of facet {fid} do not form a codomain facet", detail=(fid,)
            )
        f = dom.hrep[fid]
        g = cod.hrep[gid]
        for i, v in enumerate(dom.vrep):
            g_value = cod.facet_table[m.vertex_map[i]][gid] * dom.facet_scale
            if g_value != dom.facet_table[i][fid] * cod.facet_scale:
                raise CertificationError(
                    f"functional transport fails at facet {fid}, vertex {v}",
                    detail=(fid, v),
                )
        pairs.append((f, g))
    return tuple(pairs)


def extend(m: SphereMap, seed=DEFAULT_SEED) -> ExtensionCertificate:
    """Construct and certify the linear extension T of a sphere map.

    T is determined by the images of one maximal independent set of domain
    vertices. The domain vertices span the space, since every facet has
    affine rank ``dim`` and misses the origin, so that set is a basis.
    Certification is exact and has two parts:

    * vertex agreement: T sends every domain vertex to its image (else
      ExtensionInconsistencyError with a dependence witness). With the
      vertex map a bijection, T carries the domain ball onto the codomain
      ball, T(B_X) = B_Y;
    * functional transport (:func:`transported_functionals`): g∘T = f for
      every facet pair (f, g). The facet functionals span the dual, so T
      is injective.

    Together they give ||Tz|| = ||z|| for every z. ``seed`` is unused and
    kept for callers that pass it.

    Vertex agreement runs on integers. With T's rows scaled to integers M
    over s, and P and Q the two spaces' vertex rows over their vertex
    scales e_dom and e_cod, vertex j agrees iff (M P_j)[c] * e_cod ==
    Q[vertex_map[j]][c] * s * e_dom for every coordinate c. The Fraction
    image T v and its dependence witness are built only for the first
    vertex that disagrees.
    """
    dom, cod = m.domain, m.codomain
    rows = [v.coords for v in dom.vrep]
    base_ids = linalg.independent_row_indices(rows)
    vcols = linalg.transpose(tuple(dom.vrep[i].coords for i in base_ids))
    wcols = linalg.transpose(tuple(m.vertex_image(i).coords for i in base_ids))
    matrix = linalg.mat_mul(wcols, linalg.invert(vcols))

    ints, s = linalg.integer_rows(matrix)
    lhs_scale, rhs_scale = cod._point_scale, s * dom._point_scale
    for i, p in enumerate(dom._points):
        q = cod._points[m.vertex_map[i]]
        if any(
            sum(map(mul, row, p)) * lhs_scale != qc * rhs_scale for row, qc in zip(ints, q)
        ):
            v = dom.vrep[i]
            alpha = linalg.solve(vcols, v.coords)
            raise ExtensionInconsistencyError(
                "vertex images admit no linear map",
                detail={
                    "vertex": v,
                    "basis_ids": tuple(base_ids),
                    "coefficients": alpha,
                    "expected": m.vertex_image(i),
                    "forced": Vector(linalg.mat_vec(matrix, v.coords)),
                },
            )

    return ExtensionCertificate(matrix=matrix, functional_pairs=transported_functionals(m))
