"""Face structure of a polyhedral unit sphere.

The maximal convex subsets of the sphere are exactly the facets of the
ball, each exposed by one facet functional. Stars, smooth points, and
subspace sections are all decided from the facet incidence data, with no
tolerances anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DimensionMismatchError, GeometryError, NotOnSphereError
from .space import Functional, PolyhedralSpace, Vector


@dataclass(frozen=True)
class Face:
    """A facet of the unit ball, i.e. a maximal convex subset of the sphere."""

    space: PolyhedralSpace
    functional_id: int

    @property
    def functional(self) -> Functional:
        """The functional with value one on the face and minus one on its opposite."""
        return self.space.hrep[self.functional_id]

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return self.space.facet_index[self.functional_id]

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return tuple(self.space.vrep[j] for j in self.vertex_ids)

    @property
    def barycenter(self) -> Vector:
        return self.space.facet_barycenter(self.functional_id)

    @property
    def opposite(self) -> "Face":
        return Face(self.space, self.space.neg_functional_id(self.functional_id))

    def contains(self, y: Vector) -> bool:
        """Membership in the facet: on the sphere and tight for the functional."""
        return self.functional(y) == 1 and self.space.norm(y) == 1

    def __str__(self):
        return f"facet f{self.functional_id}={self.functional}"


@dataclass(frozen=True)
class Star:
    """St(x): all sphere points y with norm(x + y) = 2, stored as a face list."""

    center: Vector
    faces: tuple[Face, ...]

    def contains(self, y: Vector) -> bool:
        return any(face.contains(y) for face in self.faces)

    @property
    def face_ids(self) -> tuple[int, ...]:
        return tuple(face.functional_id for face in self.faces)


def facets(space: PolyhedralSpace) -> tuple[Face, ...]:
    """One face per facet functional; these are all maximal convex sets."""
    return tuple(Face(space, i) for i in range(len(space.hrep)))


def star(space: PolyhedralSpace, x: Vector) -> Star:
    """The facets containing x. For polyhedral norms y is in St(x) exactly
    when some facet functional is one at both x and y, so this face list
    determines the star completely."""
    _require_sphere(space, x)
    ids = space.active_functional_ids(x)
    return Star(x, tuple(Face(space, i) for i in ids))


def is_smooth(space: PolyhedralSpace, x: Vector) -> bool:
    """True when exactly one facet functional attains one at x.

    This is also the test for St(x) being convex, hence a maximal convex
    subset: a union of two or more facets is never convex (a convex sphere
    subset cannot properly contain a maximal one).
    """
    _require_sphere(space, x)
    return len(space.active_functional_ids(x)) == 1


def subspace_section(
    space: PolyhedralSpace, basis: list[Vector], name: str | None = None
) -> PolyhedralSpace:
    """The section of the ball by the span of ``basis``, in basis coordinates.

    The section norm of a coordinate vector c equals the ambient norm of
    sum(c_i * basis_i). Raises ValueError for a dependent basis.
    """
    _require_basis(space, basis)
    projected = [tuple(f(b) for b in basis) for f in space.hrep]
    return PolyhedralSpace.from_functionals(projected, name=name)


def face_section(space: PolyhedralSpace, face: Face, basis: list[Vector]) -> tuple[Vector, ...]:
    """Vertex description of face intersected with span(basis), in ambient coordinates.

    May be empty, a single point, or a polytope: the intersection is the
    section-ball face exposed by the restricted functional, which need not
    be maximal in the section sphere even when the ambient face is.
    """
    _require_basis(space, basis)
    if face.space is not space and face.space != space:
        raise GeometryError("face does not belong to the given space")
    section = subspace_section(space, basis)
    g = Functional(face.functional(b) for b in basis)
    attained = max(g(c) for c in section.vrep)
    if attained != 1:
        return ()
    cols = [b.coords for b in basis]
    ambient = [Vector(linalg.combination(c.coords, cols)) for c in section.vrep if g(c) == 1]
    return tuple(sorted(ambient, key=lambda v: v.coords))


def section_coordinates(basis: list[Vector], point: Vector) -> Vector:
    """Coordinates of an ambient point in the given basis; raises if outside the span."""
    rows = [[b.coords[i] for b in basis] for i in range(point.dim)]
    sol = linalg.solve(rows, point.coords)
    if sol is None:
        raise GeometryError(f"{point} is not in the span of the basis")
    return Vector(sol)


def _require_sphere(space: PolyhedralSpace, x: Vector):
    if x.dim != space.dim:
        raise DimensionMismatchError(f"point has dim {x.dim}, space has {space.dim}")
    if space.norm(x) != 1:
        raise NotOnSphereError(f"{x} has norm {space.norm(x)}, expected 1")


def _require_basis(space: PolyhedralSpace, basis: list[Vector]):
    if not basis:
        raise ValueError("empty basis")
    for b in basis:
        if b.dim != space.dim:
            raise DimensionMismatchError("basis vector has the wrong dimension")
    if linalg.rank([b.coords for b in basis]) != len(basis):
        raise ValueError("basis vectors are linearly dependent")
