"""Face structure of a polyhedral unit sphere.

The maximal convex subsets of the sphere are exactly the facets of the
ball, each exposed by one facet functional. Stars and smooth points are
decided from the facet incidence data, with no tolerances anywhere.
"""

from dataclasses import dataclass

from .errors import DimensionMismatchError, NotOnSphereError
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


def _require_sphere(space: PolyhedralSpace, x: Vector):
    if x.dim != space.dim:
        raise DimensionMismatchError(f"point has dim {x.dim}, space has {space.dim}")
    if space.norm(x) != 1:
        raise NotOnSphereError(f"{x} has norm {space.norm(x)}, expected 1")
