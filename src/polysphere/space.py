"""Polyhedral normed spaces in exact rational arithmetic.

A space is a symmetric convex polytope unit ball carried in both standard
descriptions at once: facet functionals (H-form) and vertices (V-form),
kept mutually polar. The norm is the gauge of the ball, evaluated as the
maximum of the facet functionals. Every coordinate is a Fraction; floats
are rejected outright so that downstream verdicts stay exact.

The two descriptions are one object read two ways, and the code states
each polar pair once:

- **Coordinates.** :class:`Vector` and :class:`Functional` are two thin
  subclasses of one private base, a nonempty tuple of Fractions with its
  dimension, equality, hashing, negation and printing. ``coords`` and
  ``coeffs`` are two names of the base's one slot. Equality and hashing
  are keyed on the exact type, so a point never equals a functional with
  the same entries; only :class:`Vector` has arithmetic.
- **The table and its transpose.** The values of the functionals at the
  vertices form one integer table, ``facet_table`` over ``facet_scale``:
  vertex j is its row j and functional i its column i. A vertex has norm
  one, and a functional dual norm one, iff its line of the table has
  maximum ``facet_scale``. A vertex is a vertex of the ball, and a
  functional supports a facet, iff the other side's integer rows at the
  entries of its line equal to ``facet_scale`` have rank ``dim``. The
  constructor runs these two checks on the table for the vertices and on
  its transpose for the functionals.
- **Builders.** :meth:`PolyhedralSpace.from_functionals` and
  :meth:`PolyhedralSpace.from_vertices` share one body, around one polar
  routine: given rows, it enumerates the vertices of {x : r(x) <= 1 for
  every row r} and keeps the rows that support a facet of that ball. Read
  as functionals, the rows and the points are a space's H- and V-forms;
  read as points, they are its V- and H-forms, because the ball of the
  polar rows is the polar body. :meth:`PolyhedralSpace.vertex_id` and
  :meth:`PolyhedralSpace.functional_id` share one bisection, and
  :meth:`PolyhedralSpace.verify_mutual_polarity` re-enumerates each side
  from the other in one loop.

A facet needs no homogenising column. Lemma: if f(p_j) = 1 for points
p_1, ..., p_n, the homogenised rows (p_j, 1) have the rank of the rows
p_j. Proof: the points lie on a hyperplane that misses the origin, and
the last column is sum_k f_k p_j[k], a combination of the other columns.
On integer rows, with P[j] = e p_j and r_f = s f, the rows (P[j], e) have
the column e = (1/s) sum_k r_f[k] P[j][k], because sum_k r_f[k] P[j][k] =
s e f(p_j) = s e. So any vertices of one facet have their affine rank
read from their plain integer rows: the facet rank check here, the ridges
of :mod:`polysphere.render` and the affine pass of
:func:`polysphere.isometry.verify_isometry` all rank P, never (P, e).

Construction goes through the two builders or the catalog builders, all of
which guarantee the two descriptions are polar to each other; the catalog
lists both descriptions from closed forms (see :mod:`polysphere.catalog`).
One function, :func:`check_caps`, applies the two caps, ``MAX_ENUM_DIM``
on the dimension and ``MAX_FACETS`` on the number of distinct nonzero
rows; the enumerator calls it on its rows, and the catalog's sums on the
rows they would list. The enumerator is the double description method on
exact integers: rows and rays are integer vectors, each ray carries a
bitmask of the rows tight at it, and two rays are adjacent by the
combinatorial test of Fukuda & Prodon ("Double description method
revisited", 1996), with no rank computation. The facet test is
combinatorial too: a row supports a facet iff the set of vertices where
it equals one is nonempty and inclusion-maximal among the rows' sets.
Vertices leave the enumerator as integer keys over one common scale, the
least common multiple of the rays' last entries; they are deduplicated
and sorted as ints, and each vertex's Fraction tuple is built once, from
its key. The raw constructor validates the structural invariants it can
check cheaply (symmetry, unit norms, and facet and vertex ranks, tested
on one member of each antipodal pair); full re-enumeration is available as
:meth:`PolyhedralSpace.verify_mutual_polarity`.

Fractions are the public type of every coordinate, but the work is done
on integers. Each description is scaled to integer rows once, by
:func:`polysphere.linalg.integer_rows`, over one positive common scale,
which keeps equality and the lexicographic order: rows are deduplicated,
sorted and checked for symmetry as int tuples, and Fractions are made only
for the public ``hrep`` and ``vrep`` and for error payloads. A space keeps
its facet functionals as integer rows ``_rows`` over ``_scale`` and its
vertices as integer rows ``_points`` over the vertex scale
``_point_scale``, and ``facet_scale`` is the product of the two. The rank
checks, the norm and the active facets of other points are read from the
integer functional rows; facet barycenters, the seeded facet points of
:mod:`polysphere.sampling`, and the images and linear extensions of
:mod:`polysphere.isometry` are combined on the integer vertex rows.

Antipodes are read from positions. In a sorted list of N distinct vectors
closed under negation, the negation of item i is item N - 1 - i. Proof: if
a < b lexicographically, they agree before their first differing
coordinate k and a_k < b_k, so -a and -b agree before k and -a_k > -b_k,
that is -a > -b. Negation is thus an order-reversing bijection of the list
onto itself, and such a bijection sends the i-th smallest item to the i-th
largest. The ids of vertices and functionals are found by bisecting the
same sorted lists, so a space keeps no lookup table beside them.
"""

import itertools
import math
import re
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    AsymmetricInputError,
    DegenerateInputError,
    DimensionMismatchError,
    EnumerationCapError,
    GeometryError,
    IntegerTooLongError,
    echo,
)
from .linalg import ONE
from .lp import LpConstraint, LpProblem, solve_lp

MAX_ENUM_DIM = 6
MAX_FACETS = 200

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings; reject floats and decimals."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are rejected; pass Fraction, int, or a 'p/q' string")
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_RE.match(token):
            raise ValueError(f"not an exact rational token: {echo(value)}")
        num, _, den = token.partition("/")
        try:
            n = int(num)
            d = int(den) if den else None
        except ValueError:
            # The token matched the pattern, so int() refused it only for
            # more digits than the interpreter converts; str() of such a
            # number fails too, so it is named by its length.
            digits = max(len(num.lstrip("+-")), len(den))
            raise IntegerTooLongError(f"integer written with {digits} digits is too long") from None
        if d is None:
            return Fraction(n)
        if d == 0:
            raise ValueError(f"zero denominator in {echo(value)}")
        return Fraction(n, d)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


class _Coordinates:
    """A nonempty tuple of Fractions: the one coordinate base of
    :class:`Vector` and :class:`Functional`, whose ``coords`` and ``coeffs``
    name its slot. Equality and hashing are keyed on the exact type."""

    __slots__ = ("_row",)
    _empty: str  # each subclass's message for an empty list

    def __init__(self, row: Iterable):
        self._row = tuple(as_fraction(c) for c in row)
        if not self._row:
            raise ValueError(self._empty)

    @property
    def dim(self) -> int:
        return len(self._row)

    def __eq__(self, other):
        return type(other) is type(self) and self._row == other._row

    def __hash__(self):
        return hash((type(self).__name__, self._row))

    @classmethod
    def _of(cls, row: tuple[Fraction, ...]):
        """An instance on a nonempty tuple of Fractions, taken as it is; only
        callers whose entries are Fractions already, such as the arithmetic
        below, use it."""
        x = object.__new__(cls)
        x._row = row
        return x

    def __neg__(self):
        return self._of(tuple(-c for c in self._row))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self._row) + ")"

    def __repr__(self):
        return f"{type(self).__name__}{self}"


class Vector(_Coordinates):
    """A point of the ambient space, held as a tuple of Fractions."""

    __slots__ = ()
    _empty = "empty coordinate list"
    coords = _Coordinates._row

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        self._check(other)
        return Vector._of(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Vector._of(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, s) -> "Vector":
        s = as_fraction(s)
        return Vector._of(tuple(s * c for c in self.coords))

    def _check(self, other):
        if not isinstance(other, Vector):
            raise TypeError("expected a Vector")
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dim {other.dim} vs {self.dim}")


class Functional(_Coordinates):
    """A linear form; application is the dot pairing with a Vector."""

    __slots__ = ()
    _empty = "empty coefficient list"
    coeffs = _Coordinates._row

    def __call__(self, x: Vector) -> Fraction:
        if x.dim != self.dim:
            raise DimensionMismatchError(f"dim {x.dim} vs {self.dim}")
        return linalg.dot(self.coeffs, x.coords)


def vector(*coords) -> Vector:
    return Vector(coords)


def functional(*coeffs) -> Functional:
    return Functional(coeffs)


def _neg(row: tuple) -> tuple:
    return tuple(-c for c in row)


def check_caps(dim: int, rows: int):
    """Raise EnumerationCapError above ``MAX_ENUM_DIM`` dimensions or
    ``MAX_FACETS`` distinct nonzero rows, the dimension tested first."""
    if dim > MAX_ENUM_DIM:
        raise EnumerationCapError(f"dimension {dim} exceeds the enumeration cap of {MAX_ENUM_DIM}")
    if rows > MAX_FACETS:
        raise EnumerationCapError(f"{rows} rows exceed the cap of {MAX_FACETS}")


def enumerate_ball_vertices(functionals: Sequence, dim: int) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of {x : f(x) <= 1 for every f}, by double description.

    The functional set must be symmetric (closed under negation) and span
    the dual space, so the ball is bounded with the origin interior.
    Raises DegenerateInputError otherwise, carrying a recession direction.
    Zero functionals are vacuous and ignored. :func:`check_caps` refuses
    more than ``MAX_ENUM_DIM`` dimensions or ``MAX_FACETS`` distinct rows.
    Errors carry the Fraction rows as given; the vertices are returned as
    sorted Fraction tuples.

    The rows are scaled to integers once, over one common scale s, and
    deduplicated, sorted and checked for symmetry as int tuples. The ball
    is the slice t = 1 of the cone {(x, t) : f(x) <= t}, whose integer rows
    are the scaled rows k extended by -s; the cone is built one row at a
    time from a box over ``dim`` independent rows. Rays are integer vectors,
    a positive rescaling that leaves the cone and its extreme rays
    unchanged; a ray made from two others is divided by the gcd of its
    entries. Each ray carries a bitmask of the processed rows that vanish
    on it. Two rays on opposite sides of a new row are adjacent, and so
    combine into a new ray, iff their common mask has at least ``dim - 1``
    bits and no third ray's mask contains it: the combinatorial test of
    Fukuda & Prodon, "Double description method revisited" (1996). Every
    surviving ray has last entry t > 0 and stands for the vertex ray / t;
    the rays are scaled to the least common multiple L of their t's, and
    those integer keys are deduplicated and sorted before the Fractions
    key / L are built.
    """
    given = [
        tuple(f.coeffs) if isinstance(f, Functional) else tuple(as_fraction(c) for c in f)
        for f in functionals
    ]
    # One positive scale keeps equality and the lexicographic order, so the
    # rows are deduplicated and sorted as integer keys; ``frac`` maps each key
    # back to its Fraction row for the error payloads.
    ints, s = linalg.integer_rows(given)
    frac = dict(zip(ints, given))
    rows = sorted(k for k in frac if any(k))
    if not rows:
        raise DegenerateInputError("no nonzero functionals", direction=None)
    if any(len(r) != dim for r in rows):
        raise DimensionMismatchError("functional length does not match the dimension")
    check_caps(dim, len(rows))
    for r in rows:
        if _neg(r) not in frac:
            raise AsymmetricInputError(
                f"functional {frac[r]} appears without its negation", offender=frac[r]
            )

    base_idx = linalg.independent_row_indices(rows)
    if len(base_idx) < dim:
        raise DegenerateInputError(
            "ball is unbounded: functionals do not span the dual space",
            direction=linalg.null_space_vector([frac[r] for r in rows], dim),
        )
    base = [rows[i] for i in base_idx]
    base_inv, scale = linalg.invert(base)

    hom = {r: r + (-s,) for r in rows}
    box = [hom[signed] for r in base for signed in (r, _neg(r))]
    consumed = set(base) | {_neg(r) for r in base}

    # Initial cone: |f(x)| <= t over the basis rows, a combinatorial box
    # whose extreme rays are the solutions of (basis) x = signs at t = 1.
    # The integer basis is s times the functionals', so its inverse
    # base_inv / scale is theirs over s, and each ray is scaled by ``scale``.
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for signs in itertools.product((1, -1), repeat=dim):
        ray = tuple(s * sum(map(mul, row, signs)) for row in base_inv) + (scale,)
        rays.append(ray)
        masks.append(sum(1 << i for i, a in enumerate(box) if sum(map(mul, a, ray)) == 0))

    need = dim - 1  # homogenised dimension minus two
    for bit, f in enumerate((r for r in rows if r not in consumed), start=len(box)):
        a = hom[f]
        flag = 1 << bit
        vals = [sum(map(mul, a, ray)) for ray in rays]
        positive = [i for i, v in enumerate(vals) if v > 0]
        negative = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [ray for ray, v in zip(rays, vals) if v <= 0]
        new_masks = [z | flag if v == 0 else z for z, v in zip(masks, vals) if v <= 0]
        for i in positive:
            p, vp, zp = rays[i], vals[i], masks[i]
            for j in negative:
                common = zp & masks[j]
                if common.bit_count() < need:
                    continue
                # p and q contain their own common mask; a third ray must not.
                if sum(1 for z in masks if z & common == common) > 2:
                    continue
                q, vq = rays[j], vals[j]
                ray = [vp * qc - vq * pc for pc, qc in zip(p, q)]
                g = math.gcd(*ray)
                new_rays.append(tuple(c // g for c in ray))
                new_masks.append(common | flag)
        rays, masks = new_rays, new_masks

    if any(ray[-1] <= 0 for ray in rays):
        raise GeometryError("internal: unbounded ray survived enumeration")
    # A positive common scale keeps equality and the lexicographic order.
    lcm = math.lcm(*(ray[-1] for ray in rays))
    keys = {tuple(c * (lcm // ray[-1]) for c in ray[:-1]) for ray in rays}
    return tuple(tuple(Fraction(c, lcm) for c in key) for key in sorted(keys))


def _polar_pair(rows: Sequence, dim: int, symmetrize: bool):
    """The rows that support a facet of {x : r(x) <= 1}, and that ball's vertices.

    Zero rows are dropped, and the rows are closed under negation when
    ``symmetrize`` is set; both are done on the rows scaled to integers.
    A row is kept iff the set of vertices where it equals one, its mask, is
    nonempty and no other row's mask strictly contains it. Let P be the
    ball. It is bounded with the origin interior, so no row equals one on
    all of P, and each mask is the vertex set of a proper face of P, or
    empty. A row that supports a facet is kept: a mask strictly containing
    the facet's would be a face strictly containing a facet, hence P. A row
    whose mask is a face G of lower dimension is dropped:

    - every proper face of a polytope lies in a facet, which has strictly
      more vertices than G, since a face is the hull of its vertices;
    - every facet of {r <= 1} is supported by one of the rows r, so that
      facet's row has a mask strictly containing G's.

    A facet determines its functional, the one f with affine hull {f = 1},
    so two kept rows never share a mask: the kept rows are the facet
    functionals, once each. This is the face-lattice reasoning of Fukuda &
    Prodon's double description, and it needs no rank computation.
    """
    ints, s = linalg.integer_rows(rows)
    frac = {k: r for k, r in zip(ints, rows) if any(k)}
    if symmetrize:
        frac.update([(_neg(k), _neg(r)) for k, r in frac.items()])
    keys = sorted(frac)
    points = enumerate_ball_vertices([frac[k] for k in keys], dim)
    pts, e = linalg.integer_rows(points)
    tight = s * e
    masks = [sum(1 << j for j, p in enumerate(pts) if sum(map(mul, k, p)) == tight) for k in keys]
    distinct = set(masks)
    maximal = {m for m in distinct if m and not any(m != o and m & o == m for o in distinct)}
    return [frac[k] for k, m in zip(keys, masks) if m in maximal], points



def _coerce(items, cls) -> list:
    return [x if isinstance(x, cls) else cls(x) for x in items]


def _lacks_negation(kind: str, item) -> AsymmetricInputError:
    return AsymmetricInputError(f"{kind} {item} lacks its negation", offender=item)


def _canonical(items: list, kind: str) -> tuple[list, int, tuple]:
    """One description on integer rows: the sorted distinct rows, their one
    positive scale, and the items in that order. Raises on the first item,
    in sorted order, whose row's negation is not among the rows."""
    # One positive scale keeps equality and the lexicographic order, so the
    # rows are deduplicated and sorted as ints, in the order of the Fractions.
    ints, scale = linalg.integer_rows(x._row for x in items)
    by_row = dict(zip(ints, items))
    rows = sorted(by_row)
    for r in rows:
        if _neg(r) not in by_row:
            raise _lacks_negation(kind, by_row[r])
    return rows, scale, tuple(by_row[r] for r in rows)


def _check_norms(items: tuple, lines, d: int, message: str):
    """Raise on the first item whose line of the table has no maximum d."""
    for item, line in zip(items, lines):
        if max(line) != d:
            raise GeometryError(message.format(item))


def _check_ranks(items: tuple, lines, d: int, other: list, dim: int, message: str):
    """Raise on the first item, among the lower half of the ids, for which
    the rows of ``other`` at the entries of its line equal to d do not have
    rank ``dim``.

    Negation is linear and both descriptions are symmetric, so the entries
    equal to d on the line of -x are those on x's line, at the negated
    other rows, which have the same rank: both members of an antipodal
    pair pass or both fail, and the first offender in canonical order has
    the lower id. The norm checks have ruled out zero rows, so N is even
    and, as id i pairs with N - 1 - i, the lower ids are the first half.
    """
    for item, line in zip(items[: len(items) // 2], lines):
        if linalg.rank([o for o, value in zip(other, line) if value == d]) != dim:
            raise GeometryError(message.format(item))


def _polar_build(items: Sequence, cls, kind: str, kinds: str, symmetrize: bool):
    """The body of both builders: ``items`` as rows of :func:`_polar_pair`.

    Returns the kept items, of type ``cls``, and the ball's vertices. The
    enumerator raises asymmetry on the first sorted row, the constructor's
    order, and its error becomes the constructor's.
    """
    items = _coerce(items, cls)
    if not items:
        raise GeometryError(f"no {kinds} given")
    try:
        return _polar_pair([x._row for x in items], items[0].dim, symmetrize)
    except AsymmetricInputError as err:
        raise _lacks_negation(kind, cls(err.offender)) from err


def _find(items: tuple, x: _Coordinates, message: str) -> int:
    """The id of x in the sorted ``items``, found by bisection."""
    i = bisect_left(items, x._row, key=attrgetter("_row"))
    if i == len(items) or items[i] != x:
        raise GeometryError(message)
    return i


class PolyhedralSpace:
    """A finite-dimensional normed space whose unit ball is a symmetric polytope.

    The constructor scales each description to integer rows once, over one
    positive scale per description, and does all its work on them: it
    deduplicates and sorts the rows, checks that each has its negation,
    fills ``facet_table`` and runs every check. Each check raises on the
    first offender in canonical order: asymmetry, then the norm of each
    vertex and the dual norm of each functional, then the rank of each
    facet's vertices and of each vertex's active functionals. The norm and
    rank checks are one pair of checks, run on the table for the vertices
    and on its transpose for the functionals (see the module docstring).
    The builders' output passes the same checks. Once the descriptions are
    symmetric, the antipode of id i is N - 1 - i (see the module
    docstring), so the constructor builds no table of antipodes or ids.

    Attributes:
        dim: ambient dimension.
        hrep: facet functionals, canonically sorted, closed under negation.
        vrep: ball vertices, canonically sorted, closed under negation.
        facet_index: per functional, the ids of the vertices lying on it.
        facet_table: the int table ``facet_table[j][i] == hrep[i](vrep[j]) *
            facet_scale``; ``norm(vrep[a] - vrep[b]) * facet_scale`` is the
            maximum over i of ``facet_table[a][i] - facet_table[b][i]``.
        facet_scale: the one positive int scale of ``facet_table``.
        name: optional label used in reports; ignored by equality.
    """

    __slots__ = (
        "dim", "hrep", "vrep", "facet_index", "facet_table", "facet_scale", "name",
        "_rows", "_scale", "_points", "_point_scale",
    )

    def __init__(self, hrep: Sequence, vrep: Sequence, name: str | None = None):
        fs, vs = _coerce(hrep, Functional), _coerce(vrep, Vector)
        if not fs or not vs:
            raise GeometryError("need at least one functional and one vertex")
        dim = fs[0].dim
        if any(f.dim != dim for f in fs) or any(v.dim != dim for v in vs):
            raise DimensionMismatchError("mixed dimensions in the descriptions")
        self.dim = dim
        self.name = name
        self._rows, self._scale, self.hrep = _canonical(fs, "functional")
        self._points, self._point_scale, self.vrep = _canonical(vs, "vertex")
        d = self._scale * self._point_scale
        table = tuple(tuple(sum(map(mul, r, p)) for r in self._rows) for p in self._points)
        columns = tuple(zip(*table))
        self.facet_table, self.facet_scale = table, d
        _check_norms(self.vrep, table, d, "listed vertex {} does not have norm one")
        _check_norms(self.hrep, columns, d, "functional {} does not have dual norm one")
        self.facet_index = tuple(
            tuple(j for j, value in enumerate(column) if value == d) for column in columns
        )
        _check_ranks(self.hrep, columns, d, self._points, dim,
                     "functional {} does not support a facet")
        _check_ranks(self.vrep, table, d, self._rows, dim,
                     "listed point {} is not a vertex of the ball")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_functionals(
        cls, fs: Sequence, name: str | None = None, symmetrize: bool = False
    ) -> "PolyhedralSpace":
        """Build the space whose ball is {x : f(x) <= 1 for every f}.

        Redundant functionals (those not supporting a facet) are removed.
        Asymmetric input is rejected unless ``symmetrize`` asks for closure
        under negation explicitly, with the constructor's error: the first
        functional in sorted order that lacks its negation.
        """
        kept, verts = _polar_build(fs, Functional, "functional", "functionals", symmetrize)
        return cls(kept, verts, name=name)

    @classmethod
    def from_vertices(
        cls, vs: Sequence, name: str | None = None, symmetrize: bool = False
    ) -> "PolyhedralSpace":
        """Build the space whose ball is the convex hull of the given points.

        This is :meth:`from_functionals` read through polarity: the points,
        taken as functionals, cut out the polar body, whose vertices are the
        facet functionals of the hull. Non-extreme points are the redundant
        rows and are removed. Asymmetric input is rejected as by
        :meth:`from_functionals`, naming the first point that lacks its
        negation as a vertex.
        """
        try:
            kept, facet_rows = _polar_build(vs, Vector, "vertex", "vertices", symmetrize)
        except DegenerateInputError as err:
            raise DegenerateInputError(
                "vertices do not span the space: hull is lower-dimensional",
                direction=err.direction,
            ) from err
        return cls(facet_rows, kept, name=name)

    # -- basic queries ---------------------------------------------------

    def _values_at(self, points: Sequence[Vector]) -> tuple[list[list[int]], int]:
        """Every facet functional at each point, as integers over one denominator.

        Returns ``values`` and d with ``values[j][i] / d == hrep[i](points[j])``:
        the integer facet rows at the points scaled to integers, over the
        rows' scale times the points' scale.
        """
        for x in points:
            if x.dim != self.dim:
                raise DimensionMismatchError(f"point has dim {x.dim}, space has {self.dim}")
        values, e = linalg.integer_values(self._rows, (x.coords for x in points))
        return values, self._scale * e

    def norm(self, x: Vector) -> Fraction:
        """Gauge of the unit ball: the maximum of the facet functionals at x,
        taken on their integer rows."""
        (values,), d = self._values_at((x,))
        return Fraction(max(values), d)

    def gauge_norm(self, x: Vector) -> Fraction:
        """The norm computed from the vertex description via an exact LP.

        Minimises the total weight of a nonnegative vertex combination equal
        to x. Used as the independent cross-check of :meth:`norm`.
        """
        if x.dim != self.dim:
            raise DimensionMismatchError(f"point has dim {x.dim}, space has {self.dim}")
        k = len(self.vrep)
        cons = tuple(
            LpConstraint(tuple(v.coords[i] for v in self.vrep), "==", x.coords[i])
            for i in range(self.dim)
        )
        sol = solve_lp(LpProblem((-ONE,) * k, cons))
        if sol.status != "optimal":
            raise GeometryError("gauge LP failed; vertex set cannot be polar to the facets")
        return -sol.value

    def active_functional_ids(self, x: Vector) -> tuple[int, ...]:
        """Ids of facet functionals attaining one at x (x need not be normalised).

        On the sphere these ids are the whole face structure, so a facet is
        named by its id. The maximal convex subsets of the sphere are
        exactly the facets of the ball: some facet functional is one at a
        relative-interior point of a convex subset C of the sphere, and at
        most one on C, so it is one on all of C and C lies on its facet.
        St(x), the sphere points y with norm(x + y) = 2, is the union of
        the facets active at x: norm(x + y) is the largest f(x) + f(y)
        over the facet functionals f, and that is two exactly when some f
        is one at both x and y. x is smooth iff exactly one facet is
        active, and then St(x) is that facet, a maximal convex set. A union
        of two or more facets is never convex, since a convex subset of the
        sphere cannot properly contain a maximal one.
        """
        (values,), d = self._values_at((x,))
        return tuple(i for i, v in enumerate(values) if v == d)

    def vertex_id(self, v: Vector) -> int:
        """The id of vertex v, found by bisecting the sorted ``vrep``."""
        return _find(self.vrep, v, f"{v} is not a vertex of the ball")

    def functional_id(self, f: Functional) -> int:
        """The id of facet functional f, found by bisecting the sorted ``hrep``."""
        return _find(self.hrep, f, f"{f} is not a facet functional")

    def neg_vertex_id(self, i: int) -> int:
        """The id of -vrep[i]: ``vrep`` is sorted and closed under negation,
        and negation reverses the lexicographic order, so it is N - 1 - i."""
        return len(self.vrep) - 1 - i

    def neg_functional_id(self, i: int) -> int:
        """The id of -hrep[i]: ``hrep`` is sorted and closed under negation,
        and negation reverses the lexicographic order, so it is N - 1 - i."""
        return len(self.hrep) - 1 - i

    def facet_barycenter(self, fid: int) -> Vector:
        """The mean of the facet's vertices, summed on their integer rows."""
        ids = self.facet_index[fid]
        n = len(ids) * self._point_scale
        cols = zip(*(self._points[j] for j in ids))
        return Vector._of(tuple(Fraction(sum(col), n) for col in cols))

    def dual(self, name: str | None = None) -> "PolyhedralSpace":
        """The polar space: vertices become functionals and vice versa."""
        return PolyhedralSpace([v.coords for v in self.vrep], [f.coeffs for f in self.hrep], name)

    def verify_mutual_polarity(self):
        """Re-enumerate each description from the other and compare; raises
        on mismatch, the vertices first."""
        for given, listed, message in (
            (self.hrep, self.vrep, "vertex description is not polar to the facets"),
            (self.vrep, self.hrep, "facet description is not polar to the vertices"),
        ):
            found = enumerate_ball_vertices([x._row for x in given], self.dim)
            if set(found) != {x._row for x in listed}:
                raise GeometryError(message)

    def summary(self) -> str:
        label = self.name or "space"
        return f"{label}: dim {self.dim}, {len(self.hrep)} facets, {len(self.vrep)} vertices"

    def __eq__(self, other):
        return (
            isinstance(other, PolyhedralSpace)
            and self.dim == other.dim
            and self.hrep == other.hrep
            and self.vrep == other.vrep
        )

    def __hash__(self):
        return hash((self.dim, self.hrep, self.vrep))

    def __repr__(self):
        return f"<PolyhedralSpace {self.summary()}>"

