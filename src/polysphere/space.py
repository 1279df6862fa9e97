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
- **Builders.** :meth:`PolyhedralSpace.from_functionals`,
  :meth:`PolyhedralSpace.from_vertices` and
  :func:`polysphere.formats.parse_space_text` share one body, around one
  polar routine: given integer rows, it enumerates the vertices of
  {x : r(x) <= 1 for every row r} and keeps the rows that support a facet
  of that ball. Read
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
builds two leaves with the constructor and lists both descriptions of
every sum from its summands' (see :mod:`polysphere.catalog`).
One function, :func:`check_caps`, applies the two caps, ``MAX_ENUM_DIM``
on the dimension and ``MAX_FACETS`` on the number of distinct nonzero
rows; :func:`_polar_pair` calls it on a builder's rows, and the catalog's
sums on the rows they would list. The enumerator is the double
description method on exact integers: rows and rays are integer vectors,
each ray carries a bitmask of the rows tight at it, and two rays are
adjacent by the combinatorial test of Fukuda & Prodon ("Double
description method revisited", 1996), with no rank computation. The
start box's masks are read from the signs of its rays, with no product:
box row (r_i, -s) is tight at the ray for signs e exactly when e_i = +1,
and (-r_i, -s) exactly when e_i = -1 (the sign rule, proved in
:func:`enumerate_ball_vertices`). The facet test is combinatorial too: a
row supports a facet iff the set of vertices where it equals one is
nonempty and inclusion-maximal among the rows' sets. Vertices leave the
enumerator as sorted, distinct integer rows over their least common
scale, and :func:`_polar_pair` hands them on as they are. The raw
constructor validates the structural invariants it can check cheaply
(symmetry, unit norms, and facet and vertex ranks, tested on one member
of each antipodal pair); full re-enumeration is available as
:meth:`PolyhedralSpace.verify_mutual_polarity`.

Fractions are the public type of every coordinate, but the work is done
on integers. A description travels from the API edge to the constructor
as integer rows over one positive common scale, which keeps equality and
the lexicographic order: rows are deduplicated, sorted and checked for
symmetry as int tuples. Its Fractions are made in one function,
:func:`_fractions`, one per distinct entry of a side: the constructor
makes the public ``hrep`` and ``vrep`` with it from the rows it keeps, and
:func:`_polar_pair` the payload of an asymmetry error. Each description
is scaled to integer rows once, where it enters: a builder coerces its
items and scales them by :func:`polysphere.linalg.integer_rows`, the
parser reads each token to integers and scales each file row over its
written denominators, and a direct construction is scaled in the
constructor. The builders and the parser hand their rows to one body,
which hands them to the polar routine: it drops the zero rows, sorts the
rest and checks their length, the caps and their symmetry, once, and the
enumerator adds only the span check, which needs the elimination. The
polar routine returns both sides on integer rows, sorted, over their
least scales, with the kept rows' lines of the product table it filled
for the facet test, and the body hands them to the constructor, which
neither scales, sorts nor multiplies them out again. The catalog's sums
hand over their two sides on integer rows and scales the same way, made
from their summands', but no table lines: only the builders' body hands
over lines, and the constructor makes a sum's table from its rows. A
space keeps its facet functionals as integer rows ``_rows`` over
``_scale`` and its vertices as integer rows ``_points`` over the vertex
scale ``_point_scale``, and ``facet_scale`` is the product of the two. The
rank checks, the norm and the active facets of other points are read from
the integer functional rows; facet barycenters, and the seeded facet
points, images and linear extensions of :mod:`polysphere.isometry`, are
combined on the integer vertex rows.

Antipodes are read from positions. In a sorted list of N distinct vectors
closed under negation, the negation of item i is item N - 1 - i. Proof: if
a < b lexicographically, they agree before their first differing
coordinate k and a_k < b_k, so -a and -b agree before k and -a_k > -b_k,
that is -a > -b. Negation is thus an order-reversing bijection of the list
onto itself, and such a bijection sends the i-th smallest item to the i-th
largest. The id of a point or a functional is found on the same sorted
integer rows: scaled by its description's scale, it must have integer
entries, and then its integer row is found by bisection. A space keeps no
lookup table beside those rows.

So construction does each per-item step once per antipodal pair, and
mirrors the other half by position:

- symmetry is tested by position, row N - 1 - i against the negation of
  row i (:func:`_first_unpaired`, for the constructor and for a builder's
  rows); only when that fails, or N is odd, is the set scanned, so the
  first offender in sorted order is named as before;
- the product table multiplies out only its quarter of lower-half rows
  against lower-half rows (:func:`_lines`);
- the enumerator takes its basis from the lower half of the rows and
  builds its start box by doubling over the basis inverse's columns
  (:func:`enumerate_ball_vertices`);
- the constructor lists the vertices on the lower half of the facets only
  (``facet_index``), and ranks one member of each pair (:func:`_check_ranks`).

Each requires an even N, and each gets it where it runs. A builder drops
zero rows and a bounded ball has no zero vertex, so the enumerator's rows
and the builders' descriptions are even. A direct construction may list
the zero row, which is its own negation and makes N odd; the table is
then multiplied out in full, and the symmetry test falls back to the scan.
The norm checks refuse a zero row, so the facet lists and the rank checks,
which follow them, always see even N.
"""

import itertools
import math
import re
from bisect import bisect_left
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Iterable, NamedTuple, Sequence

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


def _rational_parts(value: str) -> tuple[int, int]:
    """An exact rational token, 'p/q' or an integer, read to two ints: its
    numerator and denominator as written, with 1 when none is written, so
    '2/4' reads as (2, 4). Raises ValueError on any other text and on a
    zero denominator."""
    token = value.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not an exact rational token: {echo(value)}")
    num, _, den = token.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:
        # The token matched the pattern, so int() refused it only for
        # more digits than the interpreter converts; str() of such a
        # number fails too, so it is named by its length.
        digits = max(len(num.lstrip("+-")), len(den))
        raise IntegerTooLongError(f"integer written with {digits} digits is too long") from None
    if d == 0:
        raise ValueError(f"zero denominator in {echo(value)}")
    return n, d


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
        return Fraction(*_rational_parts(value))
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
    return tuple(map(neg, row))


def _first_unpaired(rows: Sequence) -> int | None:
    """The index of the first of the sorted distinct ``rows`` whose negation
    is not among them, or None when they are closed under negation.

    Symmetry is read by position first: rows of even length N are closed
    under negation iff row N - 1 - i is the negation of row i for every
    i < N / 2 (see the module docstring). The halves are compared as
    lists, so tuple rows read the same. Only when that fails, or N is odd,
    as with a zero row, are the rows scanned against their set, which
    names the first offender in sorted order.
    """
    n = len(rows)
    if n % 2 == 0 and list(rows[: n // 2]) == [_neg(r) for r in reversed(rows[n // 2:])]:
        return None
    present = set(rows)
    return next((i for i, r in enumerate(rows) if _neg(r) not in present), None)


def check_caps(dim: int, rows: int):
    """Raise EnumerationCapError above ``MAX_ENUM_DIM`` dimensions or
    ``MAX_FACETS`` distinct nonzero rows, the dimension tested first.
    :func:`_polar_pair` calls it on a builder's rows, and
    :meth:`PolyhedralSpace.verify_mutual_polarity` on a space's."""
    if dim > MAX_ENUM_DIM:
        raise EnumerationCapError(f"dimension {dim} exceeds the enumeration cap of {MAX_ENUM_DIM}")
    if rows > MAX_FACETS:
        raise EnumerationCapError(f"{rows} rows exceed the cap of {MAX_FACETS}")


def enumerate_ball_vertices(rows: list, s: int, dim: int) -> list[tuple[int, ...]]:
    """All vertices of the ball {x : r.x <= s for every row r}, by double
    description on integers.

    ``rows`` are the integer rows as :func:`_polar_pair` holds them: sorted,
    distinct, nonzero, of length ``dim`` and closed under negation, all
    over the one scale s. The vertices are returned as sorted integer rows
    over their one least scale e, each with e appended: row (k, e) is the
    vertex k / e, so the result has one row per vertex. The caller checks
    the rows; the span check needs the elimination, so it is made here,
    and raises DegenerateInputError with a kernel vector of the rows.

    The rows are nonzero and closed under negation, so their number N is
    even and row N - 1 - i is the negation of row i. The basis is taken
    from the lower half: the upper half are its negations, so the halves
    span the same space, and the greedy scan of
    :func:`polysphere.linalg.independent_row_indices` picks the same ids
    from the lower half as from all the rows.

    The ball is the slice t = 1 of the cone {(x, t) : r.x <= s t}, whose
    rows are the rows r extended by -s; the cone is built one row at a
    time from a box over ``dim`` independent rows. Rays are integer
    vectors, a positive rescaling that leaves the cone and its extreme rays
    unchanged; a ray made from two others is divided by the gcd of its
    entries. Each ray carries a bitmask of the processed rows that vanish
    on it. Two rays on opposite sides of a new row are adjacent, and so
    combine into a new ray, iff their common mask has at least ``dim - 1``
    bits and no third ray's mask contains it: the combinatorial test of
    Fukuda & Prodon, "Double description method revisited" (1996). The
    start box needs no dot product: its ray for signs e is the sum of e_k
    times s times column k of the basis inverse, so its 2^dim rays are
    built by doubling over the columns, in the order of
    ``itertools.product((1, -1), repeat=dim)``, and its masks by the sign
    rule. Sign rule: the box ray for signs e has base * ray = s * scale * e
    and last entry ``scale``, so box row (r_i, -s) is s * scale * (e_i - 1)
    on it, zero exactly when e_i = +1, and (-r_i, -s) is zero exactly when
    e_i = -1; its mask is the sum of 1 << (2i + (e_i < 0)). Every surviving ray has last entry
    t > 0 and stands for the vertex ray / t. The rays are scaled to the
    least common multiple L of their t's, and these keys are divided by
    g = gcd(L, every key entry). That leaves them over L / g, their least
    common denominator: entry k / L has denominator L / gcd(L, k), and the
    least common multiple of those is L / g, prime by prime.
    """
    base_idx = linalg.independent_row_indices(rows[: len(rows) // 2])
    if len(base_idx) < dim:
        raise DegenerateInputError(
            "ball is unbounded: functionals do not span the dual space",
            direction=linalg.null_space_vector(rows, dim),
        )
    base = [rows[i] for i in base_idx]
    base_inv, scale = linalg.invert(base)

    consumed = set(base) | {_neg(r) for r in base}

    # Initial cone: |f(x)| <= t over the basis rows, a combinatorial box
    # whose extreme rays are the solutions of (basis) x = signs at t = 1.
    # The integer basis is s times the functionals', so its inverse
    # base_inv / scale is theirs over s, and each ray is scaled by ``scale``.
    # Ray e is the sum of e_k times s times column k of base_inv, built by
    # doubling over the columns in the order of itertools.product((1, -1)).
    # Box rows 2i and 2i + 1 are (r_i, -s) and (-r_i, -s); the sign rule
    # (see the docstring) gives each ray's mask from its signs.
    rays: list[tuple[int, ...]] = [(0,) * dim + (scale,)]
    masks: list[int] = [0]
    for k in range(dim):
        col = tuple(s * row[k] for row in base_inv) + (0,)
        rays = [w for ray in rays
                for w in (tuple(map(add, ray, col)), tuple(map(sub, ray, col)))]
        plus, minus = 1 << 2 * k, 1 << 2 * k + 1
        masks = [w for z in masks for w in (z | plus, z | minus)]

    need = dim - 1  # homogenised dimension minus two
    for bit, f in enumerate((r for r in rows if r not in consumed), start=2 * dim):
        a = f + (-s,)
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
    g = math.gcd(lcm, *itertools.chain.from_iterable(keys))
    e = lcm // g
    return [tuple(c // g for c in key) + (e,) for key in sorted(keys)]


class _Side(NamedTuple):
    """One description as a builder or a catalog sum hands it to the
    constructor: its sorted distinct integer rows over the one least
    positive ``scale``, and, from a builder only, on the kept rows' side
    each row's line of the product table with the other side's integer
    rows (None on the other side, and on both sides of a sum, whose table
    the constructor makes). It holds no Fractions: the constructor makes
    the items from the rows (:func:`_fractions`).

    The row list is taken as it is, not copied: the catalog's spaces share
    their leaves' lists. Nothing writes a space's row lists; the
    eliminations of :mod:`polysphere.linalg` work on copies. They stay
    lists, which :func:`_first_unpaired` and the bisections read."""

    rows: list
    scale: int
    lines: tuple | None = None


def _fractions(rows: Sequence, scale: int) -> list[tuple[Fraction, ...]]:
    """The integer ``rows`` over ``scale`` as tuples of Fractions, with one
    Fraction made per distinct entry: the one place where a description's
    Fractions are made."""
    value = {c: Fraction(c, scale) for c in set(itertools.chain.from_iterable(rows))}
    return [tuple(map(value.__getitem__, r)) for r in rows]


def _lines(rows: Sequence, others: Sequence) -> tuple[tuple[int, ...], ...]:
    """The product table's lines: each integer row of ``rows`` dotted with
    every integer row of ``others``.

    Both lists are sorted, distinct and closed under negation, so item i's
    antipode is item N - 1 - i (see the module docstring). When both have
    even length, only the quarter ``rows[:M/2] x others[:N/2]`` is
    multiplied out: the rest of line i is its first half negated in reverse
    order, and line M - 1 - i is line i negated. A list of odd length holds
    the zero row in its middle, as a direct construction may, and is
    multiplied out in full.
    """
    m, n = len(rows), len(others)
    if m % 2 or n % 2:
        return tuple(tuple(sum(map(mul, r, o)) for o in others) for r in rows)
    half = others[: n // 2]
    lower = []
    for r in rows[: m // 2]:
        q = [sum(map(mul, r, o)) for o in half]
        lower.append(tuple(q + list(map(neg, reversed(q)))))
    return tuple(lower + [_neg(line) for line in reversed(lower)])


def _polar_pair(ints: Sequence, s: int, dim: int, symmetrize: bool) -> tuple[_Side, _Side]:
    """The rows that support a facet of {x : r(x) <= 1}, and that ball's
    vertices, as two descriptions on integer rows, given the rows as
    integer rows ``ints`` over one positive scale s.

    Zero rows are dropped, and the rows are closed under negation when
    ``symmetrize`` is set; then the sorted rows are checked before they are
    enumerated, raising on the first failure: no nonzero row, a row whose
    length is not ``dim``, :func:`check_caps`, and the first row without
    its negation, found by :func:`_first_unpaired` and named by its
    Fraction row, made from its integer row. A positive scale keeps
    equality and the lexicographic order, so these are the checks on the
    rows' values, whatever common scale s they are written over.

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

    The masks are read from the product table of the integer rows and
    vertices, and the kept rows' lines of it are handed on. The rows are
    over s, any common multiple of their denominators; a dropped row may
    have had a denominator the kept rows lack, so the kept rows and their
    lines are divided by g = gcd(s, their entries). That leaves them over
    s / g, their own least common denominator L. Proof: s = m L, so g = m
    gcd(L, the entries L r), and that gcd is one: if a prime p divided L,
    some entry r = n / q with q carrying p's full power in L has L r = n
    (L / q), and p divides neither factor. The vertices' integer rows
    leave the enumerator sorted, over their least scale e.
    """
    keys = {k for k in ints if any(k)}
    if symmetrize:
        keys |= {_neg(k) for k in keys}
    keys = sorted(keys)
    if not keys:
        raise DegenerateInputError("no nonzero functionals", direction=None)
    if any(len(k) != dim for k in keys):
        raise DimensionMismatchError("functional length does not match the dimension")
    check_caps(dim, len(keys))
    i = _first_unpaired(keys)
    if i is not None:
        (offender,) = _fractions([keys[i]], s)
        raise AsymmetricInputError(f"functional {offender} appears without its negation",
                                   offender=offender)
    rays = enumerate_ball_vertices(keys, s, dim)
    e = rays[0][-1]
    pts = [ray[:-1] for ray in rays]
    lines = _lines(keys, pts)
    tight = s * e
    masks = [sum(1 << j for j, value in enumerate(line) if value == tight) for line in lines]
    distinct = set(masks)
    maximal = {m for m in distinct if m and not any(m != o and m & o == m for o in distinct)}
    kept = [i for i, m in enumerate(masks) if m in maximal]
    kept_ints, lines = [keys[i] for i in kept], tuple(lines[i] for i in kept)
    g = math.gcd(s, *itertools.chain.from_iterable(kept_ints))
    if g > 1:
        kept_ints = [tuple(c // g for c in k) for k in kept_ints]
        lines = tuple(tuple(value // g for value in line) for line in lines)
    return _Side(kept_ints, s // g, lines), _Side(pts, e)


def _coerce(items, cls) -> list:
    return [x if isinstance(x, cls) else cls(x) for x in items]


def _lacks_negation(kind: str, item) -> AsymmetricInputError:
    return AsymmetricInputError(f"{kind} {item} lacks its negation", offender=item)


def _canonical(desc, cls, kind: str) -> tuple[_Side, tuple]:
    """One description on integer rows, and its items of type ``cls`` made
    from them: the sorted distinct integer rows and their one positive
    scale. Raises on the first item, in sorted order, whose row's negation
    is not among the rows.

    A :class:`_Side` from a builder or a catalog sum has its rows sorted
    and scaled already, and is only checked to be strictly increasing, in
    one pass; a list of instances is scaled to integer rows and sorted
    here. One positive scale keeps equality and the lexicographic order, so
    the rows are deduplicated and sorted as ints, in the order of the
    Fractions. Symmetry is tested by :func:`_first_unpaired`.
    """
    if type(desc) is _Side:
        side = desc
        if any(a >= b for a, b in zip(side.rows, side.rows[1:])):
            raise GeometryError(f"internal: the {kind} rows are not strictly increasing")
    else:
        ints, scale = linalg.integer_rows(x._row for x in desc)
        side = _Side(sorted(set(ints)), scale)
    items = tuple(map(cls._of, _fractions(side.rows, side.scale)))
    i = _first_unpaired(side.rows)
    if i is not None:
        raise _lacks_negation(kind, items[i])
    return side, items


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


def _scaled(items: Sequence, cls, kinds: str) -> tuple[list, int, int]:
    """A builder's input as instances of ``cls``, scaled to integer rows once:
    the rows, their scale and the first item's dimension."""
    items = _coerce(items, cls)
    if not items:
        raise GeometryError(f"no {kinds} given")
    return (*linalg.integer_rows(x._row for x in items), items[0].dim)


def _find(rows: list, scale: int, cls, x: _Coordinates, message: str) -> int:
    """The id of x, of type ``cls``, among the sorted integer ``rows`` over
    ``scale``; raises ``message`` formatted with x when x is not listed.

    x's entries times ``scale`` must be integers, one exact divisibility
    test each, and then its integer row is found by bisection; a row of
    another length equals no listed row.
    """
    key = []
    for c in x._row:
        q, rem = divmod(c.numerator * scale, c.denominator)
        if rem:
            raise GeometryError(message.format(x))
        key.append(q)
    key = tuple(key)
    i = bisect_left(rows, key)
    if type(x) is not cls or i == len(rows) or rows[i] != key:
        raise GeometryError(message.format(x))
    return i


class PolyhedralSpace:
    """A finite-dimensional normed space whose unit ball is a symmetric polytope.

    The constructor works on each description as integer rows over one
    positive scale per description. Given coordinates, as in direct
    construction and the catalog's two leaves, it scales each description
    to integer rows once and deduplicates and sorts them, then fills
    ``facet_table``.
    The builders, the parser and the catalog's sums hand their output over
    as built instead: one private description per side, holding only its
    sorted integer rows and their least scale. The constructor skips the
    scaling and the sort for them, and only checks, in one pass, that the
    rows are strictly increasing. Only the builders and the parser also
    hand over, on the kept rows' side, their lines of the product table,
    which the constructor then takes as the table; for a sum it makes the
    table itself. On every path the constructor makes ``hrep`` and
    ``vrep`` from the rows, one Fraction per distinct entry of a side.

    Every check runs on both paths and raises on the first offender in
    canonical order: asymmetry, then the norm of each vertex and the dual
    norm of each functional, then the rank of each facet's vertices and of
    each vertex's active functionals. The norm and rank checks are one
    pair of checks, run on the table for the vertices and on its transpose
    for the functionals (see the module docstring). Once the descriptions
    are symmetric, the antipode of id i is N - 1 - i (see the module
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
        if type(hrep) is not _Side:
            hrep, vrep = _coerce(hrep, Functional), _coerce(vrep, Vector)
            if not hrep or not vrep:
                raise GeometryError("need at least one functional and one vertex")
            dim = hrep[0].dim
            if any(f.dim != dim for f in hrep) or any(v.dim != dim for v in vrep):
                raise DimensionMismatchError("mixed dimensions in the descriptions")
        h, self.hrep = _canonical(hrep, Functional, "functional")
        v, self.vrep = _canonical(vrep, Vector, "vertex")
        self.dim = dim = len(h.rows[0])
        self.name = name
        self._rows, self._scale = h.rows, h.scale
        self._points, self._point_scale = v.rows, v.scale
        d = h.scale * v.scale
        if v.lines is not None:
            table = v.lines
        elif h.lines is not None:
            table = tuple(zip(*h.lines))
        else:
            table = _lines(v.rows, h.rows)
        columns = h.lines if h.lines is not None else tuple(zip(*table))
        self.facet_table, self.facet_scale = table, d
        _check_norms(self.vrep, table, d, "listed vertex {} does not have norm one")
        _check_norms(self.hrep, columns, d, "functional {} does not have dual norm one")
        # The norm checks rule out zero rows, so both counts are even, and the
        # facet of -f holds the antipodes of f's vertices, in reverse order.
        last = len(self.vrep) - 1
        lower = [tuple(j for j, value in enumerate(column) if value == d)
                 for column in columns[: len(columns) // 2]]
        self.facet_index = tuple(
            lower + [tuple(last - j for j in reversed(ids)) for ids in reversed(lower)]
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
        return cls._from_rows(*_scaled(fs, Functional, "functionals"), False, name, symmetrize)

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
        return cls._from_rows(*_scaled(vs, Vector, "vertices"), True, name, symmetrize)

    @classmethod
    def _from_rows(cls, ints: list, s: int, dim: int, vertices: bool, name: str | None,
                   symmetrize: bool) -> "PolyhedralSpace":
        """The body of both builders and of
        :func:`polysphere.formats.parse_space_text`: the space of the
        integer rows ``ints`` over the scale s, read as functionals, or as
        vertices when ``vertices`` is set.

        The rows go to :func:`_polar_pair` as they are. Read as vertices,
        they cut out the polar body, so the two descriptions it returns
        are handed to the constructor the other way round. Its errors are
        raised in the words of the rows' kind: asymmetry as the
        constructor's, naming the first sorted row, the constructor's
        order; a row of the wrong length; and, for vertices, rows that do
        not span.
        """
        kind, item = ("vertex", Vector) if vertices else ("functional", Functional)
        try:
            kept, points = _polar_pair(ints, s, dim, symmetrize)
        except AsymmetricInputError as err:
            raise _lacks_negation(kind, item._of(err.offender)) from err
        except DimensionMismatchError as err:
            raise DimensionMismatchError(f"{kind} length does not match the dimension") from err
        except DegenerateInputError as err:
            if not vertices:
                raise
            raise DegenerateInputError(
                "vertices do not span the space: hull is lower-dimensional",
                direction=err.direction,
            ) from err
        if vertices:
            return cls(points, kept, name=name)
        return cls(kept, points, name=name)

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
        """The id of vertex v: v times the vertex scale, found by bisecting
        the sorted integer vertex rows."""
        return _find(self._points, self._point_scale, Vector, v, "{} is not a vertex of the ball")

    def functional_id(self, f: Functional) -> int:
        """The id of facet functional f: f times the functional scale, found
        by bisecting the sorted integer functional rows."""
        return _find(self._rows, self._scale, Functional, f, "{} is not a facet functional")

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
        on mismatch, the vertices first.

        Each side is enumerated from its sorted integer rows and scale, after
        :func:`check_caps`. Both sides are held sorted over their least
        scales, so the other side matches iff its integer rows, each with its
        scale appended, equal the enumerator's rows.
        """
        h, v = (self._rows, self._scale), (self._points, self._point_scale)
        for (rows, s), (listed, e), message in (
            (h, v, "vertex description is not polar to the facets"),
            (v, h, "facet description is not polar to the vertices"),
        ):
            check_caps(self.dim, len(rows))
            if enumerate_ball_vertices(rows, s, self.dim) != [r + (e,) for r in listed]:
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

