"""Built-in catalog: classical sequence-space balls, the hexagon, and sums.

Catalog names follow a small grammar, also accepted by the command line:

    hex                     the hexagonal norm max(|y|, |x| + |y|/2)
    l1:N                    cross-polytope ball, 1 <= N <= 6
    linf:N                  cube ball, 1 <= N <= 6
    l1sum(A,B)              norm |a| + |b| on the product of two spaces
    linfsum(A,B)            norm max(|a|, |b|) on the product

Sums are binary and nest, so longer sums are written by composition.
Nesting ``MAX_ENUM_DIM`` deep is an EnumerationCapError, raised as soon as
the parser reaches it: such a sum has dimension above the cap.

Every space is built from two leaves and two sums, with no vertex
enumeration: the segment [-1, 1] and ``hex`` are built once, at import,
by the public constructor, and every other space is a sum of them. The
ℓ1 and ℓ∞ norms of a sum of segments are Σ|x_i| and max|x_i|, so
``l1:N`` and ``linf:N`` are the N-fold ℓ1- and ℓ∞-sums of the segment.
The constructor runs all its checks on every space, so a wrong sum raises
instead of giving a wrong space. Let X and Y have facet functionals F_X,
F_Y and vertices V_X, V_Y, the summands' descriptions being polar, as
every space's are.

- ℓ∞-sum: the ball is B_X × B_Y. Its facets are F × B_Y and B_X × G for
  the facets F, G of the factors, with functionals (f, 0) and (0, g); its
  vertices are the pairs (v, w), since a face of a product is a product
  of faces and a vertex of B_X × B_Y is a product of vertices.
- ℓ1-sum: the ball is conv(B_X × 0 ∪ 0 × B_Y), the polar of
  B_X° × B_Y°. The vertices of that product of polars are the pairs
  (f, g) of facet functionals, so the facet functionals of the ℓ1-sum are
  all |F_X|·|F_Y| pairs (f, g): they are distinct and none is redundant.
  Its vertices, the facets of B_X° × B_Y° read back through polarity, are
  (v, 0) and (0, w).

So the ℓ∞-sum pads the functionals and pairs the vertices, and the
ℓ1-sum pairs the functionals and pads the vertices. Both refuse a sum
above the caps as double description would, by
:func:`polysphere.space.check_caps` on the dimension and the number of
rows, before any row is built.

A sum is handed to the constructor on integer rows only, as the builders
hand over theirs, made from the summands' integer rows and scales with
no scaling or sort; no Fraction is made here, and the constructor makes
the sum's ``hrep`` and ``vrep`` from the rows. Each side's scale is the
least common multiple of the summands' scales on that side, and on it
the summands' rows are multiplied out. The pairs (u, w) are listed
u-major, which is sorted. The padded rows are listed as (u, 0) for the
lower half of the first summand's rows, then (0, w) for every row of the
second, then (u, 0) for the upper half: the lower half of a sorted list
closed under negation is the half below zero, so that order is sorted
too. The constructor makes each sum's table from its rows, and runs all
its checks on them.
"""

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import EnumerationCapError, GeometryError, echo
from .space import MAX_ENUM_DIM, PolyhedralSpace, _Side, check_caps

# Decimal digits, in any script: exactly the characters int() reads.
_DIGITS = re.compile(r"\d*")


def _with_negations(rows: list[tuple]) -> list[tuple]:
    return rows + [tuple(-c for c in row) for row in rows]


def _padded_side(x: _Side, y: _Side) -> _Side:
    """(u, 0) for u in x's lower half, (0, w) for each w of y, then (u, 0)
    for x's upper half, on integer rows over the least common multiple of
    the two scales. The order is sorted: x's lower half is the half below
    zero, since negation reverses the order, so its rows (u, 0) come before
    every (0, w), and its upper half after."""
    scale = math.lcm(x.scale, y.scale)
    kx, ky = scale // x.scale, scale // y.scale
    zx, zy = (0,) * len(x.rows[0]), (0,) * len(y.rows[0])
    half = len(x.rows) // 2
    xs = [tuple(c * kx for c in r) + zy for r in x.rows]
    return _Side(xs[:half] + [zx + tuple(c * ky for c in r) for r in y.rows] + xs[half:], scale)


def _paired_side(x: _Side, y: _Side) -> _Side:
    """(u, w) for each u of x and each w of y, x-major, which is sorted, on
    integer rows over the least common multiple of the two scales."""
    scale = math.lcm(x.scale, y.scale)
    kx, ky = scale // x.scale, scale // y.scale
    ys = [tuple(c * ky for c in r) for r in y.rows]
    return _Side([tuple(c * kx for c in r) + w for r in x.rows for w in ys], scale)


def _sides(space: PolyhedralSpace) -> tuple[_Side, _Side]:
    """A space's functionals and vertices as the constructor takes them."""
    return _Side(space._rows, space._scale), _Side(space._points, space._point_scale)


def _linf(a: tuple[_Side, _Side], b: tuple[_Side, _Side]) -> tuple[_Side, _Side]:
    """The ℓ∞-sum of two (functionals, vertices) pairs: padded functionals,
    paired vertices."""
    (fa, va), (fb, vb) = a, b
    check_caps(len(fa.rows[0]) + len(fb.rows[0]), len(fa.rows) + len(fb.rows))
    return _padded_side(fa, fb), _paired_side(va, vb)


def _l1(a: tuple[_Side, _Side], b: tuple[_Side, _Side]) -> tuple[_Side, _Side]:
    """The ℓ1-sum of two (functionals, vertices) pairs: paired functionals,
    padded vertices."""
    (fa, va), (fb, vb) = a, b
    check_caps(len(fa.rows[0]) + len(fb.rows[0]), len(fa.rows) * len(fb.rows))
    return _paired_side(fa, fb), _padded_side(va, vb)


_SEGMENT = _sides(PolyhedralSpace([(1,), (-1,)], [(1,), (-1,)]))
_HEXAGON = _sides(PolyhedralSpace(
    _with_negations([(0, 1), (1, Fraction(1, 2)), (1, Fraction(-1, 2))]),
    _with_negations([(1, 0), (Fraction(1, 2), 1), (Fraction(-1, 2), 1)]),
))


def l1_space(n: int) -> PolyhedralSpace:
    """Ball = cross-polytope: the ℓ1-sum of n segments."""
    _check_range(n)
    return PolyhedralSpace(*functools.reduce(_l1, [_SEGMENT] * n), name=f"l1:{n}")


def linf_space(n: int) -> PolyhedralSpace:
    """Ball = cube: the ℓ∞-sum of n segments."""
    _check_range(n)
    return PolyhedralSpace(*functools.reduce(_linf, [_SEGMENT] * n), name=f"linf:{n}")


def hexagon_space() -> PolyhedralSpace:
    """The plane with norm max(|y|, |x| + |y|/2); the sphere is a hexagon.

    Its vertices (1, 0), (1/2, 1), (-1/2, 1) make it a linear image of the
    regular hexagon, and it is not CL. With facet stars and "= 2" in
    condition (iii), the reading that :mod:`polysphere.properties` decides,
    it is a linear image of the one hexagon with the T-property among the
    66 on that module's census grid. With vertex stars and "<= 2", every
    grid hexagon has it, as measured; the two readings are stated in
    :mod:`polysphere.properties`.
    """
    return PolyhedralSpace(*_HEXAGON, name="hex")


def linf_sum(a: PolyhedralSpace, b: PolyhedralSpace, name: str | None = None) -> PolyhedralSpace:
    """Product space with norm max(|x_a|, |x_b|): padded facets, paired vertices."""
    return PolyhedralSpace(*_linf(_sides(a), _sides(b)),
                           name=name or f"linfsum({a.name or '?'},{b.name or '?'})")


def l1_sum(a: PolyhedralSpace, b: PolyhedralSpace, name: str | None = None) -> PolyhedralSpace:
    """Product space with norm |x_a| + |x_b|: paired facets, padded vertices."""
    return PolyhedralSpace(*_l1(_sides(a), _sides(b)),
                           name=name or f"l1sum({a.name or '?'},{b.name or '?'})")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    build: Callable[[], PolyhedralSpace]
    expected_cl: bool
    expected_t: bool


# (expression, description, CL, T) for each space ``polysphere catalog`` lists.
_ENTRIES = (
    ("hex", "hexagonal norm max(|y|, |x| + |y|/2)", False, True),
    *(
        (f"{head}:{n}", f"{ball} ball in dimension {n}", True, True)
        for n in range(1, 5)
        for head, ball in (("l1", "cross-polytope"), ("linf", "cube"))
    ),
    ("linfsum(hex,linf:1)", "hexagon times a segment under the max norm", False, True),
    ("l1sum(hex,l1:1)", "hexagon times a segment under the sum norm", False, True),
)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    """The listed spaces; each one is built by resolving its expression."""
    return tuple(
        CatalogEntry(text, description, functools.partial(resolve, text), cl, t)
        for text, description, cl, t in _ENTRIES
    )


def _check_range(n: int):
    if not 1 <= n <= MAX_ENUM_DIM:
        raise EnumerationCapError(f"dimension {n} outside the supported range 1..{MAX_ENUM_DIM}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise GeometryError(f"expected {ch!r} at position {self.pos} in {echo(self.text)}")
        self.pos += 1

    def parse(self) -> PolyhedralSpace:
        space = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise GeometryError(f"trailing input at position {self.pos} in {echo(self.text)}")
        return space

    def parse_expr(self, depth: int = 0) -> PolyhedralSpace:
        """The expression at the current position, inside ``depth`` sums.

        A sum nested ``MAX_ENUM_DIM`` deep is rejected before it is read:
        a sum tree of depth k has at least k + 1 leaves, each of dimension
        at least one, so its dimension would exceed ``MAX_ENUM_DIM``.
        """
        self.skip_ws()
        for head, builder in (("linfsum", linf_sum), ("l1sum", l1_sum)):
            if self.text.startswith(head, self.pos):
                if depth == MAX_ENUM_DIM - 1:
                    at = f"sums nested {MAX_ENUM_DIM} deep at position {self.pos}"
                    raise EnumerationCapError(f"{at} exceed the enumeration cap of {MAX_ENUM_DIM}")
                self.pos += len(head)
                self.expect("(")
                a = self.parse_expr(depth + 1)
                self.expect(",")
                b = self.parse_expr(depth + 1)
                self.expect(")")
                return builder(a, b)
        if self.text.startswith("hex", self.pos):
            self.pos += 3
            return hexagon_space()
        for head, builder in (("linf:", linf_space), ("l1:", l1_space)):
            if self.text.startswith(head, self.pos):
                digits = _DIGITS.match(self.text, self.pos + len(head)).group()
                if not digits:
                    raise GeometryError(f"expected a dimension after {head!r}")
                self.pos += len(head) + len(digits)
                try:
                    n = int(digits)
                except ValueError:
                    # int() refuses more digits than the interpreter's limit, and
                    # str() of such a number fails too, so it is named by its length.
                    raise EnumerationCapError(
                        f"dimension written with {len(digits)} digits outside the supported"
                        f" range 1..{MAX_ENUM_DIM}"
                    ) from None
                return builder(n)
        raise GeometryError(f"unknown catalog name at position {self.pos} in {echo(self.text)}")


def resolve(name: str) -> PolyhedralSpace:
    """Build a space from a catalog expression such as ``linfsum(hex,linf:1)``."""
    return _Parser(name).parse()
