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
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import EnumerationCapError, GeometryError
from .space import MAX_ENUM_DIM, Functional, PolyhedralSpace, Vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


def l1_space(n: int) -> PolyhedralSpace:
    """Ball = cross-polytope: vertices are the signed basis vectors."""
    _check_range(n)
    vrep = []
    for i in range(n):
        e = [_ZERO] * n
        e[i] = _ONE
        vrep.append(Vector(e))
        vrep.append(Vector([-c for c in e]))
    hrep = [Functional(signs) for signs in itertools.product((_ONE, -_ONE), repeat=n)]
    return PolyhedralSpace(hrep, vrep, name=f"l1:{n}")


def linf_space(n: int) -> PolyhedralSpace:
    """Ball = cube: facets are the signed coordinate functionals."""
    _check_range(n)
    hrep = []
    for i in range(n):
        e = [_ZERO] * n
        e[i] = _ONE
        hrep.append(Functional(e))
        hrep.append(Functional([-c for c in e]))
    vrep = [Vector(signs) for signs in itertools.product((_ONE, -_ONE), repeat=n)]
    return PolyhedralSpace(hrep, vrep, name=f"linf:{n}")


def hexagon_space() -> PolyhedralSpace:
    """The plane with norm max(|y|, |x| + |y|/2); the sphere is a hexagon.

    Its vertices (1, 0), (1/2, 1), (-1/2, 1) make it a linear image of the
    regular hexagon. Conjecture, checked on a grid: among symmetric
    hexagons only these images have the T-property (see
    :mod:`polysphere.properties`), and none is CL.
    """
    half = Fraction(1, 2)
    hrep = [
        Functional((_ZERO, _ONE)),
        Functional((_ZERO, -_ONE)),
        Functional((_ONE, half)),
        Functional((-_ONE, -half)),
        Functional((_ONE, -half)),
        Functional((-_ONE, half)),
    ]
    vrep = [
        Vector((half, _ONE)),
        Vector((-half, -_ONE)),
        Vector((_ONE, _ZERO)),
        Vector((-_ONE, _ZERO)),
        Vector((half, -_ONE)),
        Vector((-half, _ONE)),
    ]
    return PolyhedralSpace(hrep, vrep, name="hex")


def _padded(f: Functional, before: int, after: int) -> Functional:
    return Functional((_ZERO,) * before + f.coeffs + (_ZERO,) * after)


def linf_sum(a: PolyhedralSpace, b: PolyhedralSpace, name: str | None = None) -> PolyhedralSpace:
    """Product space with norm max(|x_a|, |x_b|)."""
    fs = [_padded(f, 0, b.dim) for f in a.hrep] + [_padded(g, a.dim, 0) for g in b.hrep]
    return PolyhedralSpace.from_functionals(
        fs, name=name or f"linfsum({a.name or '?'},{b.name or '?'})"
    )


def l1_sum(a: PolyhedralSpace, b: PolyhedralSpace, name: str | None = None) -> PolyhedralSpace:
    """Product space with norm |x_a| + |x_b|; facets are all pairwise sums."""
    fs = [
        Functional(f.coeffs + g.coeffs)
        for f in a.hrep
        for g in b.hrep
    ]
    # from_functionals deduplicates and drops anything redundant.
    return PolyhedralSpace.from_functionals(
        fs, name=name or f"l1sum({a.name or '?'},{b.name or '?'})"
    )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    build: Callable[[], PolyhedralSpace]
    expected_cl: bool
    expected_t: bool


def catalog_entries() -> tuple[CatalogEntry, ...]:
    entries = [
        CatalogEntry(
            "hex",
            "hexagonal norm max(|y|, |x| + |y|/2)",
            hexagon_space,
            expected_cl=False,
            expected_t=True,
        )
    ]
    for n in range(1, 5):
        entries.append(
            CatalogEntry(
                f"l1:{n}",
                f"cross-polytope ball in dimension {n}",
                (lambda k=n: l1_space(k)),
                expected_cl=True,
                expected_t=True,
            )
        )
        entries.append(
            CatalogEntry(
                f"linf:{n}",
                f"cube ball in dimension {n}",
                (lambda k=n: linf_space(k)),
                expected_cl=True,
                expected_t=True,
            )
        )
    entries.append(
        CatalogEntry(
            "linfsum(hex,linf:1)",
            "hexagon times a segment under the max norm",
            lambda: resolve("linfsum(hex,linf:1)"),
            expected_cl=False,
            expected_t=True,
        )
    )
    entries.append(
        CatalogEntry(
            "l1sum(hex,l1:1)",
            "hexagon times a segment under the sum norm",
            lambda: resolve("l1sum(hex,l1:1)"),
            expected_cl=False,
            expected_t=True,
        )
    )
    return tuple(entries)


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
            raise GeometryError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self) -> PolyhedralSpace:
        space = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise GeometryError(f"trailing input at position {self.pos} in {self.text!r}")
        return space

    def parse_expr(self, depth: int = 0) -> PolyhedralSpace:
        """The expression at the current position, inside ``depth`` sums.

        A sum nested ``MAX_ENUM_DIM`` deep is rejected before it is read:
        a sum tree of depth k has at least k + 1 leaves, each of dimension
        at least one, so its dimension would exceed ``MAX_ENUM_DIM``.
        """
        self.skip_ws()
        rest = self.text[self.pos:]
        for head, builder in (("linfsum", linf_sum), ("l1sum", l1_sum)):
            if rest.startswith(head):
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
        if rest.startswith("hex"):
            self.pos += 3
            return hexagon_space()
        for head, builder in (("linf:", linf_space), ("l1:", l1_space)):
            if rest.startswith(head):
                self.pos += len(head)
                start = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                if self.pos == start:
                    raise GeometryError(f"expected a dimension after {head!r}")
                return builder(int(self.text[start:self.pos]))
        raise GeometryError(f"unknown catalog name at position {self.pos} in {self.text!r}")


def resolve(name: str) -> PolyhedralSpace:
    """Build a space from a catalog expression such as ``linfsum(hex,linf:1)``."""
    return _Parser(name).parse()
