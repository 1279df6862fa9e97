"""Textual file formats for spaces and sphere maps.

Files are UTF-8; a leading byte-order mark is ignored. Rationals are
written as ``p/q`` or integer tokens; decimals are rejected so files stay
exact. Parse errors carry a structured kind plus line and column, both
one-based.

Space files::

    # optional comments
    version 1
    name hexagon      # the rest of the line: it may hold spaces, not a '#'
    dim 2
    kind H            # H: rows are functionals, V: rows are vertices
    symmetric true    # optional: close the rows under negation
    0 1
    1 1/2
    1 -1/2

Map files::

    version 1
    domain hex        # catalog expression or space-file path
    codomain hex
    map
    v0 -> w3          # domain vertex 0 to codomain vertex 3
    (1/2, 1) -> (1, 0)   # or by exact coordinates

A space or map file names each header key at most once; a repeated key
is a parse error at its second occurrence.

A data row is read straight to integers: each token to its numerator and
denominator as written, by the one reader that
:func:`polysphere.space.as_fraction` is built on, and the row over the
least common multiple of its written denominators. The rows are then
brought over the least common multiple of their scales, where equal
values are equal rows, and handed to the builders' body
(:mod:`polysphere.space`) as they are; no token becomes a Fraction on the
way. The coordinates of a map are read by the same reader.

Symmetry is checked once, by the builders' body, on those integer rows.
Without ``symmetric true``, a file whose rows are refused as asymmetric or
beyond a cap is then scanned in file order, on the same integer rows, so
its first row that lacks its negation is reported as an
``asymmetric-input`` error at its line, before any cap.

The facet correspondence of a map is derived from the vertex pairs. A
well-formed file whose vertex assignment does not send facets onto facets
parses; :func:`polysphere.isometry.verify_isometry` rejects the map.
"""

import math
import re
from fractions import Fraction
from typing import Callable

from .errors import (
    AsymmetricInputError,
    EnumerationCapError,
    GeometryError,
    IntegerTooLongError,
    echo,
)
from .isometry import SphereMap
from .space import PolyhedralSpace, Vector, _rational_parts

_TOKEN_RE = re.compile(r"\S+")
_INDEX_RE = re.compile(r"^[vw]?(\d+)$")


class ParseError(GeometryError):
    """A malformed space or map file, with its kind and position."""

    def __init__(self, kind: str, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.kind = kind
        self.line = line
        self.col = col


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _parse_rational(token: str, line: int, col: int) -> tuple[int, int]:
    """The token's numerator and denominator as written, read by
    :func:`polysphere.space._rational_parts`; its errors become parse errors
    at the token."""
    try:
        return _rational_parts(token)
    except IntegerTooLongError as err:
        raise ParseError("malformed-rational", line, col, str(err)) from None
    except ValueError:
        hint = "decimal tokens are not accepted" if "." in token else f"bad rational {echo(token)}"
        raise ParseError("malformed-rational", line, col, hint) from None


def _iter_rows(text: str):
    """Yield (line_number, line) for content lines, the line with its comment removed."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if line.strip():
            yield ln, line


_HEADER_KEYS = {"version", "name", "dim", "kind", "symmetric"}


def _read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 are a parse error of kind "encoding"."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        col = err.start - data.rfind(b"\n", 0, err.start)
        message = f"byte 0x{data[err.start]:02x} is not valid UTF-8"
        raise ParseError("encoding", line, col, message) from None


def parse_space_text(text: str, name: str | None = None) -> PolyhedralSpace:
    # A header key maps to its value and the line and column of that value.
    header: dict[str, tuple[str, int, int]] = {}
    # A data row is its line, its integer row and the scale it is over.
    rows: list[tuple[int, tuple[int, ...], int]] = []
    header_done = False
    for ln, line in _iter_rows(text):
        tokens = list(_TOKEN_RE.finditer(line))
        first = tokens[0].group()
        if not header_done and first in _HEADER_KEYS:
            if first in header:
                col = tokens[0].start() + 1
                raise ParseError("header", ln, col, f"repeated header key {first!r}")
            # A name is the rest of the line, so it may contain spaces.
            if len(tokens) < 2 or (first != "name" and len(tokens) != 2):
                raise ParseError("header", ln, tokens[0].start() + 1, f"{first} needs one value")
            header[first] = (line[tokens[0].end():].strip(), ln, tokens[1].start() + 1)
            continue
        if not header_done and first[0].isalpha():
            raise ParseError("header", ln, tokens[0].start() + 1, f"unknown header key {echo(first)}")
        header_done = True
        parts = [_parse_rational(t.group(), ln, t.start() + 1) for t in tokens]
        scale = math.lcm(*(d for _, d in parts))
        rows.append((ln, tuple(n * (scale // d) for n, d in parts), scale))

    # A missing key is reported at line 1, col 1; a bad value at its token.
    version, ln, col = header.get("version", (None, 1, 1))
    if version != "1":
        raise ParseError("header", ln, col, "missing or unsupported 'version' (expected 1)")
    kind, ln, col = header.get("kind", (None, 1, 1))
    if kind not in ("H", "V"):
        raise ParseError("header", ln, col, "missing or bad 'kind' (expected H or V)")
    dim_text, ln, col = header.get("dim", (None, 1, 1))
    try:
        dim = int(dim_text)
    except (TypeError, ValueError):
        dim = 0
    if dim < 1:
        raise ParseError("header", ln, col, "missing or bad 'dim' (expected a positive integer)")
    flag, ln, col = header.get("symmetric", ("false", 1, 1))
    if flag.lower() not in ("true", "false"):
        raise ParseError("header", ln, col, "bad 'symmetric' (expected true or false)")
    symmetric = flag.lower() == "true"
    if not rows:
        raise ParseError("header", 1, 1, "no data rows")
    for ln, row, _ in rows:
        if len(row) != dim:
            raise ParseError(
                "dimension-mismatch", ln, 1, f"row has {len(row)} entries, expected {dim}"
            )

    label = header["name"][0] if "name" in header else name
    # Every row over the one common scale, so equal values are equal rows.
    s = math.lcm(*(scale for _, _, scale in rows))
    ints = [row if scale == s else tuple(c * (s // scale) for c in row) for _, row, scale in rows]
    try:
        return PolyhedralSpace._from_rows(ints, s, dim, kind == "V", label, symmetric)
    except (AsymmetricInputError, EnumerationCapError):
        # The builder checks the caps before symmetry and names the first
        # offender in sorted order; a file's asymmetry is reported first,
        # at its first offending line.
        if not symmetric:
            row_set = set(ints)
            for (ln, _, _), row in zip(rows, ints):
                if tuple(-c for c in row) not in row_set:
                    raise ParseError(
                        "asymmetric-input",
                        ln,
                        1,
                        "row lacks its negation and 'symmetric true' is not set",
                    ) from None
        raise


def parse_space_file(path) -> PolyhedralSpace:
    return parse_space_text(_read_text(path), name=str(path))


def serialize_space(space: PolyhedralSpace, kind: str = "V") -> str:
    """Round-trippable text form; parsing it rebuilds an equal space.

    Raises ValueError for a name the parser would not read back: one with
    a '#', a line break, or leading or trailing whitespace.
    """
    if kind not in ("H", "V"):
        raise ValueError("kind must be 'H' or 'V'")
    label = space.name
    if label and ("#" in label or label.splitlines() != [label] or label != label.strip()):
        raise ValueError(
            f"space name {label!r} cannot be written to a space file: "
            "it has a '#', a line break, or leading or trailing whitespace"
        )
    lines = ["version 1"]
    if label:
        lines.append(f"name {label}")
    lines.append(f"dim {space.dim}")
    lines.append(f"kind {kind}")
    source = space.vrep if kind == "V" else space.hrep
    for item in source:
        coords = item.coords if kind == "V" else item.coeffs
        lines.append(" ".join(str(c) for c in coords))
    return "\n".join(lines) + "\n"


def _parse_point_side(side: str, ln: int, col: int) -> tuple[str, object, int]:
    """A mapping side: ('index', i, col) or ('coords', a Vector, col).

    ``side`` is the raw text of the side and ``col`` the column where it
    starts in its line; errors, and the returned column, point at the
    side's first character, or at the offending coordinate token.
    """
    body = side.strip()
    col += len(side) - len(side.lstrip())
    if body.startswith("("):
        if not body.endswith(")"):
            raise ParseError("mapping", ln, col, "unclosed coordinate tuple")
        coords = []
        start = col + 1
        for part in body[1:-1].split(","):
            token_col = start + len(part) - len(part.lstrip())
            coords.append(_parse_rational(part.strip(), ln, token_col))
            start += len(part) + 1
        return "coords", Vector._of(tuple(Fraction(n, d) for n, d in coords)), col
    m = _INDEX_RE.match(body)
    if not m:
        raise ParseError("mapping", ln, col, f"bad vertex reference {echo(body)}")
    digits = m.group(1)
    try:
        return "index", int(digits), col
    except ValueError:
        # int() refuses more digits than the interpreter's limit, and str()
        # of such an index would fail too, so it is reported by its length.
        raise ParseError(
            "vertex", ln, col, f"vertex index written with {len(digits)} digits out of range"
        ) from None


def parse_map_text(
    text: str, resolver: Callable[[str], PolyhedralSpace]
) -> SphereMap:
    """A sphere map; ``resolver`` turns a domain or codomain value into a space.

    A :class:`ParseError` of the resolver, from a space file the map names,
    is raised again at that value, its message naming the reference and
    the position inside the space file.
    """
    # A header key maps to its value and the line and column of that value.
    header: dict[str, tuple[str, int, int]] = {}
    pairs: list[tuple[int, tuple, tuple]] = []
    in_map = False
    for ln, line in _iter_rows(text):
        body = line.strip()
        if not in_map:
            if body == "map":
                in_map = True
                continue
            # The value is the rest of the line, so a path may contain spaces.
            key, *rest = body.split(None, 1)
            if key not in ("version", "domain", "codomain") or not rest:
                raise ParseError("header", ln, 1, f"unexpected header line {echo(body)}")
            indent = len(line) - len(line.lstrip())
            if key in header:
                raise ParseError("header", ln, indent + 1, f"repeated header key {key!r}")
            value = rest[0]
            header[key] = (value, ln, line.index(value, indent + len(key)) + 1)
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("mapping", ln, 1, "mapping lines look like 'v0 -> w1'")
        pairs.append(
            (ln, _parse_point_side(lhs, ln, 1), _parse_point_side(rhs, ln, len(lhs) + 3))
        )

    version, ln, col = header.get("version", (None, 1, 1))
    if version != "1":
        raise ParseError("header", ln, col, "missing or unsupported 'version' (expected 1)")
    for key in ("domain", "codomain"):
        if key not in header:
            raise ParseError("header", 1, 1, f"missing '{key}'")

    def resolve(key: str) -> PolyhedralSpace:
        ref, ln, col = header[key]
        try:
            return resolver(ref)
        except ParseError as err:
            raise ParseError(err.kind, ln, col, f"{key} {ref!r}: {err}") from None

    domain = resolve("domain")
    codomain = resolve("codomain")

    def vertex_index(space: PolyhedralSpace, side, ln: int) -> int:
        tag, value, col = side
        if tag == "index":
            if not 0 <= value < len(space.vrep):
                raise ParseError("vertex", ln, col, f"vertex index {value} out of range")
            return value
        if value.dim != space.dim:
            raise ParseError("dimension-mismatch", ln, col, "coordinate tuple has wrong length")
        try:
            return space.vertex_id(value)
        except GeometryError:
            raise ParseError("vertex", ln, col, f"{value} is not a vertex of the space") from None

    assignment: dict[int, int] = {}
    for ln, lhs, rhs in pairs:
        i = vertex_index(domain, lhs, ln)
        j = vertex_index(codomain, rhs, ln)
        if i in assignment:
            raise ParseError("coverage", ln, lhs[2], f"domain vertex {i} mapped twice")
        assignment[i] = j
    missing = [i for i in range(len(domain.vrep)) if i not in assignment]
    if missing:
        raise ParseError(
            "coverage", 1, 1, f"domain vertices without an image: {missing}"
        )
    vertex_map = tuple(assignment[i] for i in range(len(domain.vrep)))
    if len(set(vertex_map)) != len(vertex_map):
        raise ParseError("coverage", 1, 1, "two domain vertices share an image")

    return SphereMap(domain, codomain, vertex_map)


def parse_map_file(path, resolver: Callable[[str], PolyhedralSpace]) -> SphereMap:
    return parse_map_text(_read_text(path), resolver)
