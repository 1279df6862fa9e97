"""Text formats: every parse-error kind with its position, names, and encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outputs_digest import FIELDS as DIGEST_FIELDS
from polysphere import (
    AsymmetricInputError,
    GeometryError,
    PolyhedralSpace,
    check_cl,
    check_t_property,
    formats,
    hexagon_space,
    l1_space,
    linalg,
)
from polysphere import space as space_module
from polysphere.catalog import resolve
from polysphere.formats import (
    ParseError,
    parse_map_file,
    parse_map_text,
    parse_space_file,
    parse_space_text,
    serialize_space,
)

HEX_H = "version 1\nname hexagon\ndim 2\nkind H\nsymmetric true\n0 1\n1 1/2\n1 -1/2\n"


def map_text(lines):
    return "version 1\ndomain hex\ncodomain hex\nmap\n" + "".join(line + "\n" for line in lines)


IDENTITY = [f"v{i} -> w{i}" for i in range(6)]

SPACE_ERRORS = [
    ("version 1\ndim\nkind H\n1\n-1\n", "header", 2, 1, "dim needs one value"),
    ("version 1\ndim 1 2\nkind H\n1\n-1\n", "header", 2, 1, "dim needs one value"),
    ("version 1\n  color red\n", "header", 2, 3, "unknown header key 'color'"),
    ("dim 1\nkind H\n1\n-1\n", "header", 1, 1, "missing or unsupported 'version'"),
    ("version 1\ndim 1\nkind X\n1\n-1\n", "header", 3, 6, "missing or bad 'kind'"),
    ("version 1\ndim two\nkind H\n1\n-1\n", "header", 2, 5, "missing or bad 'dim'"),
    ("version 1\ndim 1\nkind H\n", "header", 1, 1, "no data rows"),
    ("version 1\ndim 2\nkind H\n1 0.5\n", "malformed-rational", 4, 3, "decimal tokens"),
    ("version 1\ndim 2\nkind H\n1 x/2\n", "malformed-rational", 4, 3, "bad rational 'x/2'"),
    ("version 1\ndim 2\nkind H\n1 0\n-1 0\n0 1 2\n", "dimension-mismatch", 6, 1, "row has 3"),
    ("version 1\ndim 1\nkind V\n1\n", "asymmetric-input", 4, 1, "row lacks its negation"),
    ("version 2\ndim 1\nkind H\n1\n-1\n", "header", 1, 9, "missing or unsupported 'version'"),
    ("version 1\ndim 0\nkind H\n1\n-1\n", "header", 2, 5, "missing or bad 'dim'"),
    ("version 1\n dim  -1\nkind H\n1\n-1\n", "header", 2, 7, "missing or bad 'dim'"),
    ("version 1\nkind H\n1\n-1\n", "header", 1, 1, "missing or bad 'dim'"),
    ("version 1\ndim 1\nkind V\nsymmetric yes\n1\n", "header", 4, 11, "bad 'symmetric'"),
    # A repeated key is reported at its second occurrence, not read by its last.
    ("version 1\ndim 2\nkind H\n  dim 3\n0 1\n0 -1\n", "header", 4, 3, "repeated header key 'dim'"),
    ("version 1\nversion 1\ndim 1\nkind H\n1\n-1\n", "header", 2, 1, "repeated header key"),
    ("version 1\nname a\nname b c\ndim 1\nkind H\n1\n", "header", 3, 1, "repeated header key"),
    # Asymmetry is reported at the first offending line of the file, which
    # here is not the first offending row in sorted order.
    ("version 1\ndim 2\nkind H\n1 1\n0 1\n2 0\n-2 0\n", "asymmetric-input", 4, 1,
     "row lacks its negation"),
    # Asymmetry is reported before a cap.
    ("version 1\ndim 7\nkind V\n1 0 0 0 0 0 0\n", "asymmetric-input", 4, 1,
     "row lacks its negation"),
]


@pytest.mark.parametrize(
    "text,kind,line,col,message", SPACE_ERRORS, ids=[f"{c[1]}-{i}" for i, c in enumerate(SPACE_ERRORS)]
)
def test_space_parse_errors(text, kind, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_space_text(text)
    assert (err.value.kind, err.value.line, err.value.col) == (kind, line, col)
    assert str(err.value).startswith(f"line {line}, col {col}: {message}")


MAP_ERRORS = [
    ("version 1\ndomain hex\ncolor hex\nmap\n", "header", 3, 1, "unexpected header line"),
    ("domain hex\ncodomain hex\nmap\n", "header", 1, 1, "missing or unsupported 'version'"),
    ("version 1\ndomain hex\nmap\n", "header", 1, 1, "missing 'codomain'"),
    (map_text(["v0 w1"]), "mapping", 5, 1, "mapping lines look like"),
    (map_text(["(1/2, 1 -> w0"]), "mapping", 5, 1, "unclosed coordinate tuple"),
    (map_text(["v0 -> x1"]), "mapping", 5, 7, "bad vertex reference 'x1'"),
    (map_text(["(1/2, 1/0) -> w0"]), "malformed-rational", 5, 7, "bad rational '1/0'"),
    (map_text(["v6 -> w0"]), "vertex", 5, 1, "vertex index 6 out of range"),
    (map_text(["(1, 1) -> w0"]), "vertex", 5, 1, "(1, 1) is not a vertex of the space"),
    (map_text(["(1, 0, 0) -> w0"]), "dimension-mismatch", 5, 1, "coordinate tuple"),
    (map_text(["v0 -> w0", "v0 -> w1"]), "coverage", 6, 1, "domain vertex 0 mapped twice"),
    (map_text(IDENTITY[:5]), "coverage", 1, 1, "domain vertices without an image: [5]"),
    (map_text(IDENTITY[:5] + ["v5 -> w0"]), "coverage", 1, 1, "two domain vertices share"),
    # Columns count from the start of the original line, leading whitespace included.
    (map_text(["   v0 ->  x1"]), "mapping", 5, 11, "bad vertex reference 'x1'"),
    (map_text(["  (1/2 -> w0"]), "mapping", 5, 3, "unclosed coordinate tuple"),
    (map_text(["v0 -> ( 1,  1/x)"]), "malformed-rational", 5, 13, "bad rational '1/x'"),
    (map_text(["v0 ->   w6"]), "vertex", 5, 9, "vertex index 6 out of range"),
    (map_text(["v0 -> (1, 1)"]), "vertex", 5, 7, "(1, 1) is not a vertex of the space"),
    (map_text([" v0 -> (1, 0, 0)"]), "dimension-mismatch", 5, 8, "coordinate tuple"),
    (map_text(["v0 -> w0", "  v0 -> w1"]), "coverage", 6, 3, "domain vertex 0 mapped twice"),
    # A repeated header key is reported at its second occurrence, not read by its last.
    ("version 1\ndomain l1:2\ncodomain hex\ndomain hex\nmap\n" + "\n".join(IDENTITY) + "\n",
     "header", 4, 1, "repeated header key 'domain'"),
    ("version 1\ndomain hex\ncodomain hex\n   codomain hex\nmap\n",
     "header", 4, 4, "repeated header key 'codomain'"),
    ("version 1\nversion 1\ndomain hex\ncodomain hex\nmap\n",
     "header", 2, 1, "repeated header key 'version'"),
    # A bad header value is reported at its token.
    ("version 2\ndomain hex\ncodomain hex\nmap\n", "header", 1, 9, "missing or unsupported 'version'"),
    ("version\t\t2\ndomain hex\ncodomain hex\nmap\n", "header", 1, 10, "missing or unsupported"),
    # An index int() refuses to convert, over 4300 digits, is reported by its length.
    (map_text(["v" + "9" * 5000 + " -> w0"]), "vertex", 5, 1,
     "vertex index written with 5000 digits out of range"),
    (map_text(["v0 ->  w" + "9" * 5000]), "vertex", 5, 8,
     "vertex index written with 5000 digits out of range"),
]


@pytest.mark.parametrize(
    "text,kind,line,col,message", MAP_ERRORS, ids=[f"{c[1]}-{i}" for i, c in enumerate(MAP_ERRORS)]
)
def test_map_parse_errors(text, kind, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_map_text(text, resolve)
    assert (err.value.kind, err.value.line, err.value.col) == (kind, line, col)
    assert str(err.value).startswith(f"line {line}, col {col}: {message}")


@pytest.mark.parametrize(
    "header",
    [
        "version\t1\ndomain\thex\ncodomain\thex\n",
        "version 1\ndomain \t hex\t\ncodomain\t\thex\n",
        " \tversion\t1  \ndomain hex\t# a comment\ncodomain hex\n",
    ],
    ids=["tabs", "spaces-and-tabs", "indent-and-comment"],
)
def test_map_header_key_and_value_may_be_separated_by_tabs(header):
    text = header + "map\n" + "".join(line + "\n" for line in IDENTITY)
    assert parse_map_text(text, resolve) == parse_map_text(map_text(IDENTITY), resolve)


def test_map_header_value_is_the_rest_of_the_line():
    refs = []

    def recording(ref):
        refs.append(ref)
        return resolve("hex")

    header = "version 1\ndomain\t/data/a b.space \ncodomain  l1sum(hex, l1:1)\t\nmap\n"
    parse_map_text(header + "".join(line + "\n" for line in IDENTITY), recording)
    assert refs == ["/data/a b.space", "l1sum(hex, l1:1)"]


@pytest.mark.parametrize(
    "read",
    [parse_space_file, lambda p: parse_map_file(p, resolve)],
    ids=["space", "map"],
)
def test_file_that_is_not_utf8_is_an_encoding_error(tmp_path, read):
    path = tmp_path / "f.txt"
    path.write_bytes(b"version 1\n\xc3\xa9 ok\nab\xff\n")
    with pytest.raises(ParseError) as err:
        read(path)
    assert (err.value.kind, err.value.line, err.value.col) == ("encoding", 3, 3)
    assert str(err.value) == "line 3, col 3: byte 0xff is not valid UTF-8"


BOM = b"\xef\xbb\xbf"
ROTATION = map_text(["v0 -> w1", "v1 -> w3", "v2 -> w0", "v3 -> w5", "v4 -> w2", "v5 -> w4"])


@pytest.mark.parametrize(
    "read,text",
    [(parse_space_file, HEX_H), (lambda p: parse_map_file(p, resolve), ROTATION)],
    ids=["space", "map"],
)
def test_leading_byte_order_mark_is_ignored(tmp_path, read, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(BOM + text.encode("utf-8"))
    assert read(marked) == read(plain)


@pytest.mark.parametrize(
    "data,line,col,byte",
    [(BOM + b"ab\xff\n", 1, 3, 0xFF), (BOM + b"version 1\n\xc3\xa9 ok\nab\xfe\n", 3, 3, 0xFE)],
    ids=["first-line", "third-line"],
)
def test_invalid_byte_after_a_byte_order_mark_is_named(tmp_path, data, line, col, byte):
    path = tmp_path / "f.space"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        parse_space_file(path)
    assert (err.value.kind, err.value.line, err.value.col) == ("encoding", line, col)
    assert str(err.value) == f"line {line}, col {col}: byte 0x{byte:02x} is not valid UTF-8"


@pytest.mark.parametrize("flag", ["True", "TRUE", "true"])
def test_symmetric_flag_is_case_insensitive(flag):
    assert parse_space_text(HEX_H.replace("symmetric true", f"symmetric {flag}")) == hexagon_space()


def test_name_is_the_rest_of_the_line():
    text = HEX_H.replace("name hexagon", "name  my\tnamed space  # comment")
    assert parse_space_text(text).name == "my\tnamed space"


@pytest.mark.parametrize("name", ["my space", "l1sum(/data/a b.space,l1:1)", "x -> y", "version"])
def test_serialized_name_reads_back(name):
    space = l1_space(2)
    space.name = name
    for kind in ("H", "V"):
        again = parse_space_text(serialize_space(space, kind))
        assert (again, again.name) == (space, name)


@pytest.mark.parametrize("name", ["a#b", " a", "a ", "a\nb", "a\rb", "a\u2028b"])
def test_name_that_cannot_be_written_back_is_rejected(name):
    space = hexagon_space()
    space.name = name
    with pytest.raises(ValueError, match="cannot be written to a space file"):
        serialize_space(space)


def test_file_name_is_the_default_label(tmp_path):
    path = tmp_path / "a b.space"
    path.write_text(HEX_H.replace("name hexagon\n", ""), encoding="utf-8")
    assert parse_space_file(path).name == str(path)
    path.write_text(HEX_H, encoding="utf-8")
    assert parse_space_file(path).name == "hexagon"


@pytest.mark.parametrize(
    "text",
    [HEX_H, serialize_space(hexagon_space(), "V"), serialize_space(l1_space(3), "H")],
    ids=["hex-H-symmetrized", "hex-V", "l1:3-H"],
)
def test_each_data_token_is_converted_once(monkeypatch, text):
    """The parser reads each data token to its integers once, and hands the
    builders' body integer rows: no token becomes a Fraction on the way,
    and no Fraction is scaled back to integers."""
    calls = {"reader": [], "as_fraction": 0, "integer_rows": 0}
    read = formats._rational_parts

    def reading(value):
        calls["reader"].append(value)
        return read(value)

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(formats, "_rational_parts", reading)
    monkeypatch.setattr(space_module, "as_fraction",
                        counted("as_fraction", space_module.as_fraction))
    monkeypatch.setattr(linalg, "integer_rows", counted("integer_rows", linalg.integer_rows))
    parse_space_text(text)
    data = [line for line in text.splitlines() if line[:1].isdigit() or line[:1] == "-"]
    tokens = [token for line in data for token in line.split()]
    assert calls == {"reader": tokens, "as_fraction": 0, "integer_rows": 0}


@st.composite
def written_rows(draw):
    """Rational rows in dim 2 or 3, closed under negation or not, with each
    entry written as a file may write it: unreduced, signed or not, and a
    zero as ``0/7``. Returns the dimension, the rows and their lines."""
    dim = draw(st.sampled_from((2, 3)))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=5))
    if draw(st.booleans()):
        rows += [tuple(-c for c in r) for r in rows]
    rows = draw(st.permutations(rows))

    def token(x):
        k = draw(st.sampled_from((1, 2, 3, 7)))
        n, d = x.numerator * k, x.denominator * k
        sign = "+" if n >= 0 and draw(st.booleans()) else ""
        return f"{sign}{n}" if d == 1 and draw(st.booleans()) else f"{sign}{n}/{d}"

    return dim, rows, [" ".join(token(c) for c in r) for r in rows]


def built_outcome(build):
    """Every field the outputs digest reads with the CL and T report reprs,
    or the error's type, message and direction."""
    try:
        space = build()
    except GeometryError as err:
        return type(err), str(err), getattr(err, "direction", None)
    fields = {field: getattr(space, field) for field in DIGEST_FIELDS}
    fields["hrep"] = [(type(f), f._row) for f in space.hrep]
    fields["vrep"] = [(type(v), v._row) for v in space.vrep]
    return fields, repr(check_cl(space)), repr(check_t_property(space))


@settings(max_examples=60, deadline=None)
@given(written_rows(), st.sampled_from("HV"), st.booleans())
def test_file_rows_build_the_space_their_fractions_build(case, kind, symmetric):
    """A file gives what its builder gives on the same Fractions, however
    the tokens are written; without ``symmetric true``, the builder's
    asymmetry is reported at the file's first row that lacks its negation."""
    dim, rows, lines = case
    head = f"version 1\ndim {dim}\nkind {kind}\nsymmetric {str(symmetric).lower()}\n"
    build = PolyhedralSpace.from_functionals if kind == "H" else PolyhedralSpace.from_vertices
    expected = built_outcome(lambda: build(rows, symmetrize=symmetric))
    if expected[0] is AsymmetricInputError and not symmetric:
        present = set(rows)
        first = next(i for i, r in enumerate(rows) if tuple(-c for c in r) not in present)
        message = "row lacks its negation and 'symmetric true' is not set"
        expected = ParseError, f"line {first + 5}, col 1: {message}", None
    assert built_outcome(lambda: parse_space_text(head + "\n".join(lines) + "\n")) == expected
