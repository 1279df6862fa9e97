"""Command-line behaviour on inputs that used to end in the wrong exit code,
a traceback, or malformed output."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysphere
from polysphere import hexagon_space
from polysphere.formats import serialize_space
from test_cli import EXPECTED, HEX_ROTATION_MAP, run_cli

SWAPPED_HEX_MAP = """version 1
domain hex
codomain hex
map
v0 -> w2
v1 -> w1
v2 -> w0
v3 -> w3
v4 -> w4
v5 -> w5
"""

HEX_TO_CROSS_MAP = """version 1
domain hex
codomain l1:3
map
""" + "".join(f"v{i} -> w{i}\n" for i in range(6))


@pytest.mark.parametrize(
    "text,codomain",
    [(SWAPPED_HEX_MAP, "hex: dim 2, 6 facets"), (HEX_TO_CROSS_MAP, "l1:3: dim 3, 8 facets")],
    ids=["swapped-hex", "hex-to-l1_3"],
)
def test_map_that_breaks_facets_fails_verification(tmp_path, text, codomain):
    path = tmp_path / "m.map"
    path.write_text(text, encoding="utf-8")
    reason = "vertex images of facet 0 do not form a codomain facet"

    code, out, err = run_cli(["verify-iso", str(path)])
    assert (code, err) == (1, "")
    lines = out.decode().splitlines()
    assert lines[1].startswith(f"codomain: {codomain}")
    assert lines[2] == f"VERDICT: rejected: isometry failure: {reason}"

    code, out, err = run_cli(["extend", str(path)])
    assert (code, err) == (1, "")
    assert out.decode().splitlines()[0] == f"VERDICT: not an isometry: {reason}"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-cl", "linf:3", "--decompose", "1,0,0", "--eps", "0"],
        ["render", "hex", "--seed", "0"],
        ["facets", "hex", "--max-dim", "6"],
        ["check-t", "hex", "--candidates", "X"],
        ["render", "hex", "--candidates", "X"],
        ["verify-iso", "MAP", "--seed", "0"],
        ["extend", "MAP", "--seed", "0"],
    ],
    ids=[
        "check-cl-eps", "render-seed", "max-dim", "check-t-candidates", "render-candidates",
        "verify-iso-seed", "extend-seed",
    ],
)
def test_removed_options_are_usage_errors(tmp_path, argv):
    """MAP stands for a map file that verifies, so only the option fails."""
    path = tmp_path / "rot.map"
    path.write_text(HEX_ROTATION_MAP, encoding="utf-8")
    code, out, err = run_cli([str(path) if a == "MAP" else a for a in argv])
    assert (code, out) == (64, b"")
    assert err.startswith("usage error: unrecognized arguments")


def test_point_with_a_negative_first_coordinate_reads_as_after_double_dash():
    """A token of '-' and a digit is a point (the pinned case
    ``star_hex_negative_first_coordinate``), read as it is after '--'."""
    expected = (EXPECTED / "star_hex_negative_first_coordinate.txt").read_bytes()
    assert run_cli(["star", "hex", "--", "-1,0"]) == (0, expected, "")
    code, out, err = run_cli(["star", "hex", "-1/2,-1"])
    assert (code, err) == (0, "")
    assert out.decode().startswith("star of (-1/2, -1) in hex")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["star", "hex", "--bogus"], "the following arguments are required: point"),
        (["star", "hex", "-1,0", "--bogus"], "unrecognized arguments: --bogus"),
        (["star", "hex", "-x", "-1,0"], "unrecognized arguments: -x"),
        (["check-cl", "linf:3", "--decompose", "--bogus"], "argument --decompose: expected one argument"),
    ],
    ids=["star-alone", "star-after-point", "star-letter", "decompose"],
)
def test_unknown_option_is_still_a_usage_error(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (64, b"")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("space", ["hex", "l1:6"])
def test_closed_stdout_ends_without_traceback(space):
    # The read end is closed before the child starts, so its first write to
    # stdout (or the final flush, for output that fits the buffer) fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(polysphere.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "polysphere.cli", "facets", space],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


SPACE_2D = "version 1\nname a<b&c\ndim 2\nkind H\nsymmetric true\n0 1\n1 1/2\n1 -1/2\n"
SPACE_3D = "version 1\nname a<b&c\ndim 3\nkind H\nsymmetric true\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.mark.parametrize("text", [SPACE_2D, SPACE_3D], ids=["2d-sphere", "incidence-graph"])
def test_svg_escapes_text(tmp_path, text):
    path = tmp_path / "s.space"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["render", str(path)])
    assert (code, err) == (0, "")
    root = ET.fromstring(out)
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert any(t.startswith("a<b&c: dim ") for t in texts)


@pytest.mark.parametrize(
    "point,message",
    [
        ("5,5,5", "usage error: --decompose point (5, 5, 5) is not on the sphere"),
        ("1/0,0,0", "usage error: zero denominator in '1/0'"),
        ("1,0", "usage error: point needs 3 coordinates, got 2"),
    ],
    ids=["off-sphere", "zero-denominator", "wrong-length"],
)
def test_bad_decompose_point_is_rejected_before_any_output(point, message):
    code, out, err = run_cli(["check-cl", "linf:3", "--decompose", point])
    assert (code, out) == (64, b"")
    assert err == message + "\n"


# A directory stands for any path that exists but cannot be read or written.
@pytest.mark.parametrize(
    "make_argv",
    [
        lambda d: ["facets", d],
        lambda d: ["verify-iso", d],
        lambda d: ["sum", "l1", "hex", "l1:1", "--out", d],
        lambda d: ["render", "hex", "--svg", d],
    ],
    ids=["facets", "verify-iso", "sum-out", "render-svg"],
)
def test_os_error_is_a_usage_error(tmp_path, make_argv):
    code, out, err = run_cli(make_argv(str(tmp_path)))
    assert (code, out) == (64, b"")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "s.space"
    path.write_bytes(b"version 1\nname caf\xff\ndim 2\nkind H\n")
    code, out, err = run_cli(["facets", str(path)])
    assert (code, out) == (64, b"")
    assert err == "parse error: line 2, col 9: byte 0xff is not valid UTF-8\n"


@pytest.mark.parametrize(
    "header, where",
    [
        ("domain {}\ncodomain hex", "line 2, col 8: domain"),
        ("domain hex\n  codomain   {}  # c", "line 3, col 14: codomain"),
    ],
    ids=["domain", "codomain"],
)
def test_bad_space_file_named_by_a_map_is_reported_at_its_reference(tmp_path, header, where):
    """The error is placed at the map's domain or codomain value, and names
    the space file and the position inside it."""
    space = tmp_path / "bad.space"
    space.write_text("version 1\ndim 2\nkind V\n1 0.5\n-1 -1/2\n0 1\n0 -1\n", encoding="utf-8")
    path = tmp_path / "nested.map"
    path.write_text(f"version 1\n{header.format(space)}\nmap\nv0 -> w0\n", encoding="utf-8")
    code, out, err = run_cli(["verify-iso", str(path)])
    assert (code, out) == (64, b"")
    assert err == f"parse error: {where} '{space}': line 4, col 3: decimal tokens are not accepted\n"


def test_sum_file_reads_back_under_a_name_with_spaces(tmp_path):
    path = tmp_path / "s.space"
    code, out, err = run_cli(["sum", "l1", "hex", "l1:1", "--name", "my space", "--out", str(path)])
    assert (code, err) == (0, "")
    code, out, err = run_cli(["facets", str(path)])
    assert (code, err) == (0, "")
    assert out.decode().startswith("my space: dim 3, 12 facets")


def test_default_sum_name_from_a_path_with_a_space_reads_back(tmp_path):
    operand = tmp_path / "my dir" / "a.space"
    operand.parent.mkdir()
    operand.write_text("version 1\ndim 1\nkind V\n1\n-1\n", encoding="utf-8")
    path = tmp_path / "s.space"
    code, out, err = run_cli(["sum", "linf", str(operand), "hex", "--out", str(path)])
    assert (code, err) == (0, "")
    code, out, err = run_cli(["facets", str(path)])
    assert (code, err) == (0, "")
    assert out.decode().startswith(f"linfsum({operand},hex): dim 3")


def test_sum_name_that_cannot_be_written_back_is_rejected(tmp_path):
    path = tmp_path / "s.space"
    code, out, err = run_cli(["sum", "l1", "hex", "l1:1", "--name", "a#b", "--out", str(path)])
    assert (code, out) == (64, b"")
    assert err.startswith("usage error: space name 'a#b' cannot be written to a space file")
    assert err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sum", "l1", "l1:4", "l1:3"], "error: dimension 7 exceeds the enumeration cap of 6"),
        (["sum", "linf", "linf:6", "hex"], "error: dimension 8 exceeds the enumeration cap of 6"),
        (["star", "hex", "2,0"], "error: (2, 0) has norm 2, expected 1"),
        (["star", "hex", "1,0,0"], "usage error: point needs 2 coordinates, got 3"),
        (["sum", "l1", "hex", "l1sum(hex,hex)"], "error: 216 rows exceed the cap of 200"),
        (
            ["facets", "l1sum(hex,l1sum(hex,hex))"],
            "usage error: 'l1sum(hex,l1sum(hex,hex))' is neither a file nor a catalog expression"
            " (216 rows exceed the cap of 200)",
        ),
    ],
    ids=[
        "sum-dim-7", "sum-dim-8", "star-off-sphere", "star-wrong-length", "sum-rows-216",
        "facets-rows-216",
    ],
)
def test_failing_sum_and_star_exit_64_with_one_line(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (64, b"")
    assert err == message + "\n"


DEEP_SUM = "l1sum(l1:1," * 1000 + "l1:1" + ")" * 1000


@pytest.mark.parametrize("command", ["facets", "verify-iso"])
def test_deeply_nested_catalog_expression_exits_64_with_one_line(tmp_path, command):
    """A sum nested 1000 deep, given as a space or as a map's domain, is
    rejected at its sixth nested sum, not by a stack overflow."""
    argv = [command, DEEP_SUM]
    if command == "verify-iso":
        path = tmp_path / "deep.map"
        path.write_text(HEX_ROTATION_MAP.replace("domain hex", f"domain {DEEP_SUM}"), encoding="utf-8")
        argv = [command, str(path)]
    code, out, err = run_cli(argv)
    assert (code, out) == (64, b"")
    assert err == (
        f"usage error: {DEEP_SUM[:60]!r} (first 60 of {len(DEEP_SUM)} characters) is neither"
        " a file nor a catalog expression"
        " (sums nested 6 deep at position 55 exceed the enumeration cap of 6)\n"
    )


def test_reference_that_fits_is_echoed_whole():
    ref = "l1sum(hex," * 5 + "squar" + ")" * 5
    assert len(ref) == 60
    code, out, err = run_cli(["facets", ref])
    assert (code, out) == (64, b"")
    assert err == (
        f"usage error: {ref!r} is neither a file nor a catalog expression"
        " (unknown catalog name at position 50 in " + repr(ref) + ")\n"
    )


NINES = "9" * 5000


@pytest.mark.parametrize("where", ["argument", "map-domain", "map-line"])
def test_integer_too_long_to_convert_exits_64_with_one_line(tmp_path, where):
    """int() refuses more than 4300 digits; a dimension or a vertex index
    that long is bad input, reported without converting it."""
    ref = f"l1:{NINES}"
    message = (
        f"usage error: {ref[:60]!r} (first 60 of 5003 characters) is neither a file nor a"
        " catalog expression (dimension written with 5000 digits outside the supported"
        " range 1..6)\n"
    )
    argv = ["facets", ref]
    if where != "argument":
        text = HEX_ROTATION_MAP.replace("domain hex", f"domain {ref}")
        if where == "map-line":
            text = HEX_ROTATION_MAP.replace("v0 -> w1", f"v{NINES} -> w1")
            message = "parse error: line 5, col 1: vertex index written with 5000 digits out of range\n"
        path = tmp_path / "big.map"
        path.write_text(text, encoding="utf-8")
        argv = ["verify-iso", str(path)]
    code, out, err = run_cli(argv)
    assert (code, out) == (64, b"")
    assert err == message


def assert_one_short_line(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (64, b"")
    assert err == message
    assert err.count("\n") == 1 and len(err.encode("utf-8")) < 300


def echo_of(text):
    return f"{text[:60]!r} (first 60 of {len(text)} characters)"


def test_long_malformed_catalog_expression_exits_64_with_one_short_line():
    """The catalog parser's own message quotes the expression as the echo
    of the reference does, so it stays short too."""
    ref = "hex" + " x" * 3000
    assert_one_short_line(
        ["facets", ref],
        f"usage error: {echo_of(ref)} is neither a file nor a catalog expression"
        f" (trailing input at position 4 in {echo_of(ref)})\n",
    )


def test_long_coordinate_in_a_space_file_exits_64_with_one_short_line(tmp_path):
    """int() refuses the valid integer, so it is named by its digit count."""
    path = tmp_path / "big.space"
    path.write_text(f"version 1\ndim 2\nkind H\nsymmetric true\n{NINES} 0\n0 1\n", encoding="utf-8")
    assert_one_short_line(
        ["facets", str(path)],
        "parse error: line 5, col 1: integer written with 5000 digits is too long\n",
    )


@pytest.mark.parametrize("point", [f"{NINES},0", f"0,1/{NINES}"], ids=["numerator", "denominator"])
def test_long_integer_in_a_point_exits_64_without_an_interpreter_hint(point):
    assert_one_short_line(
        ["star", "hex", point], "usage error: integer written with 5000 digits is too long\n"
    )


@pytest.mark.parametrize("where", ["map-line", "map-header", "space-header", "star-point"])
def test_long_bad_token_exits_64_with_one_short_line(tmp_path, where):
    token = "x" * 5000
    if where.startswith("map"):
        path = tmp_path / "bad.map"
        if where == "map-line":
            text = HEX_ROTATION_MAP.replace("v0 -> w1", f"{token} -> w1")
            message = f"parse error: line 5, col 1: bad vertex reference {echo_of(token)}\n"
        else:
            text = HEX_ROTATION_MAP.replace("codomain hex", token)
            message = f"parse error: line 3, col 1: unexpected header line {echo_of(token)}\n"
        path.write_text(text, encoding="utf-8")
        argv = ["verify-iso", str(path)]
    elif where == "space-header":
        path = tmp_path / "bad.space"
        path.write_text(f"version 1\n{token} 2\n", encoding="utf-8")
        argv = ["facets", str(path)]
        message = f"parse error: line 2, col 1: unknown header key {echo_of(token)}\n"
    else:
        argv = ["star", "hex", f"{token},0"]
        message = f"usage error: not an exact rational token: {echo_of(token)}\n"
    assert_one_short_line(argv, message)


@pytest.mark.parametrize("map_arg", ["absolute", "relative"])
@pytest.mark.parametrize(
    "header",
    ["domain spaces/hexagon.space\ncodomain hex", "domain hex\ncodomain spaces/hexagon.space"],
    ids=["domain", "codomain"],
)
@pytest.mark.parametrize("command", ["verify-iso", "extend"])
def test_space_file_named_by_a_map_is_read_from_the_map_directory(
    tmp_path, monkeypatch, command, header, map_arg
):
    """A relative space-file reference in a map resolves against the map
    file's directory, whatever the working directory is; the report is the
    one for the catalog hexagon."""
    maps = tmp_path / "maps"
    (maps / "spaces").mkdir(parents=True)
    (maps / "spaces" / "hexagon.space").write_text(
        serialize_space(hexagon_space(), kind="V"), encoding="utf-8"
    )
    path = maps / "rot.map"
    path.write_text(HEX_ROTATION_MAP.replace("domain hex\ncodomain hex", header), encoding="utf-8")
    if map_arg == "absolute":
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        argv = [command, str(path)]
    else:
        monkeypatch.chdir(tmp_path)
        argv = [command, os.path.join("maps", "rot.map")]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    case = "verify_iso_hex_rotation" if command == "verify-iso" else "extend_hex_rotation"
    assert out == (EXPECTED / f"{case}.txt").read_bytes()


def test_space_file_beside_the_working_directory_is_not_read_for_a_map(tmp_path, monkeypatch):
    """The working directory no longer stands in for the map's directory."""
    (tmp_path / "hexagon.space").write_text(
        serialize_space(hexagon_space(), kind="V"), encoding="utf-8"
    )
    (tmp_path / "maps").mkdir()
    path = tmp_path / "maps" / "rot.map"
    path.write_text(
        HEX_ROTATION_MAP.replace("domain hex", "domain hexagon.space", 1), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["verify-iso", str(path)])
    assert (code, out) == (64, b"")
    assert err.startswith("usage error: 'hexagon.space' is neither a file nor a catalog expression")


# The tokens of edited lines: rationals, a zero denominator, decimal and
# exponent forms, a non-ASCII digit, header keys and values, the map arrow,
# whole and broken coordinate tuples, an out-of-range vertex and a comment.
EDIT_TOKENS = [
    "0", "1", "-1", "1/2", "-3/4", "5/3", "1/0", "1.5", "1e3", "\u0663",
    "version", "name", "dim", "kind", "symmetric", "true", "V", "H", "domain", "codomain",
    "map", "hex", "->", "(1, 0)", "(-1/2, 1)", "(1/2,", "v9", "w1", "#",
]
EDITED_COMMANDS = [
    ["facets", "SPACE"], ["check-cl", "SPACE"], ["check-t", "SPACE"], ["star", "SPACE", "1,0"],
    ["render", "SPACE"], ["sum", "l1", "SPACE", "hex"], ["verify-iso", "MAP"], ["extend", "MAP"],
]


def edit_lines(text, edits):
    """``text`` with each (op, index, tokens) edit applied to its lines in turn."""
    lines = text.splitlines()
    for op, index, tokens in edits:
        new = " ".join(tokens)
        if op == "insert":
            lines.insert(index % (len(lines) + 1), new)
        elif not lines:
            continue
        elif op == "replace":
            lines[index % len(lines)] = new
        elif op == "delete":
            del lines[index % len(lines)]
        else:
            lines[index % len(lines)] += " " + new
    return "".join(line + "\n" for line in lines)


line_edits = st.tuples(
    st.sampled_from(["SPACE", "MAP"]),
    st.sampled_from(["replace", "insert", "delete", "extend"]),
    st.integers(0, 15),
    st.lists(st.sampled_from(EDIT_TOKENS), min_size=1, max_size=4),
)


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edited")


# Each case builds the argument parser anew, most of its cost; 240 cases
# keep the test near one second.
@settings(max_examples=240, deadline=None)
@given(edits=st.lists(line_edits, max_size=4), argv=st.sampled_from(EDITED_COMMANDS))
def test_edited_hexagon_files_exit_0_1_or_64(edit_dir, edits, argv):
    """The hexagon space file and a rotation map read from it, with up to
    four lines replaced, inserted, deleted or extended: every command ends
    in exit 0, 1 or 64, and no exception escapes ``cli.main``."""
    paths = {"SPACE": edit_dir / "hexagon.space", "MAP": edit_dir / "rot.map"}
    texts = {
        "SPACE": serialize_space(hexagon_space(), kind="V"),
        "MAP": HEX_ROTATION_MAP.replace("domain hex", "domain hexagon.space"),
    }
    for name, path in paths.items():
        text = edit_lines(texts[name], [e[1:] for e in edits if e[0] == name])
        path.write_text(text, encoding="utf-8")
    code, _, _ = run_cli([str(paths[a]) if a in paths else a for a in argv])
    assert code in (0, 1, 64)
