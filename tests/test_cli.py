"""The command-line contract: stdout bytes and exit codes of fixed commands.

``CASES`` with ``tests/cli_expected/`` is the one statement of this
contract. CI does not copy it: its console-script step only checks that
the installed ``polysphere`` entry point runs, and the cases themselves
run here, on every Python version of the CI matrix.

Each case runs ``cli.main`` in process and compares its stdout, byte for
byte, with ``tests/cli_expected/<case>.txt``. Input files are written to a
temporary directory; every space a report names gets a ``name`` header, so
no temporary path reaches stdout.
"""

import contextlib
import io
from pathlib import Path

import pytest

from polysphere import cli

EXPECTED = Path(__file__).parent / "cli_expected"

# A hexagon without the T-property: the two-sided distance value at vertex
# (-4/3, -5/2) for facet f0 is 2291/1128 > 2, a refutation (exit 1).
FAILING_HEXAGON_SPACE = """version 1
name failing-hexagon
dim 2
kind V
2 5/3
-2 -5/3
4/3 5/2
-4/3 -5/2
4/3 -3/2
-4/3 3/2
"""

# The rotation of the hexagon by one facet, a linear symmetry.
HEX_ROTATION_MAP = """version 1
domain hex
codomain hex
map
v0 -> w1
v1 -> w3
v2 -> w0
v3 -> w5
v4 -> w2
v5 -> w4
"""

# The hexagon with the vertex pair +-(1/2, 1) moved to +-(1/4, 1). The face
# lattice is unchanged, so the identity correspondence preserves facets but
# not distances.
MOVED_HEX_SPACE = """version 1
name moved-hex
dim 2
kind V
1 0
-1 0
1/4 1
-1/4 -1
-1/2 1
1/2 -1
"""

MOVED_HEX_MAP = """version 1
domain hex
codomain {codomain}
map
(-1, 0) -> (-1, 0)
(-1/2, -1) -> (-1/4, -1)
(-1/2, 1) -> (-1/2, 1)
(1/2, -1) -> (1/2, -1)
(1/2, 1) -> (1/4, 1)
(1, 0) -> (1, 0)
"""

# The hexagon's image under the shear [[1, 1/3], [0, 1/2]], and the map
# from the hexagon onto it. Its vertex rows have scale 6 and the hexagon's
# scale 2, so images and vertex agreement are compared across two scales.
# The map names the space by a path relative to the map file.
SHEARED_HEX_SPACE = """version 1
name sheared-hex
dim 2
kind V
1 0
-1 0
5/6 1/2
-5/6 -1/2
-1/6 1/2
1/6 -1/2
"""

SHEARED_HEX_MAP = """version 1
domain hex
codomain sheared-hex.space
map
(1, 0) -> (1, 0)
(-1, 0) -> (-1, 0)
(1/2, 1) -> (5/6, 1/2)
(-1/2, -1) -> (-5/6, -1/2)
(-1/2, 1) -> (-1/6, 1/2)
(1/2, -1) -> (1/6, -1/2)
"""

# The signed permutation (x, y, z) -> (-y, z, -x) of the cube. The cube's
# facets are squares, whose two diagonal midpoints are the barycenter, so
# the sampled pass drops repeated samples.
LINF3_SIGNED_PERMUTATION_MAP = """version 1
domain linf:3
codomain linf:3
map
(1, 1, 1) -> (-1, 1, -1)
(1, 1, -1) -> (-1, -1, -1)
(1, -1, 1) -> (1, 1, -1)
(1, -1, -1) -> (1, -1, -1)
(-1, 1, 1) -> (-1, 1, 1)
(-1, 1, -1) -> (-1, -1, 1)
(-1, -1, 1) -> (1, 1, 1)
(-1, -1, -1) -> (1, -1, 1)
"""

# The cube with three redundant rows, closed under negation by the header:
# 1/2 1/2 0 touches the ball along an edge, 1/3 1/3 1/3 at a vertex, and
# 1/4 0 0 nowhere. Only the six cube facets are kept.
REDUNDANT_ROWS_SPACE = """version 1
name redundant-rows
dim 3
kind H
symmetric true
1 0 0
0 1 0
0 0 1
1/2 1/2 0
1/3 1/3 1/3
1/4 0 0
"""

# A dim-3 V-file with redundant points, closed under negation by the
# header: 1/3 1/3 0 is interior, 2/4 0 0 is an interior point written
# unreduced, and 0 1 0 is repeated. The hull has 8 vertices and 12 facets,
# most with fractional functionals.
REDUNDANT_POINTS_SPACE = """version 1
name redundant-points
dim 3
kind V
symmetric true
3/2 0 0
0 1 0
0 0 1
1/2 1/2 1/2
1/3 1/3 0
2/4 0 0
0 1 0
"""

MALFORMED_SPACE = """version 1
name broken
dim 2
kind H
0 1
0 -1
1 1/2 7
"""


def run_cli(argv):
    """Run the command line in process; returns (exit code, stdout bytes, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _moved_map(directory: Path) -> str:
    codomain = _write(directory, "moved-hex.space", MOVED_HEX_SPACE)
    return _write(directory, "moved.map", MOVED_HEX_MAP.format(codomain=codomain))


def _sheared_map(directory: Path) -> str:
    _write(directory, "sheared-hex.space", SHEARED_HEX_SPACE)
    return _write(directory, "sheared.map", SHEARED_HEX_MAP)


# (case name, argv built from a scratch directory, expected exit code)
CASES = [
    ("facets_hex", lambda d: ["facets", "hex"], 0),
    ("star_hex", lambda d: ["star", "hex", "3/4,1/2"], 0),
    ("star_linf3_corner", lambda d: ["star", "linf:3", "1,1,1"], 0),
    ("star_hex_negative_first_coordinate", lambda d: ["star", "hex", "-1,0"], 0),
    ("check_cl_linf3_decompose", lambda d: ["check-cl", "linf:3", "--decompose", "1,0,0"], 0),
    (
        "check_cl_linf3_decompose_negative_first_coordinate",
        lambda d: ["check-cl", "linf:3", "--decompose", "-1,0,0"],
        0,
    ),
    ("check_cl_hex", lambda d: ["check-cl", "hex"], 1),
    ("check_cl_linfsum_hex_linf_1", lambda d: ["check-cl", "linfsum(hex,linf:1)"], 1),
    ("check_t_hex", lambda d: ["check-t", "hex"], 0),
    ("check_t_l1sum_hex_l1_1", lambda d: ["check-t", "l1sum(hex,l1:1)"], 0),
    (
        "check_t_failing_hexagon",
        lambda d: ["check-t", _write(d, "failing-hex.space", FAILING_HEXAGON_SPACE)],
        1,
    ),
    ("verify_iso_hex_rotation", lambda d: ["verify-iso", _write(d, "rot.map", HEX_ROTATION_MAP)], 0),
    ("extend_hex_rotation", lambda d: ["extend", _write(d, "rot.map", HEX_ROTATION_MAP)], 0),
    ("verify_iso_moved_vertex", lambda d: ["verify-iso", _moved_map(d)], 1),
    ("extend_moved_vertex", lambda d: ["extend", _moved_map(d)], 1),
    ("verify_iso_sheared_hex", lambda d: ["verify-iso", _sheared_map(d)], 0),
    ("extend_sheared_hex", lambda d: ["extend", _sheared_map(d)], 0),
    (
        "verify_iso_linf3_signed_permutation",
        lambda d: ["verify-iso", _write(d, "cube.map", LINF3_SIGNED_PERMUTATION_MAP)],
        0,
    ),
    (
        "extend_linf3_signed_permutation",
        lambda d: ["extend", _write(d, "cube.map", LINF3_SIGNED_PERMUTATION_MAP)],
        0,
    ),
    (
        "facets_redundant_rows",
        lambda d: ["facets", _write(d, "redundant.space", REDUNDANT_ROWS_SPACE)],
        0,
    ),
    (
        "facets_redundant_points",
        lambda d: ["facets", _write(d, "points.space", REDUNDANT_POINTS_SPACE)],
        0,
    ),
    ("sum_l1_hex_l1_1", lambda d: ["sum", "l1", "hex", "l1:1"], 0),
    ("sum_linf_hex_l1_1", lambda d: ["sum", "linf", "hex", "l1:1"], 0),
    ("render_hex", lambda d: ["render", "hex"], 0),
    ("render_linf3", lambda d: ["render", "linf:3"], 0),
    ("catalog", lambda d: ["catalog"], 0),
    ("facets_unknown_name", lambda d: ["facets", "nosuchspace"], 64),
    ("facets_malformed_file", lambda d: ["facets", _write(d, "bad.space", MALFORMED_SPACE)], 64),
]


@pytest.mark.parametrize("name,make_argv,code", CASES, ids=[c[0] for c in CASES])
def test_stdout_and_exit_code_are_pinned(tmp_path, name, make_argv, code):
    got_code, got_out, got_err = run_cli(make_argv(tmp_path))
    assert got_code == code
    assert got_out == (EXPECTED / f"{name}.txt").read_bytes()
    assert "Traceback" not in got_err
    if code == 64:
        assert got_err
