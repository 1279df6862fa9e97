"""Command-line interface.

Subcommands: facets, star, check-cl, check-t, verify-iso, extend, sum,
render, catalog. Exit codes partition the outcomes:

    0   the property holds / the verification passed
    1   the property fails / a counterexample was found
    64  usage or parse error, or a file that cannot be read or written
    141 stdout was closed before the report was written (a broken pipe;
        the code a shell reports for a process ended by SIGPIPE)

A map file that parses but does not carry facets onto facets is a failed
verification (exit 1), not a parse error.

Space arguments are file paths when such a file exists, catalog
expressions otherwise (see ``polysphere catalog``). A relative space-file
path in a map file's ``domain`` or ``codomain`` line is read from the map
file's directory. Reports are plain deterministic text; rerunning a
command reproduces its bytes.
"""

import argparse
import os
import re
import sys

from . import catalog as cat
from .errors import GeometryError, NotOnSphereError, echo
from .formats import ParseError, parse_map_file, parse_space_file, serialize_space
from .isometry import extend as extend_map
from .isometry import verify_isometry
from .properties import check_cl, check_t_property, cl_decomposition
from .render import render_space_svg
from .space import PolyhedralSpace, Vector, as_fraction

OK = 0
FAIL = 1
USAGE = 64
BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token of '-' and a digit is a point, such as -1,0, and not an
        # option. argparse's own pattern takes only plain negative numbers
        # such as -1 or -1.5 as values; no option here starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise _UsageError(message)


def _load_space(ref: str, directory: str = "") -> PolyhedralSpace:
    """The space file ``ref``, relative to ``directory``, or else the catalog expression."""
    path = os.path.join(directory, ref)
    if os.path.exists(path):
        return parse_space_file(path)
    try:
        return cat.resolve(ref)
    except GeometryError as err:
        raise _UsageError(f"{echo(ref)} is neither a file nor a catalog expression ({err})") from err


def _load_map(path: str):
    directory = os.path.dirname(path)
    return parse_map_file(path, lambda ref: _load_space(ref, directory))


def _parse_point(text: str, dim: int) -> Vector:
    parts = text.replace(",", " ").split()
    if len(parts) != dim:
        raise _UsageError(f"point needs {dim} coordinates, got {len(parts)}")
    try:
        return Vector(as_fraction(p) for p in parts)
    except (ValueError, TypeError) as err:
        raise _UsageError(str(err)) from err


def _cmd_facets(args, out) -> int:
    space = _load_space(args.space)
    print(space.summary(), file=out)
    for fid, ids in enumerate(space.facet_index):
        verts = ", ".join(f"v{j} {space.vrep[j]}" for j in ids)
        print(f"facet f{fid}: functional {space.hrep[fid]}; vertices {verts}", file=out)
    return OK


def _cmd_star(args, out) -> int:
    space = _load_space(args.space)
    x = _parse_point(args.point, space.dim)
    norm = space.norm(x)
    if norm != 1:
        raise NotOnSphereError(f"{x} has norm {norm}, expected 1")
    # St(x) is the union of the facets active at x (see active_functional_ids).
    ids = space.active_functional_ids(x)
    print(f"star of {x} in {space.summary()}", file=out)
    for fid in ids:
        print(f"  f{fid} {space.hrep[fid]}", file=out)
    kind = "maximal convex (smooth point)" if len(ids) == 1 else "union of several facets"
    print(f"faces: {len(ids)} ({kind})", file=out)
    return OK


def _cmd_check_cl(args, out) -> int:
    space = _load_space(args.space)
    if args.decompose:
        x = _parse_point(args.decompose, space.dim)
        if space.norm(x) != 1:
            raise _UsageError(f"--decompose point {x} is not on the sphere")
    report = check_cl(space)
    print(space.summary(), file=out)
    for fv in report.facet_verdicts:
        if fv.ok:
            print(f"facet f{fv.facet_id}: ball = hull of facet and its negation over all vertices", file=out)
        else:
            print(f"facet f{fv.facet_id}: vertex {fv.failing_vertex} escapes the two-sided hull", file=out)
    if report.is_cl:
        print("VERDICT: CL holds (and almost-CL, which coincides for polytopes)", file=out)
        if args.decompose:
            for fid in range(len(space.hrep)):
                lam, y1, y2 = cl_decomposition(space, x, fid)
                print(f"decomposition over f{fid}: {x} = {lam}*{y1} + {1 - lam}*{y2}", file=out)
        return OK
    fid, v = report.counterexample
    print(f"VERDICT: not almost-CL; counterexample vertex {v} for facet f{fid}", file=out)
    return FAIL


def _cmd_check_t(args, out) -> int:
    space = _load_space(args.space)
    report = check_t_property(space)
    print(space.summary(), file=out)
    m = len(report.candidates)
    print(f"candidates ({m}):", file=out)
    for k, c in enumerate(report.candidates):
        print(f"  x{k} = {c}", file=out)
    # One record per (vertex, facet), vertex major: row j is records[j*m : (j+1)*m].
    print("two-sided distance values (rows: ball vertices, columns: candidates):", file=out)
    vw = max(18, *(len(str(v)) + 1 for v in space.vrep))
    cw = max(6, *(len(str(rec.value)) for rec in report.condition_iii))
    print("vertex".ljust(vw) + " ".join(f"x{k}".rjust(cw) for k in range(m)), file=out)
    for j, v in enumerate(space.vrep):
        row = report.condition_iii[j * m:(j + 1) * m]
        print(str(v).ljust(vw) + " ".join(str(rec.value).rjust(cw) for rec in row), file=out)
    sample = report.condition_iii[0]
    print(
        f"witness example: vertex {sample.vertex}, candidate x{sample.candidate_index}: "
        f"y+ = {sample.witness_plus}, y- = {sample.witness_minus}, value {sample.value}",
        file=out,
    )
    if report.holds:
        print("VERDICT: T-property holds", file=out)
        return OK
    bad = report.violation
    print(
        f"VERDICT: T-property fails: vertex {bad.vertex}, facet f{bad.candidate_index}, value {bad.value}",
        file=out,
    )
    return FAIL


def _cmd_verify_iso(args, out) -> int:
    m = _load_map(args.map)
    report = verify_isometry(m)
    print(f"domain:   {m.domain.summary()}", file=out)
    print(f"codomain: {m.codomain.summary()}", file=out)
    if report.passed:
        print("VERDICT: surjective isometry verified", file=out)
        return OK
    kind = "malformed map (invariant violation)" if report.malformed else "isometry failure"
    print(f"VERDICT: rejected: {kind}: {report.reason}", file=out)
    if report.counterexample is not None:
        parts = ", ".join(str(c) for c in report.counterexample)
        print(f"counterexample: {parts}", file=out)
    return FAIL


def _cmd_extend(args, out) -> int:
    m = _load_map(args.map)
    report = verify_isometry(m)
    if not report.passed:
        print(f"VERDICT: not an isometry: {report.reason}", file=out)
        if report.counterexample is not None:
            print(f"counterexample: {', '.join(str(c) for c in report.counterexample)}", file=out)
        return FAIL
    try:
        cert = extend_map(m)
    except GeometryError as err:
        print(f"VERDICT: extension failed: {err}", file=out)
        return FAIL
    print("linear extension matrix (rows):", file=out)
    for row in cert.matrix:
        print("  [" + ", ".join(str(c) for c in row) + "]", file=out)
    print("transported functional pairs:", file=out)
    for f, g in cert.functional_pairs:
        print(f"  {f} -> {g}", file=out)
    print("checks: vertex agreement ok; functional transport ok", file=out)
    print("VERDICT: extension certified", file=out)
    return OK


def _cmd_sum(args, out) -> int:
    a = _load_space(args.a)
    b = _load_space(args.b)
    builder = cat.l1_sum if args.kind == "l1" else cat.linf_sum
    space = builder(a, b, name=args.name)
    try:
        text = serialize_space(space, kind="V")
    except ValueError as err:
        raise _UsageError(str(err)) from err
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {space.summary()} to {args.out}", file=out)
    else:
        out.write(text)
    return OK


def _cmd_render(args, out) -> int:
    space = _load_space(args.space)
    report = check_t_property(space) if space.dim == 2 else None
    svg = render_space_svg(space, report=report)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}", file=out)
    else:
        out.write(svg)
    return OK


def _cmd_catalog(args, out) -> int:
    print("catalog expressions: hex | l1:N | linf:N | l1sum(A,B) | linfsum(A,B)", file=out)
    for entry in cat.catalog_entries():
        cl = "yes" if entry.expected_cl else "no"
        tp = "yes" if entry.expected_t else "no"
        print(f"{entry.name:22} CL={cl:3} T={tp:3} {entry.description}", file=out)
    return OK


def build_parser() -> _Parser:
    parser = _Parser(prog="polysphere", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("facets", _cmd_facets, help="list the maximal convex subsets of the sphere")
    p.add_argument("space")

    p = add("star", _cmd_star, help="facets containing a sphere point")
    p.add_argument("space")
    p.add_argument("point", help="comma or space separated rationals, e.g. '3/4,1/2'")

    p = add("check-cl", _cmd_check_cl, help="is the ball the two-sided hull of every facet")
    p.add_argument("space")
    p.add_argument("--decompose", metavar="POINT", help="also decompose POINT over every facet")

    p = add("check-t", _cmd_check_t, help="decide the T-property")
    p.add_argument("space")

    p = add("verify-iso", _cmd_verify_iso, help="verify a sphere map is a surjective isometry")
    p.add_argument("map")

    p = add("extend", _cmd_extend, help="build and certify the linear extension of a sphere map")
    p.add_argument("map")

    p = add("sum", _cmd_sum, help="direct sum of two spaces")
    p.add_argument("kind", choices=["l1", "linf"])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--name")
    p.add_argument("--out", metavar="FILE", help="write the space file here instead of stdout")

    p = add("render", _cmd_render, help="SVG of a 2D sphere, or a facet incidence graph")
    p.add_argument("space")
    p.add_argument("--svg", metavar="FILE", help="output path (default: stdout)")

    add("catalog", _cmd_catalog, help="list built-in spaces and the name grammar")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at the null device so that the
        # flush at interpreter exit does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE
    except OSError as err:
        # After BrokenPipeError, which is an OSError too: a file that
        # cannot be opened, read or written is bad input.
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except GeometryError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
