"""Print one sha256 over the spaces the package builds and their CL and T
reports, to check that a change keeps every built space, every verdict with
its witnesses, and every construction error, byte-identical.

    python tests/outputs_digest.py

The outcomes, in a fixed order, are each a space's fields with the reprs
of its ``check_cl`` and ``check_t_property`` reports, or an error's type
and message. The random polytopes reach the T-property's distance LP
fallback, so its witnesses are covered too. The outcomes are:

- every catalog leaf, and every binary ℓ1 and ℓ∞ sum of two leaves;
- the catalog sums of ``NESTED_SUMS``, nested two to five deep, a sum
  above the row cap, and a sum nested ``MAX_ENUM_DIM`` deep, which the
  parser refuses;
- seeded ``random.Random(7)`` point sets in dims 2 to 4, through both
  builders, as drawn and closed under negation, with and without
  ``symmetrize``;
- each space those builders return, passed to the raw constructor with
  its descriptions shuffled, and again without its last vertex pair;
- ``l1_sum`` and ``linf_sum`` of pairs of the spaces built from the
  closed point sets, whose scales are rarely 1 or 2: planes with planes,
  planes with solids, and a solid with a 4-space, which the caps refuse;
- for each of ``DISTANCE_SPACES``, at every vertex and then every facet
  barycenter, ``condition_iii_value`` and ``distance_to_hull`` for every
  facet id: a vertex and a point that is no vertex reach the distances
  by different paths, and both are covered;
- each of ``ZERO_ROW_SPACES`` passed to the raw constructor with a zero
  functional added, and again with a zero vertex added: a zero row makes
  a description's length odd;
- the space files of ``space_files``, of both kinds, with and without
  ``symmetric true``: files whose first asymmetric row in file order is
  not the first in sorted order, and files beyond ``MAX_ENUM_DIM`` or
  ``MAX_FACETS``, asymmetric or not.

The expected line is pinned in ``tests/outputs_digest.txt``; a change that
moves any outcome must say why and update that file:

    python tests/outputs_digest.py | diff - tests/outputs_digest.txt

The file is not a test module, so pytest does not collect it.
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polysphere import (  # noqa: E402
    PolyhedralSpace,
    catalog,
    check_cl,
    check_t_property,
    condition_iii_value,
    distance_to_hull,
)
from polysphere.formats import parse_space_text  # noqa: E402

FIELDS = ("dim", "name", "facet_index", "facet_table", "facet_scale",
          "_rows", "_scale", "_points", "_point_scale")
LEAVES = ["hex"] + [f"{kind}:{n}" for kind in ("l1", "linf") for n in range(1, 7)]
DISTANCE_SPACES = ["hex"] + [f"{kind}:{n}" for kind in ("l1", "linf") for n in range(1, 4)]
ZERO_ROW_SPACES = LEAVES + ["l1sum(hex,l1:1)", "linfsum(hex,linf:1)"]
NESTED_SUMS = [
    "l1sum(linfsum(hex,l1:1),linf:2)",
    "linfsum(l1sum(l1:1,l1:1),linfsum(hex,l1:1))",
    "l1sum(l1:1,linfsum(l1:1,l1sum(hex,linf:1)))",
    "linfsum(l1sum(linfsum(l1sum(l1:1,l1:1),l1:1),hex),l1:1)",
    "linfsum(l1:1,l1sum(l1:1,linfsum(l1:1,l1sum(l1:1,linfsum(l1:1,l1:1)))))",
    "l1sum(hex,l1sum(hex,hex))",
    "l1sum(" * 6 + "l1:1,l1:1" + ",l1:1)" * 6,
]


def outcome(build) -> str:
    try:
        space = build()
    except Exception as err:  # every error is an outcome to compare
        return f"{type(err).__name__}: {err}"
    rows = {field: getattr(space, field) for field in FIELDS}
    rows["hrep"] = [(type(f).__name__, f._row) for f in space.hrep]
    rows["vrep"] = [(type(v).__name__, v._row) for v in space.vrep]
    reports = (check_cl(space), check_t_property(space))
    return "\n".join(map(repr, (sorted(rows.items()), *reports)))


def distance_outcome(space, x) -> str:
    """The two-sided value and the one-sided distance at x, per facet id."""
    fids = range(len(space.hrep))
    return repr([(condition_iii_value(space, x, fid), distance_to_hull(space, x, fid)) for fid in fids])


def random_points(rng: random.Random, dim: int) -> list[tuple[Fraction, ...]]:
    """A few rational points, with a repeat, a zero row, a scaled copy and
    a midpoint among them, so that builders meet redundant rows."""
    def coord():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 7)))

    points = [tuple(coord() for _ in range(dim)) for _ in range(rng.randint(dim, dim + 3))]
    a, b = rng.choice(points), rng.choice(points)
    points += [a, (Fraction(0),) * dim, tuple(c / 3 for c in a)]
    points.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    rng.shuffle(points)
    return points


def space_files():
    """Data rows of space files that the builders refuse or only build
    with ``symmetric true``."""
    offenders = ["1 1", "0 1", "2 0", "-2 0"]
    yield 2, offenders
    yield 2, offenders[::-1]
    yield 2, ["3 1", "-1 -2", "1 2", "0 -1"]
    units = [" ".join("1" if j == i else "0" for j in range(7)) for i in range(7)]
    yield 7, units
    yield 7, units + [row.replace("1", "-1") for row in units]
    yield 2, [f"{k} 1" for k in range(-100, 101)]
    yield 2, [f"{k} 1" for k in range(101)] + [f"{-k} -1" for k in range(101)]


def outcomes():
    for name in LEAVES:
        yield outcome(lambda: catalog.resolve(name))
    for a in LEAVES:
        for b in LEAVES:
            for kind in ("l1sum", "linfsum"):
                yield outcome(lambda: catalog.resolve(f"{kind}({a},{b})"))
    for name in NESTED_SUMS:
        yield outcome(lambda: catalog.resolve(name))
    rng = random.Random(7)
    seeded = {dim: [] for dim in (2, 3, 4)}
    builders = (PolyhedralSpace.from_functionals, PolyhedralSpace.from_vertices)
    for dim in (2, 3, 4):
        for _ in range(12):
            points = random_points(rng, dim)
            closed = points + [tuple(-c for c in p) for p in points]
            for build in builders:
                for rows in (points, closed):
                    for symmetrize in (False, True):
                        yield outcome(lambda: build(rows, name="r", symmetrize=symmetrize))
                try:
                    space = build(closed)
                except Exception:
                    continue
                seeded[dim].append(space)
                hrep, vrep = list(space.hrep), list(space.vrep)
                rng.shuffle(hrep)
                rng.shuffle(vrep)
                yield outcome(lambda: PolyhedralSpace(hrep, vrep))
                yield outcome(lambda: PolyhedralSpace(space.hrep, space.vrep[1:-1]))
    planes, solids = seeded[2], seeded[3]
    pairs = [*zip(planes[0:12:2], planes[1:12:2]), *zip(planes[::3], solids[::3]),
             (solids[0], seeded[4][0])]
    for a, b in pairs:
        for build in (catalog.l1_sum, catalog.linf_sum):
            yield outcome(lambda: build(a, b))
    for name in DISTANCE_SPACES:
        space = catalog.resolve(name)
        barycenters = [space.facet_barycenter(fid) for fid in range(len(space.hrep))]
        for x in list(space.vrep) + barycenters:
            yield distance_outcome(space, x)
    zero = Fraction(0)
    for name in ZERO_ROW_SPACES:
        space = catalog.resolve(name)
        origin = (zero,) * space.dim
        yield outcome(lambda: PolyhedralSpace(list(space.hrep) + [origin], space.vrep))
        yield outcome(lambda: PolyhedralSpace(space.hrep, list(space.vrep) + [origin]))
    for dim, rows in space_files():
        for kind in ("H", "V"):
            for symmetric in ("false", "true"):
                head = f"version 1\ndim {dim}\nkind {kind}\nsymmetric {symmetric}\n"
                yield outcome(lambda: parse_space_text(head + "\n".join(rows) + "\n"))


def main():
    digest = hashlib.sha256()
    count = 0
    for line in outcomes():
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  {count} outcomes")


if __name__ == "__main__":
    main()
