"""Seeded job inputs for the benchmark, with the facts the oracle needs.

Nothing here imports the package under test. Every space is built from
its own explicit facet functionals (H) and vertices (V), written down for
the catalog balls and combined exactly for sums, then moved by a rational
linear map T: vertices go to T v and functionals to f T^-1. A job carries
the text a command-line user would hand the program, next to the exact
descriptions, verdicts and matrices that text was made from.

The same workload and seed always give the same jobs. No two files of
one run, warm-up included, describe the same space, so a cache that
outlives one call cannot make a later job cheaper than a fresh process
would. Only catalog expressions repeat.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

Row = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

LOW_SHEARS = (ONE, -ONE)
HIGH_HALF = (HALF, -HALF)
HIGH_TWO = (Fraction(2), Fraction(-2))


# -- exact linear algebra of the oracle's own --------------------------------


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def mat_vec(m, v) -> Row:
    return tuple(dot(row, v) for row in m)


def vec_mat(v, m) -> Row:
    return tuple(dot(v, col) for col in zip(*m))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def identity(n: int):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_inv(m):
    """Gauss-Jordan inverse of an invertible square matrix."""
    n = len(m)
    work = [list(row) + list(e) for row, e in zip(m, identity(n))]
    for c in range(n):
        p = next(r for r in range(c, n) if work[r][c] != 0)
        work[c], work[p] = work[p], work[c]
        inv = ONE / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def rank(rows) -> int:
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def neg(v) -> Row:
    return tuple(-x for x in v)


# -- polytopes ---------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """A symmetric polytope ball by both descriptions, each sorted."""

    H: tuple[Row, ...]
    V: tuple[Row, ...]

    @property
    def dim(self) -> int:
        return len(self.V[0])

    def norm(self, x) -> Fraction:
        return max(dot(f, x) for f in self.H)

    def image(self, t) -> "Ball":
        t_inv = mat_inv(t)
        return Ball(
            tuple(sorted(vec_mat(f, t_inv) for f in self.H)),
            tuple(sorted(mat_vec(t, v) for v in self.V)),
        )


def _ball(h, v) -> Ball:
    return Ball(tuple(sorted(set(h))), tuple(sorted(set(v))))


def _signs(n: int):
    out = [()]
    for _ in range(n):
        out = [s + (c,) for s in out for c in (ONE, -ONE)]
    return out


def _units(n: int):
    eye = identity(n)
    return list(eye) + [neg(e) for e in eye]


def l1_ball(n: int) -> Ball:
    return _ball(_signs(n), _units(n))


def linf_ball(n: int) -> Ball:
    return _ball(_units(n), _signs(n))


REGULAR_B = (ONE, ZERO)


def hex_ball(b: Row = REGULAR_B) -> Ball:
    """The catalog hexagon, or with its vertex pair +-(1, 0) moved to +-b.

    For a symmetric hexagon with consecutive vertices a, b, c, linear
    images of the regular one are exactly those with b = a + c, so any b
    other than (1, 0) gives a hexagon with the same face lattice that is
    not linearly equivalent. Convexity needs b_x > 1/2 and |b_y| < 1.
    """
    a, c = (HALF, ONE), (HALF, -ONE)
    verts = [a, b, c]
    h = []
    for p, q in ((a, b), (b, c), (c, neg(a))):
        # The functional equal to one at both edge ends.
        det = p[0] * q[1] - p[1] * q[0]
        h.append(((q[1] - p[1]) / det, (p[0] - q[0]) / det))
    return _ball(h + [neg(f) for f in h], verts + [neg(v) for v in verts])


def l1sum(a: Ball, b: Ball) -> Ball:
    za, zb = (ZERO,) * a.dim, (ZERO,) * b.dim
    return _ball(
        [f + g for f in a.H for g in b.H],
        [v + zb for v in a.V] + [za + w for w in b.V],
    )


def linfsum(a: Ball, b: Ball) -> Ball:
    za, zb = (ZERO,) * a.dim, (ZERO,) * b.dim
    return _ball(
        [f + zb for f in a.H] + [za + g for g in b.H],
        [v + w for v in a.V for w in b.V],
    )


def source(name: str, b: Row = REGULAR_B) -> Ball:
    """The ball of a catalog expression; ``b`` moves every hexagon in it."""
    name = name.strip()
    for head, combine in (("linfsum(", linfsum), ("l1sum(", l1sum)):
        if name.startswith(head):
            inner = name[len(head):-1]
            depth = 0
            for i, ch in enumerate(inner):
                depth += {"(": 1, ")": -1}.get(ch, 0)
                if ch == "," and depth == 0:
                    return combine(source(inner[:i], b), source(inner[i + 1:], b))
    if name == "hex":
        return hex_ball(b)
    kind, _, n = name.partition(":")
    return {"l1": l1_ball, "linf": linf_ball}[kind](int(n))


# -- symmetries and shears ---------------------------------------------------


def signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(
        tuple(rng.choice((ONE, -ONE)) if j == perm[i] else ZERO for j in range(n))
        for i in range(n)
    )


def _hex_group():
    rot = ((HALF, Fraction(-3, 4)), (ONE, HALF))  # (1,0) -> (1/2,1) -> (-1/2,1)
    flip = ((ONE, ZERO), (ZERO, -ONE))
    group, m = [], identity(2)
    for _ in range(6):
        group += [m, mat_mul(m, flip)]
        m = mat_mul(rot, m)
    return tuple(group)


HEX_GROUP = _hex_group()


def block_diag(a, b):
    na, nb = len(a), len(b)
    return tuple(tuple(row) + (ZERO,) * nb for row in a) + tuple(
        (ZERO,) * na + tuple(row) for row in b
    )


def shear(rng: random.Random, n: int, coeffs):
    """I + c E_ij for random i != j and c drawn from ``coeffs``."""
    i, j = rng.sample(range(n), 2)
    return tuple(
        tuple(rng.choice(coeffs) if (r, k) == (i, j) else (ONE if r == k else ZERO) for k in range(n))
        for r in range(n)
    )


def symmetry(rng: random.Random, name: str, n: int):
    """A linear symmetry S of a source ball that the map files use."""
    if name == "hex":
        return rng.choice(HEX_GROUP)
    if name == "linfsum(hex,linf:1)":
        return block_diag(rng.choice(HEX_GROUP), ((rng.choice((ONE, -ONE)),),))
    return signed_permutation(rng, n)


# -- space and map files -----------------------------------------------------


def _fmt(row) -> str:
    return " ".join(str(c) for c in row)


def space_text(rng: random.Random, ball: Ball, kind: str, label: str) -> str:
    """A space file; half of them list one row per +- pair under 'symmetric true'."""
    rows = list(ball.H if kind == "H" else ball.V)
    head = ["version 1", f"name {label}", f"dim {ball.dim}", f"kind {kind}"]
    if rng.random() < 0.5:
        head.append("symmetric true")
        rows = [r for r in rows if r > neg(r)]
        rows = [r if rng.random() < 0.5 else neg(r) for r in rows]
    rng.shuffle(rows)
    return "\n".join(head + [_fmt(r) for r in rows]) + "\n"


def map_text(domain: str, codomain: str, pairs) -> str:
    lines = ["version 1", f"domain {domain}", f"codomain {codomain}", "map"]
    for v, w in pairs:
        lines.append(f"({', '.join(map(str, v))}) -> ({', '.join(map(str, w))})")
    return "\n".join(lines) + "\n"


# -- jobs --------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One benchmark job: what the program reads, and what the oracle expects.

    ``op`` names the command the job performs and ``refs`` the files or
    catalog expressions it is given. ``texts`` maps each file reference
    to its text; other references are catalog expressions.
    """

    workload: str
    index: int
    op: str
    source: str
    label: str
    texts: tuple[tuple[str, str], ...]
    refs: tuple[str, ...]
    expect: dict


# Each workload repeats a fixed round of (op, source, file kind) entries,
# so its mix is exact in every run; the seed picks the maps and the order. Rounds lean towards small spaces so that a
# run of a few tens of seconds holds over a hundred jobs, and the counts put
# the median and the 90th percentile inside a class of similar jobs rather
# than on the gap between two classes.
def _entries(op, pairs):
    return [(op, src, kind) for src, count, kind in pairs for _ in range(count)]


ROUNDS = {
    "certify": _entries("certify", [
        # CL sources
        ("l1:3", 6, ""),
        ("linf:3", 3, ""),
        ("linf:4", 2, ""),
        ("linfsum(l1:2,linf:2)", 1, ""),
        # non-CL sources
        ("hex", 4, ""),
        ("linfsum(hex,linf:1)", 2, ""),
        ("l1sum(hex,l1:1)", 2, ""),
    ]),
    # H-kind l1 and V-kind linf balls put many rows into double description
    # and get few vertices out; the opposite kinds do the reverse.
    "build": _entries("parse", [
        ("l1:3", 1, "H"),
        ("l1:3", 1, "V"),
        ("linf:3", 1, "H"),
        ("linf:3", 1, "V"),
        ("l1:4", 1, "H"),
        ("l1:4", 1, "V"),
        ("linf:4", 1, "H"),
        ("linf:4", 1, "V"),
        ("l1:5", 1, "V"),
        ("linf:5", 1, "H"),
        ("linfsum(hex,linf:1)", 1, "V"),
        ("l1sum(hex,l1:1)", 1, "H"),
        ("linfsum(hex,l1:2)", 1, "H"),
    ]) + [
        ("sum-l1", "@hex|l1:1", ""),
        ("sum-linf", "@hex|linf:1", ""),
        ("sum-l1", "@l1:2|hex", ""),
        ("sum-linf", "hex|@linf:2", ""),
    ],
    # Five rounds make the 100 jobs of a run; the 90th percentile then
    # falls at the middle of its ten linfsum(hex,linf:1) isometries.
    "isometry": _entries("iso", [
        ("hex", 3, ""),
        ("l1:3", 4, ""),
        ("linf:3", 5, ""),
        ("linfsum(hex,linf:1)", 2, ""),
        ("linf:4", 1, ""),
    ]) + _entries("non-iso", [
        ("hex", 4, ""),
        ("linfsum(hex,linf:1)", 1, ""),
    ]),
}

WORKLOADS = tuple(ROUNDS)

CL_SOURCES = {"l1:3", "linf:3", "linf:4", "linfsum(l1:2,linf:2)"}

# Where the moved hexagon vertex may go: each keeps the face lattice.
MOVED_B = tuple(
    (Fraction(x), Fraction(y))
    for x in ("3/4", "1", "5/4")
    for y in ("-1/2", "-1/4", "1/4", "1/2")
)


# Draws in a row that may repeat earlier spaces before a class's maps get
# one more shear.
SHAPE_TRIES = 64


class JobStream:
    """The seeded, endless sequence of one workload's jobs.

    ``warmup()`` returns the job for the untimed warm-up call and
    ``round()`` the next round of timed jobs; both draw from the same
    stream, so every space is new to the run.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in ROUNDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set = set()
        self.count = 0
        self.per_class: dict = {}
        self.extra_shears: dict = {}

    def warmup(self) -> Job:
        return self._make(*ROUNDS[self.workload][0])

    def round(self) -> list[Job]:
        entries = list(ROUNDS[self.workload])
        self.rng.shuffle(entries)
        return [self._make(*entry) for entry in entries]

    # Jobs of one class alternate between two coefficient heights, so every
    # run has the same share of each. A low-height map is a signed
    # permutation after two shears by +-1: a unimodular integer map. A
    # high-height map is a signed permutation after one shear by +-1/2 and
    # one by +-2. Fixing the shape keeps the cost of a class's jobs close,
    # which keeps its percentiles steady. A map that would repeat an
    # earlier space of the run is drawn again. A shape gives only finitely
    # many spaces (13 low images of l1:2), so when SHAPE_TRIES draws in a
    # row repeat, the class and height move on to one more shear of the
    # same heights for the rest of the run. Longer products reach ever more
    # matrices, so the supply never runs out, however fast the jobs run.
    def _transform(self, n: int, low: bool, salt, base):
        shape = (salt, base, low)
        pair = (LOW_SHEARS, LOW_SHEARS) if low else (HIGH_HALF, HIGH_TWO)
        while True:
            count = 2 + self.extra_shears.get(shape, 0)
            for _ in range(SHAPE_TRIES):
                t = signed_permutation(self.rng, n)
                for i in range(count):
                    t = mat_mul(t, shear(self.rng, n, pair[i % 2]))
                key = (salt, base.image(t).H)
                if key not in self.seen:
                    self.seen.add(key)
                    return t
            self.extra_shears[shape] = count - 1

    def _make(self, op: str, src: str, kind: str) -> Job:
        rng = self.rng
        index = self.count
        label = f"{self.workload}-{index}"
        # Within a class, heights alternate and open file kinds go H, H, V, V.
        k = self.per_class.get((op, src, kind), 0)
        self.per_class[(op, src, kind)] = k + 1
        low = k % 2 == 0
        height = "low" if low else "high"
        kind = kind or "HV"[k // 2 % 2]
        if op in ("certify", "parse"):
            ball = source(src)
            t = self._transform(ball.dim, low, "space", ball)
            image = ball.image(t)
            text = space_text(rng, image, kind, label)
            expect = {"ball": image}
            if op == "certify":
                expect["cl"] = src in CL_SOURCES
            job = Job(self.workload, index, op, src, f"{op} {src} [{kind}, {height}]",
                      ((label, text),), (label,), expect)
        elif op.startswith("sum-"):
            # "@A|B": the side marked "@" is a seeded image read from a
            # file, the other a catalog expression.
            mode = op[4:]
            sides = src.split("|")
            file_src = next(s[1:] for s in sides if s.startswith("@"))
            ball = source(file_src)
            t = self._transform(ball.dim, low, ("sum", mode, src), ball)
            image = ball.image(t)
            text = space_text(rng, image, kind, label)
            refs = tuple(label if s.startswith("@") else s for s in sides)
            parts = [image if s.startswith("@") else source(s) for s in sides]
            combine = l1sum if mode == "l1" else linfsum
            job = Job(self.workload, index, op, src, f"{op} {src} [{kind}, {height}]",
                      ((label, text),), refs, {"ball": combine(*parts)})
        else:
            job = self._make_map(op, src, index, label, low, kind)
            job = Job(self.workload, index, op, src, f"{op} {src} [{kind}, {height}]", *job)
        self.count += 1
        return job

    def _make_map(self, op: str, src: str, index: int, label: str, low: bool, kind: str):
        """The texts, refs and expectations of a map job."""
        rng = self.rng
        domain = source(src)
        n = domain.dim
        if op == "iso":
            s = symmetry(rng, src, n)
            target_b = REGULAR_B
        else:
            s = identity(n)
            target_b = rng.choice(MOVED_B)
        target = source(src, target_b)
        t = self._transform(n, low, ("map", src, target_b), target)
        codomain = target.image(t)
        # The vertex correspondence phi: v -> T S v, or, for a moved
        # hexagon, v -> T v' where v' is v's counterpart in the moved ball.
        phi = {}
        for v in domain.V:
            w = mat_vec(s, v) if op == "iso" else _moved_vertex(v, target_b)
            phi[v] = mat_vec(t, w)
        order = list(domain.V)
        rng.shuffle(order)
        code = f"{label}-codomain"
        text = space_text(rng, codomain, kind, code)
        expect = {
            "domain": domain,
            "codomain": codomain,
            "phi": phi,
            "isometry": op == "iso",
            "matrix": mat_mul(t, s) if op == "iso" else None,
        }
        mtext = map_text(src, code, [(v, phi[v]) for v in order])
        return ((code, text), (label, mtext)), (label,), expect


def _moved_vertex(v: Row, b: Row) -> Row:
    """The counterpart of v when the hexagon's +-(1, 0) moves to +-b.

    The hexagon is the first summand of every map source, so its
    coordinates come first.
    """
    x, y = v[0], v[1]
    if y != 0 or x == 0:
        return v
    return (x * b[0], x * b[1]) + v[2:]
