"""Dense exact linear algebra over tuples of Fractions.

Helper routines shared by the geometry modules. Matrices are tuples of
row tuples. Nothing here is meant to scale beyond desk-size systems
(dimension around seven); clarity and exactness win over speed.

:func:`pivot` is the package's only elimination step: the echelon form
behind rank, solve, invert and the independence tests, and the simplex
tableau of :mod:`polysphere.lp`, all run on it.
"""

from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*m))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Row:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step, in place: scale row r so that its entry in
    column c is one, then clear column c from every other row."""
    inv = ONE / rows[r][c]
    rows[r] = pr = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            rows[i] = [x - f * y for x, y in zip(row, pr)]


def _echelon(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns the nonzero rows and their pivot columns."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pivot(work, r, c)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    rows = list(rows)
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def null_space_vector(rows: Iterable[Sequence[Fraction]], ncols: int) -> Row | None:
    """A nonzero kernel vector of the row system, or None when the kernel is trivial."""
    rows = list(rows)
    if not rows:
        if ncols == 0:
            return None
        return (ONE,) + (ZERO,) * (ncols - 1)
    red, pivots = _echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if not free:
        return None
    f0 = free[0]
    x = [ZERO] * ncols
    x[f0] = ONE
    for row, pc in zip(red, pivots):
        x[pc] = -row[f0]
    return tuple(x)


def solve(a_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Row | None:
    """Any exact solution of A x = rhs, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(a_rows) != len(rhs):
        raise ValueError("row/right-hand-side count mismatch")
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    aug = [list(r) + [b] for r, b in zip(a_rows, rhs)]
    red, pivots = _echelon(aug)
    x = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = row[-1]
    return tuple(x)


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    eye = identity(n)
    aug = [list(row) + list(erow) for row, erow in zip(m, eye)]
    red, pivots = _echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def independent_row_indices(rows: Sequence[Sequence[Fraction]], limit: int | None = None) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in listed order.

    A row is independent of the rows before it exactly when its column is a
    pivot column of the transposed matrix, so one elimination decides all.
    """
    if not rows:
        return []
    _, pivots = _echelon(transpose(tuple(tuple(r) for r in rows)))
    return pivots[:limit]


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the homogenised point set; the affine dimension is this minus one."""
    return rank([tuple(p) + (ONE,) for p in points])
