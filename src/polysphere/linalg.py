"""Dense exact linear algebra over tuples of Fractions.

Helper routines shared by the geometry modules. Matrices are tuples of
row tuples. Nothing here is meant to scale beyond desk-size systems
(dimension around seven). Fractions are the public type; questions that
only need integers are answered on integers.

There is one elimination step, on integers. :func:`pivot` is one
Gauss-Jordan step on integer rows, each over a positive scale of its own;
the reduced rows behind :func:`solve`, :func:`invert` and
:func:`null_space_vector`, and the simplex tableau of
:mod:`polysphere.lp`, run on it, and Fractions are built only for the
values they return. Rank-type questions (:func:`rank`,
:func:`affine_rank`, :func:`independent_row_indices`) only need the pivot
columns, which :func:`_pivot_columns` finds by Bareiss's fraction-free
elimination on rows scaled to integers by :func:`integer_rows`.
:func:`value_table` evaluates many rows at many points on the same
integers.
"""

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

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


def combination(weights: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> Row:
    """The weighted sum of the points, sum over i of weights[i] * points[i]."""
    return tuple(dot(weights, col) for col in zip(*points))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def integer_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """The rows times the least common multiple s of all their denominators,
    as integer rows, and s.

    Scaling by a positive number keeps ranks, pivot columns, signs and zero
    patterns; an entry's value is its integer divided by s. Ints pass as
    Fractions with denominator one.
    """
    rows = list(rows)
    s = math.lcm(*{c.denominator for row in rows for c in row})
    return [tuple(c.numerator * (s // c.denominator) for c in row) for row in rows], s


def value_table(
    rows: Iterable[Sequence[Fraction]], points: Iterable[Sequence[Fraction]]
) -> Iterator[Row]:
    """The rows of the table ``table[j][i] = dot(rows[i], points[j])``, one
    per point, computed on integers.

    With R = s * rows and P = e * points integer, each value is the
    integer dot product of R[i] and P[j] over s * e. Rows and points must
    have one common length. The rows are yielded lazily, so a caller that
    reads each once never holds the whole table.
    """
    ints, s = integer_rows(rows)
    pts, e = integer_rows(points)
    se = s * e
    for p in pts:
        yield tuple(Fraction(sum(map(mul, r, p)), se) for r in ints)


def pivot(rows: list[list[int]], r: int, c: int) -> None:
    """One Gauss-Jordan step on integer rows, in place.

    Each row stands for itself divided by a positive scale of its own, so
    signs, zero patterns and ratios of entries within a row are those of
    the rational row. The step makes row r's entry in column c positive
    and clears column c from every other row: with a = rows[r][c] and
    b = row[c], ``row <- (a * row - b * rows[r]) / gcd(a, b)``, then the
    row is divided by the gcd of its entries. Afterwards row r stands for
    itself divided by its entry in column c, which is the unit column of
    the rational step (Edmonds' integer pivoting, 1967).
    """
    pr = rows[r]
    if pr[c] < 0:
        rows[r] = pr = [-x for x in pr]
    a = pr[c]
    for i, row in enumerate(rows):
        b = row[c]
        if i != r and b:
            g = math.gcd(a, b)
            ag, bg = a // g, b // g
            new = [ag * x - bg * y for x, y in zip(row, pr)]
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def _echelon(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form on integers.

    Returns the nonzero rows and their pivot columns. Reduced row k stands
    for itself divided by its entry in column ``pivots[k]``, which is
    positive; that quotient is the rational reduced row.
    """
    work = [list(r) for r in integer_rows(rows)[0]]
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


def _pivot_columns(rows: Iterable[Sequence[Fraction]]) -> list[int]:
    """The pivot columns of the rows' echelon form, by integer elimination.

    The rows are scaled to integers first, which changes no pivot column.
    Elimination is Bareiss's fraction-free step ("Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968): below the
    pivot a of row ``top``, ``row <- (a * row - row[c] * top) // prev`` with
    ``prev`` the previous pivot. Every entry stays a minor of the input,
    so the division is exact and the integers stay small.
    """
    work, _ = integer_rows(rows)
    if not work:
        return []
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(work[0])):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        top = work[r]
        a = top[c]
        for i in range(r + 1, len(work)):
            row = work[i]
            b = row[c]
            work[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
        prev = a
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(_pivot_columns(rows))


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
        x[pc] = Fraction(-row[f0], row[pc])
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
        x[pc] = Fraction(row[-1], row[pc])
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
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(red))


def independent_row_indices(rows: Sequence[Sequence[Fraction]], limit: int | None = None) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in listed order.

    A row is independent of the rows before it exactly when its column is a
    pivot column of the transposed matrix, so one elimination decides all.
    """
    return _pivot_columns(transpose(tuple(tuple(r) for r in rows)))[:limit]


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the homogenised point set; the affine dimension is this minus one."""
    return rank([tuple(p) + (ONE,) for p in points])
