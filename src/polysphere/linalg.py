"""Dense exact linear algebra over tuples of Fractions.

Helper routines shared by the geometry modules. Matrices are tuples of
row tuples. Nothing here is meant to scale beyond desk-size systems
(dimension around seven). Fractions are the public type; questions that
only need integers are answered on integers.

There is one elimination step, on integers. :func:`pivot` is one
fraction-free step on integer rows that share one positive scale d; a
row's rational value is the row over d. It clears the pivot column from
every row from a given first row on: from the first row of all, it is a
Gauss-Jordan step, and from the row after the pivot, a forward step.
:func:`_echelon` runs it on int rows as they are and on any other rows
scaled to integers by :func:`integer_rows`. :func:`solve`, :func:`invert`
and :func:`null_space_vector` read their answers from the reduced rows,
and the simplex tableau of :mod:`polysphere.lp` runs on the Gauss-Jordan
step. :func:`rank`, :func:`affine_rank` and
:func:`independent_row_indices` only count or list the pivot columns, so
they eliminate forward, which leaves the rows above each pivot as they
were. Fractions are built only for the values returned.
:func:`integer_values` evaluates integer rows at many points on integers,
and :func:`invert` returns integer rows; both stay integers over one
scale, so their callers combine them without building a Fraction.

:func:`affine_rank` and :func:`solve` have no caller in ``src/``: facets
are ranked on plain integer rows (see the lemma in
:mod:`polysphere.space`), and no module solves a square system. They stay
because the benchmark's tracer, ``TARGETS`` in ``perfbench/tracer.py``,
looks them up by name; ROADMAP.md lists their removal with the next change
to the benchmark.
"""

import math
from fractions import Fraction
from itertools import chain
from operator import mul
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


def transpose(m: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*m))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Row:
    return tuple(dot(row, v) for row in m)


def combination(weights: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> Row:
    """The weighted sum of the points, sum over i of weights[i] * points[i]."""
    return tuple(dot(weights, col) for col in zip(*points))


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


def integer_values(
    ints: Sequence[Sequence[int]], points: Iterable[Sequence[Fraction]]
) -> tuple[list[list[int]], int]:
    """The integer rows at the points, on integers, and the points' scale e.

    With P = e * points scaled to integers by :func:`integer_rows`,
    ``values[j][i]`` is the integer dot product of ``ints[i]`` and P[j];
    over e it is the value of row i at point j. Rows and points must have
    one common length.
    """
    pts, e = integer_rows(points)
    return [[sum(map(mul, r, p)) for r in ints] for p in pts], e


def pivot(rows: list[Sequence[int]], r: int, c: int, d: int, first: int = 0) -> int:
    """One fraction-free elimination step on integer rows, in place.

    Every row stands for itself divided by the common positive scale d. The
    step negates row r if its entry in column c is negative and clears
    column c from every row from ``first`` on but r: with a = rows[r][c],
    ``row <- (a * row - row[c] * rows[r]) // d``. It returns a, the new
    common scale, over which row r has the rational step's unit column.
    Started from d = 1, every entry it computes is a minor of the input
    (its rows negated where the step negated them), so each division is
    exact (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", 1968). From ``first = 0`` it is a Gauss-Jordan
    step, applied above and below the pivot. From the row after the pivot
    it is Bareiss's one-sided step: after k steps, entry j of a row i below
    the pivots is the minor on the k pivot rows and row i and the k pivot
    columns and column j, and d the minor on the pivot rows and columns, so
    Sylvester's identity makes each division exact without the rows above.
    Those are left stale, over an earlier scale, and only the pivot columns
    may be read from them.
    """
    pr = rows[r]
    if pr[c] < 0:
        rows[r] = pr = [-x for x in pr]
    a = pr[c]
    for i in range(first, len(rows)):
        if i != r:
            row = rows[i]
            b = row[c]
            if b:
                rows[i] = [(a * x - b * y) // d for x, y in zip(row, pr)]
            elif a != d:
                rows[i] = [a * x // d for x in row]
    return a


def _echelon(
    rows: Iterable[Sequence[Fraction]], reduced: bool = True
) -> tuple[list[Sequence[int]], list[int], int]:
    """Row echelon form on integers, reduced unless ``reduced`` is false.

    Returns the nonzero rows, their pivot columns and their common scale d.
    Reduced, each row divided by d is the rational reduced row, so it holds
    d in its own pivot column and 0 in the others. Otherwise the steps are
    forward only (see :func:`pivot`), the rows above a pivot are stale, and
    only the pivot columns are meaningful. Rows whose entries are all ints
    are eliminated as they are; any other rows are first scaled to integers
    by :func:`integer_rows`. The elimination stops when every row holds a
    pivot.
    """
    work = list(rows)
    if not set(map(type, chain.from_iterable(work))) <= {int}:
        work, _ = integer_rows(work)
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(len(work[0]) if work else 0):
        for pr in range(r, len(work)):
            if work[pr][c]:
                break
        else:
            continue
        work[r], work[pr] = work[pr], work[r]
        d = pivot(work, r, c, d, 0 if reduced else r + 1)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots, d


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Row rank equals column rank, so the rows are eliminated as given or
    transposed, whichever has fewer rows, and the elimination stops once
    every row holds a pivot. Only the pivots are counted, so each step is a
    forward step, which reduces only the rows below its pivot."""
    rows = list(rows)
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    return len(_echelon(rows, reduced=False)[1])


def null_space_vector(rows: Iterable[Sequence[Fraction]], ncols: int) -> Row | None:
    """A nonzero kernel vector of the row system, or None when the kernel is trivial."""
    rows = list(rows)
    if not rows:
        if ncols == 0:
            return None
        return (ONE,) + (ZERO,) * (ncols - 1)
    red, pivots, d = _echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if not free:
        return None
    f0 = free[0]
    x = [ZERO] * ncols
    x[f0] = ONE
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(-row[f0], d)
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
    red, pivots, d = _echelon(aug)
    x = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = Fraction(row[-1], d)
    return tuple(x)


def invert(m: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int] | None:
    """The inverse of a square matrix as integer rows over one positive
    scale s, or None when the matrix is singular.

    The inverse is the rows over s, in lowest terms: s is the least common
    multiple of the inverse's denominators, as :func:`integer_rows` gives.
    The reduced rows hold the inverse over the elimination's scale d, and
    dividing d and every entry by their gcd g leaves d / g, which is that
    least common multiple.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, pivots, d = _echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    inv = [row[n:] for row in red]
    g = math.gcd(d, *(x for row in inv for x in row))
    return [tuple(x // g for x in row) for row in inv], d // g


def independent_row_indices(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in listed order.

    A row is independent of the rows before it exactly when its column is a
    pivot column of the transposed matrix, so one elimination decides all.
    """
    return _echelon(transpose(tuple(tuple(r) for r in rows)), reduced=False)[1]


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the homogenised point set; the affine dimension is this minus one."""
    return rank([tuple(p) + (ONE,) for p in points])
