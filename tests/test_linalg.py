"""Exact linear algebra helpers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysphere.linalg import (
    ONE,
    ZERO,
    _echelon,
    affine_rank,
    dot,
    independent_row_indices,
    integer_rows,
    integer_values,
    invert,
    null_space_vector,
    pivot,
    rank,
    solve,
    transpose,
)

F = Fraction


# The reference: the Fraction Gauss-Jordan echelon form and dot product.
def reference_pivot(rows, r, c):
    inv = ONE / rows[r][c]
    rows[r] = pr = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            rows[i] = [x - f * y for x, y in zip(row, pr)]


def reference_echelon(rows):
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        reference_pivot(work, r, c)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def reference_pivot_columns(rows):
    return reference_echelon(rows)[1]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def reference_invert(m):
    """The Fraction inverse, or None; :func:`invert` gives it as integer_rows does."""
    n = len(m)
    red, pivots = reference_echelon([list(row) + e for row, e in zip(m, identity(n))])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def reference_integer_inverse(m):
    inv = reference_invert(m)
    return None if inv is None else integer_rows(inv)


def reference_solve(a_rows, rhs):
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    red, pivots = reference_echelon([list(r) + [b] for r, b in zip(a_rows, rhs)])
    x = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = row[-1]
    return tuple(x)


def reference_null_space_vector(rows, ncols):
    if not rows:
        return (ONE,) + (ZERO,) * (ncols - 1) if ncols else None
    red, pivots = reference_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    x = [ZERO] * ncols
    x[free[0]] = ONE
    for row, pc in zip(red, pivots):
        x[pc] = -row[free[0]]
    return tuple(x)


def reference_rank(rows):
    return len(reference_pivot_columns(rows))


def reference_independent_rows(rows, limit=None):
    return reference_pivot_columns(transpose(tuple(tuple(r) for r in rows)))[:limit]


def reference_value_table(rows, points):
    return tuple(tuple(dot(r, p) for r in rows) for p in points)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# Large numerators and denominators, mixed in one matrix with small ones.
LARGE = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6)


@st.composite
def matrices(draw, ncols=None):
    """Rational matrices of 0 to 6 rows and 1 to 6 columns, 1 x n and n x 1
    included, with zero rows, all-zero columns, repeated rows, rows scaled
    by positive or negative factors, and small entries next to large ones."""
    if ncols is None:
        ncols = draw(st.integers(1, 6))
    entry = st.one_of(SMALL, SMALL, LARGE)
    rows = draw(st.lists(st.tuples(*[entry] * ncols), max_size=6))
    extra = []
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "scale"]), max_size=3)):
        if kind == "zero" or not rows:
            extra.append((F(0),) * ncols)
            continue
        base = draw(st.sampled_from(rows))
        factor = ONE if kind == "repeat" else draw(st.one_of(SMALL, LARGE))
        extra.append(tuple(factor * c for c in base))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    rows = [tuple(F(0) if t in zero_cols else c for t, c in enumerate(r)) for r in rows + extra]
    return draw(st.permutations(rows))


@st.composite
def shapes(draw):
    """A matrix of any shape above, or one row or one column on purpose."""
    shape = draw(st.sampled_from(["any", "row", "column"]))
    if shape == "row":
        return [draw(st.tuples(*[st.one_of(SMALL, LARGE)] * draw(st.integers(1, 6))))]
    if shape == "column":
        return draw(st.lists(st.tuples(st.one_of(SMALL, LARGE)), min_size=1, max_size=6))
    return draw(matrices())


@settings(max_examples=150, deadline=None)
@given(shapes())
def test_rank_and_pivot_columns_match_the_fraction_echelon(rows):
    red, pivots, d = _echelon(rows)
    ref, ref_pivots = reference_echelon(rows)
    assert pivots == ref_pivots
    assert d > 0 and [[F(x, d) for x in row] for row in red] == ref
    assert _echelon(rows, reduced=False)[1] == ref_pivots
    assert rank(rows) == reference_rank(rows)


@settings(max_examples=100, deadline=None)
@given(shapes())
def test_affine_rank_matches_the_fraction_echelon(points):
    assert affine_rank(points) == reference_rank([tuple(p) + (ONE,) for p in points])


@settings(max_examples=100, deadline=None)
@given(shapes(), st.sampled_from([None, 1, 2, 3]))
def test_independent_rows_match_the_fraction_echelon(rows, limit):
    assert independent_row_indices(rows)[:limit] == reference_independent_rows(rows, limit)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(matrices(ncols=n), matrices(ncols=n))))
def test_integer_values_match_fraction_dot_products(case):
    rows, points = case
    ints, s = integer_rows(rows)
    values, e = integer_values(ints, points)
    assert all(type(v) is int for line in values for v in line)
    table = tuple(tuple(Fraction(v, s * e) for v in line) for line in values)
    assert table == reference_value_table(rows, points)


@settings(max_examples=100, deadline=None)
@given(shapes())
def test_integer_rows_scale_every_row_by_the_common_denominator(rows):
    ints, s = integer_rows(rows)
    assert s == math.lcm(*(c.denominator for r in rows for c in r))
    assert all(type(c) is int for r in ints for c in r)
    assert [tuple(Fraction(c, s) for c in r) for r in ints] == [tuple(r) for r in rows]


INT = st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9))


@st.composite
def int_matrices(draw):
    """Int matrices of 0 to 6 rows and 1 to 6 columns, with zero rows,
    negative entries and entries up to 10**9."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[INT] * ncols), max_size=6))
    rows += [(0,) * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


def echelon_as_tuples(rows):
    red, pivots, d = _echelon(rows)
    return [tuple(row) for row in red], pivots, d


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_int_rows_are_eliminated_as_the_same_rows_as_fractions(rows):
    """Int rows skip the scaling to integers; the answers must be those of
    the same rows given as Fractions, which are scaled."""
    fracs = [tuple(F(c) for c in row) for row in rows]
    red, pivots, d = echelon_as_tuples(rows)
    assert (red, pivots, d) == echelon_as_tuples(fracs)
    assert all(type(x) is int for row in red for x in row)
    assert rank(rows) == rank(fracs) == reference_rank(fracs)
    assert independent_row_indices(rows) == independent_row_indices(fracs)


@pytest.mark.parametrize(
    "rows",
    [
        [(3, F(1, 2)), (1, 0)],
        [(F(1, 2), 1, 2)],
        [(F(3), F(1))],
        [(F(-3), F(1), F(0)), (F(0), F(2), F(5))],
    ],
    ids=["mixed-2x2", "mixed-row", "denominator-one-row", "denominator-one-rows"],
)
def test_rows_that_are_not_all_ints_are_scaled_to_int_rows(rows):
    """Any entry that is not an int, even Fraction(3), sends the rows
    through the scaling: the reduced rows hold ints only."""
    red, pivots, d = _echelon(rows)
    assert all(type(x) is int for row in red for x in row)
    assert pivots == reference_pivot_columns(rows)
    assert [[F(x, d) for x in row] for row in red] == reference_echelon(rows)[0]


def test_bareiss_handles_negative_pivots_and_row_swaps():
    rows = [(F(0), F(0), F(3)), (F(-2), F(4), F(1)), (F(1), F(-2), F(5, 7)), (F(-3), F(1), F(0))]
    assert _echelon(rows)[1] == reference_pivot_columns(rows) == [0, 1, 2]
    assert rank(rows) == 3
    assert _echelon(rows[1:3])[1] == [0, 2] and rank(rows[1:3]) == 2
    assert rank([]) == 0 and independent_row_indices([]) == []


def greedy_independent_rows(rows, limit=None):
    """Reference: add a row when it raises the rank of the rows chosen so far."""
    chosen, chosen_rows = [], []
    for i, r in enumerate(rows):
        if limit is not None and len(chosen) == limit:
            break
        if rank(chosen_rows + [r]) == len(chosen_rows) + 1:
            chosen.append(i)
            chosen_rows.append(r)
    return chosen


def random_matrix(rng):
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 5)
    # Small entries and repeated or scaled rows make dependencies common.
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            base = rng.choice(rows)
            rows.append(tuple(F(rng.randint(-2, 2)) * c for c in base))
        else:
            rows.append(tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ncols)))
    return rows, ncols


@pytest.mark.parametrize("limit", [None, "dim", 1, 2])
def test_independent_rows_match_the_greedy_reference(limit):
    rng = random.Random(11)
    for _ in range(750):
        rows, ncols = random_matrix(rng)
        cap = ncols if limit == "dim" else limit
        assert independent_row_indices(rows)[:cap] == greedy_independent_rows(rows, cap)


def test_independent_rows_skip_zero_and_dependent_rows():
    rows = [(F(0), F(0)), (F(1), F(2)), (F(2), F(4)), (F(0), F(1)), (F(1), F(1))]
    assert independent_row_indices(rows) == [1, 3]
    assert independent_row_indices(rows)[:1] == [1]
    assert independent_row_indices([]) == []


def test_pivot_leaves_a_unit_column():
    """The integer step clears column c outside row r and leaves the
    returned positive scale d in row r, so column c over d is the unit
    column of the Fraction step, and the row space is kept."""
    rng = random.Random(5)
    for _ in range(300):
        rows, ncols = random_matrix(rng)
        cells = [(r, c) for r in range(len(rows)) for c in range(ncols) if rows[r][c] != 0]
        if not cells:
            continue
        r, c = rng.choice(cells)
        work = [list(row) for row in integer_rows(rows)[0]]
        d = pivot(work, r, c, 1)
        assert all(type(x) is int for row in work for x in row)
        assert d > 0 and [row[c] for row in work] == [d * int(i == r) for i in range(len(rows))]
        # Row operations keep the row space.
        assert rank(work) == rank(rows) == rank(rows + [tuple(x) for x in work])


def test_pivot_matches_the_fraction_step_row_by_row():
    """After the same pivots from the same integer rows, each integer row is
    the returned scale d > 0 times the Fraction row."""
    rng = random.Random(7)
    for _ in range(300):
        rows, ncols = random_matrix(rng)
        work = [list(row) for row in integer_rows(rows)[0]]
        ref = [[F(x) for x in row] for row in work]
        d = 1
        for _ in range(3):
            cells = [(r, c) for r in range(len(ref)) for c in range(ncols) if ref[r][c] != 0]
            if not cells:
                break
            r, c = rng.choice(cells)
            d = pivot(work, r, c, d)
            reference_pivot(ref, r, c)
        assert d > 0 and [[F(x) for x in row] for row in work] == [[d * y for y in row] for row in ref]


def square_matrices(rng, n):
    """Random n x n rational matrices, singular ones among them."""
    m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        m[-1] = [F(rng.randint(-2, 2)) * x for x in m[0]]
    return tuple(tuple(row) for row in m)


def test_invert_solve_and_kernel_match_the_fraction_echelon():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        m = square_matrices(rng, n)
        inv = invert(m)
        assert inv == reference_integer_inverse(m)
        rows, ncols = random_matrix(rng)
        rhs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
        assert solve(rows, rhs) == reference_solve(rows, rhs)
        assert null_space_vector(rows, ncols) == reference_null_space_vector(rows, ncols)
        kernel = null_space_vector(rows, ncols)
        outcomes.add((inv is None, solve(rows, rhs) is None, kernel is None))
        if inv is not None:
            rows, s = inv
            assert s > 0 and all(type(x) is int for row in rows for x in row)
    # Singular and regular matrices, consistent and inconsistent systems,
    # trivial and nontrivial kernels all occur.
    assert all({o[k] for o in outcomes} == {True, False} for k in range(3))


@settings(max_examples=150, deadline=None)
@given(shapes(), st.data())
def test_solve_and_kernel_match_the_fraction_echelon_on_large_entries(rows, data):
    ncols = len(rows[0]) if rows else data.draw(st.integers(0, 3))
    rhs = data.draw(st.lists(st.one_of(SMALL, LARGE), min_size=len(rows), max_size=len(rows)))
    x = solve(rows, rhs)
    assert x == reference_solve(rows, rhs)
    assert null_space_vector(rows, ncols) == reference_null_space_vector(rows, ncols)
    if x is not None:
        assert all(type(c) is Fraction for c in x)
        assert [dot(r, x) for r in rows] == rhs
    if len(rows) == ncols:
        assert invert(tuple(rows)) == reference_integer_inverse(rows)
