"""Exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest

from polysphere.linalg import independent_row_indices, pivot, rank

F = Fraction


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
        assert independent_row_indices(rows, limit=cap) == greedy_independent_rows(rows, cap)


def test_independent_rows_skip_zero_and_dependent_rows():
    rows = [(F(0), F(0)), (F(1), F(2)), (F(2), F(4)), (F(0), F(1)), (F(1), F(1))]
    assert independent_row_indices(rows) == [1, 3]
    assert independent_row_indices(rows, limit=1) == [1]
    assert independent_row_indices([]) == []


def test_pivot_leaves_a_unit_column():
    rng = random.Random(5)
    for _ in range(300):
        rows, ncols = random_matrix(rng)
        cells = [(r, c) for r in range(len(rows)) for c in range(ncols) if rows[r][c] != 0]
        if not cells:
            continue
        r, c = rng.choice(cells)
        work = [list(row) for row in rows]
        pivot(work, r, c)
        assert [row[c] for row in work] == [F(int(i == r)) for i in range(len(rows))]
        # Row operations keep the row space.
        assert rank(work) == rank(rows) == rank(rows + [tuple(x) for x in work])
