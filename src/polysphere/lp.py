"""Exact linear programming with a two-phase simplex method.

The solver is deliberately small: one dense tableau and Bland's pivoting
rule, which cannot cycle, so termination needs no perturbation tricks.
The tableau's rows are the constraints, with the right-hand side in the
last column, and its last row is the objective row, with the objective
value in the corner. Every row is a list of ints over one common positive
scale d, and :func:`polysphere.linalg.pivot`, the fraction-free
Gauss-Jordan step, moves the tableau from basis to basis and returns the
new d. Each constraint is scaled to integers once, and its slack or
artificial column holds 1, which rescales that column by a positive
factor; Bland's rule needs only signs and the order of ratios within a
column, which neither rescaling changes, so the pivots are those of the
same tableau on Fractions. Basic values are read as row[-1] / d only at
the end. It targets the desk-scale systems that arise in unit-ball
geometry (tens of variables), not production LP workloads.

Variables are free by default; per-variable nonnegativity can be declared
so the geometric programs (barycentric weights, gauge values) do not pay
for the free-variable split.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, ge, le, mul

from .linalg import dot, integer_rows, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = {"<=": le, ">=": ge, "==": eq}


@dataclass(frozen=True)
class LpConstraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    bound: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LpProblem:
    """Maximisation problem over free or nonnegative rational variables."""

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[LpConstraint, ...]
    nonneg: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise ValueError("constraint length does not match variable count")
        if self.nonneg is not None and len(self.nonneg) != self.num_vars:
            raise ValueError("nonneg flags do not match variable count")


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: tuple[Fraction, ...] | None
    value: Fraction | None


def equal(coeffs, bound) -> LpConstraint:
    return LpConstraint(tuple(Fraction(c) for c in coeffs), "==", Fraction(bound))


def _run_simplex(tab: list[list[int]], basis: list[int], d: int) -> tuple[str, int]:
    """Pivot by Bland's rule until the objective row has no negative entry.

    The entering column is the first with a negative objective entry; the
    leaving row has the least ratio, ties going to the least basic column.
    Row i's ratio is ``tab[i][-1] / tab[i][col]``, in which the common
    scale d cancels, and two ratios with positive denominators compare by
    cross multiplication. Returns the status and the new common scale.
    """
    while True:
        z = tab[-1]
        col = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if col is None:
            return OPTIMAL, d
        row = None
        for i in range(len(tab) - 1):
            a = tab[i][col]
            if a > 0:
                if row is None:
                    row, num, den = i, tab[i][-1], a
                    continue
                lhs, rhs = tab[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, num, den = i, tab[i][-1], a
        if row is None:
            return UNBOUNDED, d
        d = pivot(tab, row, col, d)
        basis[row] = col


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a maximisation problem exactly.

    Statuses are ``optimal``, ``infeasible`` or ``unbounded``; the two
    failure modes are answers, not errors. Optimal points satisfy every
    constraint exactly, which is re-checked on integers before returning.
    """
    n = problem.num_vars
    nonneg = problem.nonneg or (False,) * n

    # Structural columns: one per nonnegative variable, a split pair otherwise.
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(n):
        if nonneg[j]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    def expand(coeffs) -> list:
        row = [0] * ncols
        for j, c in enumerate(coeffs):
            pos, neg = col_of[j]
            row[pos] = c
            if neg is not None:
                row[neg] = -c
        return row

    # Each constraint, scaled to integers once by the lcm s of its
    # denominators, as "<=" (with a slack) or "==" (without one).
    ints = []
    body = []
    for con in problem.constraints:
        (row,), s = integer_rows([(*con.coeffs, con.bound)])
        ints.append((row[:-1], row[-1]))
        r, b = expand(row[:-1]), row[-1]
        if con.relation == ">=":
            r, b = [-x for x in r], -b
        body.append((r, con.relation != "==", b, s))

    n_slack = sum(1 for _, has_slack, _, _ in body if has_slack)
    total = ncols + n_slack
    # A row starts on its slack when its right-hand side is nonnegative,
    # and on an artificial column otherwise; either column holds 1, and the
    # common scale starts at d = 1.
    art_scales = [s for _, has_slack, b, s in body if not has_slack or b < 0]
    n_art = len(art_scales)
    width = total + n_art

    tab: list[list[int]] = []
    basis: list[int] = []
    slack, art = ncols, total
    for r, has_slack, b, _ in body:
        row = r + [0] * (width - ncols) + [b]
        if has_slack:
            row[slack] = 1
            slack += 1
        if b < 0:
            row = [-x for x in row]
        if has_slack and b >= 0:
            basis.append(slack - 1)
        else:
            row[art] = 1
            basis.append(art)
            art += 1
        tab.append(row)
    d = 1

    # Phase one: maximise minus the sum of artificials. Artificial i stands
    # for s_i times the rational one, so its weight is lcm(s) / s_i.
    if n_art:
        scale = math.lcm(*art_scales)
        weights = [scale // s for s in art_scales]
        z = [0] * total + weights + [0]
        for row, b in zip(tab, basis):
            if b >= total:
                w = weights[b - total]
                z = [x - w * y for x, y in zip(z, row)]
        tab.append(z)
        status, d = _run_simplex(tab, basis, d)
        if status != OPTIMAL or tab[-1][-1] < 0:
            return LpSolution(INFEASIBLE, None, None)
        # Drive leftover artificials out of the basis, dropping redundant rows.
        keep = []
        for i in range(len(basis)):
            if basis[i] >= total:
                col = next((j for j in range(total) if tab[i][j] != 0), None)
                if col is None:
                    continue  # redundant row
                d = pivot(tab, i, col, d)
                basis[i] = col
            keep.append(i)
        tab = [tab[i][:total] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase two with the real objective, z = -L*d*c + sum of L*cb * (basic
    # row), with L the lcm of the cost denominators.
    (obj,), _ = integer_rows([problem.objective])
    c = expand(obj)
    z = [-d * x for x in c] + [0] * (total - ncols + 1)
    for row, b in zip(tab, basis):
        if b < ncols and c[b]:
            z = [x + c[b] * y for x, y in zip(z, row)]
    tab.append(z)
    status, d = _run_simplex(tab, basis, d)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    # The point is nums / d. Re-check every original constraint on its own
    # integer row, times d, and every sign on the numerators.
    vals = [0] * total
    for row, b in zip(tab, basis):
        vals[b] = row[-1]
    nums = [vals[pos] - (vals[neg] if neg is not None else 0) for pos, neg in col_of]
    for con, (coeffs, bound) in zip(problem.constraints, ints):
        lhs, rhs = sum(map(mul, coeffs, nums)), bound * d
        if not _RELATIONS[con.relation](lhs, rhs):
            raise RuntimeError("simplex produced an infeasible point; this is a bug")
    if any(nn and x < 0 for nn, x in zip(nonneg, nums)):
        raise RuntimeError("simplex violated a sign constraint; this is a bug")

    point = tuple(Fraction(x, d) for x in nums)
    return LpSolution(OPTIMAL, point, dot(problem.objective, point))
