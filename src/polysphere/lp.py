"""Exact linear programming with a two-phase simplex method.

The solver is deliberately small: one dense tableau and Bland's pivoting
rule, which cannot cycle, so termination needs no perturbation tricks.
The tableau's rows are the constraints, with the right-hand side in the
last column, and its last row is the objective row, with the objective
value in the corner. Every row is a list of ints over a positive scale of
its own, and :func:`polysphere.linalg.pivot`, the integer Gauss-Jordan
step, moves it from basis to basis. A constraint row's scale is its entry
in its basic column, so the values of the basic variables are read as
Fractions only at the end. Bland's rule needs only signs and ratios
within a row, which the scales do not change, so the pivots are those of
the same tableau on Fractions. It targets the desk-scale systems that
arise in unit-ball geometry (tens of variables), not production LP
workloads.

Variables are free by default; per-variable nonnegativity can be declared
so the geometric programs (barycentric weights, gauge values) do not pay
for the free-variable split.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import ZERO, dot, integer_rows, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = ("<=", ">=", "==")


@dataclass(frozen=True)
class LpConstraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    bound: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds_at(self, point: tuple[Fraction, ...]) -> bool:
        lhs = dot(self.coeffs, point)
        if self.relation == "<=":
            return lhs <= self.bound
        if self.relation == ">=":
            return lhs >= self.bound
        return lhs == self.bound


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


def _run_simplex(tab: list[list[int]], basis: list[int]) -> str:
    """Pivot by Bland's rule until the objective row has no negative entry.

    The entering column is the first with a negative objective entry; the
    leaving row has the least ratio, ties going to the least basic column.
    Row i's ratio is ``tab[i][-1] / tab[i][col]`` whatever the row's
    scale, and two ratios with positive denominators compare by cross
    multiplication.
    """
    while True:
        z = tab[-1]
        col = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if col is None:
            return OPTIMAL
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
            return UNBOUNDED
        pivot(tab, row, col)
        basis[row] = col


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a maximisation problem exactly.

    Statuses are ``optimal``, ``infeasible`` or ``unbounded``; the two
    failure modes are answers, not errors. Optimal points satisfy every
    constraint exactly, which is re-checked before returning.
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

    def expand(coeffs) -> list[Fraction]:
        row = [ZERO] * ncols
        for j, c in enumerate(coeffs):
            pos, neg = col_of[j]
            row[pos] = c
            if neg is not None:
                row[neg] = -c
        return row

    # Each constraint as "<=" (with a slack) or "==" (without one).
    body = []
    for con in problem.constraints:
        r, b = expand(con.coeffs), con.bound
        if con.relation == ">=":
            r, b = [-x for x in r], -b
        body.append((r, con.relation != "==", b))

    n_slack = sum(1 for _, has_slack, _ in body if has_slack)
    total = ncols + n_slack
    # A row starts on its slack when its right-hand side is nonnegative,
    # and on an artificial column otherwise.
    n_art = sum(1 for _, has_slack, b in body if not has_slack or b < 0)
    width = total + n_art

    # Row i is scaled to integers by s; its basic column then holds s.
    tab: list[list[int]] = []
    basis: list[int] = []
    slack, art = ncols, total
    for r, has_slack, b in body:
        (ints,), s = integer_rows([r + [b]])
        row = list(ints[:-1]) + [0] * (width - ncols) + [ints[-1]]
        if has_slack:
            row[slack] = s
            slack += 1
        if b < 0:
            row = [-x for x in row]
        if has_slack and b >= 0:
            basis.append(slack - 1)
        else:
            row[art] = s
            basis.append(art)
            art += 1
        tab.append(row)

    # Phase one: maximise minus the sum of artificials.
    if n_art:
        scale = math.lcm(*(row[b] for row, b in zip(tab, basis) if b >= total))
        z = [0] * total + [scale] * n_art + [0]
        for row, b in zip(tab, basis):
            if b >= total:
                k = scale // row[b]
                z = [x - k * y for x, y in zip(z, row)]
        tab.append(z)
        status = _run_simplex(tab, basis)
        if status != OPTIMAL or tab[-1][-1] < 0:
            return LpSolution(INFEASIBLE, None, None)
        # Drive leftover artificials out of the basis, dropping redundant rows.
        keep = []
        for i in range(len(basis)):
            if basis[i] >= total:
                col = next((j for j in range(total) if tab[i][j] != 0), None)
                if col is None:
                    continue  # redundant row
                pivot(tab, i, col)
                basis[i] = col
            keep.append(i)
        tab = [tab[i][:total] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase two with the real objective, z = -c + sum of cb * (basic row),
    # over one common scale; a basic row's own scale is its entry row[b].
    c_struct = expand(problem.objective)
    costs = [(c_struct[b], row, b) for row, b in zip(tab, basis) if b < ncols and c_struct[b] != 0]
    scale = math.lcm(
        *(c.denominator for c in c_struct), *(cb.denominator * row[b] for cb, row, b in costs)
    )
    z = [-c.numerator * (scale // c.denominator) for c in c_struct] + [0] * (total - ncols + 1)
    for cb, row, b in costs:
        k = cb.numerator * (scale // (cb.denominator * row[b]))
        z = [x + k * y for x, y in zip(z, row)]
    tab.append(z)
    if _run_simplex(tab, basis) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    struct_vals = [ZERO] * total
    for row, b in zip(tab, basis):
        struct_vals[b] = Fraction(row[-1], row[b])
    point = []
    for j in range(n):
        pos, neg = col_of[j]
        v = struct_vals[pos]
        if neg is not None:
            v = v - struct_vals[neg]
        point.append(v)
    point = tuple(point)

    for con in problem.constraints:
        if not con.holds_at(point):
            raise RuntimeError("simplex produced an infeasible point; this is a bug")
    for j in range(n):
        if nonneg[j] and point[j] < 0:
            raise RuntimeError("simplex violated a sign constraint; this is a bug")

    return LpSolution(OPTIMAL, point, dot(problem.objective, point))
