"""Exact linear programming with a two-phase simplex method.

One problem shape: maximise over nonnegative variables, rows ``<=`` or
``==``. The hull, distance, barycentric and gauge LPs of the package all
have it, so a structural column of the tableau is the variable itself.

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
the end, and the optimal value as the objective's integer row times those
numerators, over L * d with L the objective's own scale. It targets the
desk-scale systems that arise in unit-ball geometry (tens of variables),
not production LP workloads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, le, mul

from .linalg import integer_rows, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = {"<=": le, "==": eq}


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
    """Maximise ``objective`` over nonnegative variables, rows ``<=`` or ``==``.

    There is one variable per objective coefficient.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[LpConstraint, ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def __post_init__(self):
        if not self.objective:
            raise ValueError("need at least one variable")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise ValueError("constraint length does not match variable count")


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: tuple[Fraction, ...] | None
    value: Fraction | None


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

    # Each constraint, scaled to integers once by the lcm s of its
    # denominators, as "<=" (with a slack) or "==" (without one).
    body = []
    for con in problem.constraints:
        (row,), s = integer_rows([(*con.coeffs, con.bound)])
        body.append((row[:-1], con.relation == "<=", row[-1], s))

    n_slack = sum(1 for _, has_slack, _, _ in body if has_slack)
    total = n + n_slack
    # A row starts on its slack when its right-hand side is nonnegative,
    # and on an artificial column otherwise; either column holds 1, and the
    # common scale starts at d = 1.
    art_scales = [s for _, has_slack, b, s in body if not has_slack or b < 0]
    n_art = len(art_scales)
    width = total + n_art

    tab: list[list[int]] = []
    basis: list[int] = []
    slack, art = n, total
    for r, has_slack, b, _ in body:
        row = list(r) + [0] * (width - n) + [b]
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
    (c,), cost_scale = integer_rows([problem.objective])
    z = [-d * x for x in c] + [0] * (total - n + 1)
    for row, b in zip(tab, basis):
        if b < n and c[b]:
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
    nums = vals[:n]
    for con, (coeffs, _, bound, _) in zip(problem.constraints, body):
        lhs, rhs = sum(map(mul, coeffs, nums)), bound * d
        if not _RELATIONS[con.relation](lhs, rhs):
            raise RuntimeError("simplex produced an infeasible point; this is a bug")
    if any(x < 0 for x in nums):
        raise RuntimeError("simplex violated a sign constraint; this is a bug")

    point = tuple(Fraction(x, d) for x in nums)
    return LpSolution(OPTIMAL, point, Fraction(sum(map(mul, c, nums)), cost_scale * d))
