"""Exact linear programming with a two-phase simplex method.

The solver is deliberately small: dense rational tableaus and Bland's
pivoting rule, which cannot cycle, so termination needs no perturbation
tricks. It targets the desk-scale systems that arise in unit-ball
geometry (tens of variables), not production LP workloads.

Variables are free by default; per-variable nonnegativity can be declared
so the geometric programs (barycentric weights, gauge values) do not pay
for the free-variable split.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import ZERO, dot

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


def _bland_entering(zrow: list[Fraction], width: int) -> int | None:
    for j in range(width):
        if zrow[j] < 0:
            return j
    return None


def _bland_leaving(matrix: list[list[Fraction]], rhs: list[Fraction], basis: list[int], col: int) -> int | None:
    best_row = None
    best_ratio = None
    for i in range(len(matrix)):
        a = matrix[i][col]
        if a > 0:
            ratio = rhs[i] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[best_row])
            ):
                best_row = i
                best_ratio = ratio
    return best_row


def _pivot(matrix, rhs, zrow, zval_box, basis, row, col):
    inv = 1 / matrix[row][col]
    matrix[row] = [x * inv for x in matrix[row]]
    rhs[row] = rhs[row] * inv
    for i in range(len(matrix)):
        if i != row and matrix[i][col] != 0:
            f = matrix[i][col]
            matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[row])]
            rhs[i] = rhs[i] - f * rhs[row]
    if zrow[col] != 0:
        f = zrow[col]
        for j in range(len(zrow)):
            zrow[j] = zrow[j] - f * matrix[row][j]
        zval_box[0] = zval_box[0] - f * rhs[row]
    basis[row] = col


def _run_simplex(matrix, rhs, zrow, zval_box, basis) -> str:
    while True:
        col = _bland_entering(zrow, len(zrow))
        if col is None:
            return OPTIMAL
        row = _bland_leaving(matrix, rhs, basis, col)
        if row is None:
            return UNBOUNDED
        _pivot(matrix, rhs, zrow, zval_box, basis, row, col)


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

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for con in problem.constraints:
        r = expand(con.coeffs)
        b = con.bound
        if con.relation == ">=":
            r = [-x for x in r]
            b = -b
            kinds.append("<=")
        else:
            kinds.append(con.relation)
        rows.append(r)
        rhs.append(b)

    m = len(rows)
    n_slack = sum(1 for k in kinds if k == "<=")
    total = ncols + n_slack

    matrix: list[list[Fraction]] = []
    slack_at = ncols
    slack_col: list[int | None] = []
    for i in range(m):
        row = rows[i] + [ZERO] * n_slack
        if kinds[i] == "<=":
            row[slack_at] = Fraction(1)
            slack_col.append(slack_at)
            slack_at += 1
        else:
            slack_col.append(None)
        matrix.append(row)

    for i in range(m):
        if rhs[i] < 0:
            matrix[i] = [-x for x in matrix[i]]
            rhs[i] = -rhs[i]

    basis: list[int] = []
    art_cols: list[int] = []
    for i in range(m):
        sc = slack_col[i]
        if sc is not None and matrix[i][sc] == Fraction(1):
            basis.append(sc)
        else:
            col = total + len(art_cols)
            art_cols.append(col)
            basis.append(col)
    width = total + len(art_cols)
    for i in range(m):
        matrix[i] = matrix[i] + [ZERO] * len(art_cols)
        if basis[i] >= total:
            matrix[i][basis[i]] = Fraction(1)

    # Phase one: maximise minus the sum of artificials.
    if art_cols:
        zrow = [ZERO] * width
        for c in art_cols:
            zrow[c] = Fraction(1)
        zval = [ZERO]
        for i in range(m):
            if basis[i] >= total:
                for j in range(width):
                    zrow[j] -= matrix[i][j]
                zval[0] -= rhs[i]
        status = _run_simplex(matrix, rhs, zrow, zval, basis)
        if status != OPTIMAL or zval[0] < 0:
            return LpSolution(INFEASIBLE, None, None)
        # Drive leftover artificials out of the basis, dropping redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= total:
                col = next((j for j in range(total) if matrix[i][j] != 0), None)
                if col is None:
                    continue  # redundant row
                _pivot(matrix, rhs, zrow, zval, basis, i, col)
            keep.append(i)
        matrix = [matrix[i][:total] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(matrix)

    # Phase two with the real objective.
    c_struct = expand(problem.objective)
    zrow = [-c for c in c_struct] + [ZERO] * (total - ncols)
    zval = [ZERO]
    for i in range(m):
        b = basis[i]
        cb = c_struct[b] if b < ncols else ZERO
        if cb != 0:
            for j in range(total):
                zrow[j] += cb * matrix[i][j]
            zval[0] += cb * rhs[i]
    status = _run_simplex(matrix, rhs, zrow, zval, basis)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    struct_vals = [ZERO] * total
    for i in range(m):
        struct_vals[basis[i]] = rhs[i]
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
