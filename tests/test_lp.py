"""Exact simplex solver tests, including a float cross-check against scipy."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysphere import linalg, linf_space, lp, properties, resolve
from polysphere.errors import NotAlmostClError
from polysphere.isometry import SphereMap
from polysphere.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpConstraint,
    LpProblem,
    LpSolution,
    solve_lp,
)
from conftest import reference_facet_sample_points
from samplers import sphere_points
from test_linalg import matrices

F = Fraction


def _problem(objective, rows):
    cons = tuple(LpConstraint(tuple(F(c) for c in coeffs), rel, F(b)) for coeffs, rel, b in rows)
    return LpProblem(tuple(F(c) for c in objective), cons)


class TestBasics:
    def test_single_variable_box(self):
        """maximize x subject to x <= 1, -x <= 1."""
        sol = solve_lp(_problem([1], [([1], "<=", 1), ([-1], "<=", 1)]))
        assert sol.status == OPTIMAL
        assert sol.value == 1
        assert sol.point == (F(1),)

    def test_segment_barycentric(self):
        """maximize x+y over the segment conv{(1,0),(0,1)} written barycentrically."""
        sol = solve_lp(_problem([1, 1], [([1, 1], "==", 1)]))
        assert sol.status == OPTIMAL
        assert sol.value == 1

    def test_membership_cube_top_facet(self):
        """(1,1,1) lies in conv(C u -C) for C the top facet of the 3-cube ball."""
        cube = linf_space(3)
        gens = [v for v in cube.vrep if v.coords[2] == 1]
        gens += [-v for v in gens]
        k = len(gens)
        cons = [
            LpConstraint(tuple(g.coords[i] for g in gens), "==", F(1))
            for i in range(3)
        ]
        cons.append(LpConstraint((F(1),) * k, "==", F(1)))
        sol = solve_lp(LpProblem((F(0),) * k, tuple(cons)))
        assert sol.status == OPTIMAL

    def test_infeasible_status(self):
        sol = solve_lp(_problem([1], [([1], "<=", 0), ([-1], "<=", -1)]))
        assert sol.status == INFEASIBLE
        assert sol.point is None

    def test_unbounded_status(self):
        sol = solve_lp(_problem([1], [([-1], "<=", 0)]))
        assert sol.status == UNBOUNDED

    def test_negative_rhs_equality(self):
        """-x - y = -3 and y - x = 1 meet at (1, 2)."""
        sol = solve_lp(_problem([0, 0], [([-1, -1], "==", -3), ([-1, 1], "==", 1)]))
        assert sol.status == OPTIMAL
        assert sol.point == (F(1), F(2))

    def test_exact_fractional_solution(self):
        sol = solve_lp(_problem([1], [([F(3)], "<=", F(1, 7))]))
        assert sol.value == F(1, 21)

    def test_variables_are_nonnegative(self):
        sol = solve_lp(_problem([-1], [([1], "<=", 5)]))
        assert sol.status == OPTIMAL
        assert sol.point == (F(0),)


class TestPivoting:
    def test_beale_cycling_instance(self):
        """The classic degenerate instance that cycles under naive pivoting."""
        sol = solve_lp(
            _problem(
                [F(3, 4), -150, F(1, 50), -6],
                [
                    ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
                    ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
                    ([0, 0, 1, 0], "<=", 1),
                ],
            )
        )
        assert sol.status == OPTIMAL
        assert sol.value == F(1, 20)

    def test_redundant_equalities(self):
        sol = solve_lp(
            _problem(
                [1, 0],
                [([1, 1], "==", 2), ([2, 2], "==", 4), ([1, 0], "<=", 1)],
            )
        )
        assert sol.status == OPTIMAL
        assert sol.value == 1


class TestAgainstScipy:
    """Seeded random bounded LPs cross-checked against scipy.optimize.linprog."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_bounded_lp(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = []
        a_ub = []
        b_ub = []
        for _ in range(m):
            coeffs = [rng.randint(-4, 4) for _ in range(n)]
            bound = rng.randint(0, 6)
            rows.append((coeffs, "<=", bound))
            a_ub.append(coeffs)
            b_ub.append(bound)
        # box constraints keep everything bounded and feasible at 0
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append((list(e), "<=", 10))
            e2 = [0] * n
            e2[j] = -1
            rows.append((e2, "<=", 10))
            a_ub.extend([list(e), list(e2)])
            b_ub.extend([10, 10])
        objective = [rng.randint(-5, 5) for _ in range(n)]

        sol = solve_lp(_problem(objective, rows))
        assert sol.status == OPTIMAL

        ref = scipy_opt.linprog(
            [-c for c in objective],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(sol.value) - (-ref.fun)) < 1e-7

    def test_mixed_relations_and_signs(self):
        """Random LPs over "<=" and "==" rows with right-hand sides of either
        sign: the status (optimal, infeasible or unbounded) and the optimal
        value agree. A third of the rows are drawn as greater-or-equal rows
        and negated into "<=" rows."""
        scipy_opt = pytest.importorskip("scipy.optimize")
        scipy_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [rng.randint(-4, 4) for _ in range(n)]
                kind, b = rng.choice(["le", "ge", "eq"]), rng.randint(-6, 6)
                if kind == "ge":
                    coeffs, b = [-c for c in coeffs], -b
                rows.append((coeffs, "==" if kind == "eq" else "<=", b))
            # One draw per variable is skipped, so that each seed keeps the
            # objective of its case.
            for _ in range(n):
                rng.random()
            objective = [rng.randint(-5, 5) for _ in range(n)]

            sol = solve_lp(_problem(objective, rows))

            ub = [(c, b) for c, r, b in rows if r == "<="]
            eq = [(c, b) for c, r, b in rows if r == "=="]

            def reference(presolve):
                return scipy_opt.linprog(
                    [-c for c in objective],
                    A_ub=[c for c, _ in ub] or None,
                    b_ub=[b for _, b in ub] or None,
                    A_eq=[c for c, _ in eq] or None,
                    b_eq=[b for _, b in eq] or None,
                    bounds=[(0, None)] * n,
                    method="highs",
                    options={"presolve": presolve},
                )

            # HiGHS's presolve reports some unbounded problems as infeasible,
            # and without it HiGHS gives up (status 4) on a zero row with a
            # negative right-hand side, which presolve settles.
            ref = reference(False)
            if ref.status == 4:
                ref = reference(True)
            assert sol.status == scipy_status.get(ref.status), (seed, ref.message)
            if sol.status == OPTIMAL:
                assert abs(float(sol.value) - (-ref.fun)) < 1e-7, seed
            seen.add(sol.status)
            seen.update(r for _, r, _ in rows)
            seen.update(("negative rhs" for *_, b in rows if b < 0))
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED, "<=", "==", "negative rhs"}

    def test_point_satisfies_constraints_exactly(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(1, 3)
            rows = [([rng.randint(-3, 3) for _ in range(n)], "<=", rng.randint(0, 5)) for _ in range(3)]
            for j in range(n):
                e = [0] * n
                e[j] = 1
                rows.append((list(e), "<=", 7))
                rows.append(([-c for c in e], "<=", 7))
            p = _problem([rng.randint(-4, 4) for _ in range(n)], rows)
            sol = solve_lp(p)
            assert sol.status == OPTIMAL
            for con in p.constraints:
                assert linalg.dot(con.coeffs, sol.point) <= con.bound
            assert min(sol.point) >= 0


# The reference: the two-phase simplex on a tableau of Fractions, with the
# same Bland's rule, the integer solver must follow pivot for pivot. Each
# pivot (row, column) is appended to REFERENCE_PIVOTS.
REFERENCE_PIVOTS = []


def reference_pivot(rows, r, c):
    REFERENCE_PIVOTS.append((r, c))
    inv = 1 / rows[r][c]
    rows[r] = pr = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            rows[i] = [x - f * y for x, y in zip(row, pr)]


def reference_run_simplex(tab, basis):
    while True:
        z = tab[-1]
        col = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if col is None:
            return OPTIMAL
        row = best = None
        for i in range(len(tab) - 1):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row is None:
            return UNBOUNDED
        reference_pivot(tab, row, col)
        basis[row] = col


def reference_solve_lp(problem):
    zero, one = F(0), F(1)
    n = problem.num_vars
    body = [(list(con.coeffs), con.relation == "<=", con.bound) for con in problem.constraints]
    total = n + sum(1 for _, has_slack, _ in body if has_slack)
    n_art = sum(1 for _, has_slack, b in body if not has_slack or b < 0)
    width = total + n_art
    tab, basis = [], []
    slack, art = n, total
    for r, has_slack, b in body:
        row = r + [zero] * (width - n) + [b]
        if has_slack:
            row[slack] = one
            slack += 1
        if b < 0:
            row = [-x for x in row]
        if has_slack and b >= 0:
            basis.append(slack - 1)
        else:
            row[art] = one
            basis.append(art)
            art += 1
        tab.append(row)

    if n_art:
        z = [zero] * total + [one] * n_art + [zero]
        for row, b in zip(tab, basis):
            if b >= total:
                z = [x - y for x, y in zip(z, row)]
        tab.append(z)
        status = reference_run_simplex(tab, basis)
        if status != OPTIMAL or tab[-1][-1] < 0:
            return LpSolution(INFEASIBLE, None, None)
        keep = []
        for i in range(len(basis)):
            if basis[i] >= total:
                col = next((j for j in range(total) if tab[i][j] != 0), None)
                if col is None:
                    continue
                reference_pivot(tab, i, col)
                basis[i] = col
            keep.append(i)
        tab = [tab[i][:total] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    c = problem.objective
    z = [-x for x in c] + [zero] * (total - n + 1)
    for row, b in zip(tab, basis):
        cb = c[b] if b < n else zero
        if cb != 0:
            z = [x + cb * y for x, y in zip(z, row)]
    tab.append(z)
    if reference_run_simplex(tab, basis) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)
    vals = [zero] * total
    for row, b in zip(tab, basis):
        vals[b] = row[-1]
    point = tuple(vals[:n])
    return LpSolution(OPTIMAL, point, sum((c * x for c, x in zip(problem.objective, point)), zero))


COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)
BOUND = st.fractions(min_value=-6, max_value=6, max_denominator=2)


@st.composite
def lp_problems(draw):
    """LPs over "<=" and "==" rows with right-hand sides of either sign
    (zero often, which makes ties in the ratio test), and rows repeated
    with a scale. Coefficients and bounds are symmetric about zero, so a
    greater-or-equal row, negated, is one more "<=" row: two rows in three
    are "<=". A "<=" row repeated with a negative scale is negated back."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            coeffs, rel, bound = draw(st.sampled_from(rows))
            k = draw(st.sampled_from([F(1), F(2), F(1, 3), F(-1), F(-3, 2)]))
            if rel == "<=":
                k = abs(k)
            rows.append((tuple(k * c for c in coeffs), rel, k * bound))
        else:
            rel = draw(st.sampled_from(["<=", "<=", "=="]))
            bound = draw(st.one_of(st.just(F(0)), BOUND))
            rows.append((draw(st.tuples(*[COEFF] * n)), rel, bound))
    if draw(st.booleans()):
        for j in range(n):
            unit = tuple(F(int(i == j)) for i in range(n))
            rows.append((unit, "<=", draw(st.sampled_from([F(0), F(1), F(3)]))))
    objective = draw(st.tuples(*[COEFF] * n))
    constraints = tuple(LpConstraint(c, r, b) for c, r, b in draw(st.permutations(rows)))
    return LpProblem(objective, constraints)


@settings(max_examples=400, deadline=None)
@given(lp_problems())
def test_integer_simplex_matches_the_fraction_tableau(problem):
    """The same pivots in the same order, and the same solution."""
    pivots = []
    step = lp.pivot

    def recording_pivot(rows, r, c, d):
        pivots.append((r, c))
        return step(rows, r, c, d)

    REFERENCE_PIVOTS.clear()
    lp.pivot = recording_pivot
    try:
        got = solve_lp(problem)
    finally:
        lp.pivot = step
    assert repr(got) == repr(reference_solve_lp(problem))
    assert pivots == REFERENCE_PIVOTS


@settings(max_examples=60, deadline=None)
@given(matrices(), lp_problems())
def test_every_division_of_the_pivot_is_exact(rows, problem):
    """The fraction-free step divides ``a * x - b * y`` by the common scale
    d with no remainder: in reduced and forward echelon forms of matrices
    with negative pivots, row swaps, zero rows and entries up to 10^9, and
    along the simplex."""
    step = linalg.pivot

    def checked_pivot(work, r, c, d, first=0):
        sign = 1 if work[r][c] > 0 else -1
        a, pr = sign * work[r][c], [sign * y for y in work[r]]
        for i in range(first, len(work)):
            if i != r:
                row = work[i]
                assert all((a * x - row[c] * y) % d == 0 for x, y in zip(row, pr))
        return step(work, r, c, d, first)

    linalg.pivot = lp.pivot = checked_pivot
    try:
        linalg._echelon(rows)
        linalg._echelon(rows, reduced=False)
        solve_lp(problem)
    finally:
        linalg.pivot = lp.pivot = step


@pytest.mark.parametrize(
    "shift, message",
    [(1, "simplex produced an infeasible point"), (-2, "simplex violated a sign constraint")],
)
def test_a_corrupted_pivot_is_caught_by_the_exact_recheck(monkeypatch, shift, message):
    """The re-check on integers rejects a point the tableau got wrong: the
    pivot moves x's basic value from 1 to 1 + shift, which breaks x <= 1
    or the sign of x."""
    step = lp.pivot

    def corrupted_pivot(rows, r, c, d):
        d = step(rows, r, c, d)
        rows[r][-1] += shift * d
        return d

    monkeypatch.setattr(lp, "pivot", corrupted_pivot)
    with pytest.raises(RuntimeError, match=message):
        solve_lp(_problem([1], [([1], "<=", 1)]))


@pytest.mark.parametrize("name", ["hex", "l1:3", "l1sum(hex,l1:1)"])
def test_hull_weights_match_the_fraction_tableau(monkeypatch, name):
    """Every LP the package builds gives the reference's solution:
    in_convex_hull and cl_decomposition on every vertex and facet
    barycenter against every facet, the distance LP of every vertex to
    every facet, the antipodal map on the facet samples, and gauge_norm
    on sphere points."""
    space = resolve(name)
    points = list(space.vrep) + [space.facet_barycenter(g) for g in range(len(space.hrep))]
    antipodal = SphereMap(space, space, tuple(map(space.neg_vertex_id, range(len(space.vrep)))))

    def run():
        out = []
        for fid, ids in enumerate(space.facet_index):
            facet = [space.vrep[j] for j in ids]
            gens = facet + [-v for v in facet]
            for x in points:
                out.append(properties.in_convex_hull(x, gens))
                try:
                    out.append(properties.cl_decomposition(space, x, fid))
                except NotAlmostClError:
                    out.append(None)
        for ids in space.facet_index:
            facet = [space.vrep[j] for j in ids]
            out.extend(properties._distance_lp(space, v, facet) for v in space.vrep)
        out.extend(antipodal.apply(x) for x in reference_facet_sample_points(space))
        out.extend(space.gauge_norm(x) for x in sphere_points(space, 10))
        return out

    got = run()
    for module in ("properties", "isometry", "space"):
        monkeypatch.setattr(f"polysphere.{module}.solve_lp", reference_solve_lp)
    assert repr(got) == repr(run())
    assert any(w is not None for w in got)
