"""Exact simplex solver tests, including a float cross-check against scipy."""

import random
from fractions import Fraction

import pytest

from polysphere import linf_space
from polysphere.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpConstraint,
    LpProblem,
    solve_lp,
)

F = Fraction


def _problem(objective, rows, num_vars, nonneg=None):
    cons = tuple(LpConstraint(tuple(F(c) for c in coeffs), rel, F(b)) for coeffs, rel, b in rows)
    return LpProblem(
        num_vars=num_vars,
        objective=tuple(F(c) for c in objective),
        constraints=cons,
        nonneg=nonneg,
    )


class TestBasics:
    def test_single_variable_box(self):
        """maximize x subject to x <= 1, -x <= 1."""
        sol = solve_lp(_problem([1], [([1], "<=", 1), ([-1], "<=", 1)], 1))
        assert sol.status == OPTIMAL
        assert sol.value == 1
        assert sol.point == (F(1),)

    def test_segment_barycentric(self):
        """maximize x+y over the segment conv{(1,0),(0,1)} written barycentrically."""
        sol = solve_lp(
            _problem(
                [1, 1],
                [([1, 1], "==", 1)],
                2,
                nonneg=(True, True),
            )
        )
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
        sol = solve_lp(
            LpProblem(num_vars=k, objective=(F(0),) * k, constraints=tuple(cons), nonneg=(True,) * k)
        )
        assert sol.status == OPTIMAL

    def test_infeasible_status(self):
        sol = solve_lp(_problem([1], [([1], "<=", 0), ([1], ">=", 1)], 1))
        assert sol.status == INFEASIBLE
        assert sol.point is None

    def test_unbounded_status(self):
        sol = solve_lp(_problem([1], [([1], ">=", 0)], 1))
        assert sol.status == UNBOUNDED

    def test_negative_rhs_equality(self):
        sol = solve_lp(_problem([0, 0], [([1, 1], "==", -3), ([1, -1], "==", 1)], 2))
        assert sol.status == OPTIMAL
        assert sol.point == (F(-1), F(-2))

    def test_exact_fractional_solution(self):
        sol = solve_lp(
            _problem([1], [([F(3)], "<=", F(1, 7))], 1, nonneg=(True,))
        )
        assert sol.value == F(1, 21)

    def test_nonneg_flag_respected(self):
        sol = solve_lp(_problem([-1], [([1], "<=", 5)], 1, nonneg=(True,)))
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
                4,
                nonneg=(True,) * 4,
            )
        )
        assert sol.status == OPTIMAL
        assert sol.value == F(1, 20)

    def test_redundant_equalities(self):
        sol = solve_lp(
            _problem(
                [1, 0],
                [([1, 1], "==", 2), ([2, 2], "==", 4), ([1, 0], "<=", 1)],
                2,
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

        sol = solve_lp(_problem(objective, rows, n))
        assert sol.status == OPTIMAL

        ref = scipy_opt.linprog(
            [-c for c in objective],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * n,
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(sol.value) - (-ref.fun)) < 1e-7

    def test_mixed_relations_and_signs(self):
        """Random LPs over "<=", ">=" and "==" rows with right-hand sides of
        either sign and a mix of free and nonnegative variables: the status
        (optimal, infeasible or unbounded) and the optimal value agree."""
        scipy_opt = pytest.importorskip("scipy.optimize")
        scipy_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 4)
            rows = [
                ([rng.randint(-4, 4) for _ in range(n)], rng.choice(["<=", ">=", "=="]), rng.randint(-6, 6))
                for _ in range(rng.randint(1, 6))
            ]
            nonneg = tuple(rng.random() < 0.5 for _ in range(n))
            objective = [rng.randint(-5, 5) for _ in range(n)]

            sol = solve_lp(_problem(objective, rows, n, nonneg=nonneg))

            ub = [(c, b) if r == "<=" else ([-x for x in c], -b) for c, r, b in rows if r != "=="]
            eq = [(c, b) for c, r, b in rows if r == "=="]
            ref = scipy_opt.linprog(
                [-c for c in objective],
                A_ub=[c for c, _ in ub] or None,
                b_ub=[b for _, b in ub] or None,
                A_eq=[c for c, _ in eq] or None,
                b_eq=[b for _, b in eq] or None,
                bounds=[(0, None) if nn else (None, None) for nn in nonneg],
                method="highs",
                # HiGHS's presolve reports some unbounded problems as infeasible.
                options={"presolve": False},
            )
            assert sol.status == scipy_status.get(ref.status), (seed, ref.message)
            if sol.status == OPTIMAL:
                assert abs(float(sol.value) - (-ref.fun)) < 1e-7, seed
            seen.add(sol.status)
            seen.update(r for _, r, _ in rows)
            seen.update(("negative rhs" for *_, b in rows if b < 0))
            seen.update(("free", "nonneg")[nn] for nn in nonneg)
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED, "<=", ">=", "==", "negative rhs", "free", "nonneg"}

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
            p = _problem([rng.randint(-4, 4) for _ in range(n)], rows, n)
            sol = solve_lp(p)
            assert sol.status == OPTIMAL
            for con in p.constraints:
                assert con.holds_at(sol.point)
