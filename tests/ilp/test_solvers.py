"""Tests for both MILP backends (HiGHS and the from-scratch B&B).

Every test runs against both backends — the solvers must agree on
feasibility and on optimal objective values.
"""

import pytest

from repro.ilp import Model, SolveStatus, compile_model, solve_form

BACKENDS = ("highs", "bnb")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestBasicSolves:
    def test_trivial_feasibility(self, backend):
        m = Model("t")
        x = m.add_binary("x")
        m.add(x >= 1)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.value_int(x) == 1

    def test_knapsack(self, backend):
        # max 10a + 6b + 4c  s.t. a+b+c <= 2 (binary) -> 16
        m = Model("knapsack")
        a, b, c = (m.add_binary(n) for n in "abc")
        m.add(a + b + c <= 2)
        m.maximize(10 * a + 6 * b + 4 * c)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(16.0)
        assert solution.is_set(a) and solution.is_set(b)

    def test_integer_rounding_matters(self, backend):
        # LP optimum is fractional; MILP optimum differs.
        m = Model("round")
        x = m.add_integer("x", 0, 10)
        y = m.add_integer("y", 0, 10)
        m.add(2 * x + 3 * y <= 12)
        m.maximize(x + 2 * y)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(8.0)  # x=0, y=4

    def test_infeasible_proof(self, backend):
        m = Model("inf")
        x = m.add_binary("x")
        m.add(x >= 1)
        m.add(x <= 0)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.status.is_proof

    def test_equality_system(self, backend):
        m = Model("eq")
        x = m.add_integer("x", 0, 100)
        y = m.add_integer("y", 0, 100)
        m.add(x + y == 10)
        m.add(x - y == 4)
        m.minimize(x)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.value_int(x) == 7
        assert solution.value_int(y) == 3

    def test_assignment_problem(self, backend):
        # 3x3 assignment; optimal cost 1+2+1 = 4.
        costs = [[1, 5, 9], [8, 2, 6], [1, 3, 7]]
        m = Model("assign")
        x = {
            (i, j): m.add_binary(f"x{i}{j}")
            for i in range(3)
            for j in range(3)
        }
        from repro.ilp import lin_sum

        for i in range(3):
            m.add(lin_sum(x[(i, j)] for j in range(3)) == 1)
        for j in range(3):
            m.add(lin_sum(x[(i, j)] for i in range(3)) == 1)
        m.minimize(lin_sum(costs[i][j] * x[(i, j)] for i in range(3) for j in range(3)))
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        # Best permutation: (0,0)=1, (1,1)=2, (2,2)=7 (or the 1+6+3 tie).
        assert solution.objective == pytest.approx(10.0)

    def test_mixed_integer_continuous(self, backend):
        m = Model("mix")
        x = m.add_integer("x", 0, 5)
        y = m.add_continuous("y", 0, 5)
        m.add(x + y <= 4.5)
        m.maximize(2 * x + y)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.value_int(x) == 4
        assert solution.value(y) == pytest.approx(0.5)

    def test_feasible_solution_satisfies_model(self, backend):
        m = Model("check")
        xs = [m.add_binary(f"x{i}") for i in range(6)]
        from repro.ilp import lin_sum

        m.add(lin_sum(xs) == 3)
        for a, b in zip(xs, xs[1:]):
            m.add(a + b <= 1)
        solution = solve_form(compile_model(m), backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert m.check_assignment(solution.values) == []


class TestBnbSpecifics:
    def test_node_limit_times_out(self):
        m = Model("limit")
        xs = [m.add_binary(f"x{i}") for i in range(12)]
        from repro.ilp import lin_sum

        # A problem needing some branching.
        m.add(lin_sum(3 * x for x in xs) <= 17)
        m.maximize(lin_sum((i % 5 + 1) * x for i, x in enumerate(xs)))
        from repro.ilp import solve_bnb_form

        solution = solve_bnb_form(compile_model(m), node_limit=1)
        assert solution.status in (SolveStatus.FEASIBLE, SolveStatus.TIMEOUT)

    def test_unbounded_detection(self):
        m = Model("unbounded")
        x = m.add_integer("x", 0, float("inf"))
        m.maximize(x)
        from repro.ilp import solve_bnb_form

        solution = solve_bnb_form(compile_model(m))
        assert solution.status is SolveStatus.UNBOUNDED

    def test_reports_node_count(self):
        m = Model("nodes")
        xs = [m.add_binary(f"x{i}") for i in range(8)]
        from repro.ilp import lin_sum, solve_bnb_form

        m.add(lin_sum(2 * x for x in xs) <= 7)
        m.maximize(lin_sum(x for x in xs))
        solution = solve_bnb_form(compile_model(m))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.nodes >= 1

    def test_time_limit_bounds_a_running_lp(self):
        """The budget bounds each LP, not only the node loop: without it,
        the root LP of extreme's 27,779-row feasibility form alone runs
        for over a second on a 2-vCPU host."""
        from repro.arch.testsuite import PAPER_ARCHITECTURES
        from repro.explore import build_arch_mrrg
        from repro.ilp import solve_bnb_form
        from repro.kernels.registry import kernel
        from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation

        (arch,) = [a for a in PAPER_ARCHITECTURES if a.key == "homoge_orth_ii2"]
        formulation = build_formulation(
            kernel("extreme"), build_arch_mrrg(arch), ILPMapperOptions(mip_rel_gap=1.0)
        )
        solution = solve_bnb_form(compile_model(formulation.model), time_limit=0.05)
        assert solution.status is SolveStatus.TIMEOUT
        assert solution.wall_time < 1.0


class TestHighsSpecifics:
    def test_time_limit_reported(self):
        m = Model("t")
        x = m.add_binary("x")
        m.add(x >= 1)
        solution = solve_form(compile_model(m), backend="highs", time_limit=10.0)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.wall_time < 10.0

    def test_node_count_is_none_when_unreported(self):
        """HiGHS gives no node count for an infeasibility proof: the
        solution says so instead of claiming zero nodes."""
        m = Model("half")
        x, y = m.add_binary("x"), m.add_binary("y")
        m.add(x + y == 1.5)
        solution = solve_form(compile_model(m), backend="highs", time_limit=10.0)
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.nodes is None

    def test_unknown_backend_rejected(self):
        m = Model("t")
        m.add_binary("x")
        with pytest.raises(ValueError, match="unknown backend"):
            solve_form(compile_model(m), backend="cplex")

    def test_presolve_error_falls_back_to_plain_solve(self):
        # HiGHS's presolve answers "Solve error" on this infeasible row;
        # the backend must still return the proof.
        m = Model("presolve_error")
        a, b, c = (m.add_binary(n) for n in "abc")
        m.add(3 * a + 3 * b - 2 * c == 2)
        solution = solve_form(compile_model(m), backend="highs")
        assert solution.status is SolveStatus.INFEASIBLE
