"""Tests for the lightweight presolver."""

import pytest

from repro.ilp import (
    Model,
    Sense,
    SolveStatus,
    compile_model,
    lin_sum,
    presolve_form,
    solve_form_with_presolve,
    solve_highs_form,
)


def test_singleton_row_fixes_variable():
    m = Model("m")
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add(x == 0)  # paper constraint (3) style row
    m.add(x + y >= 1)
    result = presolve_form(compile_model(m))
    assert not result.infeasible
    # x == 0 fixes x; propagation then turns x + y >= 1 into a singleton
    # row fixing y = 1.
    assert result.fixed == {x.index: 0.0, y.index: 1.0}
    assert result.form.num_vars == 0


def test_forcing_row_fixes_group():
    m = Model("m")
    xs = [m.add_binary(f"x{i}") for i in range(4)]
    m.add(lin_sum(xs) <= 0)
    result = presolve_form(compile_model(m))
    assert result.fixed == {x.index: 0.0 for x in xs}
    assert result.form.num_vars == 0


def test_presolve_detects_infeasibility():
    m = Model("m")
    x = m.add_binary("x")
    m.add(x >= 1)
    m.add(x <= 0)
    result = presolve_form(compile_model(m))
    assert result.infeasible


def test_integer_bound_rounding():
    m = Model("m")
    x = m.add_integer("x", 0, 10)
    m.add(2 * x <= 7)  # x <= 3.5 -> 3 for integer x
    result = presolve_form(compile_model(m))
    assert result.form.var_ub[result.form.var_names.index("x")] == 3


def test_lift_restores_original_space():
    m = Model("m")
    x, y, z = m.add_binary("x"), m.add_binary("y"), m.add_binary("z")
    m.add(x == 1)
    m.add(y + z >= 1)
    m.minimize(5 * x + y + z)
    solution = solve_form_with_presolve(compile_model(m), solve_highs_form)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.value_int(x) == 1
    assert solution.objective == pytest.approx(6.0)  # 5 (fixed) + 1
    assert m.check_assignment(solution.values) == []


def test_presolved_solution_matches_direct_solve():
    m = Model("m")
    xs = [m.add_binary(f"x{i}") for i in range(6)]
    m.add(xs[0] == 0)
    m.add(xs[1] == 1)
    m.add(lin_sum(xs) <= 3)
    m.maximize(lin_sum((i + 1) * x for i, x in enumerate(xs)))
    form = compile_model(m)
    direct = solve_highs_form(form)
    lifted = solve_form_with_presolve(form, solve_highs_form)
    assert direct.status is SolveStatus.OPTIMAL
    assert lifted.status is SolveStatus.OPTIMAL
    assert direct.objective == pytest.approx(lifted.objective)


def test_objective_offset_from_fixed_vars():
    m = Model("m")
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add(x == 1)
    m.minimize(10 * x + y)
    result = presolve_form(compile_model(m))
    assert result.form.c0 == pytest.approx(10.0)


def test_constant_row_consistency_checked():
    m = Model("m")
    x = m.add_binary("x")
    m.add(x == 1)
    # After substitution this row becomes 1 <= 0: infeasible.
    m.add_terms([(x, 1.0)], Sense.LE, 0.0)
    result = presolve_form(compile_model(m))
    assert result.infeasible


def test_fully_fixed_form_is_checked_against_original_rows():
    # Two 25-link chains of implied fixings (x0 = 1, x[i-1] + x[i] = 2)
    # outlast presolve's round budget, so the row joining their ends is
    # still open when every variable is fixed.  a + b = 2 != 5: the
    # lifted assignment must be refuted, as HiGHS alone refutes it.
    m = Model("chains")
    ends = []
    for name in "ab":
        xs = [m.add_binary(f"{name}{i}") for i in range(25)]
        m.add(xs[0] == 1)
        for prev, cur in zip(xs, xs[1:]):
            m.add(prev + cur == 2)
        ends.append(xs[-1])
    m.add(ends[0] + ends[1] == 5)
    form = compile_model(m)
    assert solve_highs_form(form).status is SolveStatus.INFEASIBLE
    assert (
        solve_form_with_presolve(form, solve_highs_form).status
        is SolveStatus.INFEASIBLE
    )
