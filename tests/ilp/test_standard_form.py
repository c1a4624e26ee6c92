"""Tests for model-to-matrix compilation."""

import math

import numpy as np

from repro.ilp import Model, compile_model


def small_model() -> Model:
    m = Model("m")
    x = m.add_binary("x")
    y = m.add_integer("y", 0, 4)
    z = m.add_continuous("z", 0, 10)
    m.add(x + 2 * y <= 6, name="c0")
    m.add(y + z >= 1, name="c1")
    m.add(x + z == 2, name="c2")
    m.minimize(x + y + z)
    return m


def test_shapes_and_integrality():
    form = compile_model(small_model())
    assert form.num_vars == 3
    assert form.num_rows == 3
    assert list(form.integrality) == [1, 1, 0]
    assert list(form.var_ub) == [1.0, 4.0, 10.0]


def test_row_bounds_by_sense():
    form = compile_model(small_model())
    assert form.row_lb[0] == -math.inf and form.row_ub[0] == 6
    assert form.row_lb[1] == 1 and form.row_ub[1] == math.inf
    assert form.row_lb[2] == 2 and form.row_ub[2] == 2


def test_matrix_entries():
    form = compile_model(small_model())
    dense = form.A.toarray()
    np.testing.assert_allclose(dense[0], [1, 2, 0])
    np.testing.assert_allclose(dense[1], [0, 1, 1])
    np.testing.assert_allclose(dense[2], [1, 0, 1])


def test_maximization_negates_costs():
    m = Model("m")
    x = m.add_binary("x")
    m.maximize(3 * x + 1)
    form = compile_model(m)
    assert form.maximize
    assert form.c[0] == -3.0
    # report_objective undoes the negation and re-adds the constant.
    assert form.report_objective(-3.0) == 4.0


def test_objective_constant_carried():
    m = Model("m")
    x = m.add_binary("x")
    m.minimize(x + 7)
    form = compile_model(m)
    assert form.report_objective(1.0) == 8.0


def test_to_linprog_split():
    form = compile_model(small_model())
    c, a_ub, b_ub, a_eq, b_eq, bounds = form.to_linprog()
    assert a_eq.shape[0] == 1 and b_eq[0] == 2
    # one <= row and one >= row (negated into <=)
    assert a_ub.shape[0] == 2
    assert b_ub[0] == 6 and b_ub[1] == -1
    assert bounds[0] == (0.0, 1.0)


def test_zero_coefficients_dropped():
    m = Model("m")
    x, y = m.add_binary("x"), m.add_binary("y")
    m.add(x + 0.0 * y <= 1)
    form = compile_model(m)
    assert form.A.nnz == 1


def test_empty_model_compiles():
    m = Model("empty")
    m.add_binary("x")
    form = compile_model(m)
    assert form.num_rows == 0
    assert form.num_vars == 1


def test_is_feasible_checks_bounds_rows_and_integrality():
    form = compile_model(small_model())
    assert form.is_feasible(np.array([0.0, 1.0, 2.0]))
    assert not form.is_feasible(np.array([0.0, -1.0, 2.0]))  # y < lb only
    assert not form.is_feasible(np.array([1.0, 0.0, 2.0]))  # c2 only
    assert not form.is_feasible(np.array([0.0, 0.5, 2.0]))  # integrality only
