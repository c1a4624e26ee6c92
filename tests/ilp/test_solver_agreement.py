"""Property-based cross-check: HiGHS vs the from-scratch B&B solver.

On random small binary programs both exact solvers must agree on
feasibility, and on the optimal objective value whenever feasible.  The
B&B incumbent must also satisfy the model (checked independently).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ilp import (
    Model,
    Sense,
    SolveStatus,
    compile_model,
    lin_sum,
    solve_bnb_form,
    solve_highs_form,
)


@st.composite
def random_binary_programs(draw) -> Model:
    num_vars = draw(st.integers(min_value=2, max_value=7))
    num_rows = draw(st.integers(min_value=1, max_value=6))
    m = Model("rand")
    xs = [m.add_binary(f"x{i}") for i in range(num_vars)]
    coeff = st.integers(min_value=-4, max_value=4)
    for r in range(num_rows):
        terms = [
            (x, float(draw(coeff))) for x in xs if draw(st.booleans())
        ]
        if not terms:
            terms = [(xs[0], 1.0)]
        sense = draw(st.sampled_from([Sense.LE, Sense.GE, Sense.EQ]))
        rhs = float(draw(st.integers(min_value=-3, max_value=6)))
        m.add_terms(terms, sense, rhs, name=f"r{r}")
    objective = lin_sum(float(draw(coeff)) * x for x in xs)
    if draw(st.booleans()):
        m.minimize(objective)
    else:
        m.maximize(objective)
    return m


@given(random_binary_programs())
@settings(max_examples=40, deadline=None)
def test_backends_agree(model):
    form = compile_model(model)
    highs = solve_highs_form(form)
    bnb = solve_bnb_form(form)
    assert highs.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
    assert bnb.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
    assert highs.status == bnb.status
    if highs.status is SolveStatus.OPTIMAL:
        assert abs(highs.objective - bnb.objective) < 1e-6
        assert model.check_assignment(bnb.values) == []
        assert model.check_assignment(highs.values) == []


@given(random_binary_programs())
@settings(max_examples=25, deadline=None)
def test_brute_force_agreement(model):
    """Exhaustive enumeration on tiny programs is the ground truth."""
    import itertools

    xs = model.variables
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(xs)):
        assignment = {x.index: b for x, b in zip(xs, bits)}
        if model.check_assignment(assignment):
            continue
        value = model.objective_value(assignment)
        if best is None:
            best = value
        elif model.objective_sense == "min":
            best = min(best, value)
        else:
            best = max(best, value)
    solution = solve_highs_form(compile_model(model))
    if best is None:
        assert solution.status is SolveStatus.INFEASIBLE
    else:
        assert solution.status is SolveStatus.OPTIMAL
        assert abs(solution.objective - best) < 1e-6
