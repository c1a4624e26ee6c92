"""The arrival and in-flow rows tighten the LP bound and cut no mapping.

An optimality solve (``mip_rel_gap`` None) builds the section-4 rows plus
two families that every integer solution already satisfies (DESIGN.md
section 5.7); a feasibility solve (``mip_rel_gap=1.0``) builds the
paper's rows alone.  Both forms share their columns, so an integer
solution of the feasibility form can be checked row by row against the
optimality form's extra rows.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from repro.arch import GridSpec, build_grid
from repro.arch.testsuite import paper_architecture
from repro.frontend import compile_path
from repro.ilp import SolveStatus, compile_model, solve_highs_form
from repro.kernels.registry import kernel
from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
from repro.mrrg import build_mrrg_from_module, prune

LOOPS = Path(__file__).parents[2] / "examples" / "loops"
BOUND_FAMILIES = ("arrival", "inflow")


def _dfg(name: str):
    path = LOOPS / f"{name}.py"
    return compile_path(path).dfg if path.exists() else kernel(name)


def _mrrg(fabric: str, size: int, ii: int):
    """``fabric``: "grid" (the plain test grid) or a paper interconnect."""
    if fabric == "grid":
        arch = build_grid(GridSpec(rows=size, cols=size), name=f"grid{size}x{size}")
    else:
        arch = paper_architecture("homogeneous", fabric, rows=size, cols=size)
    return prune(build_mrrg_from_module(arch, ii))


def _forms(dfg, mrrg, **options):
    """(feasibility-mode form, optimality-mode form) of one instance."""
    forms = []
    for gap in (1.0, None):
        formulation = build_formulation(
            dfg, mrrg, ILPMapperOptions(mip_rel_gap=gap, **options)
        )
        assert formulation.infeasible_reason is None
        forms.append(compile_model(formulation.model))
    feasibility, optimality = forms
    assert feasibility.var_names == optimality.var_names
    return feasibility, optimality


def _bound_rows(form) -> list[int]:
    return [
        row
        for block in form.blocks
        if block.family in BOUND_FAMILIES
        for row in range(block.start, block.stop)
    ]


def _lp_bound(form) -> float:
    c, a_ub, b_ub, a_eq, b_eq, bounds = form.to_linprog()
    result = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    assert result.status == 0, result.message
    return form.report_objective(float(result.fun))


def test_optimality_form_extends_feasibility_form():
    """The bound rows are appended: every other row keeps its position."""
    feasibility, optimality = _forms(
        _dfg("clipacc"), _mrrg("diagonal", 3, 1), require_registered_feedback=True
    )
    n = feasibility.num_rows
    rows = _bound_rows(optimality)
    assert rows == list(range(n, optimality.num_rows))
    assert not _bound_rows(feasibility)
    assert optimality.row_labels[:n] == feasibility.row_labels
    assert (optimality.A[:n] != feasibility.A).nnz == 0
    assert optimality.row_lb[:n].tobytes() == feasibility.row_lb.tobytes()
    assert optimality.row_ub[:n].tobytes() == feasibility.row_ub.tobytes()
    assert optimality.c.tobytes() == feasibility.c.tobytes()


# Each case: kernel (Table 1 or examples/loops), fabric, grid side, II,
# operand mode, registered feedback.  Table-1 kernels sit on the plain
# test grid, where HiGHS finds incumbents in under a second.
VALIDITY_CASES = [
    ("2x2-f", "grid", 2, 2, "strict", False),
    ("2x2-p", "grid", 3, 1, "commutative", True),
    ("accum", "grid", 3, 1, "strict", True),
    ("mac", "grid", 2, 2, "commutative", False),
    ("gather2", "orthogonal", 2, 1, "commutative", False),
    ("gather2", "diagonal", 3, 2, "strict", True),
    ("clipacc", "diagonal", 2, 1, "commutative", True),
    ("clipacc", "orthogonal", 3, 2, "strict", False),
    ("dot", "orthogonal", 3, 1, "strict", True),
]


@pytest.mark.parametrize(
    "name,fabric,size,ii,mode,feedback",
    VALIDITY_CASES,
    ids=["-".join(map(str, case)) for case in VALIDITY_CASES],
)
def test_integer_solutions_satisfy_bound_rows(name, fabric, size, ii, mode, feedback):
    """No integer solution of the paper's rows violates a bound row.

    The solutions come from the feasibility form under four objectives:
    its own (fewest route nodes), the negated one and two seeded random
    negative weightings of the routing columns.  The last three reward
    every used route node, so stray routes and cycles appear.  A node
    limit keeps each solve short and the same on any machine.
    """
    feasibility, optimality = _forms(
        _dfg(name),
        _mrrg(fabric, size, ii),
        operand_mode=mode,
        require_registered_feedback=feedback,
    )
    rows = _bound_rows(optimality)
    assert rows
    a = optimality.A[rows]
    lb, ub = optimality.row_lb[rows], optimality.row_ub[rows]

    routing = np.array(
        [j for j, v in enumerate(feasibility.var_names) if v.startswith("R[")]
    )
    rng = np.random.default_rng(len(routing))
    objectives = [feasibility.c, -feasibility.c]
    for _ in range(2):
        c = np.zeros(feasibility.num_vars)
        c[routing] = -rng.random(routing.size)
        objectives.append(c)

    for c in objectives:
        solution = solve_highs_form(
            dataclasses.replace(feasibility, c=c),
            time_limit=60,
            mip_rel_gap=1.0,
            node_limit=10,
        )
        assert solution.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
        x = np.zeros(feasibility.num_vars)
        for j, value in solution.values.items():
            x[j] = value
        assert feasibility.is_feasible(x)
        ax = a @ x
        violated = np.nonzero((ax < lb - 1e-6) | (ax > ub + 1e-6))[0]
        assert not violated.size, [optimality.row_label(rows[i]) for i in violated]


@pytest.mark.parametrize(
    "name,fabric,size,ii,feedback,objective",
    [
        ("gather2", "orthogonal", 2, 1, True, 20.0),
        ("gather2", "diagonal", 2, 2, True, 18.0),
        ("saxpy", "diagonal", 3, 1, True, 28.0),
        ("2x2-f", "orthogonal", 2, 1, False, None),
        ("mac", "orthogonal", 3, 1, True, None),
    ],
)
def test_same_verdict_and_optimum_both_ways(name, fabric, size, ii, feedback, objective):
    """Solved to optimality, both forms give one verdict and optimum."""
    forms = _forms(
        _dfg(name), _mrrg(fabric, size, ii), require_registered_feedback=feedback
    )
    for form in forms:
        solution = solve_highs_form(form, time_limit=60)
        expected = SolveStatus.INFEASIBLE if objective is None else SolveStatus.OPTIMAL
        assert solution.status is expected
        assert solution.objective == objective


def test_root_lp_bound_reaches_clipacc_optimum():
    """clipacc on the 3x3 diagonal fabric: LP bound 23 -> 27, the optimum.

    27 is the proven optimum (perfbench/expected/loops-verified.json), so
    a bound above it would mean a row cut a real mapping.
    """
    feasibility, optimality = _forms(
        _dfg("clipacc"), _mrrg("diagonal", 3, 1), require_registered_feedback=True
    )
    assert _lp_bound(feasibility) == pytest.approx(23.0)
    assert _lp_bound(optimality) == pytest.approx(27.0)
