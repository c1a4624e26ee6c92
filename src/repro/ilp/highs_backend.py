"""HiGHS MILP backend via :func:`scipy.optimize.milp`.

This plays the role Gurobi plays in the paper: an exact solver whose
``OPTIMAL`` / ``INFEASIBLE`` answers are proofs.  SciPy's ``milp`` wraps the
HiGHS branch-and-cut solver.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import optimize

from .standard_form import StandardForm
from .status import Solution, SolveStatus

# scipy.optimize.milp status codes -> our statuses.  Code 1 is
# "iteration/time limit", 2 "infeasible", 3 "unbounded", 4 "other".
_STATUS_BY_CODE = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIMEOUT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_highs_form(
    form: StandardForm,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
    node_limit: int | None = None,
) -> Solution:
    """Solve a compiled :class:`StandardForm` with HiGHS.

    Args:
        form: the MILP to solve.
        time_limit: wall-clock budget in seconds (None = unlimited).
        mip_rel_gap: relative optimality gap at which to stop; e.g. 1.0
            effectively turns the solve into a feasibility check once an
            incumbent is found.
        node_limit: maximum branch-and-bound nodes.

    Returns:
        A :class:`~repro.ilp.status.Solution`; ``TIMEOUT`` with an incumbent
        is downgraded to ``FEASIBLE`` (a usable mapping without an
        optimality proof).
    """
    options: dict[str, object] = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)

    constraints = None
    if form.num_rows:
        constraints = optimize.LinearConstraint(form.A, form.row_lb, form.row_ub)
    bounds = optimize.Bounds(form.var_lb, form.var_ub)

    start = time.perf_counter()
    result = optimize.milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality,
        bounds=bounds,
        options=options,
    )
    if result.status == 4:
        # HiGHS's MIP presolve can stop with "Solve error" on a model it
        # should settle (e.g. the infeasible binary row 3a + 3b - 2c = 2);
        # the same model without presolve gets an exact answer.
        options["presolve"] = False
        if time_limit is not None:
            options["time_limit"] = max(0.0, float(time_limit) - (time.perf_counter() - start))
        result = optimize.milp(
            c=form.c,
            constraints=constraints,
            integrality=form.integrality,
            bounds=bounds,
            options=options,
        )
    elapsed = time.perf_counter() - start

    status = _STATUS_BY_CODE.get(result.status, SolveStatus.ERROR)
    values: dict[int, float] = {}
    objective = None
    if result.x is not None:
        x = np.asarray(result.x, dtype=float)
        # Snap integer variables to avoid 1e-9 noise downstream.
        x[form.integrality == 1] = np.round(x[form.integrality == 1])
        values = {i: float(v) for i, v in enumerate(x) if v != 0.0}
        objective = form.report_objective(float(form.c @ x))
        if status is SolveStatus.TIMEOUT:
            status = SolveStatus.FEASIBLE
        if status is SolveStatus.OPTIMAL and mip_rel_gap and mip_rel_gap > 0:
            # With a nonzero allowed gap the incumbent may be suboptimal.
            gap = getattr(result, "mip_gap", None)
            if gap is not None and math.isfinite(gap) and gap > 1e-9:
                status = SolveStatus.FEASIBLE
    # milp leaves the node count None for infeasibility proofs and for
    # timeouts without an incumbent: unreported, not zero.
    nodes = getattr(result, "mip_node_count", None)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        wall_time=elapsed,
        backend="highs",
        nodes=None if nodes is None else int(nodes),
        message=str(result.message),
    )
