"""From-scratch branch-and-bound MILP solver.

A pure-Python exact solver built on LP relaxations (``scipy.optimize.linprog``
with the HiGHS simplex/IPM as the LP oracle).  It exists to make the repo's
ILP substrate self-contained and inspectable, and as a cross-check for the
HiGHS MILP backend: on the same model both must agree on
feasible/infeasible, and on optimal objective when both prove optimality.

Algorithm: best-first branch-and-bound with

* most-fractional branching,
* an LP-rounding primal heuristic at every node,
* bound-based pruning with absolute tolerance ``1e-9`` (objectives in the
  CGRA formulation are integral, so pruning with ``ceil(bound) > incumbent``
  is additionally applied when all objective coefficients are integral).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time

import numpy as np
from scipy import optimize

from .standard_form import StandardForm
from .status import Solution, SolveStatus

_INT_TOL = 1e-6
_FEAS_TOL = 1e-7


@dataclasses.dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    lb: np.ndarray = dataclasses.field(compare=False)
    ub: np.ndarray = dataclasses.field(compare=False)
    depth: int = dataclasses.field(compare=False, default=0)


def solve_bnb_form(
    form: StandardForm,
    time_limit: float | None = None,
    node_limit: int | None = None,
) -> Solution:
    """Branch-and-bound over an already-compiled :class:`StandardForm`."""
    start = time.perf_counter()
    c, a_ub, b_ub, a_eq, b_eq, _ = form.to_linprog()
    int_mask = form.integrality == 1
    integral_costs = bool(np.all(np.mod(c[int_mask], 1.0) == 0.0)) and not np.any(
        c[~int_mask]
    )

    def lp(lb: np.ndarray, ub: np.ndarray):
        bounds = [
            (l if math.isfinite(l) else None, u if math.isfinite(u) else None)
            for l, u in zip(lb.tolist(), ub.tolist())
        ]
        # The remaining budget bounds each LP, not just the node loop.
        options = {}
        if time_limit is not None:
            elapsed = time.perf_counter() - start
            options["time_limit"] = max(time_limit - elapsed, 0.0)
        return optimize.linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options=options,
        )

    def out_of_time() -> bool:
        return time_limit is not None and time.perf_counter() - start > time_limit

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    nodes_explored = 0
    counter = itertools.count()
    heap: list[_Node] = []

    root = _Node(-math.inf, next(counter), form.var_lb.copy(), form.var_ub.copy())
    heap.append(root)
    exhausted = True

    while heap:
        if out_of_time() or (node_limit is not None and nodes_explored >= node_limit):
            exhausted = False
            break
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - 1e-9:
            continue
        nodes_explored += 1
        result = lp(node.lb, node.ub)
        if result.status == 1 and out_of_time():  # the LP hit the budget
            exhausted = False
            break
        if result.status == 2:  # infeasible subproblem
            continue
        if result.status == 3:  # unbounded relaxation at the root
            if nodes_explored == 1 and incumbent_x is None:
                return _finish(
                    form, SolveStatus.UNBOUNDED, None, None, start, nodes_explored,
                    "LP relaxation unbounded",
                )
            continue
        if result.status != 0:
            return _finish(
                form, SolveStatus.ERROR, None, None, start, nodes_explored,
                f"LP oracle failure: {result.message}",
            )
        bound = float(result.fun)
        if integral_costs:
            bound = math.ceil(bound - 1e-9)
        if bound >= incumbent_obj - 1e-9:
            continue
        x = np.asarray(result.x)

        frac = np.abs(x - np.round(x))
        frac[~int_mask] = 0.0
        most_fractional = int(np.argmax(frac))
        if frac[most_fractional] <= _INT_TOL:
            # Integral LP optimum: new incumbent.
            candidate = x.copy()
            candidate[int_mask] = np.round(candidate[int_mask])
            obj = float(c @ candidate)
            if obj < incumbent_obj - 1e-9 and form.is_feasible(candidate):
                incumbent_obj, incumbent_x = obj, candidate
            continue

        rounded = _round_heuristic(form, x, int_mask)
        if rounded is not None:
            obj = float(c @ rounded)
            if obj < incumbent_obj - 1e-9:
                incumbent_obj, incumbent_x = obj, rounded

        value = x[most_fractional]
        down_ub = node.ub.copy()
        down_ub[most_fractional] = math.floor(value)
        up_lb = node.lb.copy()
        up_lb[most_fractional] = math.ceil(value)
        heapq.heappush(
            heap, _Node(bound, next(counter), node.lb, down_ub, node.depth + 1)
        )
        heapq.heappush(
            heap, _Node(bound, next(counter), up_lb, node.ub, node.depth + 1)
        )

    if incumbent_x is not None:
        status = SolveStatus.OPTIMAL if exhausted else SolveStatus.FEASIBLE
        return _finish(form, status, incumbent_obj, incumbent_x, start, nodes_explored)
    if exhausted:
        return _finish(form, SolveStatus.INFEASIBLE, None, None, start, nodes_explored)
    return _finish(
        form, SolveStatus.TIMEOUT, None, None, start, nodes_explored,
        "limit reached without incumbent",
    )


def _round_heuristic(
    form: StandardForm, x: np.ndarray, int_mask: np.ndarray
) -> np.ndarray | None:
    """Round integer variables of an LP point; return it if feasible."""
    candidate = x.copy()
    candidate[int_mask] = np.round(candidate[int_mask])
    candidate = np.clip(candidate, form.var_lb, form.var_ub)
    if form.is_feasible(candidate):
        return candidate
    return None


def _finish(
    form: StandardForm,
    status: SolveStatus,
    raw_obj: float | None,
    x: np.ndarray | None,
    start: float,
    nodes: int,
    message: str = "",
) -> Solution:
    values: dict[int, float] = {}
    objective = None
    if x is not None and raw_obj is not None:
        snapped = x.copy()
        ints = form.integrality == 1
        snapped[ints] = np.round(snapped[ints])
        values = {i: float(v) for i, v in enumerate(snapped) if v != 0.0}
        objective = form.report_objective(raw_obj)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        wall_time=time.perf_counter() - start,
        backend="bnb",
        nodes=nodes,
        message=message,
    )
