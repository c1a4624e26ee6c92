"""Lightweight presolve, operating natively on :class:`StandardForm`.

Implements the reductions that matter for the CGRA mapping formulation,
where many binaries are fixed by legality constraints (the paper's
constraint (3) is a family of ``F_{p,q} = 0`` rows):

* **singleton rows**: a constraint over one variable tightens its bounds;
* **fixed variables**: variables with ``lb == ub`` are substituted out;
* **empty rows**: constant constraints are checked and dropped;
* **forcing rows**: a ``<= 0`` (or ``== 0``) row whose coefficients are all
  positive over nonnegative variables fixes all of them to zero.

Reductions iterate to a fixed point.  :func:`presolve_form` screens
candidate rows with vectorized activity arithmetic (one sparse matvec per
round for fixed-variable contributions, one pattern matvec for per-row
live-variable counts) and only walks the flagged rows in Python.
:func:`solve_form_with_presolve` presolves, hands the reduced form to a
backend and lifts the answer back to the original variables.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse

from .standard_form import StandardForm
from .status import Solution, SolveStatus

_TOL = 1e-9


@dataclasses.dataclass
class FormPresolveResult:
    """Outcome of presolving a compiled form.

    Attributes:
        form: reduced form (None when presolve proved infeasibility).
            Its ``c0`` absorbs the fixed variables' objective
            contribution, so ``report_objective`` on a reduced-space
            solution already reports the original objective.
        fixed: original-var-index -> value for substituted variables.
        index_map: reduced-var-index -> original-var-index.
        row_map: reduced-row-index -> original-row-index.
        infeasible: True when presolve proved infeasibility.
    """

    form: StandardForm | None
    fixed: dict[int, float]
    index_map: np.ndarray
    row_map: np.ndarray
    infeasible: bool

    def lift(self, solution: Solution) -> Solution:
        """Translate a reduced-space solution back to the original space."""
        if not solution.status.has_solution:
            return solution
        values = dict(self.fixed)
        for reduced_idx, value in solution.values.items():
            values[int(self.index_map[reduced_idx])] = value
        return dataclasses.replace(solution, values=values)


def presolve_form(form: StandardForm, max_rounds: int = 25) -> FormPresolveResult:
    """Apply reductions to a compiled form until fixed point."""
    num_rows, num_vars = form.num_rows, form.num_vars
    lb = form.var_lb.astype(float, copy=True)
    ub = form.var_ub.astype(float, copy=True)
    is_int = form.integrality != 0
    a = form.A
    # Pattern matrix for live-variable counts (coefficients are nonzero
    # by construction — both emission paths drop exact zeros).
    pattern = sparse.csr_matrix(
        (np.ones_like(a.data), a.indices, a.indptr), shape=a.shape
    )
    active = np.ones(num_rows, dtype=bool)

    def tighten(idx: int, new_lb: float, new_ub: float) -> bool:
        """Returns False on empty domain; ±inf bounds are no-ops."""
        if new_lb > lb[idx]:
            lb[idx] = math.ceil(new_lb - _TOL) if is_int[idx] else new_lb
        if new_ub < ub[idx]:
            ub[idx] = math.floor(new_ub + _TOL) if is_int[idx] else new_ub
        return lb[idx] <= ub[idx] + 1e-12

    infeasible = False
    for _ in range(max_rounds):
        fixed_mask = lb == ub
        const = a @ np.where(fixed_mask, lb, 0.0)
        live = pattern @ (~fixed_mask).astype(float)
        adj_lb = form.row_lb - const
        adj_ub = form.row_ub - const

        # Vectorized candidate screens; only flagged rows are walked.
        empty_rows = np.flatnonzero(active & (live < 0.5))
        singleton_rows = np.flatnonzero(active & (live > 0.5) & (live < 1.5))
        forcing_rows = np.flatnonzero(
            active & (live >= 1.5) & np.isfinite(adj_ub) & (adj_ub <= 1e-12)
        )
        changed = False

        for r in empty_rows:
            if not (adj_lb[r] <= _TOL and adj_ub[r] >= -_TOL):
                infeasible = True
            active[r] = False
            changed = True
        if infeasible:
            break

        for r in singleton_rows:
            span = slice(a.indptr[r], a.indptr[r + 1])
            for col, coeff in zip(a.indices[span], a.data[span]):
                if not fixed_mask[col]:
                    break
            else:  # pragma: no cover - live count guarantees a hit
                continue
            lo, hi = adj_lb[r] / coeff, adj_ub[r] / coeff
            if coeff < 0:
                lo, hi = hi, lo
            if not tighten(int(col), lo, hi):
                infeasible = True
            active[r] = False
            changed = True
        if infeasible:
            break

        for r in forcing_rows:
            span = slice(a.indptr[r], a.indptr[r + 1])
            cols = a.indices[span]
            unfixed = cols[~fixed_mask[cols]]
            if np.any(a.data[span][~fixed_mask[cols]] <= 0.0):
                continue
            if np.any(lb[unfixed] < 0.0):
                continue
            # All-positive row over nonnegative vars: the row minimum is
            # zero, so a negative rhs is unsatisfiable; rhs == 0 forces
            # every variable to zero.
            if adj_ub[r] < -_TOL:
                infeasible = True
            elif not all(tighten(int(col), -math.inf, 0.0) for col in unfixed):
                infeasible = True
            active[r] = False
            changed = True
        if infeasible or not changed:
            break

    if infeasible:
        return FormPresolveResult(
            None, {}, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), True
        )

    fixed_mask = lb == ub
    fixed = {int(i): float(lb[i]) for i in np.flatnonzero(fixed_mask)}
    keep_cols = np.flatnonzero(~fixed_mask)
    keep_rows = np.flatnonzero(active)
    const = a @ np.where(fixed_mask, lb, 0.0)

    reduced_a = a[keep_rows][:, keep_cols].tocsr()
    reduced_a.sort_indices()
    reduced = StandardForm(
        c=form.c[keep_cols],
        c0=form.c0 + float(form.c @ np.where(fixed_mask, lb, 0.0)),
        A=reduced_a,
        row_lb=form.row_lb[keep_rows] - const[keep_rows],
        row_ub=form.row_ub[keep_rows] - const[keep_rows],
        var_lb=lb[keep_cols],
        var_ub=ub[keep_cols],
        integrality=form.integrality[keep_cols],
        maximize=form.maximize,
        name=f"{form.name}.presolved" if form.name else "presolved",
        row_labels=(
            tuple(form.row_labels[int(r)] for r in keep_rows)
            if form.row_labels is not None
            else None
        ),
        var_names=(
            tuple(form.var_names[int(j)] for j in keep_cols)
            if form.var_names is not None
            else None
        ),
        blocks=None,  # row removal invalidates the contiguous block spans
    )
    return FormPresolveResult(reduced, fixed, keep_cols, keep_rows, False)


def solve_form_with_presolve(form: StandardForm, solve_fn) -> Solution:
    """Presolve, delegate to ``solve_fn(reduced_form)``, lift the result.

    ``solve_fn`` receives the reduced form; its reported objective is
    already in original terms because the reduced ``c0`` absorbs the
    fixed variables' contribution.
    """
    result = presolve_form(form)
    if result.infeasible:
        return Solution(status=SolveStatus.INFEASIBLE, backend="presolve",
                        message="proven infeasible in presolve")
    reduced = result.form
    assert reduced is not None
    if reduced.num_vars == 0:
        # Presolve fixed everything, possibly with rows still open when
        # the round budget ran out; re-check the complete assignment
        # against the *original* form rather than trusting bookkeeping.
        x = np.array([result.fixed[j] for j in range(form.num_vars)])
        if not form.is_feasible(x):
            return Solution(
                status=SolveStatus.INFEASIBLE,
                backend="presolve",
                message="proven infeasible in presolve (fixed point check)",
            )
        return result.lift(
            Solution(
                status=SolveStatus.OPTIMAL,
                objective=reduced.report_objective(0.0),
                backend="presolve",
                message="fully solved in presolve",
            )
        )
    return result.lift(solve_fn(reduced))
