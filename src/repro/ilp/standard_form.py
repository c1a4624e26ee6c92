"""Compilation of a :class:`~repro.ilp.model.Model` to matrix standard form.

Both backends consume the same :class:`StandardForm`:

* minimize ``c @ x + c0``
* subject to ``row_lb <= A @ x <= row_ub`` and ``var_lb <= x <= var_ub``
* ``integrality[i] = 1`` marks integer-constrained variables.

Maximization models are compiled by negating ``c`` (the solution layer
un-negates the reported objective).

The model already keeps its rows as flat, per-row-sorted CSR triplets
with ranged bounds, so ``compile_model`` is O(nnz) array conversion with
no per-row Python work.  The compiled form carries optional diagnostic
metadata, per-row labels and per-variable names, which
``repro.analyze.model_audit`` reports (a row's constraint family is the
prefix of its label).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse

from .expr import VarType
from .model import Model


@dataclasses.dataclass
class StandardForm:
    """Matrix form of a MILP (see module docstring).

    The trailing metadata fields are optional diagnostics: ``row_labels``
    and ``var_names`` name rows/columns for audit findings and IIS
    reports.  They do not affect solving.
    """

    c: np.ndarray
    c0: float
    A: sparse.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    maximize: bool
    name: str = ""
    row_labels: tuple[str, ...] | None = None
    var_names: tuple[str, ...] | None = None

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def row_label(self, i: int) -> str:
        """Diagnostic name of row ``i`` (falls back to ``#i``)."""
        if self.row_labels is not None and self.row_labels[i]:
            return self.row_labels[i]
        return f"#{i}"

    def var_name(self, j: int) -> str:
        """Diagnostic name of variable ``j`` (falls back to ``x{j}``)."""
        if self.var_names is not None and self.var_names[j]:
            return self.var_names[j]
        return f"x{j}"

    def to_linprog(self) -> tuple[np.ndarray, sparse.csr_matrix | None, np.ndarray | None,
                                  sparse.csr_matrix | None, np.ndarray | None, list]:
        """Split ranged rows into (A_ub, b_ub) / (A_eq, b_eq) for linprog."""
        eq_mask = self.row_lb == self.row_ub
        ub_mask = ~eq_mask & np.isfinite(self.row_ub)
        lb_mask = ~eq_mask & np.isfinite(self.row_lb)

        a_eq = b_eq = a_ub = b_ub = None
        if eq_mask.any():
            a_eq = self.A[eq_mask]
            b_eq = self.row_ub[eq_mask]
        blocks, rhs = [], []
        if ub_mask.any():
            blocks.append(self.A[ub_mask])
            rhs.append(self.row_ub[ub_mask])
        if lb_mask.any():
            blocks.append(-self.A[lb_mask])
            rhs.append(-self.row_lb[lb_mask])
        if blocks:
            a_ub = sparse.vstack(blocks, format="csr")
            b_ub = np.concatenate(rhs)
        bounds = [
            (lb if math.isfinite(lb) else None, ub if math.isfinite(ub) else None)
            for lb, ub in zip(self.var_lb.tolist(), self.var_ub.tolist())
        ]
        return self.c, a_ub, b_ub, a_eq, b_eq, bounds

    def report_objective(self, raw: float) -> float:
        """Convert the minimized objective back to the model's sense."""
        value = raw + self.c0
        return -value if self.maximize else value

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """True when ``x`` satisfies every bound, row and integrality."""
        if np.any(x < self.var_lb - tol) or np.any(x > self.var_ub + tol):
            return False
        if self.num_rows:
            ax = self.A @ x
            if np.any(ax < self.row_lb - tol) or np.any(ax > self.row_ub + tol):
                return False
        ints = self.integrality == 1
        return bool(np.all(np.abs(x[ints] - np.round(x[ints])) <= tol))


def compile_model(model: Model) -> StandardForm:
    """Lower a model to :class:`StandardForm`.

    Row order matches the model's row order exactly; within every row
    the column indices are sorted, so equal rows are byte-identical in
    the CSR arrays (the auditor's duplicate detection relies on this).
    """
    variables = model.variables
    num_vars = len(variables)
    c = np.zeros(num_vars)
    maximize = model.objective_sense == "max"
    for idx, coeff in model.objective.terms.items():
        c[idx] = -coeff if maximize else coeff
    c0 = -model.objective.constant if maximize else model.objective.constant

    a = sparse.csr_matrix(
        (
            np.asarray(model.data, dtype=float),
            np.asarray(model.cols, dtype=np.int64),
            np.asarray(model.indptr, dtype=np.int64),
        ),
        shape=(model.num_constraints, num_vars),
    )
    return StandardForm(
        c=c,
        c0=c0,
        A=a,
        row_lb=np.asarray(model.row_lb, dtype=float),
        row_ub=np.asarray(model.row_ub, dtype=float),
        var_lb=np.array([v.lb for v in variables], dtype=float),
        var_ub=np.array([v.ub for v in variables], dtype=float),
        integrality=np.array(
            [0 if v.vtype is VarType.CONTINUOUS else 1 for v in variables],
            dtype=np.int64,
        ),
        maximize=maximize,
        name=model.name,
        row_labels=tuple(model.labels),
        var_names=tuple(v.name for v in variables),
    )
