"""Compilation of a :class:`~repro.ilp.model.Model` to matrix standard form.

Both backends consume the same :class:`StandardForm`:

* minimize ``c @ x + c0``
* subject to ``row_lb <= A @ x <= row_ub`` and ``var_lb <= x <= var_ub``
* ``integrality[i] = 1`` marks integer-constrained variables.

Maximization models are compiled by negating ``c`` (the solution layer
un-negates the reported objective).

``compile_model`` lowers the two row-storage kinds differently:

* **row blocks** (from ``Model.add_rows``) are already flat sorted
  triplets — compilation is O(nnz) array conversion plus one global
  concatenation, with no per-row Python work;
* **per-row constraints** (from ``Model.add`` / ``Model.add_terms``:
  the mapper's registered-feedback rows and hand-built models) keep the
  per-``LinExpr`` dict walk.

The compiled form carries optional diagnostic metadata — per-row labels,
per-variable names, and :class:`~repro.ilp.blocks.BlockInfo` spans for
family-tagged row blocks — which ``repro.ilp.presolve`` and
``repro.analyze.model_audit`` consume.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse

from .blocks import BlockInfo, RowBlock
from .expr import Sense, VarType
from .model import Model


@dataclasses.dataclass
class StandardForm:
    """Matrix form of a MILP (see module docstring).

    The trailing metadata fields are optional diagnostics: ``row_labels``
    and ``var_names`` name rows/columns for audit findings and IIS
    reports, ``blocks`` records the family-tagged row spans emitted
    through the block API.  They do not affect solving.
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
    blocks: tuple[BlockInfo, ...] | None = None

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

    Row blocks compile with O(nnz) array concatenation; legacy per-row
    constraints with the original dict walk.  Row order matches the
    model's global row order exactly; within every row the column
    indices are sorted, so equal rows are byte-identical in the CSR
    arrays (the auditor's duplicate detection relies on this).
    """
    num_vars = len(model.variables)
    c = np.zeros(num_vars)
    maximize = model.objective_sense == "max"
    for idx, coeff in model.objective.terms.items():
        c[idx] = -coeff if maximize else coeff
    c0 = -model.objective.constant if maximize else model.objective.constant

    indptr_parts: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    col_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    lb_parts: list[np.ndarray] = []
    ub_parts: list[np.ndarray] = []
    labels: list[str] = []
    blocks: list[BlockInfo] = []
    nnz = 0
    num_rows = 0
    for segment in model.row_segments:
        if isinstance(segment, RowBlock):
            blocks.append(
                BlockInfo(segment.family, num_rows, num_rows + segment.num_rows)
            )
            indptr_parts.append(
                np.asarray(segment.indptr[1:], dtype=np.int64) + nnz
            )
            col_parts.append(np.asarray(segment.cols, dtype=np.int64))
            data_parts.append(np.asarray(segment.data, dtype=float))
            lb_parts.append(np.asarray(segment.lb, dtype=float))
            ub_parts.append(np.asarray(segment.ub, dtype=float))
            labels.extend(segment.labels)
            nnz += segment.num_nonzeros
            num_rows += segment.num_rows
        else:
            seg_indptr: list[int] = []
            seg_cols: list[int] = []
            seg_data: list[float] = []
            seg_lb: list[float] = []
            seg_ub: list[float] = []
            for constraint in segment.constraints:
                terms = sorted(
                    (idx, coeff)
                    for idx, coeff in constraint.expr.terms.items()
                    if coeff != 0.0
                )
                for idx, coeff in terms:
                    seg_cols.append(idx)
                    seg_data.append(coeff)
                if constraint.sense is Sense.LE:
                    seg_lb.append(-math.inf)
                    seg_ub.append(constraint.rhs)
                elif constraint.sense is Sense.GE:
                    seg_lb.append(constraint.rhs)
                    seg_ub.append(math.inf)
                else:
                    seg_lb.append(constraint.rhs)
                    seg_ub.append(constraint.rhs)
                seg_indptr.append(len(seg_cols))
                labels.append(constraint.name)
            indptr_parts.append(np.asarray(seg_indptr, dtype=np.int64) + nnz)
            col_parts.append(np.asarray(seg_cols, dtype=np.int64))
            data_parts.append(np.asarray(seg_data, dtype=float))
            lb_parts.append(np.asarray(seg_lb, dtype=float))
            ub_parts.append(np.asarray(seg_ub, dtype=float))
            nnz += len(seg_cols)
            num_rows += len(segment.constraints)

    indptr = np.concatenate(indptr_parts)
    col_idx = (
        np.concatenate(col_parts) if col_parts else np.zeros(0, dtype=np.int64)
    )
    data = np.concatenate(data_parts) if data_parts else np.zeros(0)
    a = sparse.csr_matrix(
        (data, col_idx, indptr), shape=(num_rows, num_vars)
    )
    row_lb = np.concatenate(lb_parts) if lb_parts else np.zeros(0)
    row_ub = np.concatenate(ub_parts) if ub_parts else np.zeros(0)

    var_lb = np.array([v.lb for v in model.variables], dtype=float)
    var_ub = np.array([v.ub for v in model.variables], dtype=float)
    integrality = np.array(
        [0 if v.vtype is VarType.CONTINUOUS else 1 for v in model.variables],
        dtype=np.int64,
    )
    return StandardForm(
        c=c,
        c0=c0,
        A=a,
        row_lb=row_lb,
        row_ub=row_ub,
        var_lb=var_lb,
        var_ub=var_ub,
        integrality=integrality,
        maximize=maximize,
        name=model.name,
        row_labels=tuple(labels),
        var_names=tuple(v.name for v in model.variables),
        blocks=tuple(blocks),
    )
