"""MILP model container.

A :class:`Model` owns variables, constraint rows and an objective.  It is
backend-independent: ``compile_model`` lowers it to a ``StandardForm``,
which ``repro.ilp.solve`` dispatches to a concrete solver (HiGHS via SciPy,
or the pure-Python branch-and-bound in ``repro.ilp.bnb``).

Rows are stored once, in emission order, as CSR-style triplets
(``indptr`` delimits each row's slice of the flat ``cols``/``data``
lists) with ranged bounds (``row_lb <= a @ x <= row_ub``) and a label
per row.  Within a row the columns are strictly increasing and every
coefficient is nonzero.  Two surfaces append to the store:

* the expression surface (:meth:`Model.add` / :meth:`Model.add_terms`)
  lowers each :class:`~repro.ilp.expr.Constraint` when it is added, for
  small hand-written models;
* the index surface (:meth:`Model.sorted_row` / :meth:`Model.pairs_row`)
  appends rows given as column indices, which is what the CGRA
  formulation builder emits through.

Row order is part of the model identity (solver search paths depend on
it): rows are never sorted across, only within, which keeps emission
deterministic as long as the caller iterates deterministically (see
``repro.analyze.lint`` rule R001).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

from .expr import Constraint, LinExpr, Sense, Var, VarType


class ModelError(ValueError):
    """Raised for invalid model construction."""


class ObjectiveSense:
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclasses.dataclass(frozen=True)
class ModelStats:
    """Size summary of a model (useful for reporting formulation scale)."""

    num_vars: int
    num_binary: int
    num_integer: int
    num_continuous: int
    num_constraints: int
    num_nonzeros: int


def _default_var_name(family: str, key) -> str:
    if isinstance(key, tuple):
        return family + "".join(f"[{part}]" for part in key)
    return f"{family}[{key}]"


class Model:
    """A mixed-integer linear program."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._vars: list[Var] = []
        self._var_names: dict[str, Var] = {}
        # The row store (see module docstring).
        self.indptr: list[int] = [0]
        self.cols: list[int] = []
        self.data: list[float] = []
        self.row_lb: list[float] = []
        self.row_ub: list[float] = []
        self.labels: list[str] = []
        self._objective: LinExpr = LinExpr()
        self._sense: str = ObjectiveSense.MINIMIZE

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Var:
        """Create a decision variable.

        Raises:
            ModelError: on duplicate names or inconsistent bounds.
        """
        if not name:
            raise ModelError("variable name must be non-empty")
        if name in self._var_names:
            raise ModelError(f"duplicate variable name {name!r}")
        if lb > ub:
            raise ModelError(f"variable {name!r} has lb {lb} > ub {ub}")
        if vtype is VarType.BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        var = Var(name, len(self._vars), lb, ub, vtype)
        self._vars.append(var)
        self._var_names[name] = var
        return var

    def add_binary(self, name: str) -> Var:
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_integer(self, name: str, lb: float = 0.0, ub: float = math.inf) -> Var:
        return self.add_var(name, lb, ub, VarType.INTEGER)

    def add_continuous(self, name: str, lb: float = 0.0, ub: float = math.inf) -> Var:
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    def add_var_block(
        self, family: str, keys: Iterable, name_fn=None
    ) -> tuple[range, list[Var]]:
        """Create one binary variable per key, at contiguous indices.

        Args:
            family: variable names default to ``family[k0][k1]...`` for
                tuple keys, ``family[key]`` otherwise.
            keys: per-variable keys, in emission order (must be
                deterministic: variable order is part of the model).
            name_fn: optional ``(family, key) -> str`` naming override.

        Returns:
            The block's variable indices and its variables in key order.
        """
        namer = name_fn or _default_var_name
        start = len(self._vars)
        created = [self.add_binary(namer(family, key)) for key in keys]
        return range(start, start + len(created)), created

    def var(self, name: str) -> Var:
        try:
            return self._var_names[name]
        except KeyError:
            raise ModelError(f"no variable named {name!r}") from None

    def has_var(self, name: str) -> bool:
        return name in self._var_names

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self._vars)

    # ------------------------------------------------------------------
    # constraints and objective
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built with expression comparison operators.

        The constraint is lowered into the row store now, with its name
        as the row label.
        """
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "expected a Constraint (did the comparison fold to bool?)"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint.name = name
        self.pairs_row(
            list(constraint.expr.terms.items()),
            constraint.sense,
            constraint.rhs,
            constraint.name,
        )
        return constraint

    def add_terms(
        self,
        terms: Iterable[tuple[Var, float]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Add a constraint given as (var, coeff) pairs."""
        return self.add(Constraint(LinExpr.from_terms(terms), sense, rhs, name))

    def _check_ownership(self, expr: LinExpr) -> None:
        for var in expr.variables():
            if var.index >= len(self._vars) or self._vars[var.index] is not var:
                raise ModelError(
                    f"variable {var.name!r} does not belong to model {self.name!r}"
                )

    def sorted_row(
        self,
        cols: Iterable[int],
        coefs: Iterable[float],
        sense: Sense,
        rhs: float,
        label: str,
    ) -> None:
        """Append one row whose columns are already in store form.

        The caller guarantees ``cols`` is strictly increasing, every
        index is in range, and every coefficient is nonzero.  No
        per-element work is done, which is what makes constraint
        families with a known column order (e.g. two-term rows whose
        variable blocks were created in index order) O(nnz) with a tiny
        constant.
        """
        self.cols.extend(cols)
        self.data.extend(coefs)
        self._finish(sense, rhs, label)

    def pairs_row(
        self,
        pairs: list[tuple[int, float]],
        sense: Sense,
        rhs: float,
        label: str,
    ) -> None:
        """Append one row given as (col, coeff) pairs (sorted in place).

        Repeated columns are summed, and exact-zero coefficients,
        including sums that cancel, are dropped.
        """
        cols, data = self.cols, self.data
        pairs.sort()
        last_col: int | None = None
        for col, coef in pairs:
            if coef == 0.0:
                continue
            if col == last_col:
                data[-1] += coef
                if data[-1] == 0.0:
                    data.pop()
                    cols.pop()
                    last_col = None
                continue
            cols.append(col)
            data.append(coef)
            last_col = col
        self._finish(sense, rhs, label)

    def _finish(self, sense: Sense, rhs: float, label: str) -> None:
        self.indptr.append(len(self.cols))
        rhs = float(rhs)
        self.row_lb.append(-math.inf if sense is Sense.LE else rhs)
        self.row_ub.append(math.inf if sense is Sense.GE else rhs)
        self.labels.append(label)

    @property
    def num_constraints(self) -> int:
        return len(self.labels)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The stored rows as :class:`Constraint` objects, in row order."""
        views = []
        for row, label in enumerate(self.labels):
            lo, hi = self.indptr[row], self.indptr[row + 1]
            cols = self.cols[lo:hi]
            expr = LinExpr(
                dict(zip(cols, self.data[lo:hi])),
                0.0,
                {col: self._vars[col] for col in cols},
            )
            lb, ub = self.row_lb[row], self.row_ub[row]
            if lb == ub:
                sense, rhs = Sense.EQ, ub
            elif math.isinf(lb):
                sense, rhs = Sense.LE, ub
            else:
                sense, rhs = Sense.GE, lb
            views.append(Constraint(expr, sense, rhs, label))
        return tuple(views)

    def minimize(self, expr: LinExpr | Var | float) -> None:
        self._set_objective(expr, ObjectiveSense.MINIMIZE)

    def maximize(self, expr: LinExpr | Var | float) -> None:
        self._set_objective(expr, ObjectiveSense.MAXIMIZE)

    def set_objective_terms(
        self,
        cols: Sequence[int],
        coefs: Sequence[float],
        constant: float = 0.0,
        maximize: bool = False,
    ) -> None:
        """Objective from parallel index/coefficient arrays."""
        refs = {c: self._vars[c] for c in cols}
        expr = LinExpr(dict(zip(cols, coefs)), constant, refs)
        self._set_objective(
            expr,
            ObjectiveSense.MAXIMIZE if maximize else ObjectiveSense.MINIMIZE,
        )

    def _set_objective(self, expr, sense: str) -> None:
        if isinstance(expr, Var):
            expr = LinExpr.from_var(expr)
        elif isinstance(expr, (int, float)):
            expr = LinExpr(constant=float(expr))
        elif not isinstance(expr, LinExpr):
            raise ModelError("objective must be a LinExpr, Var or number")
        self._check_ownership(expr)
        self._objective = expr
        self._sense = sense

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def objective_sense(self) -> str:
        return self._sense

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> ModelStats:
        by_type = {t: 0 for t in VarType}
        for var in self._vars:
            by_type[var.vtype] += 1
        return ModelStats(
            num_vars=len(self._vars),
            num_binary=by_type[VarType.BINARY],
            num_integer=by_type[VarType.INTEGER],
            num_continuous=by_type[VarType.CONTINUOUS],
            num_constraints=self.num_constraints,
            num_nonzeros=len(self.data),
        )

    def check_assignment(self, values: dict[int, float], tol: float = 1e-6) -> list[str]:
        """List constraints/bounds violated by an assignment (for testing)."""
        violations = []
        for var in self._vars:
            val = values.get(var.index, 0.0)
            if val < var.lb - tol or val > var.ub + tol:
                violations.append(f"bound violation on {var.name}: {val}")
            if var.vtype is not VarType.CONTINUOUS and abs(val - round(val)) > tol:
                violations.append(f"integrality violation on {var.name}: {val}")
        for row, constraint in enumerate(self.constraints):
            if not constraint.is_satisfied(values, tol):
                label = constraint.name or f"#{row}"
                violations.append(f"constraint {label} violated")
        return violations

    def objective_value(self, values: dict[int, float]) -> float:
        """Evaluate the objective expression under an assignment."""
        return self._objective.constant + sum(
            coeff * values.get(idx, 0.0) for idx, coeff in self._objective.terms.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Model({self.name!r}, vars={s.num_vars}, "
            f"constraints={s.num_constraints})"
        )
