"""MILP model container.

A :class:`Model` owns variables, constraints and an objective.  It is
backend-independent: ``compile_model`` lowers it to a ``StandardForm``,
which ``repro.ilp.solve`` dispatches to a concrete solver (HiGHS via SciPy,
or the pure-Python branch-and-bound in ``repro.ilp.bnb``).

Rows can be added through two surfaces:

* the **legacy per-row API** (:meth:`Model.add` / :meth:`Model.add_terms`)
  building one :class:`~repro.ilp.expr.Constraint` per row — convenient
  for small hand-written models and kept object-for-object compatible;
* the **block API** (:meth:`Model.add_var_block` /
  :meth:`Model.add_rows`) from :mod:`repro.ilp.blocks`, which stores rows
  directly as family-tagged sparse triplets and is what the CGRA
  formulation builder emits through.

Both populate the same ordered row sequence; ``compile_model`` lowers
block rows with O(nnz) array concatenation and legacy rows with the
original per-``LinExpr`` walk.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

from .blocks import BlockEmitter, RowBlock, VarBlock
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


class _LegacySegment:
    """A run of per-row constraints added through the legacy API."""

    __slots__ = ("constraints",)

    def __init__(self) -> None:
        self.constraints: list[Constraint] = []


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
        # Ordered row storage: legacy segments and row blocks interleave
        # in creation order; global row order is segment order then
        # within-segment emission order.
        self._segments: list[RowBlock | _LegacySegment] = []
        self._objective: LinExpr = LinExpr()
        self._sense: str = ObjectiveSense.MINIMIZE
        self._constraint_cache: tuple[Constraint, ...] | None = None
        self._constraint_cache_rows: int = -1

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
        self,
        family: str,
        keys: Iterable,
        lb: float = 0.0,
        ub: float = 1.0,
        vtype: VarType = VarType.BINARY,
        name_fn=None,
    ) -> tuple[VarBlock, list[Var]]:
        """Create one variable per key as a named contiguous block.

        Args:
            family: block name; variable names default to
                ``family[k0][k1]...`` for tuple keys, ``family[key]``
                otherwise.
            keys: per-variable keys, in emission order (must be
                deterministic — the block records them for extraction).
            lb/ub/vtype: shared domain (defaults to binary).
            name_fn: optional ``(family, key) -> str`` naming override.

        Returns:
            The :class:`VarBlock` and the created variables in key order.
        """
        namer = name_fn or _default_var_name
        start = len(self._vars)
        created = [
            self.add_var(namer(family, key), lb, ub, vtype) for key in keys
        ]
        block = VarBlock(
            name=family,
            start=start,
            size=len(created),
            vtype=vtype,
            keys=tuple(keys) if not isinstance(keys, tuple) else keys,
        )
        # `keys` may be a one-shot iterable consumed by the comprehension;
        # rebuild from the created variable names if so.
        if len(block.keys) != len(created):
            block = dataclasses.replace(
                block, keys=tuple(v.name for v in created)
            )
        return block, created

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
    def _legacy_segment(self) -> _LegacySegment:
        if self._segments and isinstance(self._segments[-1], _LegacySegment):
            return self._segments[-1]
        segment = _LegacySegment()
        self._segments.append(segment)
        return segment

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built with expression comparison operators."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "expected a Constraint (did the comparison fold to bool?)"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint.name = name
        self._legacy_segment().constraints.append(constraint)
        return constraint

    def add_terms(
        self,
        terms: Iterable[tuple[Var, float]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Fast-path constraint construction from (var, coeff) pairs."""
        constraint = Constraint(LinExpr.from_terms(terms), sense, rhs, name)
        self._check_ownership(constraint.expr)
        self._legacy_segment().constraints.append(constraint)
        return constraint

    def add_rows(self, family: str) -> BlockEmitter:
        """Open a new family-tagged row block and return its emitter.

        Rows appended through the emitter occupy the global row positions
        following every row added before this call; interleave multiple
        emitters only if that global order is intended.
        """
        if not family:
            raise ModelError("row-block family must be non-empty")
        block = RowBlock(family)
        self._segments.append(block)
        return BlockEmitter(block, lambda: len(self._vars))

    def _check_ownership(self, expr: LinExpr) -> None:
        for var in expr.variables():
            if var.index >= len(self._vars) or self._vars[var.index] is not var:
                raise ModelError(
                    f"variable {var.name!r} does not belong to model {self.name!r}"
                )

    @property
    def row_segments(self) -> tuple:
        """The ordered row storage (legacy segments and row blocks)."""
        return tuple(self._segments)

    @property
    def num_constraints(self) -> int:
        return sum(
            len(seg.constraints) if isinstance(seg, _LegacySegment) else seg.num_rows
            for seg in self._segments
        )

    def _materialize(self, block: RowBlock) -> list[Constraint]:
        """Build Constraint views of a row block (for legacy consumers)."""
        constraints = []
        for row in range(block.num_rows):
            lo, hi = block.indptr[row], block.indptr[row + 1]
            refs = {c: self._vars[c] for c in block.cols[lo:hi]}
            expr = LinExpr(
                dict(zip(block.cols[lo:hi], block.data[lo:hi])), 0.0, refs
            )
            sense, rhs = block.row_sense_rhs(row)
            constraints.append(Constraint(expr, sense, rhs, block.labels[row]))
        return constraints

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        num_rows = self.num_constraints
        if (
            self._constraint_cache is None
            or self._constraint_cache_rows != num_rows
        ):
            rows: list[Constraint] = []
            for segment in self._segments:
                if isinstance(segment, _LegacySegment):
                    rows.extend(segment.constraints)
                else:
                    rows.extend(self._materialize(segment))
            self._constraint_cache = tuple(rows)
            self._constraint_cache_rows = num_rows
        return self._constraint_cache

    def row_labels(self) -> list[str]:
        """Per-row diagnostic labels in global row order."""
        labels: list[str] = []
        for segment in self._segments:
            if isinstance(segment, _LegacySegment):
                labels.extend(c.name for c in segment.constraints)
            else:
                labels.extend(segment.labels)
        return labels

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
        """Block-style objective: parallel index/coefficient arrays."""
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
        nnz = 0
        for segment in self._segments:
            if isinstance(segment, _LegacySegment):
                nnz += sum(len(c.expr.terms) for c in segment.constraints)
            else:
                nnz += segment.num_nonzeros
        by_type = {t: 0 for t in VarType}
        for var in self._vars:
            by_type[var.vtype] += 1
        return ModelStats(
            num_vars=len(self._vars),
            num_binary=by_type[VarType.BINARY],
            num_integer=by_type[VarType.INTEGER],
            num_continuous=by_type[VarType.CONTINUOUS],
            num_constraints=self.num_constraints,
            num_nonzeros=nnz,
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
        row = 0
        for segment in self._segments:
            if isinstance(segment, _LegacySegment):
                for constraint in segment.constraints:
                    if not constraint.is_satisfied(values, tol):
                        label = constraint.name or f"#{row}"
                        violations.append(f"constraint {label} violated")
                    row += 1
            else:
                for local in range(segment.num_rows):
                    lo, hi = segment.indptr[local], segment.indptr[local + 1]
                    lhs = sum(
                        coeff * values.get(col, 0.0)
                        for col, coeff in zip(
                            segment.cols[lo:hi], segment.data[lo:hi]
                        )
                    )
                    if not (
                        segment.lb[local] - tol <= lhs <= segment.ub[local] + tol
                    ):
                        label = segment.labels[local] or f"#{row}"
                        violations.append(f"constraint {label} violated")
                    row += 1
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
