"""Solver status and solution types shared by all ILP backends."""

from __future__ import annotations

import dataclasses
import enum

from .expr import Var


class SolveStatus(enum.Enum):
    """Outcome of a MILP solve.

    ``OPTIMAL`` and ``INFEASIBLE`` are *proofs* — the property the paper
    leverages over heuristic mappers.  ``FEASIBLE`` means an incumbent was
    found but optimality was not proven (e.g. gap/limit stop); ``TIMEOUT``
    means the budget expired with neither a solution nor an infeasibility
    proof (rendered as ``T`` in Table 2).
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    @property
    def is_proof(self) -> bool:
        """Whether the verdict is definitive (optimal or proven infeasible)."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


@dataclasses.dataclass
class Solution:
    """Result of solving a model.

    Attributes:
        status: solve outcome.
        objective: objective value of the incumbent (None without one).
        values: var-index -> value for the incumbent (empty without one).
        wall_time: seconds spent in the backend.
        backend: backend identifier ("highs" or "bnb").
        nodes: branch-and-bound nodes explored (None if unreported).
        message: backend-specific detail, useful for ERROR status.
    """

    status: SolveStatus
    objective: float | None = None
    values: dict[int, float] = dataclasses.field(default_factory=dict)
    wall_time: float = 0.0
    backend: str = ""
    nodes: int | None = None
    message: str = ""

    def value(self, var: Var) -> float:
        """Value of ``var`` in the incumbent (0.0 if absent)."""
        return self.values.get(var.index, 0.0)

    def value_int(self, var: Var) -> int:
        """Rounded integer value of ``var`` in the incumbent."""
        return round(self.value(var))

    def is_set(self, var: Var, tol: float = 1e-6) -> bool:
        """True when a binary variable takes value 1 in the incumbent."""
        return self.value(var) > 1.0 - tol
