"""Self-contained ILP substrate (modeling layer + exact MILP solvers).

The paper solves its formulation with Gurobi.  This package provides the
equivalent substrate without external solvers: a modeling layer
(:class:`Model`, :class:`LinExpr`), a blockwise emission API
(:mod:`repro.ilp.blocks`) for compiled O(nnz) lowering, a compiler to
matrix standard form, a HiGHS backend through
:func:`scipy.optimize.milp`, and a from-scratch branch-and-bound solver
for cross-checking and full inspectability.  Presolve and the backends
take only a :class:`StandardForm`: a model is compiled once with
:func:`compile_model` and the form is shared across audit and solve
stages.
"""

from .blocks import BlockEmitter, BlockError, BlockInfo, RowBlock, VarBlock
from .bnb import solve_bnb_form
from .expr import Constraint, LinExpr, Sense, Var, VarType, lin_sum
from .highs_backend import solve_highs_form
from .model import Model, ModelError, ModelStats
from .presolve import FormPresolveResult, presolve_form, solve_form_with_presolve
from .solve import BACKENDS, solve_form
from .standard_form import StandardForm, compile_model
from .status import Solution, SolveStatus

__all__ = [
    "BACKENDS",
    "BlockEmitter",
    "BlockError",
    "BlockInfo",
    "Constraint",
    "FormPresolveResult",
    "LinExpr",
    "Model",
    "ModelError",
    "ModelStats",
    "RowBlock",
    "Sense",
    "Solution",
    "SolveStatus",
    "StandardForm",
    "Var",
    "VarBlock",
    "VarType",
    "compile_model",
    "lin_sum",
    "presolve_form",
    "solve_bnb_form",
    "solve_form",
    "solve_form_with_presolve",
    "solve_highs_form",
]
