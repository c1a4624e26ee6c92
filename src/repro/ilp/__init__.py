"""Self-contained ILP substrate (modeling layer + exact MILP solvers).

The paper solves its formulation with Gurobi.  This package provides the
equivalent substrate without external solvers: a modeling layer
(:class:`Model`, :class:`LinExpr`) that keeps its rows once, as sparse
triplets in emission order, a compiler to matrix standard form that
converts that row store to arrays in O(nnz), a HiGHS backend through
:func:`scipy.optimize.milp` (HiGHS runs its own presolve, as Gurobi
does for the paper), and a from-scratch branch-and-bound solver for
cross-checking and full inspectability.  The backends take only a
:class:`StandardForm`: a model is compiled once with
:func:`compile_model` and the form is shared across audit and solve
stages.
"""

from .bnb import solve_bnb_form
from .expr import Constraint, LinExpr, Sense, Var, VarType, lin_sum
from .highs_backend import solve_highs_form
from .model import Model, ModelError, ModelStats
from .solve import BACKENDS, solve_form
from .standard_form import StandardForm, compile_model
from .status import Solution, SolveStatus

__all__ = [
    "BACKENDS",
    "Constraint",
    "LinExpr",
    "Model",
    "ModelError",
    "ModelStats",
    "Sense",
    "Solution",
    "SolveStatus",
    "StandardForm",
    "Var",
    "VarType",
    "compile_model",
    "lin_sum",
    "solve_bnb_form",
    "solve_form",
    "solve_highs_form",
]
