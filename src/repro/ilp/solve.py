"""Backend dispatch for solving compiled forms."""

from __future__ import annotations

from .bnb import solve_bnb_form
from .highs_backend import solve_highs_form
from .standard_form import StandardForm
from .status import Solution

BACKENDS = ("highs", "bnb")


def solve_form(
    form: StandardForm,
    backend: str = "highs",
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> Solution:
    """Solve a compiled :class:`StandardForm` with the selected backend.

    Callers compile a model once with
    :func:`~repro.ilp.standard_form.compile_model` and share the form
    across the audit and (portfolio) backend stages.

    Args:
        form: MILP to solve.
        backend: ``"highs"`` (SciPy/HiGHS, the Gurobi stand-in) or
            ``"bnb"`` (the repo's own branch-and-bound).
        time_limit: wall-clock budget in seconds.
        mip_rel_gap: relative gap stop (HiGHS only; 1.0 ~= feasibility mode).

    Raises:
        ValueError: for an unknown backend name.
    """
    if backend == "highs":
        return solve_highs_form(form, time_limit=time_limit, mip_rel_gap=mip_rel_gap)
    if backend == "bnb":
        return solve_bnb_form(form, time_limit=time_limit)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
