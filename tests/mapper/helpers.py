"""Test helpers: the paper's Fig. 4 MRRG fragments, a form digest and
the unscreened exact verdict."""

import hashlib
import json

import numpy as np

from repro.ilp.solve import solve_form
from repro.ilp.standard_form import compile_model
from repro.ilp.status import SolveStatus
from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
from repro.mrrg.fragments import (  # noqa: F401
    MRRGCraft,
    crossed_operand_mrrg,
    mrrg_a,
    mrrg_c,
    mrrg_loop,
)


def form_digest(form) -> str:
    """SHA-256 of every solver- and audit-visible part of a StandardForm.

    Arrays are cast to little-endian int64/float64 first, so the digest
    does not depend on the index dtype scipy picks or on the platform.
    Each part is length-prefixed, so no two different forms share the
    byte stream.
    """
    ints = "<i8"
    floats = "<f8"
    parts = [
        np.asarray(form.A.indptr, dtype=ints),
        np.asarray(form.A.indices, dtype=ints),
        np.asarray(form.A.data, dtype=floats),
        np.asarray(form.row_lb, dtype=floats),
        np.asarray(form.row_ub, dtype=floats),
        np.asarray(form.var_lb, dtype=floats),
        np.asarray(form.var_ub, dtype=floats),
        np.asarray(form.c, dtype=floats),
        np.asarray([form.c0], dtype=floats),
        np.asarray(form.integrality, dtype=ints),
    ]
    digest = hashlib.sha256()
    for part in parts:
        data = part.tobytes()
        digest.update(len(data).to_bytes(8, "little") + data)
    names = [
        list(form.row_labels or ()),
        list(form.var_names or ()),
        [[b.family, b.start, b.stop] for b in form.blocks or ()],
    ]
    for name_list in names:
        data = json.dumps(name_list).encode("utf-8")
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def exact_verdict(dfg, mrrg, time_limit: float = 60.0) -> SolveStatus:
    """The solver's verdict on (dfg, mrrg) with no screen, audit or verifier.

    Builds the feasibility formulation, compiles it and solves it
    directly: the reference that screened answers are checked against.
    A formulation infeasible by construction (an op with no legal unit)
    reads INFEASIBLE.
    """
    options = ILPMapperOptions(time_limit=time_limit, mip_rel_gap=1.0)
    formulation = build_formulation(dfg, mrrg, options)
    if formulation.infeasible_reason is not None:
        return SolveStatus.INFEASIBLE
    solution = solve_form(
        compile_model(formulation.model),
        time_limit=time_limit,
        mip_rel_gap=1.0,
    )
    return solution.status
