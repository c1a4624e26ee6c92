"""repro — an architecture-agnostic ILP approach to CGRA mapping.

A full reproduction of Chin & Anderson, "An Architecture-Agnostic Integer
Linear Programming Approach to CGRA Mapping" (DAC 2018), including every
substrate the paper relies on:

* :mod:`repro.dfg` — application data-flow graphs (sec. 3.1);
* :mod:`repro.arch` — generic CGRA architecture modeling and an XML ADL
  (the CGRA-ME-style front end), plus the paper's 8 test architectures;
* :mod:`repro.mrrg` — Modulo Routing Resource Graph generation (sec. 3.2);
* :mod:`repro.ilp` — a self-contained ILP substrate (modeling layer,
  HiGHS backend and a from-scratch branch-and-bound solver) standing in
  for Gurobi;
* :mod:`repro.mapper` — the ILP mapper (sec. 4), the simulated-annealing
  baseline and an independent mapping verifier;
* :mod:`repro.kernels` — the 19 Table 1 benchmarks;
* :mod:`repro.explore` — the evaluation harness regenerating Tables 1-2
  and Fig. 8.

Quickstart::

    from repro import quick_map
    result = quick_map("2x2-f", "homogeneous", "orthogonal", contexts=1)
    print(result.status, result.mapping.summary())
"""

from . import arch, dfg, explore, ilp, kernels, mapper, mrrg
from ._version import __version__
from .arch import paper_architecture
from .kernels import kernel
from .mapper import (
    ILPMapper,
    ILPMapperOptions,
    MapResult,
    MapStatus,
    Mapping,
    SAMapper,
    SAMapperOptions,
    verify,
)
from .mrrg import build_mrrg_from_module, prune


def quick_map(
    benchmark: str,
    fb_style: str = "homogeneous",
    interconnect: str = "orthogonal",
    contexts: int = 1,
    rows: int = 4,
    cols: int = 4,
    time_limit: float | None = 120.0,
    feasibility_only: bool = True,
) -> MapResult:
    """Map a named benchmark onto one of the paper's architectures.

    Args:
        benchmark: a Table 1 benchmark name (see ``repro.kernels``).
        fb_style: "homogeneous" or "heterogeneous".
        interconnect: "orthogonal" or "diagonal".
        contexts: execution contexts (the MRRG initiation interval).
        rows/cols: grid size (the paper uses 4x4).
        time_limit: solver budget in seconds.
        feasibility_only: stop at the first feasible mapping instead of
            proving routing-cost optimality.

    Returns:
        The ILP mapper's :class:`~repro.mapper.MapResult`.
    """
    dfg_ = kernel(benchmark)
    top = paper_architecture(fb_style, interconnect, rows=rows, cols=cols)
    mrrg_ = mrrg.MRRGFactory(top).mrrg(contexts)
    options = ILPMapperOptions(
        time_limit=time_limit,
        mip_rel_gap=1.0 if feasibility_only else None,
    )
    return ILPMapper(options).map(dfg_, mrrg_)


__all__ = [
    "ILPMapper",
    "ILPMapperOptions",
    "MapResult",
    "MapStatus",
    "Mapping",
    "SAMapper",
    "SAMapperOptions",
    "__version__",
    "arch",
    "build_mrrg_from_module",
    "dfg",
    "explore",
    "ilp",
    "kernel",
    "kernels",
    "mapper",
    "mrrg",
    "paper_architecture",
    "prune",
    "quick_map",
    "verify",
]
