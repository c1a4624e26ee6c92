"""Minimum-II search: the classic modulo-scheduling driver loop.

The paper maps at a fixed context count (II = 1 or 2); the natural driver
a compiler needs is *find the smallest II at which the kernel maps* —
lower II means higher throughput ("9 of the benchmarks could still be
mapped with higher throughput (II = 1) while the other 10 would need ...
II = 2").  This module provides that loop on top of any mapper, with
per-II results preserved so architects can see where capacity runs out.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from ..arch.module import Module
from ..dfg.graph import DFG
from .base import Mapper, MapResult, MapStatus
from .ilp_mapper import ILPMapper, ILPMapperOptions
from .sweep import IISweep


@dataclasses.dataclass
class IISearchResult:
    """Outcome of a minimum-II search.

    Attributes:
        best_ii: smallest II that mapped (None if none did up to max_ii).
        result: the mapping result at ``best_ii`` (None if none mapped).
        attempts: II -> result for every II tried, in order.
        screened_iis: IIs refuted by the certified bounds prover, where
            no mapper ran (their ``attempts`` entries are synthetic
            proven-INFEASIBLE results carrying B-rule certificates).
    """

    best_ii: int | None
    result: MapResult | None
    attempts: dict[int, MapResult]
    screened_iis: tuple[int, ...] = ()

    @property
    def mapped(self) -> bool:
        return self.best_ii is not None


def find_min_ii(
    dfg: DFG,
    architecture: Module,
    max_ii: int = 4,
    mapper_factory: Callable[[], Mapper] | None = None,
    telemetry=None,
) -> IISearchResult:
    """Search II = 1..max_ii for the smallest feasible mapping.

    Infeasibility proofs at a given II do not imply infeasibility at
    larger IIs (more contexts add resources), so the search continues past
    proven-infeasible IIs; it stops early only on success.

    The loop rides the shared :class:`~repro.mapper.sweep.IISweep`
    engine: the architecture is flattened once for the whole search (not
    once per II), and the certified bounds prover
    (:mod:`repro.analyze.bounds`) refutes hopeless IIs before any
    solver runs — in effect the search starts at the proven MII.

    Args:
        dfg: the kernel to map.
        architecture: the spatial architecture module (contexts are a
            property of MRRG generation, so one module serves every II).
        max_ii: largest initiation interval to try.
        mapper_factory: creates the mapper per attempt (defaults to the
            ILP mapper in feasibility mode with a 120 s budget).
        telemetry: optional event bus forwarded to the sweep engine.

    Raises:
        ValueError: if ``max_ii`` < 1.
    """
    if max_ii < 1:
        raise ValueError("max_ii must be >= 1")
    if mapper_factory is None:
        def mapper_factory() -> Mapper:
            return ILPMapper(ILPMapperOptions(time_limit=120.0, mip_rel_gap=1.0))

    sweep = IISweep(dfg, architecture, telemetry=telemetry)
    sweep_attempts = sweep.run(max_ii, mapper_factory)
    attempts: dict[int, MapResult] = {a.ii: a.result for a in sweep_attempts}
    screened = tuple(a.ii for a in sweep_attempts if a.screened)
    last = sweep_attempts[-1]
    if last.result.status is MapStatus.MAPPED:
        return IISearchResult(
            best_ii=last.ii,
            result=last.result,
            attempts=attempts,
            screened_iis=screened,
        )
    return IISearchResult(
        best_ii=None, result=None, attempts=attempts, screened_iis=screened
    )
