"""Sweep runner: maps benchmarks across architectures (the Fig. 7 flow).

The runner materializes each architecture, generates its MRRG for the
requested context count, runs a mapper per benchmark and collects
:class:`~repro.explore.records.RunRecord` rows, from which the Table 2
matrix and the Fig. 8 comparison are rendered.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Callable, Iterable, Sequence

from ..arch.module import Module
from ..arch.testsuite import PAPER_ARCHITECTURES, PaperArch, build_paper_arch
from ..dfg.graph import DFG
from ..kernels.registry import BENCHMARK_NAMES, kernel
from ..mapper.base import Mapper
from ..mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from ..mapper.ilp_mapper import ILPMapper, ILPMapperOptions
from ..mapper.sa_mapper import SAMapper, SAMapperOptions
from ..mrrg.analysis import prune
from ..mrrg.build import build_mrrg_from_module
from ..mrrg.graph import MRRG
from .records import RunRecord, append_record, load_records


@dataclasses.dataclass
class SweepConfig:
    """What to sweep and with which budgets.

    Attributes:
        benchmarks: benchmark names (default: all of Table 1).
        architectures: architecture columns (default: all 8 of Table 2).
        time_limit: per-instance solver budget in seconds.
        rows/cols: grid size of the materialized architectures.
        progress: optional callback invoked with each finished record.
    """

    benchmarks: Sequence[str] = BENCHMARK_NAMES
    architectures: Sequence[PaperArch] = PAPER_ARCHITECTURES
    time_limit: float | None = 120.0
    rows: int = 4
    cols: int = 4
    progress: Callable[[RunRecord], None] | None = None


def build_arch_mrrg(arch: PaperArch, rows: int = 4, cols: int = 4) -> MRRG:
    """Materialize one Table 2 architecture column as a pruned MRRG."""
    top = build_paper_arch(arch, rows=rows, cols=cols)
    return prune(build_mrrg_from_module(top, arch.contexts, name=arch.key))


def default_ilp_mapper(config: SweepConfig) -> ILPMapper:
    # Table 2 needs feasibility only: a unit gap stops at the first
    # incumbent.
    return ILPMapper(
        ILPMapperOptions(time_limit=config.time_limit, mip_rel_gap=1.0)
    )


def default_sa_mapper(config: SweepConfig) -> SAMapper:
    # "Moderate parameters" per the paper's SA baseline.
    return SAMapper(
        SAMapperOptions(
            seed=7,
            time_limit=config.time_limit,
            restarts=2,
        )
    )


def default_greedy_mapper(config: SweepConfig) -> GreedyMapper:
    return GreedyMapper(
        GreedyMapperOptions(seed=7, restarts=6, time_limit=config.time_limit)
    )


def run_sweep(
    config: SweepConfig | None = None,
    mapper_factory: Callable[[SweepConfig], Mapper] | None = None,
    mapper_name: str = "ilp",
    mrrgs: dict[str, MRRG] | None = None,
    dfgs: dict[str, DFG] | None = None,
    store_path: str | None = None,
    service=None,
) -> list[RunRecord]:
    """Run one mapper over the benchmark x architecture grid.

    Args:
        config: sweep configuration (defaults reproduce Table 2's grid).
        mapper_factory: builds the mapper (defaults to the ILP mapper in
            feasibility mode).
        mapper_name: tag stored in each record ("ilp"/"sa").
        mrrgs: pre-built MRRGs keyed by architecture key (built on demand
            otherwise; pass them to share across ILP and SA sweeps).
        dfgs: pre-built DFGs keyed by benchmark name.
        store_path: JSON-lines record store.  Cells whose records already
            exist there are *not* re-solved (resumability: an interrupted
            sweep restarts where it stopped); every newly finished cell is
            appended immediately.
        service: optional :class:`repro.service.MappingService`.  When
            given, cells route through the service — result caching,
            solver portfolio and telemetry apply per cell — instead of a
            locally constructed mapper, and ``mrrgs`` is ignored (the
            service memoizes MRRGs itself).

    Returns:
        One record per (benchmark, architecture) cell, row-major in
        benchmark order — including cells restored from ``store_path``.
    """
    config = config or SweepConfig()
    if mapper_factory is None:
        factory = {
            "sa": default_sa_mapper,
            "greedy": default_greedy_mapper,
        }.get(mapper_name, default_ilp_mapper)
    else:
        factory = mapper_factory
    mrrgs = mrrgs if mrrgs is not None else {}
    dfgs = dfgs if dfgs is not None else {}

    done: dict[tuple[str, str, str], RunRecord] = {}
    if store_path is not None and os.path.exists(store_path):
        for record in load_records(store_path):
            done[record.cell] = record

    records: list[RunRecord] = []
    # One module per spatial fabric: the service shares a fabric's
    # flatten across its context counts only while the module lives.
    tops: dict[tuple[str, str], Module] = {}
    for arch in config.architectures:
        mrrg = None
        if service is None:
            if arch.key not in mrrgs:
                mrrgs[arch.key] = build_arch_mrrg(arch, config.rows, config.cols)
            mrrg = mrrgs[arch.key]
        for name in config.benchmarks:
            existing = done.get((name, arch.key, mapper_name))
            if existing is not None:
                records.append(existing)
                continue
            if name not in dfgs:
                dfgs[name] = kernel(name)
            if service is not None:
                from ..service.core import MapRequest

                spatial = (arch.fb_style, arch.interconnect)
                if spatial not in tops:
                    tops[spatial] = build_paper_arch(arch, config.rows, config.cols)
                answer = service.map_request(
                    MapRequest(
                        dfg=dfgs[name],
                        arch=tops[spatial],
                        contexts=arch.contexts,
                        label=f"{name}@{arch.key}",
                    )
                )
                result = answer.result
            else:
                mapper = factory(config)
                result = mapper.map(dfgs[name], mrrg)
            record = RunRecord.from_result(name, arch.key, mapper_name, result)
            records.append(record)
            if store_path is not None:
                append_record(record, store_path)
            if config.progress is not None:
                config.progress(record)
    return records


def compare_mappers(
    config: SweepConfig | None = None,
) -> tuple[list[RunRecord], list[RunRecord]]:
    """Run both mappers over the same grid (Fig. 8's experiment)."""
    config = config or SweepConfig()
    mrrgs: dict[str, MRRG] = {}
    dfgs: dict[str, DFG] = {}
    ilp = run_sweep(config, mapper_name="ilp", mrrgs=mrrgs, dfgs=dfgs)
    sa = run_sweep(config, mapper_name="sa", mrrgs=mrrgs, dfgs=dfgs)
    return ilp, sa


def feasible_counts(records: Iterable[RunRecord]) -> dict[str, int]:
    """Architecture key -> number of feasibly mapped benchmarks."""
    counts: dict[str, int] = {}
    for record in records:
        counts.setdefault(record.arch_key, 0)
        if record.feasible:
            counts[record.arch_key] += 1
    return counts
