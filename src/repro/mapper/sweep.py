"""Incremental II-sweep engine and the per-request formulation cache.

* :class:`FormulationCache` — shares the built *and compiled*
  formulation across repeated :meth:`ILPMapper.map` calls on the same
  (DFG, MRRG, formulation options) instance.  The portfolio keeps one
  per request, so its ``ilp-highs`` timeout retry builds and compiles
  once (route reachability is memoized on the MRRG itself, so it
  carries across option variants and screens);
* :class:`IISweep` — the engine behind
  :func:`repro.mapper.search.find_min_ii`: walks II = 1..max_ii for one
  (DFG, architecture) pair, flattening the architecture once (via
  :class:`~repro.mrrg.build.MRRGFactory`), memoizing the pruned MRRG per
  II, and refuting IIs with the certified bounds prover before any
  mapper runs.  A sweep attempts each II once, so it carries no
  formulation cache.

Cache keys are the object identities ``id(dfg)`` and ``id(mrrg)`` plus
the options'
:meth:`~repro.mapper.ilp_mapper.ILPMapperOptions.formulation_key`;
entries hold strong references to the DFG and MRRG so an id can never
be silently reused by a garbage-collected stranger.  The cache is
per-request scoped — create one where the request starts, do not
share it process-wide.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable

from ..analyze.bounds import BoundFinding, first_bound_witness
from ..arch.module import Module
from ..dfg.graph import DFG
from ..ilp.standard_form import StandardForm
from ..mrrg.build import MRRGFactory
from ..mrrg.graph import MRRG
from .base import Mapper, MapResult, MapStatus
from .ilp_mapper import Formulation, ILPMapperOptions


@dataclasses.dataclass
class _CacheEntry:
    """One cached formulation; holds strong refs to its key objects."""

    dfg: DFG
    mrrg: MRRG
    formulation: Formulation
    form: StandardForm


class FormulationCache:
    """Reuses built+compiled formulations across map() calls.

    Keyed by ``(id(dfg), id(mrrg), options.formulation_key())`` — the
    same kernel mapped onto the same MRRG object with
    formulation-equivalent options (solver backend and budgets excluded)
    yields the same model, so the portfolio's timeout retries skip
    straight to the solver.

    Attributes:
        hits/misses: lookup counters (exposed for telemetry and tests).
    """

    def __init__(self):
        self._entries: dict[tuple, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(dfg: DFG, mrrg: MRRG, options: ILPMapperOptions) -> tuple:
        return (id(dfg), id(mrrg), options.formulation_key())

    def get(
        self, dfg: DFG, mrrg: MRRG, options: ILPMapperOptions
    ) -> tuple[Formulation, StandardForm] | None:
        entry = self._entries.get(self._key(dfg, mrrg, options))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.formulation, entry.form

    def put(
        self,
        dfg: DFG,
        mrrg: MRRG,
        options: ILPMapperOptions,
        formulation: Formulation,
        form: StandardForm,
    ) -> None:
        self._entries[self._key(dfg, mrrg, options)] = _CacheEntry(
            dfg=dfg,
            mrrg=mrrg,
            formulation=formulation,
            form=form,
        )

    def __len__(self) -> int:
        return len(self._entries)


@dataclasses.dataclass
class SweepAttempt:
    """One II attempt inside a sweep.

    Attributes:
        ii/mrrg/result: the instance and its verdict.
        screened: True when the bounds prover refuted the II without
            invoking any mapper (``result`` is then a synthetic
            proven-INFEASIBLE carrying the B-rule certificate).
        finding: the refuting :class:`~repro.analyze.bounds.BoundFinding`
            when ``screened``.
    """

    ii: int
    mrrg: MRRG
    result: MapResult
    screened: bool = False
    finding: BoundFinding | None = None


class IISweep:
    """Incremental II-sweep state for one (DFG, architecture) pair.

    Flattens the architecture once and memoizes the pruned MRRG per II.

    Args:
        dfg: the kernel to map.
        architecture: the spatial architecture module.
        telemetry: optional event bus — any object with
            ``emit(kind, duration=None, **fields)``; the screen reports
            a ``bounds-screen`` event per II.
    """

    def __init__(self, dfg: DFG, architecture: Module, telemetry=None):
        self.dfg = dfg
        self.mrrgs = MRRGFactory(architecture)
        self.telemetry = telemetry

    def mrrg(self, ii: int) -> MRRG:
        """The memoized pruned MRRG at ``ii`` contexts."""
        return self.mrrgs.mrrg(ii)

    def screen(self, ii: int) -> SweepAttempt | None:
        """Run the bounds prover at ``ii``; a refutation becomes a
        synthetic proven-INFEASIBLE attempt (no mapper runs).  Its
        reachability BFS is memoized on the MRRG, which later
        formulation builds at ``ii`` share."""
        mrrg = self.mrrg(ii)
        began = time.perf_counter()
        finding = first_bound_witness(self.dfg, mrrg)
        if self.telemetry is not None:
            self.telemetry.emit(
                "bounds-screen",
                duration=time.perf_counter() - began,
                ii=ii,
                verdict="infeasible" if finding else "unknown",
                rule=finding.rule if finding else None,
            )
        if finding is None:
            return None
        result = MapResult(
            status=MapStatus.INFEASIBLE,
            proven_optimal=True,
            detail=f"bounds screen {finding.rule}: {finding.message}",
            certificate=finding.as_dict(),
        )
        return SweepAttempt(
            ii=ii, mrrg=mrrg, result=result, screened=True, finding=finding
        )

    def attempt(self, ii: int, mapper: Mapper) -> SweepAttempt:
        """Map at one II on the sweep's memoized MRRG."""
        mrrg = self.mrrg(ii)
        return SweepAttempt(ii=ii, mrrg=mrrg, result=mapper.map(self.dfg, mrrg))

    def run(
        self, max_ii: int, mapper_factory: Callable[[], Mapper]
    ) -> list[SweepAttempt]:
        """Attempt II = 1..max_ii in order, stopping at the first MAPPED.

        Infeasibility at a small II never stops the sweep — more
        contexts add resources.  Each II is first offered to the
        certified prover: a refuted II is recorded as a proven-INFEASIBLE
        attempt (with its certificate) and no mapper ever runs there.
        """
        if max_ii < 1:
            raise ValueError("max_ii must be >= 1")
        attempts: list[SweepAttempt] = []
        for ii in range(1, max_ii + 1):
            attempt = self.screen(ii) or self.attempt(ii, mapper_factory())
            attempts.append(attempt)
            if attempt.result.status is MapStatus.MAPPED:
                break
        return attempts
