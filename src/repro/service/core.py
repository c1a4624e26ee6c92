"""The mapping service: fingerprint -> cache -> portfolio -> telemetry.

:class:`MappingService` is the single entry point the CLI and the sweep
runner call per mapping job.  For every :class:`MapRequest` it

1. fingerprints (architecture module tree, DFG, context count, portfolio
   config) — see :mod:`repro.service.fingerprint`; the architecture is
   canonicalized once per edit, not once per request (an
   :class:`~repro.service.fingerprint.ArchKey` memo per architecture
   object, valid while no definition it reaches changes revision);
2. serves a cache hit when the store already holds that fingerprint,
   re-validating the stored mapping against the live MRRG (a corrupt or
   stale entry degrades to a miss, never to a crash);
3. otherwise builds the pruned MRRG (memoized in-process per
   architecture x context count, so sweeps pay it once per column) and
   runs the solver portfolio;
4. stores definitive verdicts (mapped, or proven infeasible) back into
   the cache;
5. emits structured telemetry for every phase throughout.
"""

from __future__ import annotations

import dataclasses
import weakref
from pathlib import Path

from ..arch.module import Module
from ..dfg.graph import DFG
from ..mapper.base import MapResult, MapStatus
from ..mrrg.build import MRRGFactory
from ..mrrg.graph import MRRG
from .cache import CacheError, MappingCache, entry_from_result, result_from_entry
from .fingerprint import (
    ArchKey,
    canonical_module,
    fingerprint_document,
    fingerprint_request,
)
from .portfolio import PortfolioConfig, run_portfolio
from .telemetry import EventBus, EventLog, JsonlWriter


@dataclasses.dataclass
class MapRequest:
    """One mapping job.

    Attributes:
        dfg: the application graph.
        arch: top module of the target architecture.
        contexts: MRRG context count (initiation interval).
        label: human-readable tag for telemetry (benchmark name etc.).
    """

    dfg: DFG
    arch: Module
    contexts: int
    label: str = ""


@dataclasses.dataclass
class ServiceResult:
    """A service answer: the verdict plus provenance.

    Attributes:
        result: the mapping verdict.
        fingerprint: request content hash.
        cache_hit: True when served from the store without solving.
        stage: portfolio stage that produced the verdict (from the cache
            entry on a hit).
        degraded: True when an exact stage timed out and the answer fell
            back to a heuristic incumbent.
    """

    result: MapResult
    fingerprint: str
    cache_hit: bool
    stage: str | None = None
    degraded: bool = False


class MappingService:
    """Serviceable mapping jobs over the one-shot pipeline."""

    def __init__(
        self,
        portfolio: PortfolioConfig | None = None,
        cache_dir: str | Path | None = None,
        telemetry_path: str | Path | None = None,
    ):
        self.portfolio = portfolio or PortfolioConfig()
        self.cache = MappingCache(cache_dir) if cache_dir is not None else None
        self.bus = EventBus()
        self.log = EventLog()
        self.bus.subscribe(self.log)
        self._writer: JsonlWriter | None = None
        if telemetry_path is not None:
            self._writer = JsonlWriter(telemetry_path)
            self.bus.subscribe(self._writer)
        # (arch fingerprint, contexts) -> pruned MRRG, shared across jobs;
        # the per-architecture factory also hoists flatten() across
        # context counts, so an II sweep flattens the module tree once.
        self._mrrgs: dict[tuple[str, int], MRRG] = {}
        self._factories: dict[str, MRRGFactory] = {}
        # architecture -> (revisions of the definitions it reaches, key).
        # The value holds no module, so a dropped architecture leaves.
        self._arch_keys: weakref.WeakKeyDictionary[
            Module, tuple[tuple[int, ...], ArchKey]
        ] = weakref.WeakKeyDictionary()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _arch_key(self, arch: Module) -> ArchKey:
        """The architecture's canonical encoding and digest, computed
        once per edit of the module tree rather than once per request."""
        revisions = tuple(
            module.revision for module in arch.referenced_modules().values()
        )
        memo = self._arch_keys.get(arch)
        if memo is not None and memo[0] == revisions:
            return memo[1]
        document = canonical_module(arch)
        key = ArchKey.of(document, fingerprint_document(document))
        self._arch_keys[arch] = (revisions, key)
        return key

    def mrrg_for(self, arch: Module, contexts: int) -> MRRG:
        """The pruned MRRG for an architecture, memoized in-process."""
        return self._mrrg(arch, self._arch_key(arch).digest, contexts)

    def _mrrg(self, arch: Module, arch_fp: str, contexts: int) -> MRRG:
        """:meth:`mrrg_for` once the architecture's hash is known."""
        key = (arch_fp, contexts)
        if key not in self._mrrgs:
            factory = self._factories.get(arch_fp)
            if factory is None:
                factory = MRRGFactory(arch)
                self._factories[arch_fp] = factory
            with self.bus.timed(
                "mrrg-build", arch=arch.name, contexts=contexts
            ) as extra:
                mrrg = factory.mrrg(contexts)
                extra["nodes"] = len(mrrg)
                extra["edges"] = mrrg.num_edges()
            self._mrrgs[key] = mrrg
        return self._mrrgs[key]

    def map_request(self, request: MapRequest) -> ServiceResult:
        """Serve one job: cache lookup, then the portfolio on a miss."""
        # One architecture key feeds both the request hash and the MRRG memo.
        arch_key = self._arch_key(request.arch)
        fingerprint = fingerprint_request(
            arch_key,
            request.dfg,
            request.contexts,
            self.portfolio.describe(),
        )
        self.bus.emit(
            "request",
            label=request.label or request.dfg.name,
            fingerprint=fingerprint,
        )

        if self.cache is not None:
            entry = self.cache.get(fingerprint)
            if entry is not None:
                mrrg = self._mrrg(request.arch, arch_key.digest, request.contexts)
                try:
                    result = result_from_entry(entry, request.dfg, mrrg)
                except CacheError as exc:
                    self.bus.emit(
                        "cache-miss",
                        fingerprint=fingerprint,
                        reason=f"stale entry: {exc}",
                    )
                else:
                    self.bus.emit(
                        "cache-hit",
                        fingerprint=fingerprint,
                        status=result.status.value,
                        stage=entry.stage,
                    )
                    return ServiceResult(
                        result=result,
                        fingerprint=fingerprint,
                        cache_hit=True,
                        stage=entry.stage,
                    )
            else:
                self.bus.emit("cache-miss", fingerprint=fingerprint)

        mrrg = self._mrrg(request.arch, arch_key.digest, request.contexts)
        outcome = run_portfolio(
            request.dfg, mrrg, self.portfolio, telemetry=self.bus
        )
        result = outcome.result

        if self.cache is not None and _cacheable(result):
            self.cache.put(
                entry_from_result(fingerprint, result, stage=outcome.stage)
            )
            self.bus.emit(
                "cache-store",
                fingerprint=fingerprint,
                status=result.status.value,
            )
        return ServiceResult(
            result=result,
            fingerprint=fingerprint,
            cache_hit=False,
            stage=outcome.stage,
            degraded=outcome.degraded,
        )


def _cacheable(result: MapResult) -> bool:
    """Only definitive verdicts enter the store.

    Timeouts and heuristic give-ups are retryable with a larger budget;
    caching them would pin a transient failure onto a permanent key.
    """
    if result.status is MapStatus.MAPPED:
        return True
    return result.status is MapStatus.INFEASIBLE and result.proven_optimal
