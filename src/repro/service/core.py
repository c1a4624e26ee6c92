"""The mapping service: fingerprint -> cache -> portfolio -> telemetry.

:class:`MappingService` is the single entry point the CLI and the sweep
runner call per mapping job.  For every :class:`MapRequest` it

1. fingerprints (architecture module tree, DFG, context count, portfolio
   config) — see :mod:`repro.service.fingerprint`; the architecture is
   canonicalized once per edit, not once per request (a weak memo per
   architecture object holds its
   :class:`~repro.service.fingerprint.ArchKey` and
   :class:`~repro.mrrg.build.MRRGFactory`, valid while no definition it
   reaches changes revision);
2. serves a cache hit when the store already holds that fingerprint,
   re-validating the stored mapping against the live MRRG (a corrupt or
   stale entry degrades to a miss, never to a crash);
3. otherwise runs the solver portfolio on the pruned MRRG, which the
   factory builds once per context count and every live architecture
   object of the same digest shares, so sweeps pay it once per column;
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
from ..mapper.base import MapResult
from ..mrrg.build import MRRGFactory
from ..mrrg.graph import MRRG
from .cache import (
    CacheError,
    MappingCache,
    entry_from_result,
    is_definitive,
    result_from_entry,
)
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


@dataclasses.dataclass
class _ArchMemo:
    """Per architecture object: the revisions of the definitions it
    reached when hashed (stale once one moves), its key, and the MRRG
    factory it shares with every live object of its digest."""

    revisions: tuple[int, ...]
    key: ArchKey
    factory: MRRGFactory


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
        # Both maps are weak: a memo lives while its architecture object
        # does (it holds no module), and a factory while a memo holds it,
        # so an edited or dropped architecture's graphs are freed.
        self._archs: weakref.WeakKeyDictionary[Module, _ArchMemo] = (
            weakref.WeakKeyDictionary()
        )
        self._by_digest: weakref.WeakValueDictionary[str, MRRGFactory] = (
            weakref.WeakValueDictionary()
        )

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "MappingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _memo(self, arch: Module) -> _ArchMemo:
        """The architecture's key and factory, made once per edit of the
        module tree rather than once per request."""
        revisions = tuple(
            module.revision for module in arch.referenced_modules().values()
        )
        memo = self._archs.get(arch)
        if memo is None or memo.revisions != revisions:
            document = canonical_module(arch)
            key = ArchKey.of(document, fingerprint_document(document))
            factory = self._by_digest.get(key.digest)
            if factory is None:
                factory = self._by_digest[key.digest] = MRRGFactory(arch)
            memo = self._archs[arch] = _ArchMemo(revisions, key, factory)
        return memo

    def mrrg_for(self, arch: Module, contexts: int) -> MRRG:
        """The pruned MRRG of an architecture at ``contexts`` contexts."""
        return self._graph(arch, self._memo(arch), contexts)

    def _graph(self, arch: Module, memo: _ArchMemo, contexts: int) -> MRRG:
        """:meth:`mrrg_for` once the architecture's memo is known; an
        ``mrrg-build`` event reports each graph the factory builds."""
        mrrg = memo.factory.built.get(contexts)
        if mrrg is None:
            with self.bus.timed(
                "mrrg-build", arch=arch.name, contexts=contexts
            ) as extra:
                mrrg = memo.factory.mrrg(contexts)
                extra["nodes"] = len(mrrg)
                extra["edges"] = mrrg.num_edges()
        return mrrg

    def map_request(self, request: MapRequest) -> ServiceResult:
        """Serve one job: cache lookup, then the portfolio on a miss."""
        # One memo feeds both the request hash and the MRRG.
        memo = self._memo(request.arch)
        fingerprint = fingerprint_request(
            memo.key,
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
                mrrg = self._graph(request.arch, memo, request.contexts)
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

        mrrg = self._graph(request.arch, memo, request.contexts)
        outcome = run_portfolio(
            request.dfg, mrrg, self.portfolio, telemetry=self.bus
        )
        result = outcome.result

        if self.cache is not None and is_definitive(result):
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
