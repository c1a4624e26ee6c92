"""Mapping service layer: cached, budgeted, observable mapping jobs.

Turns the one-shot ``map``/``sweep`` pipeline into a serviceable job
layer (the ROADMAP's production north star):

* :mod:`repro.service.fingerprint` — canonical, deterministic content
  hashes of (architecture module tree, DFG, context count, mapper
  config) that key every request;
* :mod:`repro.service.cache` — an on-disk, append-only JSONL store of
  finished verdicts (round-tripping serialized mappings) addressed by
  those fingerprints;
* :mod:`repro.service.portfolio` — a sequential solver escalation
  ladder (greedy -> sa -> ilp/highs) with per-stage
  deadlines, retry-with-larger-budget and graceful degradation;
* :mod:`repro.service.telemetry` — a lightweight event bus emitting
  per-phase JSONL events consumed by ``repro-cgra service stats``;
* :mod:`repro.service.core` — :class:`MappingService`, which ties the
  four together behind one ``map_request`` entry point.
"""

from .cache import CacheEntry, CacheError, MappingCache
from .core import MapRequest, MappingService, ServiceResult
from .fingerprint import (
    canonical_dfg,
    canonical_module,
    fingerprint_document,
    fingerprint_request,
)
from .portfolio import (
    PortfolioConfig,
    PortfolioOutcome,
    StageAttempt,
    StageSpec,
    default_ladder,
    run_portfolio,
    single_stage,
)
from .telemetry import (
    EventBus,
    EventLog,
    JsonlWriter,
    TelemetryEvent,
    read_events,
    summarize_events,
)

__all__ = [
    "CacheEntry",
    "CacheError",
    "EventBus",
    "EventLog",
    "JsonlWriter",
    "MapRequest",
    "MappingCache",
    "MappingService",
    "PortfolioConfig",
    "PortfolioOutcome",
    "ServiceResult",
    "StageAttempt",
    "StageSpec",
    "TelemetryEvent",
    "canonical_dfg",
    "canonical_module",
    "default_ladder",
    "fingerprint_document",
    "fingerprint_request",
    "read_events",
    "run_portfolio",
    "single_stage",
    "summarize_events",
]
