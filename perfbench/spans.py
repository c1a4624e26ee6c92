"""Span tracing for the traced benchmark run, recorded from the outside.

Nothing under ``src/`` knows about these spans: :class:`Tracer` replaces
each layer's public entry points *at the import site the pipeline calls
them through* (e.g. ``repro.mapper.ilp_mapper.solve_form``, not
``repro.ilp.solve.solve_form``) with a wrapper that records a span, and
puts the originals back on :meth:`Tracer.uninstall`.  Spans are kept in
memory and written out once, when the run ends.

A span's *self time* is its duration minus the time its direct child
spans cover.  Everything runs on one thread, so children are sequential
and never overlap; :func:`check_invariants` enforces that a parent always
outlasts the sum of its children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from typing import Any

from repro.mapper.base import MapStatus


@dataclasses.dataclass
class Span:
    """One recorded call.

    Attributes:
        id/parent: span identifiers (parent None for a request root).
        request: request id shared by every span of one request.
        key: the metric family the span feeds (``solve``, ``cache.get``...).
        site: where the wrapper sits, ``module:attribute``.
        counted: whether the span counts in ``<key>.calls``.
        start/end: ``time.perf_counter_ns`` readings.
        attrs: outcome facts read from the call (status, sizes...).
        error: exception class name when the call raised.
    """

    id: int
    parent: int | None
    request: str
    key: str
    site: str
    counted: bool
    start: int
    end: int = 0
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


# ----------------------------------------------------------------------
# what each wrapped call reports about its outcome
# ----------------------------------------------------------------------
def _status(_args, _kwargs, result) -> dict[str, Any]:
    return {"status": result.status.value}


def _refuted(args, kwargs, result) -> dict[str, Any]:
    mrrg = args[1] if len(args) > 1 else kwargs["mrrg"]
    return {"refuted": result is not None, "ii": mrrg.ii}


def _found(_args, _kwargs, result) -> dict[str, Any]:
    return {"hit": result is not None}


def _nodes(_args, _kwargs, result) -> dict[str, Any]:
    return {"nodes": len(result)}


def _form_size(_args, _kwargs, result) -> dict[str, Any]:
    return {"rows": int(result.num_rows), "nnz": int(result.A.nnz)}


def _issues(_args, _kwargs, result) -> dict[str, Any]:
    return {"issues": len(result)}


def _answer(_args, _kwargs, result) -> dict[str, Any]:
    return {
        "answered_by": "cache" if result.cache_hit else result.stage,
        "status": result.result.status.value,
    }


def _search(_args, _kwargs, result) -> dict[str, Any]:
    return {
        "iis_tried": len(result.attempts),
        "iis_screened": len(result.screened_iis),
    }


Describe = Callable[[tuple, dict, Any], dict[str, Any]]

#: (module, attribute path, metric key, counted, describe).  Each row is
#: one import site the pipeline calls a layer through; a layer reached
#: through several modules is wrapped at each of them.
SITES: tuple[tuple[str, str, str, bool, Describe | None], ...] = (
    ("repro.frontend.compile", "compile_source", "frontend.compile", True, None),
    ("repro.frontend.verify", "verify_lowering", "frontend.oracle", True, None),
    ("repro.service.core", "fingerprint_request", "fingerprint", True, None),
    # the architecture hash inside MappingService.mrrg_for
    ("repro.service.core", "canonical_module", "fingerprint", True, None),
    ("repro.service.core", "fingerprint_document", "fingerprint", False, None),
    ("repro.service.cache", "MappingCache.get", "cache.get", True, _found),
    ("repro.service.cache", "MappingCache.put", "cache.put", True, None),
    ("repro.service.core", "entry_from_result", "cache.put", False, None),
    ("repro.service.core", "result_from_entry", "cache.load", True, None),
    ("repro.service.core", "MappingService.map_request", "service", True, _answer),
    ("repro.service.core", "run_portfolio", "portfolio", True, None),
    ("repro.mrrg.build", "MRRGFactory.mrrg", "mrrg", True, _nodes),
    ("repro.mrrg.build", "build_mrrg", "mrrg.build", True, None),
    ("repro.mrrg.build", "flatten", "mrrg.build", False, None),
    ("repro.mrrg.analysis", "prune", "mrrg.build", False, None),
    ("repro.service.portfolio", "first_witness", "screen.s", True, _refuted),
    ("repro.mapper.ilp_mapper", "first_witness", "screen.s", True, _refuted),
    ("repro.service.portfolio", "first_bound_witness", "screen.b", True, _refuted),
    ("repro.mapper.ilp_mapper", "first_bound_witness", "screen.b", True, _refuted),
    ("repro.mapper.sweep", "first_bound_witness", "screen.b", True, _refuted),
    ("repro.mapper.sweep", "FormulationCache.get", "build.lookup", True, _found),
    ("repro.mapper.ilp_mapper", "build_formulation", "build", True, None),
    ("repro.mapper.ilp_mapper", "compile_model", "compile", True, _form_size),
    ("repro.mapper.ilp_mapper", "audit_form", "audit", True, None),
    ("repro.mapper.ilp_mapper", "solve_form", "solve", True, _status),
    ("repro.mapper.greedy_mapper", "GreedyMapper.map", "greedy", True, _status),
    ("repro.mapper.ilp_mapper", "extract_mapping", "extract", True, None),
    ("repro.mapper.ilp_mapper", "verify", "verify", True, _issues),
    ("repro.mapper.search", "find_min_ii", "sweep", True, _search),
    ("repro.mapper.sweep", "IISweep.run", "sweep", False, None),
    ("repro.frontend.verify", "verify_mapping", "replay", True, None),
)

#: Layers whose spans every workload of that name must produce.
EXPECTED_LAYERS: dict[str, tuple[str, ...]] = {
    "table2-ilp": (
        "fingerprint", "service", "portfolio", "mrrg", "screen.s", "screen.b",
        "build", "compile", "audit", "solve", "extract", "verify",
    ),
    "service-warm": (
        "frontend.compile", "fingerprint", "cache.get", "cache.put",
        "cache.load", "service", "portfolio", "mrrg", "screen.s", "screen.b",
        "greedy",
    ),
    "loops-verified": (
        "frontend.compile", "frontend.oracle", "sweep", "mrrg", "screen.s",
        "screen.b", "build", "compile", "audit", "solve", "extract", "verify",
        "replay",
    ),
}

#: The per-layer metrics: name -> (unit, better, the end-to-end metric
#: and workload a change in this layer should move).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "frontend.compile.calls": ("count", "lower", "latency_p50_s on service-warm; little on loops-verified"),
    "frontend.compile.self_s": ("s", "lower", "latency_p50_s on service-warm; little on loops-verified"),
    "frontend.oracle.self_s": ("s", "lower", "latency_p50_s on loops-verified (small)"),
    "fingerprint.calls": ("count", "lower", "latency_p50_s, throughput_rps on service-warm"),
    "fingerprint.self_s": ("s", "lower", "latency_p50_s, throughput_rps on service-warm"),
    "cache.get.calls": ("count", "lower", "latency_p50_s, latency_tail_s, throughput_rps on service-warm"),
    "cache.get.self_s": ("s", "lower", "latency_p50_s, latency_tail_s, throughput_rps on service-warm"),
    "cache.hit_ratio": ("ratio", "higher", "latency_p50_s, throughput_rps on service-warm"),
    "cache.stale": ("count", "lower", "latency_tail_s on service-warm"),
    "cache.put.calls": ("count", "lower", "latency_tail_s on service-warm"),
    "cache.put.self_s": ("s", "lower", "latency_tail_s on service-warm"),
    "cache.load.self_s": ("s", "lower", "latency_p50_s, throughput_rps on service-warm"),
    "service.self_s": ("s", "lower", "latency_p50_s on service-warm"),
    "portfolio.self_s": ("s", "lower", "latency_p50_s on service-warm"),
    "portfolio.answered_by.cache": ("count", "higher", "latency_p50_s on service-warm"),
    "portfolio.answered_by.pre-audit": ("count", "higher", "latency_p50_s on service-warm writes"),
    "portfolio.answered_by.bounds-screen": ("count", "higher", "latency_p50_s on service-warm writes"),
    "portfolio.answered_by.greedy": ("count", "higher", "setup_s on service-warm"),
    "portfolio.answered_by.ilp-highs": ("count", "lower", "throughput_rps on table2-ilp"),
    "mrrg.calls": ("count", "lower", "setup_s on table2-ilp, service-warm; latency_p50_s on loops-verified"),
    "mrrg.builds": ("count", "lower", "setup_s on table2-ilp, service-warm; latency_p50_s on loops-verified"),
    "mrrg.build.self_s": ("s", "lower", "setup_s on table2-ilp, service-warm; latency_p50_s on loops-verified"),
    "mrrg.nodes": ("count", "lower", "latency_p50_s on table2-ilp, loops-verified"),
    "screen.s.calls": ("count", "lower", "latency_p50_s on service-warm writes; small elsewhere"),
    "screen.s.self_s": ("s", "lower", "latency_p50_s on service-warm writes; small elsewhere"),
    "screen.b.calls": ("count", "lower", "latency_p50_s on service-warm writes; small elsewhere"),
    "screen.b.self_s": ("s", "lower", "latency_p50_s on service-warm writes; small elsewhere"),
    "screen.refuted_ratio": ("ratio", "higher", "latency_p50_s on service-warm writes"),
    "screen.per_attempt": ("ratio", "lower", "latency_p50_s on table2-ilp, loops-verified"),
    "build.calls": ("count", "lower", "latency_p50_s, throughput_rps on table2-ilp"),
    "build.self_s": ("s", "lower", "latency_p50_s, throughput_rps on table2-ilp (most at II=2)"),
    "build.rows": ("count", "lower", "latency_p50_s on table2-ilp"),
    "build.nnz": ("count", "lower", "latency_p50_s on table2-ilp"),
    "build.reuse_ratio": ("ratio", "higher", "latency_p50_s on table2-ilp"),
    "compile.calls": ("count", "lower", "latency_p50_s, throughput_rps on table2-ilp"),
    "compile.self_s": ("s", "lower", "latency_p50_s, throughput_rps on table2-ilp"),
    "audit.calls": ("count", "lower", "latency_p50_s, throughput_rps on table2-ilp"),
    "audit.self_s": ("s", "lower", "latency_p50_s, throughput_rps on table2-ilp"),
    "solve.calls": ("count", "lower", "throughput_rps, latencies, decided_frac on table2-ilp, loops-verified"),
    "solve.self_s": ("s", "lower", "throughput_rps, latencies, decided_frac on table2-ilp, loops-verified"),
    "solve.decided_ratio": ("ratio", "higher", "decided_frac on table2-ilp, loops-verified"),
    "solve.timeouts": ("count", "lower", "decided_frac, latency_tail_s on table2-ilp, loops-verified"),
    "greedy.calls": ("count", "lower", "setup_s on service-warm"),
    "greedy.self_s": ("s", "lower", "setup_s on service-warm"),
    "greedy.mapped_ratio": ("ratio", "higher", "setup_s on service-warm"),
    "extract.calls": ("count", "lower", "latency_p50_s on table2-ilp"),
    "extract.self_s": ("s", "lower", "latency_p50_s on table2-ilp"),
    "verify.calls": ("count", "lower", "latency_p50_s on table2-ilp"),
    "verify.self_s": ("s", "lower", "latency_p50_s on table2-ilp"),
    "verify.failures": ("count", "lower", "decided_frac on every workload"),
    "sweep.iis_tried": ("count", "lower", "latency_p50_s on loops-verified"),
    "sweep.iis_screened": ("count", "higher", "latency_p50_s on loops-verified"),
    "sweep.self_s": ("s", "lower", "latency_p50_s on loops-verified"),
    "replay.calls": ("count", "lower", "latency_p50_s on loops-verified"),
    "replay.self_s": ("s", "lower", "latency_p50_s on loops-verified"),
    "replay.failures": ("count", "lower", "decided_frac on loops-verified"),
    "trace.overhead_frac": ("ratio", "lower", "none (cost of tracing itself)"),
}

_SOLVE_DECIDED = {"optimal", "feasible", "infeasible"}


def _resolve(path: str, attr: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(path)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around the calls listed in :data:`SITES`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for path, attr, key, counted, describe in SITES:
            owner, name = _resolve(path, attr)
            original = owner.__dict__[name]
            site = f"{path}:{attr}"
            setattr(owner, name, self._wrap(original, key, site, counted, describe))
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _open(self, key: str, site: str, counted: bool) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            request=self.request,
            key=key,
            site=site,
            counted=counted,
            start=time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, key: str, site: str, counted: bool, describe):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(key, site, counted)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- request roots --------------------------------------------------
    @contextlib.contextmanager
    def request_span(self, request_id: str):
        """The root span of one benchmark request."""
        self.request = request_id
        span = self._open("request", "perfbench", False)
        try:
            yield span
        finally:
            self._close(span)
            self.request = "setup"

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span), sort_keys=True))
                handle.write("\n")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> list[int]:
    """Self time (ns) of every span, indexed like ``spans``."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[span.id] for span in spans]


def check_invariants(spans: list[Span], workload: str) -> list[str]:
    """Problems with the trace: a child outlasting its parent, or an
    expected layer that never appeared."""
    problems = []
    for span, own in zip(spans, self_times(spans)):
        if own < 0:
            problems.append(
                f"span {span.id} ({span.site}, request {span.request}): "
                f"children cover {span.duration - own} ns of {span.duration} ns"
            )
    seen = {span.key for span in spans}
    for layer in EXPECTED_LAYERS[workload]:
        if layer not in seen:
            problems.append(f"layer {layer!r} never appeared on {workload}")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced run."""
    own = self_times(spans)
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    by_key: defaultdict[str, list[Span]] = defaultdict(list)
    built_parents = set()
    for span, ns in zip(spans, own):
        by_key[span.key].append(span)
        self_s[span.key] += ns / 1e9
        if span.counted:
            calls[span.key] += 1
        if span.key == "mrrg.build" and span.counted:
            built_parents.add(span.parent)

    def attr_count(key: str, name: str, value: Any = True) -> int:
        return sum(1 for s in by_key[key] if s.attrs.get(name) == value)

    screens = by_key["screen.s"] + by_key["screen.b"]
    attempts = {(s.request, s.attrs["ii"]) for s in screens}
    solves = by_key["solve"]
    greedy = by_key["greedy"]
    answered = Counter(s.attrs.get("answered_by") for s in by_key["service"])
    lookups = by_key["build.lookup"]
    out: dict[str, float] = {
        "frontend.compile.calls": calls["frontend.compile"],
        "frontend.compile.self_s": self_s["frontend.compile"],
        "frontend.oracle.self_s": self_s["frontend.oracle"],
        "fingerprint.calls": calls["fingerprint"],
        "fingerprint.self_s": self_s["fingerprint"],
        "cache.get.calls": calls["cache.get"],
        "cache.get.self_s": self_s["cache.get"],
        "cache.hit_ratio": _ratio(attr_count("cache.get", "hit"), calls["cache.get"]),
        "cache.stale": sum(1 for s in by_key["cache.load"] if s.error),
        "cache.put.calls": calls["cache.put"],
        "cache.put.self_s": self_s["cache.put"],
        "cache.load.self_s": self_s["cache.load"],
        "service.self_s": self_s["service"],
        "portfolio.self_s": self_s["portfolio"],
        "mrrg.calls": calls["mrrg"],
        "mrrg.builds": calls["mrrg.build"],
        "mrrg.build.self_s": self_s["mrrg.build"],
        "mrrg.nodes": sum(
            s.attrs["nodes"] for s in by_key["mrrg"] if s.id in built_parents
        ),
        "screen.s.calls": calls["screen.s"],
        "screen.s.self_s": self_s["screen.s"],
        "screen.b.calls": calls["screen.b"],
        "screen.b.self_s": self_s["screen.b"],
        "screen.refuted_ratio": _ratio(
            sum(1 for s in screens if s.attrs["refuted"]), len(screens)
        ),
        "screen.per_attempt": _ratio(len(screens), len(attempts)),
        "build.calls": calls["build"],
        "build.self_s": self_s["build"] + self_s["build.lookup"],
        "build.rows": sum(s.attrs["rows"] for s in by_key["compile"]),
        "build.nnz": sum(s.attrs["nnz"] for s in by_key["compile"]),
        "build.reuse_ratio": _ratio(attr_count("build.lookup", "hit"), len(lookups)),
        "compile.calls": calls["compile"],
        "compile.self_s": self_s["compile"],
        "audit.calls": calls["audit"],
        "audit.self_s": self_s["audit"],
        "solve.calls": calls["solve"],
        "solve.self_s": self_s["solve"],
        "solve.decided_ratio": _ratio(
            sum(1 for s in solves if s.attrs.get("status") in _SOLVE_DECIDED),
            len(solves),
        ),
        "solve.timeouts": attr_count("solve", "status", "timeout"),
        "greedy.calls": calls["greedy"],
        "greedy.self_s": self_s["greedy"],
        "greedy.mapped_ratio": _ratio(
            attr_count("greedy", "status", MapStatus.MAPPED.value), len(greedy)
        ),
        "extract.calls": calls["extract"],
        "extract.self_s": self_s["extract"],
        "verify.calls": calls["verify"],
        "verify.self_s": self_s["verify"],
        "verify.failures": sum(
            1 for s in by_key["verify"] if s.error or s.attrs.get("issues")
        ),
        "sweep.iis_tried": sum(s.attrs.get("iis_tried", 0) for s in by_key["sweep"]),
        "sweep.iis_screened": sum(
            s.attrs.get("iis_screened", 0) for s in by_key["sweep"]
        ),
        "sweep.self_s": self_s["sweep"],
        "replay.calls": calls["replay"],
        "replay.self_s": self_s["replay"],
        "replay.failures": sum(1 for s in by_key["replay"] if s.error),
        "trace.overhead_frac": overhead_frac,
    }
    for stage in ("cache", "pre-audit", "bounds-screen", "greedy", "ilp-highs"):
        out[f"portfolio.answered_by.{stage}"] = answered[stage]
    return out


def request_rows(spans: list[Span]) -> dict[str, dict[str, Any]]:
    """Per request id (``setup`` included): wall time, self time per
    layer, and the work counts that a same-seed rerun must repeat."""
    own = self_times(spans)
    rows: dict[str, dict[str, Any]] = {}
    for span, ns in zip(spans, own):
        row = rows.setdefault(span.request, {"wall_s": 0.0, "self_s": {}, "work": Counter()})
        if span.key == "request":
            row["wall_s"] = span.duration / 1e9
        row["self_s"][span.key] = row["self_s"].get(span.key, 0.0) + ns / 1e9
        work = row["work"]
        if span.counted:
            work[f"{span.key}.calls"] += 1
        for name in ("rows", "nnz", "nodes"):
            if name in span.attrs:
                work[f"{span.key}.{name}"] += span.attrs[name]
    for row in rows.values():
        row["work"] = dict(sorted(row["work"].items()))
    return rows
